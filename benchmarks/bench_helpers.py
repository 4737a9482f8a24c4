"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table/figure/example of the paper, asserts
the *shape* of the result (who wins, by what factor, where thresholds sit)
and echoes a human-readable table so the paper-vs-measured comparison
survives pytest's output capture.

Result files — the tables and the machine-readable ``BENCH_*.json``
artifacts — are written only when the ``REPRO_BENCH_RESULTS`` environment
variable names a directory (the ``make bench*`` targets point it at the
committed ``benchmarks/results/``).  A plain ``pytest`` run, the tier-1
gate included, runs every assertion and leaves the tracked files alone.

This module is deliberately *not* named ``conftest``: benchmark modules
import it by name, and a plain ``import conftest`` is ambiguous once
``tests/conftest.py`` exists too (whichever directory pytest put on
``sys.path`` first would win).
"""

import os
import pathlib

#: Environment variable naming the directory results are written to.
RESULTS_ENV = "REPRO_BENCH_RESULTS"


def write_result(filename: str, text: str) -> None:
    """Write *text* to ``$REPRO_BENCH_RESULTS/<filename>``, if it is set."""
    target = os.environ.get(RESULTS_ENV)
    if not target:
        return
    directory = pathlib.Path(target)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / filename).write_text(text)


def record(name: str, text: str) -> None:
    """Echo a result table and write it to ``<name>.txt`` (see above)."""
    write_result(f"{name}.txt", text + "\n")
    print(f"\n[{name}]\n{text}")
