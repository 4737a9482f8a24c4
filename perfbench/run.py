#!/usr/bin/env python3
"""Benchmark of the filtering-stream planner: one workload, one seed, one run.

Usage, from the root of a checkout (no install step; the program is
imported from ``src/``)::

    python3 perfbench/run.py --workload oneport-period --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/predictions.json``):

* ``oneport-period`` -- cold INORDER/OUTORDER period solves, n=6..7, unit
  platform (branch and bound over graphs, one-port orchestration by MCR);
* ``overlap-search`` -- cold OVERLAP period solves at n=9..11 and latency
  solves at n=5, unit platform (search and cost tiers only);
* ``placement`` -- cold OVERLAP period solves at n=5 on 6-server ``het:``,
  ``tree:`` and ``torus:`` platforms (graph x assignment search);
* ``serve-mixed`` -- an open loop of Poisson arrivals into an in-process
  ``PlannerServer``: hot-set reads, cold solves with bursts, and replans.

The run sets up (import, inputs, warm-up; repeated in fresh processes for
the ``setup_s`` median), measures for about ``--seconds``, checks every
answer, and prints a summary followed by one JSON line: with ``--trace 0``
the end-to-end metrics (solve times rescaled to a reference machine speed,
see ``workloads.py``, with the wall-clock figures in the summary; set-up
time in wall-clock seconds), with
``--trace 1`` the per-layer metrics of a run whose layer functions are
wrapped in spans (written to ``perfbench/out/``).  The traced run's
end-to-end figures are printed too; their difference to an untraced run of
the same seed is the tracing overhead.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("oneport-period", "overlap-search", "placement", "serve-mixed")
#: Set-ups measured in fresh processes besides the run's own.
SETUP_PROBES = 6

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms.p50": "ms",
    "goodput_rps": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cyclic.mcr.calls": "1/op",
    "cyclic.feasible.calls": "1/op",
    "cyclic.earliest.calls": "1/op",
    "cyclic.self_ms": "ms/op",
    "scheduling.inorder_period.calls": "1/op",
    "scheduling.inorder_period.self_ms": "ms/op",
    "scheduling.orders_tried": "1/op",
    "scheduling.build.self_ms": "ms/op",
    "optimize.bb.self_ms": "ms/op",
    "optimize.bb.expanded": "1/op",
    "optimize.bb.pruned": "1/op",
    "optimize.bb.evaluated": "1/op",
    "optimize.local_search.self_ms": "ms/op",
    "optimize.objective.calls": "1/op",
    "optimize.objective.self_ms": "ms/op",
    "optimize.placement.calls": "1/op",
    "optimize.placement.self_ms": "ms/op",
    "optimize.placement.memo_size": "entries",
    "core.batched.rows": "1/op",
    "core.batched.self_ms": "ms/op",
    "core.costs.models": "1/op",
    "core.costs.self_ms": "ms/op",
    "planner.solve.calls": "1/op",
    "planner.solve.self_ms": "ms/op",
    "planner.cache.hit_ratio": "ratio",
    "planner.cache.entries": "entries",
    "serve.decode_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.worker_ms": "ms",
    "serve.coalesced": "1/op",
    "serve.batch_size.mean": "jobs",
    "serve.result_cache.hit_ratio": "ratio",
    "dynamic.replan.self_ms": "ms/op",
    "dynamic.replan.moves": "1/op",
    "dynamic.replan.cold_fallbacks": "1/op",
    "trace.spans": "1/op",
    "trace.missing_targets": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's ``src/`` on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program's source is missing ({src / 'repro'})")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def set_up(workloads, args):
    if args.workload == "serve-mixed":
        run = workloads.ServeRun(args.seed)
        run.setup(args.seconds)
    else:
        run = workloads.BatchRun(args.workload, args.seed)
        run.setup()
    return run


def probe_setups(args):
    """Wall-clock set-up times of fresh processes (import included)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(command, capture_output=True, text=True,
                               timeout=120, check=True)
        times.append(float(probe.stdout.split()[-1]))
    return times


def report(name, value, unit):
    print(f"  {name:<36} {value:>14.4f} {unit}")


def main(argv=None):
    args = parse_args(argv)
    workloads = load_program()
    run = set_up(workloads, args)
    setup_wall = time.perf_counter() - STARTED
    if args.setup_probe:
        run.close()
        print(setup_wall)
        return 0
    setups = [setup_wall] + probe_setups(args)

    tracer = None
    if args.trace:
        from spans import MAX_SPANS, Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    try:
        outcome = run.run(args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Set-up is not rescaled to reference speed: it is mostly imports and
    # page faults, which the reference computation does not track (rescaled
    # set-ups spread three times wider between runs on the 2-core VM).
    e2e = {"setup_s": statistics.median(setups), **outcome.e2e}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.lines:
        print(f"  {line}")
    print(f"  set-up: median of {len(setups)} wall-clock set-ups "
          f"({', '.join(f'{s:.3f}' for s in setups)} s)")
    print("end-to-end" + (" (traced: compare with --trace 0 for the overhead)"
                          if tracer else ""))
    for name, unit in END_TO_END.items():
        report(name, e2e[name], unit)
    print(f"  error_rate {outcome.failed}/{outcome.attempted} = "
          f"{outcome.failed / outcome.attempted:.4f} ratio")
    for error in outcome.errors[:20]:
        print(f"  FAILED CHECK: {error}")
    if tracer is not None:
        print("per layer")
        for name, unit in PER_LAYER.items():
            report(name, outcome.layer[name], unit)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"  {len(tracer.records)} spans written to {path.relative_to(ROOT)}; "
              f"{tracer.dropped} more past the cap of {MAX_SPANS} kept only in the totals"
              + (f"; unwrapped targets: {tracer.missing}" if tracer.missing else ""))
        metrics = {n: {"value": outcome.layer[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
