"""Batched-kernel throughput and the anytime quality-vs-deadline curve.

Records machine-readable numbers to ``benchmarks/results/BENCH_batched.json``
(and a human table to ``batched_throughput.txt``):

* **candidates/sec** for MinPeriod scoring of forest candidates: the
  scalar path (decode each parent vector, build :class:`FloatCosts`,
  query ``period_lower_bound``) versus the batched
  :class:`~repro.core.batched.ForestBatch` kernel at chunk sizes 64,
  512 and 4096.  The batched kernel must deliver **at least 10x** the
  scalar throughput at chunk >= 512 (typically far more); a bit-for-bit
  spot check on the first chunk keeps the comparison honest — the two
  paths score candidates to the *same doubles*, so the speedup buys no
  accuracy loss.
* the **anytime quality-vs-deadline curve** at ``n = 12`` (the local
  search benchmark size, far beyond exhaustive reach): the portfolio's
  value as the ``solve(deadline=...)`` budget grows from an
  already-expired deadline to one generous enough for every racer.
  Quality must be monotone — more budget never returns a worse plan —
  and the generous budget must reproduce the unbudgeted portfolio
  result exactly.

``BENCH_batched.json`` is uploaded as a CI artifact but deliberately
*not* added to ``compare_bench.BENCH_FILES``: raw candidates/sec moves
with runner hardware far more than the guarded count-type metrics, so
it would make the perf guard flaky.  The >= 10x floor asserted here is
the stable, machine-independent claim.
"""

import json
import time

from repro.analysis import text_table
from repro.core import CommModel, CycleError
from repro.core.batched import ForestBatch, iter_forest_rows
from repro.core.numeric import FloatCosts
from repro.planner import EvaluationCache, solve
from repro.workloads.generators import random_application

from bench_helpers import record, write_result

#: Candidate-scoring instance: n=8 keeps the scalar baseline sample
#: cheap while the batched kernel sweeps a meaningful slice of the
#: 8^8 ~ 16.7M-row candidate space.
THROUGHPUT_N = 8

#: Scalar candidates timed (full decode + FloatCosts per row).
SCALAR_SAMPLE = 1_500

#: Batched rows timed per chunk size.
BATCHED_SAMPLE = 200_000

CHUNKS = (64, 512, 4096)

#: The ISSUE's floor: batched must beat scalar by 10x from chunk 512 up.
MIN_SPEEDUP_AT_512 = 10.0

#: Anytime curve instance size and deadlines (seconds).
ANYTIME_N = 12
DEADLINES = (0.0, 0.25, 2.0, 30.0)

#: Bound the B&B racer to the portfolio's unbudgeted default so the
#: budgeted and unbudgeted rosters do identical work (and the generous
#: deadline stays cheap in CI — an unbounded B&B proof at n=12 takes
#: ~50 s without changing the optimum it returns).
ANYTIME_NODE_LIMIT = 20_000


def _scalar_candidates_per_sec(app, fb, model):
    """Score ``SCALAR_SAMPLE`` rows the pre-batch way, one at a time."""
    rows = []
    for chunk_rows, _base in iter_forest_rows(len(app), chunk=256):
        rows.extend(chunk_rows.tolist())
        if len(rows) >= SCALAR_SAMPLE:
            break
    rows = rows[:SCALAR_SAMPLE]
    started = time.perf_counter()
    best = float("inf")
    for row in rows:
        try:
            graph = fb.decode(row)
            value = FloatCosts(graph).period_lower_bound(model)
        except CycleError:
            continue  # a scalar scan must detect cyclic rows too
        best = min(best, value)
    wall = time.perf_counter() - started
    return len(rows) / wall, wall, best


def _batched_candidates_per_sec(fb, n, chunk):
    """Score ``BATCHED_SAMPLE`` rows through the vectorised kernel."""
    scored = 0
    best = float("inf")
    started = time.perf_counter()
    for rows, _base in iter_forest_rows(n, chunk=chunk):
        valid, periods = fb.periods(rows)
        if valid.any():
            best = min(best, float(periods[valid].min()))
        scored += len(rows)
        if scored >= BATCHED_SAMPLE:
            break
    wall = time.perf_counter() - started
    return scored / wall, wall, scored, best


def _throughput_rows():
    app = random_application(THROUGHPUT_N, seed=3, filter_fraction=0.6)
    model = CommModel.OVERLAP
    fb = ForestBatch(app, model)

    # Bit-for-bit spot check before timing: the batched kernel and the
    # scalar FloatCosts path must produce the *same doubles* per row.
    for rows, _base in iter_forest_rows(len(app), chunk=64):
        valid, periods = fb.periods(rows)
        for k, row in enumerate(rows):
            try:
                graph = fb.decode(row)
            except CycleError:
                graph = None
            assert valid[k] == (graph is not None)
            if graph is not None:
                assert periods[k] == FloatCosts(graph).period_lower_bound(model)
        break

    scalar_cps, scalar_wall, _ = _scalar_candidates_per_sec(app, fb, model)
    rows_out = [{
        "mode": "scalar",
        "chunk": None,
        "candidates": SCALAR_SAMPLE,
        "wall_s": round(scalar_wall, 4),
        "candidates_per_sec": round(scalar_cps),
        "speedup": 1.0,
    }]
    for chunk in CHUNKS:
        cps, wall, scored, _ = _batched_candidates_per_sec(
            fb, len(app), chunk)
        rows_out.append({
            "mode": "batched",
            "chunk": chunk,
            "candidates": scored,
            "wall_s": round(wall, 4),
            "candidates_per_sec": round(cps),
            "speedup": round(cps / scalar_cps, 1),
        })
    return rows_out


def _anytime_rows():
    # Seed chosen so the curve is *not* flat: greedy lands well above the
    # optimum and the budget decides how far the racers close the gap.
    app = random_application(ANYTIME_N, seed=10, filter_fraction=0.7)
    unbudgeted = solve(app, method="portfolio", schedule=False,
                       cache=EvaluationCache(),
                       node_limit=ANYTIME_NODE_LIMIT)
    rows = []
    for deadline in DEADLINES:
        started = time.perf_counter()
        result = solve(app, deadline=deadline, schedule=False,
                       cache=EvaluationCache(),
                       node_limit=ANYTIME_NODE_LIMIT)
        wall = time.perf_counter() - started
        assert result.method == "portfolio"
        assert result.graph.is_forest  # a valid plan at *every* budget
        rows.append({
            "n": ANYTIME_N,
            "deadline_s": deadline,
            "value": str(result.value),
            "value_float": float(result.value),
            "wall_s": round(wall, 4),
            "budget_exhausted": result.budget_exhausted,
            "racers_run": len(result.stats.extras["racers"]),
            "winner": (result.trajectory or [(None, None, "greedy")])[-1][2],
        })
    rows.append({
        "n": ANYTIME_N,
        "deadline_s": None,  # unbudgeted portfolio reference
        "value": str(unbudgeted.value),
        "value_float": float(unbudgeted.value),
        "wall_s": None,
        "budget_exhausted": unbudgeted.budget_exhausted,
        "racers_run": len(unbudgeted.stats.extras["racers"]),
        "winner": (unbudgeted.trajectory or [(None, None, "greedy")])[-1][2],
    })
    return rows


def test_batched_throughput(benchmark):
    throughput, anytime = benchmark.pedantic(
        lambda: (_throughput_rows(), _anytime_rows()), rounds=1, iterations=1)

    # --- assertions: the shape the ISSUE promises -----------------------
    for row in throughput:
        if row["mode"] == "batched" and row["chunk"] >= 512:
            assert row["speedup"] >= MIN_SPEEDUP_AT_512, row
    # Quality is monotone in the budget, and a generous budget matches
    # the unbudgeted portfolio bit-for-bit (same racers all complete).
    timed = [r for r in anytime if r["deadline_s"] is not None]
    for earlier, later in zip(timed, timed[1:]):
        assert later["value_float"] <= earlier["value_float"], (earlier, later)
    # The curve is a curve: on this instance the generous budget strictly
    # beats the expired one (greedy alone is ~1.5x off the optimum).
    assert timed[-1]["value_float"] < timed[0]["value_float"]
    reference = anytime[-1]
    assert timed[-1]["value"] == reference["value"]

    payload = {"throughput": throughput, "anytime": anytime}
    write_result("BENCH_batched.json",
        json.dumps(payload, indent=2) + "\n"
    )

    table = text_table(
        ["mode", "chunk", "candidates", "wall s", "cand/s", "speedup"],
        [
            [r["mode"], r["chunk"] if r["chunk"] else "-", r["candidates"],
             r["wall_s"], r["candidates_per_sec"], f'{r["speedup"]}x']
            for r in throughput
        ],
    )
    anytime_table = text_table(
        ["deadline s", "value", "wall s", "exhausted", "racers", "winner"],
        [
            [r["deadline_s"] if r["deadline_s"] is not None else "unbudgeted",
             r["value"],
             r["wall_s"] if r["wall_s"] is not None else "-",
             r["budget_exhausted"], r["racers_run"], r["winner"]]
            for r in anytime
        ],
    )
    record(
        "batched_throughput",
        f"MinPeriod candidate scoring at n={THROUGHPUT_N}: scalar "
        "FloatCosts loop vs the batched ForestBatch kernel\n"
        + table
        + f"\n\nanytime portfolio at n={ANYTIME_N}: solution quality vs "
        "deadline budget\n"
        + anytime_table,
    )
