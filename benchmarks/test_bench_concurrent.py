"""Concurrent shared-server mapping benchmark: quality and wall time.

Records machine-readable numbers to
``benchmarks/results/BENCH_concurrent.json`` (and a human table to
``concurrent_scaling.txt``): for growing application counts (k copies of
the Section-2.3 instance) and shrinking platforms (servers << services),
the optimised shared placement's load-balance quality — the achieved
system period against the greedy bin-packing seed and against the
perfect-balance compute floor ``total_work / (m * max_speed)`` — plus the
placement-search wall time.
"""

import json
import time
from fractions import Fraction

from repro.analysis import text_table
from repro.concurrent import MultiApplication
from repro.core import CommModel, CostModel
from repro.optimize import greedy_shared_mapping
from repro.planner import load_platform, solve_concurrent
from repro.workloads import fig1_example

from bench_helpers import record, write_result

F = Fraction

#: (application copies, platform spec) grid — homogeneous scaling plus two
#: heterogeneous spots.
GRID = [
    (1, "hom:n=2"), (1, "hom:n=3"), (1, "hom:n=4"),
    (2, "hom:n=2"), (2, "hom:n=3"), (2, "hom:n=4"),
    (3, "hom:n=3"), (3, "hom:n=4"),
    (4, "hom:n=4"),
    (2, "het:n=3,seed=1"),
    (4, "het:n=4,seed=1"),
]


def _instance(k):
    graph = fig1_example().graph
    return MultiApplication([(f"c{i}", graph) for i in range(k)])


def _compute_floor(multi, platform):
    """Perfect balance: total work over aggregate speed (ignores comm)."""
    costs = CostModel(multi.combined_graph)
    total_work = sum(
        (costs.ccomp(n) for n in multi.combined_graph.nodes), F(0)
    )
    total_speed = sum((s.speed for s in platform.servers), F(0))
    return total_work / total_speed


#: Run the exact (all-Fraction) placement search alongside the certified
#: one on the larger grid points — the fast-vs-exact comparison rows.
EXACT_COMPARE_MIN_SERVICES = 15


def _row(k, spec):
    multi = _instance(k)
    platform = load_platform(spec)
    greedy = greedy_shared_mapping(multi.combined_graph, platform)
    greedy_value = CostModel(
        multi.combined_graph, platform, greedy
    ).period_lower_bound(CommModel.OVERLAP)
    started = time.perf_counter()
    result = solve_concurrent(multi, platform=platform)
    wall = time.perf_counter() - started
    floor = _compute_floor(multi, platform)
    row = {
        "apps": k,
        "services": multi.total_services,
        "platform": spec,
        "servers": len(platform),
        "method": result.method,
        "value": str(result.value),
        "greedy_value": str(greedy_value),
        "improvement": round(float(greedy_value / result.value), 3),
        "balance_floor": str(floor),
        "balance_ratio": round(float(result.value / floor), 3),
        "feasible": result.feasible,
        "wall_s": round(wall, 4),
    }
    if multi.total_services >= EXACT_COMPARE_MIN_SERVICES:
        from repro.planner import clear_default_cache

        clear_default_cache()  # the certified run memoized this placement
        started = time.perf_counter()
        exact = solve_concurrent(multi, platform=platform, exactness="exact")
        clear_default_cache()
        # The certified tier is bit-for-bit the exact one.
        assert exact.value == result.value, (spec, exact.value, result.value)
        row["exact_wall_s"] = round(time.perf_counter() - started, 4)
    return row


def test_concurrent_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [_row(k, spec) for k, spec in GRID], rounds=1, iterations=1
    )

    # --- assertions: the shape the ISSUE promises -----------------------
    for row in rows:
        value = F(row["value"])
        assert row["feasible"], row
        # The optimiser never loses to its own greedy seed ...
        assert value <= F(row["greedy_value"]), row
        # ... and never beats the perfect-balance compute floor.
        assert value >= F(row["balance_floor"]), row
        assert row["wall_s"] < 10.0, row
    # More servers never hurt — guaranteed only when the larger platform
    # was solved *exhaustively* (any fewer-server assignment embeds into
    # the bigger platform, so the exact optimum is monotone; the local
    # search carries no such guarantee, so its rows are recorded but not
    # compared).
    by_apps = {}
    for row in rows:
        if row["platform"].startswith("hom:"):
            by_apps.setdefault(row["apps"], []).append(
                (row["servers"], F(row["value"]), row["method"])
            )
    compared = 0
    for series in by_apps.values():
        series.sort()
        for (_, worse, _), (_, better, method) in zip(series, series[1:]):
            if method == "shared-exhaustive":
                assert better <= worse, series
                compared += 1
    assert compared >= 1  # the grid must keep the check non-vacuous

    write_result("BENCH_concurrent.json",
        json.dumps({"shared_placement": rows}, indent=2) + "\n"
    )
    record(
        "concurrent_scaling",
        text_table(
            ["apps", "services", "platform", "method", "value", "greedy",
             "improv", "floor x", "wall s"],
            [
                [r["apps"], r["services"], r["platform"], r["method"],
                 r["value"], r["greedy_value"], r["improvement"],
                 r["balance_ratio"], r["wall_s"]]
                for r in rows
            ],
        ),
    )
