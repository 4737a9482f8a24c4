"""Warm-started re-planning vs. cold re-solving on a flash-crowd trace.

Replay a 50-event flash crowd (accelerating admissions, load spikes,
evictions) on a 4-server platform twice per event: the warm incumbent
repaired under a migration budget of 2 voluntary moves, and the cold
from-scratch solve a stateless planner would deploy (placement memo
cleared per event, so its wall time is honest).

Asserted shape — the PR's acceptance criteria, machine-independent:

* **quality**: the warm repair's mean steady-state period stays within
  1.1x of the cold optimum (>= 90% of cold quality);
* **stability**: the warm side migrates fewer than 25% as many services
  as the cold baseline churns.

Records ``benchmarks/results/BENCH_dynamic.json`` (uploaded as a CI
artifact; deliberately *not* in ``compare_bench.BENCH_FILES`` — wall
times move with runner hardware, and the quality/stability shape is
asserted right here) and the human timeline to ``dynamic_replay.txt``.
"""

import json

from repro.core import Platform
from repro.dynamic import flash_crowd_trace, replay

from bench_helpers import record, write_result

#: Acceptance ceilings (ISSUE 9): period within 1.1x of cold, moves
#: under a quarter of the cold churn.
MAX_MEAN_PERIOD_RATIO = 1.1
MAX_MOVE_RATIO = 0.25

N_EVENTS = 50
SEED = 7
BUDGET = 2


def test_flash_crowd_warm_repair_vs_cold():
    trace = flash_crowd_trace(N_EVENTS, seed=SEED)
    report = replay(trace, Platform.homogeneous(4), budget=BUDGET)

    aggregates = report.aggregates()
    assert len(report.steps) == N_EVENTS
    assert aggregates["mean_period_ratio"] is not None
    assert aggregates["mean_period_ratio"] <= MAX_MEAN_PERIOD_RATIO, aggregates
    assert aggregates["move_ratio"] is not None
    assert aggregates["move_ratio"] < MAX_MOVE_RATIO, aggregates
    # The comparison is meaningful only if the cold side actually churns.
    assert report.total_cold_moves > report.total_warm_moves

    write_result("BENCH_dynamic.json",
        json.dumps(
            {
                "trace": {
                    "family": "flash",
                    "events": N_EVENTS,
                    "seed": SEED,
                    "budget": BUDGET,
                    "platform": "hom:n=4",
                },
                "aggregates": aggregates,
                "timeline": [step.as_dict() for step in report.steps],
            },
            indent=2,
        )
        + "\n"
    )
    record("dynamic_replay", report.summary_table())
