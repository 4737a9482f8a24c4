"""The paper's one-port period invariants as executable properties.

A seeded sweep of cold ``solve`` calls on ``random:n=6,seed=0..7``:

* every INORDER/OUTORDER plan replays (``simulate_plan``) at exactly the
  period the solver reports, which is also the plan's own period;
* every one-port period is at least the Section-2.1 bound;
* per instance, OVERLAP <= OUTORDER <= INORDER (every INORDER operation
  list is OUTORDER-valid, and OVERLAP's period is the bound).
"""

from fractions import Fraction

import pytest

from repro.core import CostModel, ExecutionGraph, make_application
from repro.planner import EvaluationCache, load_workload, solve
from repro.simulate import simulate_plan

SEEDS = range(8)
ONE_PORT = ("inorder", "outorder")


@pytest.fixture(scope="module")
def solved():
    """``{(seed, model): PlanResult}`` for the whole sweep."""
    out = {}
    for seed in SEEDS:
        app = load_workload(f"random:n=6,seed={seed}").application
        for model in ("overlap",) + ONE_PORT:
            out[seed, model] = solve(
                app, model=model, objective="period", cache=EvaluationCache()
            )
    return out


@pytest.mark.parametrize("model", ONE_PORT)
@pytest.mark.parametrize("seed", SEEDS)
def test_plan_replays_at_the_reported_period(solved, seed, model):
    result = solved[seed, model]
    replay = simulate_plan(result.plan)
    assert replay.ok, replay.violations
    assert replay.empirical_period == result.value == result.scheduled_value
    bound = CostModel(result.graph).period_lower_bound(result.model)
    assert result.value >= bound


@pytest.mark.parametrize("seed", SEEDS)
def test_overlap_le_outorder_le_inorder(solved, seed):
    overlap = solved[seed, "overlap"].value
    outorder = solved[seed, "outorder"].value
    inorder = solved[seed, "inorder"].value
    assert overlap <= outorder <= inorder


def test_exact_inorder_value_matches_its_plan():
    """13 824 order configurations, within the exhaustive-search limit: the
    exact value and the plan both come from the exhaustive search (39/2),
    not one of them from the greedy orders (41/2)."""
    F = Fraction
    app = make_application([
        ("s0", 4, 2), ("s1", 3, F(1, 2)), ("s2", 1, 2), ("s3", 3, F(3, 2)),
        ("s4", 5, F(1, 2)), ("s5", 3, 1), ("s6", 3, 1),
    ])
    graph = ExecutionGraph(app, [
        ("s0", "s1"), ("s0", "s2"), ("s0", "s4"), ("s0", "s5"), ("s1", "s3"),
        ("s1", "s4"), ("s1", "s5"), ("s2", "s3"), ("s3", "s5"), ("s3", "s6"),
        ("s4", "s6"),
    ])
    result = solve(graph, model="inorder", effort="exact")
    assert result.value == result.scheduled_value == F(39, 2)
    assert result.plan.is_valid()
