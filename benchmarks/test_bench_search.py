"""Search-performance benchmark: branch and bound + incremental deltas.

Records machine-readable numbers to ``benchmarks/results/BENCH_search.json``
(and a human table to ``search_performance.txt``) so the perf trajectory
is tracked across PRs:

* exact MinPeriod(OVERLAP): objective evaluations and wall time of branch
  and bound versus the forest-enumeration baseline, per instance size —
  with **certified-vs-exact tier comparison rows**: the certified float
  fast path must return bit-for-bit the exact tier's optimum while
  cutting the wall time (n=9 at least 3x here; ~8x measured), and it
  pushes the frontier to n=10/11, where the exact tier is no longer
  timed (n=11 must certify in under 10 s);
* the local-search hot path at ``n = 12``: objective evaluations with and
  without incremental delta scoring (the delta path must save at least
  3x), plus the certified two-tier delta against the exact-Fraction one;
* one-port (INORDER/OUTORDER) period solves: the value, the objective
  evaluations, the Bellman–Ford passes of the MCR solver
  (``_find_positive_cycle`` calls) and the communication-order
  configurations tried (``inorder_period_for_orders`` calls), counted by
  wrappers installed around each solve as ``perfbench`` counts them —
  branch and bound over forests, plus fixed DAGs solved exactly.
"""

import contextlib
import json
import time
from collections import Counter
from fractions import Fraction

import repro.cyclic.mcr
import repro.optimize.evaluation
import repro.scheduling.inorder
from repro.analysis import text_table
from repro.core import CommModel, ExecutionGraph, Exactness, make_application
from repro.optimize import (
    IncrementalForestPeriod,
    greedy_forest,
    iter_forests,
    local_search_forest,
    make_period_objective,
    period_delta,
)
from repro.optimize.evaluation import Effort
from repro.planner import EvaluationCache, load_workload, solve
from repro.workloads.generators import random_application

from bench_helpers import record, write_result

F = Fraction

#: Enumerate the baseline only while it stays tractable in CI.
ENUMERATION_MAX = 6

#: Run the exact (all-Fraction) tier alongside the certified one up to
#: this size; beyond it only the certified fast path is timed.
EXACT_COMPARE_MAX = 9


def _forest_count(n):
    """Labelled rooted forests on *n* nodes: ``(n+1)^(n-1)``."""
    return (n + 1) ** (n - 1)


def _bb_solve(app, exactness):
    started = time.perf_counter()
    result = solve(app, method="branch-and-bound", schedule=False,
                   cache=EvaluationCache(), exactness=exactness)
    return time.perf_counter() - started, result


def _bb_row(n, seed, filter_fraction=0.6):
    app = random_application(n, seed=seed, filter_fraction=filter_fraction)
    cert_wall, result = _bb_solve(app, "certified")
    row = {
        "n": n,
        "value": str(result.value),
        "bb_wall_s": round(cert_wall, 4),
        "bb_evaluations": result.stats.extras["evaluated"],
        "bb_expanded": result.stats.extras["expanded"],
        "bb_pruned": result.stats.extras["pruned"],
        "certified": result.stats.extras["certified"],
        "enumeration_size": _forest_count(n),
    }
    if n <= EXACT_COMPARE_MAX:
        exact_wall, exact_result = _bb_solve(app, "exact")
        assert exact_result.value == result.value  # bit-for-bit certification
        row["exact_wall_s"] = round(exact_wall, 4)
        row["certified_speedup"] = round(exact_wall / cert_wall, 1)
    else:
        row["exact_wall_s"] = None  # exact tier out of the timed range
        row["certified_speedup"] = None
    if n <= ENUMERATION_MAX:
        objective = make_period_objective(CommModel.OVERLAP)
        started = time.perf_counter()
        enum_value = min(objective(g) for g in iter_forests(app))
        row["enumeration_wall_s"] = round(time.perf_counter() - started, 4)
        row["enumeration_value"] = str(enum_value)
        assert enum_value == result.value
    else:
        row["enumeration_wall_s"] = None  # infeasible in CI
    return row


def _count_calls(objective):
    calls = {"n": 0}

    def wrapped(graph):
        calls["n"] += 1
        return objective(graph)

    return wrapped, calls


def _local_search_rows(n=12, seeds=(1, 2, 3)):
    rows = []
    for seed in seeds:
        app = random_application(n, seed=seed, filter_fraction=0.7)
        objective = make_period_objective(CommModel.OVERLAP)
        _, seed_graph = greedy_forest(app, objective)

        baseline_obj, baseline_calls = _count_calls(objective)
        started = time.perf_counter()
        base_val, _ = local_search_forest(seed_graph, baseline_obj)
        baseline_wall = time.perf_counter() - started

        delta = IncrementalForestPeriod(seed_graph, model=CommModel.OVERLAP)
        delta_obj, delta_calls = _count_calls(objective)
        started = time.perf_counter()
        fast_val, _ = local_search_forest(seed_graph, delta_obj, delta=delta)
        delta_wall = time.perf_counter() - started

        certified = period_delta(
            seed_graph, CommModel.OVERLAP, Effort.HEURISTIC, None, None,
            exactness=Exactness.CERTIFIED,
        )
        started = time.perf_counter()
        cert_val, _ = local_search_forest(seed_graph, objective, delta=certified)
        certified_wall = time.perf_counter() - started

        assert fast_val == base_val
        assert cert_val == base_val  # certified tier: bit-for-bit trajectory
        rows.append({
            "n": n,
            "seed": seed,
            "value": str(base_val),
            "evaluations_full": baseline_calls["n"],
            "evaluations_delta": delta_calls["n"],
            "wall_full_s": round(baseline_wall, 4),
            "wall_delta_s": round(delta_wall, 4),
            "wall_certified_s": round(certified_wall, 4),
        })
    return rows


#: ``(module, attribute, count name)`` wrapped while a one-port row runs;
#: the modules bind the names with ``from ... import``, so a name is
#: wrapped where its callers look it up.
_ONEPORT_COUNTERS = (
    (repro.cyclic.mcr, "_find_positive_cycle", "mcr_passes"),
    (repro.scheduling.inorder, "inorder_period_for_orders", "orders_tried"),
    (repro.optimize.evaluation, "inorder_period_for_orders", "orders_tried"),
)


@contextlib.contextmanager
def _counting():
    """Count the :data:`_ONEPORT_COUNTERS` calls made inside the block."""
    counts = Counter()

    def counted(function, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    originals = []
    for module, attr, name in _ONEPORT_COUNTERS:
        function = getattr(module, attr)
        originals.append((module, attr, function))
        setattr(module, attr, counted(function, name))
    try:
        yield counts
    finally:
        for module, attr, function in originals:
            setattr(module, attr, function)


def _dense7_graph():
    """A 7-service DAG with 13 824 communication-order configurations."""
    app = make_application([
        ("s0", 4, 2), ("s1", 3, F(1, 2)), ("s2", 1, 2), ("s3", 3, F(3, 2)),
        ("s4", 5, F(1, 2)), ("s5", 3, 1), ("s6", 3, 1),
    ])
    return ExecutionGraph(app, [
        ("s0", "s1"), ("s0", "s2"), ("s0", "s4"), ("s0", "s5"), ("s1", "s3"),
        ("s1", "s4"), ("s1", "s5"), ("s2", "s3"), ("s3", "s5"), ("s3", "s6"),
        ("s4", "s6"),
    ])


def _oneport_row(ids, problem, **kwargs):
    with _counting() as counts:
        started = time.perf_counter()
        result = solve(problem, objective="period", cache=EvaluationCache(),
                       **kwargs)
        wall = time.perf_counter() - started
    row = {
        **ids,
        "value": str(result.value),
        "evaluations": result.stats.evaluations,
        "mcr_passes": counts["mcr_passes"],
        "orders_tried": counts["orders_tried"],
        "wall_s": round(wall, 4),
    }
    if result.plan is not None:
        row["scheduled_value"] = str(result.scheduled_value)
    return row


def _oneport_rows():
    rows = []
    for model in ("inorder", "outorder"):
        # Branch and bound over forests (objective values only).
        for n, seed in [(6, 0), (7, 4), (8, 0)]:
            rows.append(_oneport_row(
                {"n": n, "seed": seed, "mode": model},
                random_application(n, seed=seed),
                model=model, method="branch-and-bound", schedule=False,
            ))
        # Fixed DAGs, exact order search: value and plan.
        for label in ("fig1", "random:n=6,seed=1,graph=random",
                      "random:n=7,seed=4,graph=random", "dense7"):
            graph = (_dense7_graph() if label == "dense7"
                     else load_workload(label).graph)
            rows.append(_oneport_row(
                {"label": label, "mode": model}, graph,
                model=model, effort="exact",
            ))
    return rows


def test_search_performance(benchmark):
    def run():
        # Seeds chosen so the bound does real work (the incumbent is not
        # simply certified at the root by the static floors).  n=10 and 11
        # are certified-tier only — the frontier the float fast path opened.
        bb_rows = [
            _bb_row(n, seed)
            for n, seed in [(5, 0), (6, 2), (7, 6), (8, 2), (9, 4),
                            (10, 4), (11, 4)]
        ]
        ls_rows = _local_search_rows()
        return bb_rows, ls_rows, _oneport_rows()

    bb_rows, ls_rows, oneport_rows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # --- assertions: the shape the ISSUE promises -----------------------
    for row in bb_rows:
        assert row["certified"], row
        # Pruned exact search pays far fewer evaluations than enumeration.
        assert row["bb_evaluations"] * 10 < row["enumeration_size"], row
    n9 = next(r for r in bb_rows if r["n"] == 9)
    # The certified float tier must beat the exact tier by a wide margin
    # (>= 3x asserted to stay unflaky in CI; ~8x measured) ...
    assert n9["certified_speedup"] >= 3.0, n9
    # ... and push the frontier: n=11 certifies the optimum in under 10 s
    # where the exact tier took minutes and enumeration ~ 3e10 forests.
    n11 = next(r for r in bb_rows if r["n"] == 11)
    assert n11["bb_wall_s"] < 10.0, n11
    for row in ls_rows:
        # Incremental deltas: >= 3x fewer objective evaluations.  The
        # delta path only re-scores through the objective zero times here,
        # so guard the denominator.
        assert row["evaluations_full"] >= 3 * max(row["evaluations_delta"], 1)
    by_id = {}
    for row in oneport_rows:
        # The exact value is the plan's period, and every order
        # configuration tried costs at least one Bellman-Ford pass.
        assert row.get("scheduled_value", row["value"]) == row["value"], row
        assert row["mcr_passes"] >= row["orders_tried"] > 0, row
        by_id.setdefault(row.get("label", (row.get("n"), row.get("seed"))),
                         {})[row["mode"]] = F(row["value"])
    for values in by_id.values():
        assert values["outorder"] <= values["inorder"], values

    payload = {
        "branch_and_bound": bb_rows,
        "local_search_incremental": ls_rows,
        "oneport_period": oneport_rows,
    }
    write_result("BENCH_search.json",
        json.dumps(payload, indent=2) + "\n"
    )

    table = text_table(
        ["n", "bb value", "bb evals", "expanded", "pruned",
         "certified s", "exact s", "speedup", "enum size", "enum s"],
        [
            [r["n"], r["value"], r["bb_evaluations"], r["bb_expanded"],
             r["bb_pruned"], r["bb_wall_s"],
             r["exact_wall_s"] if r["exact_wall_s"] is not None else "-",
             r["certified_speedup"] if r["certified_speedup"] is not None
             else "-",
             r["enumeration_size"],
             r["enumeration_wall_s"] if r["enumeration_wall_s"] is not None
             else "infeasible"]
            for r in bb_rows
        ],
    )
    ls_table = text_table(
        ["n", "seed", "value", "evals (full)", "evals (delta)",
         "full s", "delta s", "certified s"],
        [
            [r["n"], r["seed"], r["value"], r["evaluations_full"],
             r["evaluations_delta"], r["wall_full_s"], r["wall_delta_s"],
             r["wall_certified_s"]]
            for r in ls_rows
        ],
    )
    oneport_table = text_table(
        ["instance", "model", "value", "evals", "MCR passes", "orders tried",
         "wall s"],
        [
            [r.get("label", f"random:n={r.get('n')},seed={r.get('seed')}"),
             r["mode"], r["value"], r["evaluations"], r["mcr_passes"],
             r["orders_tried"], r["wall_s"]]
            for r in oneport_rows
        ],
    )
    record(
        "search_performance",
        "exact MinPeriod(OVERLAP): certified branch and bound vs the exact "
        "tier vs forest enumeration\n"
        + table
        + "\n\nlocal search at n=12: full evaluation vs incremental deltas "
        "(exact and certified tiers)\n"
        + ls_table
        + "\n\none-port MinPeriod: branch and bound over forests, and exact "
        "order search on fixed DAGs\n"
        + oneport_table,
    )
