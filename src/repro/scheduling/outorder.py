"""OUTORDER orchestration: out-of-order one-port schedules.

The OUTORDER model keeps the one-port / no-overlap server discipline but
lets a server interleave operations of *different* data sets — e.g. receive
data set ``n + 1`` while it still has to forward data set ``n``.  Finding
the optimal operation list is NP-hard (Theorem 1, Proposition 2); this
module provides:

* the lower bound ``max_k (Cin + Ccomp + Cout)``;
* a *repair* scheduler: wrap the greedy single-data-set schedule modulo a
  candidate period and push operations forward (cyclically) until all
  modular conflicts disappear — this recovers the paper's optimal
  period-7 schedule on the Section-2.3 example;
* fallback to the INORDER orchestration (every INORDER operation list is
  OUTORDER-valid), so the result is never worse than INORDER.

When the achieved period equals the lower bound the schedule is *certified
optimal* (as in the Section-2.3 example: 7 = 2 + 4 + 1 on server C5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core import (
    CommModel,
    CostModel,
    ExecutionGraph,
    INPUT,
    Mapping,
    OUTPUT,
    Operation,
    OperationList,
    Plan,
    Platform,
    comm_op,
    comp_op,
    modular_residue,
    validate,
)
from .inorder import _orders_plan, _scheduled_orders
from .latency import oneport_latency_schedule

ZERO = Fraction(0)


def outorder_period_bound(
    graph: ExecutionGraph,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Fraction:
    """``max_k (Cin + Ccomp + Cout)`` — the OUTORDER period lower bound.

    Example (Figure 1: every server works ``1 + 4 + 2`` or less)::

        >>> from repro.workloads import fig1_example
        >>> outorder_period_bound(fig1_example().graph)
        Fraction(7, 1)
    """
    return CostModel(graph, platform, mapping).period_lower_bound(CommModel.OUTORDER)


def _server_ops(graph: ExecutionGraph) -> Dict[str, List[Operation]]:
    out: Dict[str, List[Operation]] = {}
    for node in graph.nodes:
        ops: List[Operation] = [
            comm_op(p, node) for p in (graph.predecessors(node) or (INPUT,))
        ]
        ops.append(comp_op(node))
        ops.extend(comm_op(node, s) for s in (graph.successors(node) or (OUTPUT,)))
        out[node] = ops
    return out


def _propagate_precedence(
    graph: ExecutionGraph,
    begins: Dict[Operation, Fraction],
    durations: Dict[Operation, Fraction],
) -> None:
    """Push begins forward so data-set-0 precedence holds (in place)."""
    for node in graph.topological_order:
        cop = comp_op(node)
        for p in graph.predecessors(node) or (INPUT,):
            op = comm_op(p, node)
            if p != INPUT:
                src = comp_op(p)
                begins[op] = max(begins[op], begins[src] + durations[src])
            begins[cop] = max(begins[cop], begins[op] + durations[op])
        for s in graph.successors(node) or (OUTPUT,):
            op = comm_op(node, s)
            begins[op] = max(begins[op], begins[cop] + durations[cop])


def _find_conflict(
    server_ops: Dict[str, List[Operation]],
    begins: Dict[Operation, Fraction],
    durations: Dict[Operation, Fraction],
    lam: Fraction,
) -> Optional[Tuple[Operation, Operation]]:
    """First pair of operations overlapping modulo *lam*, or ``None``."""
    for node, ops in server_ops.items():
        for i in range(len(ops)):
            a = ops[i]
            da = durations[a]
            if da == 0:
                continue
            for j in range(i + 1, len(ops)):
                b = ops[j]
                db = durations[b]
                if db == 0:
                    continue
                gap = modular_residue(begins[b] - begins[a], lam)
                if gap < da or modular_residue(-gap, lam) < db:
                    return a, b
    return None


def _clearing_delay(
    keep_begin: Fraction,
    keep_dur: Fraction,
    push_begin: Fraction,
    lam: Fraction,
) -> Fraction:
    """Minimal forward shift placing *push* right after *keep*'s occurrence.

    Returns 0 when the two operations cannot coexist at this period at all
    (their durations exceed ``lam`` together).
    """
    return modular_residue(keep_dur - (push_begin - keep_begin), lam)


def repair_schedule(
    graph: ExecutionGraph,
    base: OperationList,
    lam: Fraction,
    *,
    max_rounds: int = 2000,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[OperationList]:
    """Wrap *base* at period *lam*, resolving modular conflicts by search.

    Depth-first search: at every conflict, either participant may be pushed
    forward (cyclically) to just clear the other, followed by data-set-0
    precedence propagation.  States are pruned on repeated residue
    signatures; *max_rounds* caps the total number of expansions.  Returns
    a validated OUTORDER operation list or ``None``.
    """
    durations: Dict[Operation, Fraction] = {}
    for op in base.operations():
        durations[op] = base.duration(op)
        if durations[op] > lam:
            return None  # an operation longer than the period can never fit
    server_ops = _server_ops(graph)
    ops_order = sorted(base.operations())
    visited: set = set()
    budget = [max_rounds]

    def signature(begins: Dict[Operation, Fraction]) -> Tuple:
        return tuple(modular_residue(begins[op], lam) for op in ops_order)

    def dfs(
        begins: Dict[Operation, Fraction], depth: int = 0
    ) -> Optional[OperationList]:
        if budget[0] <= 0 or depth > 200:
            return None
        budget[0] -= 1
        _propagate_precedence(graph, begins, durations)
        sig = signature(begins)
        if sig in visited:
            return None
        visited.add(sig)
        conflict = _find_conflict(server_ops, begins, durations, lam)
        if conflict is None:
            ol = OperationList(
                {op: (b, b + durations[op]) for op, b in begins.items()}, lam=lam
            )
            if validate(
                graph, ol, CommModel.OUTORDER, platform=platform, mapping=mapping
            ).ok:
                return ol
            return None
        a, b = conflict
        # Prefer pushing communications over computations (cheap to move),
        # then the operation with the later begin.
        choices = sorted(
            ((a, b), (b, a)),
            key=lambda pair: (pair[1][0] != "comm", -begins[pair[1]]),
        )
        for keep, push in choices:
            delay = _clearing_delay(
                begins[keep], durations[keep], begins[push], lam
            )
            if delay == 0:
                continue  # cannot coexist at this period
            child = dict(begins)
            child[push] = child[push] + delay
            result = dfs(child, depth + 1)
            if result is not None:
                return result
        return None

    return dfs({op: base.begin(op) for op in base.operations()})


def _repair_below(
    graph: ExecutionGraph,
    costs: CostModel,
    inorder_lam: Fraction,
    n_candidates: int = 8,
    max_rounds: int = 500,
) -> Optional[OperationList]:
    """A repaired operation list beating the INORDER period, or ``None``.

    Tries the repair scheduler at the lower bound and at periods
    interpolated towards *inorder_lam*, lowest first.
    """
    lb = costs.period_lower_bound(CommModel.OUTORDER)
    if inorder_lam == lb:
        return None
    platform, mapping = costs.platform, costs.mapping
    base = oneport_latency_schedule(
        graph, platform=platform, mapping=mapping
    ).operation_list
    candidates: List[Fraction] = [lb]
    span = inorder_lam - lb
    for k in range(1, n_candidates):
        candidates.append(lb + span * k / n_candidates)
    for lam in candidates:
        repaired = repair_schedule(
            graph, base, lam, max_rounds=max_rounds, platform=platform, mapping=mapping
        )
        if repaired is not None:
            return repaired
    return None


def outorder_period(
    graph: ExecutionGraph,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    costs: Optional[CostModel] = None,
) -> Fraction:
    """The period :func:`outorder_schedule` achieves.

    When the INORDER orchestration wins, its operation list is not built.

    Example::

        >>> from repro.workloads import fig1_example
        >>> outorder_period(fig1_example().graph)
        Fraction(7, 1)
    """
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    inorder_lam, _ = _scheduled_orders(costs)
    repaired = _repair_below(graph, costs, inorder_lam)
    return inorder_lam if repaired is None else repaired.period


def outorder_schedule(
    graph: ExecutionGraph,
    *,
    n_candidates: int = 8,
    max_rounds: int = 500,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    costs: Optional[CostModel] = None,
) -> Plan:
    """Best-effort OUTORDER orchestration (lower bound first, then repair).

    Tries the repair scheduler at the lower bound and at a few periods
    interpolated towards the INORDER optimum; falls back to the INORDER
    operation list (always OUTORDER-valid).

    Example (out-of-order interleaving beats INORDER's 23/3 on Figure 1
    and meets the bound of 7; facade: ``solve(graph, model="outorder")``)::

        >>> from repro.workloads import fig1_example
        >>> plan = outorder_schedule(fig1_example().graph)
        >>> plan.period, is_certified_optimal(plan)
        (Fraction(7, 1), True)
    """
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    inorder_lam, inorder_orders = _scheduled_orders(costs)
    ol = _repair_below(graph, costs, inorder_lam, n_candidates, max_rounds)
    if ol is None:
        ol = _orders_plan(costs, inorder_orders, inorder_lam).operation_list
    return Plan(
        graph, ol, CommModel.OUTORDER, platform=costs.platform, mapping=costs.mapping
    )


def is_certified_optimal(plan: Plan) -> bool:
    """True when the plan's period meets the OUTORDER lower bound.

    Example::

        >>> from repro.workloads import fig1_example
        >>> is_certified_optimal(outorder_schedule(fig1_example().graph))
        True
    """
    return plan.period == outorder_period_bound(plan.graph, plan.platform, plan.mapping)


__all__ = [
    "is_certified_optimal",
    "outorder_period",
    "outorder_period_bound",
    "outorder_schedule",
    "repair_schedule",
]
