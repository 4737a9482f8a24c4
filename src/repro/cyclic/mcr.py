"""Exact maximum-cycle-ratio solver for uniform constraint graphs.

The constraint system ``t_v >= t_u + w_e - lambda * h_e`` is feasible iff the
graph with arc lengths ``w_e - lambda * h_e`` has no strictly positive cycle.
Hence the minimal feasible period is::

    lambda* = max over directed cycles C of  sum_e w_e / sum_e h_e

with the convention that cycles of total height 0 must satisfy
``sum w <= 0`` (otherwise no period works and the system is infeasible).

The solver uses exact rational *cycle raising*: starting from a lower bound
(the caller's *floor*, ideally the ratio of a known cycle), repeatedly run a
longest-path Bellman–Ford with reduced costs ``w - lambda * h``; every
strictly positive cycle found raises ``lambda`` to that cycle's ratio.  Each
iteration pins ``lambda`` to the ratio of an actual simple cycle, so the
loop terminates with the exact maximum ratio — no floating point, no
epsilon.  A *cutoff* stops the raising early once ``lambda`` reaches it: an
enumeration that only needs to know whether a graph beats its incumbent
period learns "no" without pinning the exact ratio.

Relaxation runs on plain integers: every reduced cost is multiplied by the
common denominator of all weights and of ``lambda``.  Scaling every arc by
one positive constant changes neither the sign of a cycle nor which
longest path wins, so this is exact; earliest times are divided back
afterwards.  A positive cycle is reported as soon as the predecessor
graph closes one (such a cycle is always positive), usually after a few
passes rather than the ``n`` that prove its existence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.service import Numeric, as_fraction
from .eventgraph import ConstraintEdge, EventGraph

ZERO = Fraction(0)


class InfeasibleScheduleError(ValueError):
    """The constraint graph has a positive cycle of height 0."""


def _scaled_arcs(
    edges: List[ConstraintEdge], lam: Fraction
) -> Tuple[int, List[Tuple[int, int, int]]]:
    """``(D, [(src, dst, D * (w - lam * h)), ...])`` with every entry an int.

    ``D`` is the least common denominator of *lam* and every weight.
    """
    den = lam.denominator
    for e in edges:
        den = math.lcm(den, e.weight.denominator)
    lam_scaled = lam.numerator * (den // lam.denominator)
    arcs = [
        (
            e.src,
            e.dst,
            e.weight.numerator * (den // e.weight.denominator)
            - lam_scaled * e.height,
        )
        for e in edges
    ]
    return den, arcs


def _pred_cycle(
    starts: List[int], pred: List[int], srcs: List[int]
) -> Optional[List[int]]:
    """A cycle of the predecessor graph reached backwards from *starts*.

    Walks each start's predecessor chain; a chain that runs into itself
    closes a cycle, one that runs into an earlier chain adds nothing new.
    """
    owner: Dict[int, int] = {}
    for start in starts:
        if start in owner:
            continue  # on an earlier chain (or listed twice)
        node = start
        while node not in owner:
            owner[node] = start
            ei = pred[node]
            if ei == -1:
                break
            node = srcs[ei]
        else:
            if owner[node] == start:
                cycle = [node]
                v = srcs[pred[node]]
                while v != node:
                    cycle.append(v)
                    v = srcs[pred[v]]
                return cycle
    return None


def _find_positive_cycle(
    n: int, edges: List[ConstraintEdge], lam: Fraction
) -> Optional[Tuple[Fraction, int]]:
    """Return ``(sum_w, sum_h)`` of a strictly positive cycle, else ``None``.

    Longest-path Bellman–Ford from a virtual source connected to every
    event with length 0.  Every relaxation strictly improves its target,
    so a cycle of the predecessor graph has strictly positive reduced
    weight: the graph is checked for one after each pass, which exposes a
    positive cycle long before the ``n`` passes that prove one exists.
    """
    if n == 0 or not edges:
        return None
    den, arcs = _scaled_arcs(edges, lam)
    srcs = [e.src for e in edges]
    dist = [0] * n
    pred: List[int] = [-1] * n  # index into `edges`
    for _ in range(n):
        updated: List[int] = []
        for ei, (src, dst, reduced) in enumerate(arcs):
            cand = dist[src] + reduced
            if cand > dist[dst]:
                dist[dst] = cand
                pred[dst] = ei
                updated.append(dst)
        if not updated:
            return None
        cycle = _pred_cycle(updated, pred, srcs)
        if cycle is not None:
            reduced = sum(arcs[pred[v]][2] for v in cycle)
            cycle_h = sum(edges[pred[v]].height for v in cycle)
            return Fraction(reduced, den) + lam * cycle_h, cycle_h
    raise AssertionError("relaxation persisted but no cycle was extracted")


def minimum_period(
    graph: EventGraph, floor: Numeric = 0, *, cutoff: Optional[Numeric] = None
) -> Fraction:
    """Smallest ``lambda >= floor`` making *graph*'s constraints feasible.

    The result is exact whatever *floor* is; a *floor* equal to the ratio
    of some cycle of *graph* (a proven lower bound) only saves raising
    steps.  With a *cutoff*, raising stops as soon as ``lambda >= cutoff``
    and that ``lambda`` is returned: the exact answer is then only known to
    be at least *cutoff*.

    Raises :class:`InfeasibleScheduleError` when a positive cycle of height
    0 exists (no period can satisfy the constraints) — unless the cutoff
    stops the search first.
    """
    lam = as_fraction(floor)
    limit = None if cutoff is None else as_fraction(cutoff)
    n = graph.n_events
    edges = graph.edges
    while limit is None or lam < limit:
        found = _find_positive_cycle(n, edges, lam)
        if found is None:
            return lam
        cycle_w, cycle_h = found
        if cycle_h == 0:
            raise InfeasibleScheduleError(
                f"positive cycle of height 0 with total weight {cycle_w}"
            )
        ratio = cycle_w / cycle_h
        if ratio <= lam:  # safety: should be strictly positive progress
            raise AssertionError(
                "cycle raising failed to make progress "
                f"(lambda={lam}, cycle ratio={ratio})"
            )
        lam = ratio
    return lam


def is_feasible(graph: EventGraph, lam: Numeric) -> bool:
    """Is the constraint system satisfiable at period *lam*?"""
    found = _find_positive_cycle(graph.n_events, graph.edges, as_fraction(lam))
    return found is None


def earliest_times(graph: EventGraph, lam: Numeric) -> Dict[object, Fraction]:
    """Earliest event times at period *lam* (all ``>= 0``), by event label.

    This is the longest path from a virtual time-0 source under reduced
    costs; *lam* must be feasible.
    """
    lam = as_fraction(lam)
    n = graph.n_events
    edges = graph.edges
    dist = [0] * n
    den = 1
    if edges:
        den, arcs = _scaled_arcs(edges, lam)
        for _ in range(n):
            changed = False
            for src, dst, reduced in arcs:
                cand = dist[src] + reduced
                if cand > dist[dst]:
                    dist[dst] = cand
                    changed = True
            if not changed:
                break
        else:
            if _find_positive_cycle(n, edges, lam) is not None:
                raise InfeasibleScheduleError(f"period {lam} is infeasible")
    return {graph.label(i): Fraction(dist[i], den) for i in range(n)}


def brute_force_mcr(graph: EventGraph) -> Optional[Fraction]:
    """Reference implementation: enumerate all simple cycles (tests only).

    Returns the maximum ratio over simple cycles with positive height, or
    ``None`` when the graph has no such cycle.  Raises
    :class:`InfeasibleScheduleError` on a positive cycle of height 0.
    Exponential — only for cross-checking :func:`minimum_period` on small
    random graphs.
    """
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.n_events))
    for e in graph.edges:
        g.add_edge(e.src, e.dst, weight=e.weight, height=e.height)
    best: Optional[Fraction] = None
    for cycle in nx.simple_cycles(g):
        nodes = list(cycle)
        m = len(nodes)
        # For multigraphs, enumerate parallel-edge choices along the cycle.
        choices: List[List[Tuple[Fraction, int]]] = []
        for i in range(m):
            u, v = nodes[i], nodes[(i + 1) % m]
            opts = [
                (data["weight"], data["height"])
                for data in g.get_edge_data(u, v).values()
            ]
            choices.append(opts)
        import itertools

        for combo in itertools.product(*choices):
            w = sum((c[0] for c in combo), ZERO)
            h = sum(c[1] for c in combo)
            if h == 0:
                if w > 0:
                    raise InfeasibleScheduleError(
                        f"positive cycle of height 0 with total weight {w}"
                    )
                continue
            ratio = w / h
            if best is None or ratio > best:
                best = ratio
    return best


__all__ = [
    "InfeasibleScheduleError",
    "minimum_period",
    "is_feasible",
    "earliest_times",
    "brute_force_mcr",
]
