"""Exhaustive search over execution graphs (exact references, small n).

Both MinPeriod and MinLatency are NP-hard in the full generality of the
paper (Theorems 2 and 4); these enumerations are the exact references the
heuristics and reductions are tested against.

* :func:`iter_forests` — all forests, via parent maps (``(n+1)^n`` with
  cycle filtering).  Proposition 4 guarantees some optimal MinPeriod plan
  is a forest when there are no precedence constraints.
* :func:`iter_dags` — all DAGs (deduplicated), for very small ``n``; used
  to verify Proposition 4 empirically and for latency where optimal plans
  need not be forests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core import (
    Application,
    CommModel,
    ExecutionGraph,
    Incumbent,
    iter_forest_rows,
)
from .evaluation import Effort, latency_objective, period_objective

#: :func:`iter_dags` refuses applications larger than this (the DAG space
#: explodes combinatorially); auto-selection thresholds derive from it.
MAX_DAG_SERVICES = 5


def iter_forests(app: Application) -> Iterator[ExecutionGraph]:
    """All forest execution graphs of *app* (no precedence constraints).

    Example (two services: both independent, A->B, B->A)::

        >>> from repro import make_application
        >>> app = make_application([("A", 1, 1), ("B", 1, 1)])
        >>> sum(1 for _ in iter_forests(app))
        3
    """
    if app.precedence:
        raise ValueError("forest enumeration assumes no precedence constraints")
    names = list(app.names)
    n = len(names)
    choices = [[None] + [p for p in names if p != child] for child in names]
    for combo in itertools.product(*choices):
        parents: Dict[str, Optional[str]] = dict(zip(names, combo))
        # reject parent cycles (follow pointers with a step bound)
        ok = True
        for start in names:
            node, steps = start, 0
            while node is not None:
                node = parents[node]
                steps += 1
                if steps > n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield ExecutionGraph.from_parents(app, parents)


def iter_dags(app: Application) -> Iterator[ExecutionGraph]:
    """All DAG execution graphs of *app*, deduplicated (tiny n only).

    Example (the 3 labelled 2-node DAGs: empty, A->B, B->A)::

        >>> from repro import make_application
        >>> app = make_application([("A", 1, 1), ("B", 1, 1)])
        >>> sum(1 for _ in iter_dags(app))
        3
    """
    names = list(app.names)
    n = len(names)
    if n > MAX_DAG_SERVICES:
        raise ValueError(
            f"DAG enumeration is unreasonable for n={n} > {MAX_DAG_SERVICES}"
        )
    seen = set()
    for perm in itertools.permutations(names):
        # predecessors of perm[j] are any subset of perm[:j]
        subset_lists = []
        for j in range(n):
            preds = perm[:j]
            subset_lists.append(
                list(
                    itertools.chain.from_iterable(
                        itertools.combinations(preds, k) for k in range(j + 1)
                    )
                )
            )
        for combo in itertools.product(*subset_lists):
            edges = frozenset(
                (p, perm[j]) for j in range(n) for p in combo[j]
            )
            if edges in seen:
                continue
            seen.add(edges)
            graph = ExecutionGraph(app, edges, check_precedence=False)
            if app.precedence:
                try:
                    graph._check_precedence()
                except Exception:
                    continue
            yield graph


def scan_best(
    graphs: Iterable[ExecutionGraph],
    objective,
    *,
    fast_objective: Optional[
        Callable[[ExecutionGraph], Optional[float]]
    ] = None,
) -> Tuple[Fraction, ExecutionGraph, int]:
    """Scan *graphs*, returning ``(best value, best graph, count scanned)``.

    Shared by the exhaustive searches here and the planner's exhaustive
    solver.  Ties keep the first graph in enumeration order.

    Passing *fast_objective* (a float-tier evaluator, e.g. from
    :func:`~repro.optimize.evaluation.make_fast_period_objective`) turns
    the scan into a **certified** two-tier sweep: each candidate is scored
    on the float kernel first and the exact *objective* is consulted only
    when the float value lands at or under the running best's
    :func:`~repro.core.certified_threshold` — so the result (value, graph
    and tie-breaks) is bit-for-bit the plain scan's, while the vast
    majority of candidates never allocate a Fraction.  A per-graph
    ``None`` from *fast_objective* (no kernel for that graph) falls back
    to exact scoring for that candidate.
    """
    best = Incumbent()
    count = 0
    for graph in graphs:
        count += 1
        if fast_objective is not None and best.rejects(fast_objective(graph)):
            continue  # provably no better than the incumbent
        best.offer(objective(graph), graph)
    if best.item is None:
        raise ValueError("no candidate execution graph")
    return best.value, best.item, count


def scan_best_forests_batched(
    app: Application,
    objective,
    batch,
    *,
    chunk: int = 512,
) -> Tuple[Fraction, ExecutionGraph, int]:
    """The certified forest scan of :func:`scan_best`, gated in bulk.

    *batch* is a :class:`~repro.core.ForestBatch` for the configuration
    being searched (see
    :func:`~repro.optimize.evaluation.make_forest_period_batch`).  Parent
    vectors are enumerated in :func:`iter_forests` order *chunk* rows at a
    time and priced in one numpy call per chunk; only rows at or under the
    running incumbent's :func:`~repro.core.certified_threshold` are
    materialised as graphs and scored through *objective*.  Because the
    batched floats are bit-for-bit the scalar kernel's, every gate
    decision — and therefore the returned ``(value, graph, count)``
    including tie-breaks — is identical to
    ``scan_best(iter_forests(app), objective, fast_objective=...)``.
    """
    if app.precedence:
        raise ValueError("forest enumeration assumes no precedence constraints")
    n = len(app.names)
    best = Incumbent()
    count = 0
    for rows, _base in iter_forest_rows(n, chunk):
        valid, fast = batch.periods(rows)
        count += int(valid.sum())
        # Chunk-level pre-filter with the cut as of the chunk start: it
        # only ever *keeps* rows the scalar scan would examine (the cut
        # never increases); the loop below re-checks the running cut so
        # the survivor set matches the scalar scan exactly.
        for r in np.nonzero(valid & ~best.rejects(fast))[0]:
            if best.rejects(fast[r]):
                continue  # provably no better than the incumbent
            graph = batch.decode(rows[r])
            best.offer(objective(graph), graph)
    if best.item is None:
        raise ValueError("no candidate execution graph")
    return best.value, best.item, count


def exhaustive_minperiod(
    app: Application,
    model: CommModel,
    *,
    forests_only: bool = True,
    effort: Effort = Effort.EXACT,
) -> Tuple[Fraction, ExecutionGraph]:
    """Exact MinPeriod by enumeration (forests by default — Prop 4).

    A plain exact reference scan; the planner's ``"exhaustive"`` solver
    is the float-gated (certified) form of the same search.

    Example (a filter in front of an expensive service halves its load;
    the facade equivalent is ``solve(app, method="exhaustive")``)::

        >>> from repro import CommModel, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> value, graph = exhaustive_minperiod(app, CommModel.OVERLAP)
        >>> value, sorted(graph.edges)
        (Fraction(4, 1), [('A', 'B')])
    """
    graphs = iter_forests(app) if forests_only else iter_dags(app)
    value, graph, _ = scan_best(
        graphs, lambda g: period_objective(g, model, effort)
    )
    return value, graph


def exhaustive_minlatency(
    app: Application,
    model: CommModel,
    *,
    forests_only: bool = False,
    effort: Effort = Effort.EXACT,
) -> Tuple[Fraction, ExecutionGraph]:
    """Exact MinLatency by enumeration.

    Optimal latency plans are *not* always forests (the Prop-13 gadget is a
    fork-join), so the default enumerates DAGs; ``forests_only=True`` gives
    the Proposition-17 restricted problem.

    Example (serial beats parallel here: filtering pays for the extra hop)::

        >>> from repro import CommModel, make_application
        >>> app = make_application([("A", 1, "1/4"), ("B", 8, 1)])
        >>> value, graph = exhaustive_minlatency(app, CommModel.OVERLAP)
        >>> value, sorted(graph.edges)
        (Fraction(9, 2), [('A', 'B')])
    """
    graphs = iter_forests(app) if forests_only else iter_dags(app)
    value, graph, _ = scan_best(
        graphs, lambda g: latency_objective(g, model, effort)
    )
    return value, graph


__all__ = [
    "MAX_DAG_SERVICES",
    "exhaustive_minlatency",
    "exhaustive_minperiod",
    "iter_dags",
    "iter_forests",
    "scan_best",
    "scan_best_forests_batched",
]
