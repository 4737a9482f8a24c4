"""Objective evaluators shared by the optimisers.

The full minimisation problems need a per-graph objective.  Depending on
the model this is exact-and-cheap (OVERLAP period, forest latency), exact
but exponential (one-port orchestration), or an upper bound from a
heuristic scheduler.  The :class:`Effort` knob picks the trade-off so
exhaustive searches stay honest about what they optimise.

On a heterogeneous :class:`~repro.core.Platform` the objectives take two
extra knobs: a *mapping* pins services to servers and evaluates exactly
that placement; ``mapping=None`` additionally optimises the placement
(exhaustive for small instances, greedy + local search beyond — see
:mod:`repro.optimize.placement`), so graph searches transparently become
graph × server-assignment searches.

The :class:`~repro.core.Exactness` knob picks the numeric tier.  ``EXACT``
and ``CERTIFIED`` return bit-for-bit identical exact ``Fraction``s for a
single graph (certification only changes how *searches* use the float
kernel internally); ``FAST`` answers from the
:class:`~repro.core.FloatCosts` flat-array kernel wherever the Section-2.1
bound *is* the objective — OVERLAP period (Theorem 1), the ``BOUND``
effort, shared-server mappings — returning the exact binary image
``Fraction(float_value)``; configurations without a float kernel fall back
to the exact computation.

Callers that already hold a :class:`~repro.core.CostModel` for the same
``(graph, platform, mapping)`` can pass it as ``costs=`` and it is reused
instead of rebuilt — the schedulers accept the same keyword, so one model
now serves a whole evaluation instead of being constructed per layer.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional, Union

from ..core import (
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    ForestBatch,
    Mapping,
    Platform,
)
from ..scheduling.inorder import (  # noqa: F401
    # exact_inorder_period is unused here but stays bound: perfbench's
    # layer map wraps the name in this module
    exact_inorder_period,
    greedy_orders,
    inorder_period,
    inorder_period_for_orders,
    operation_durations,
)
from ..scheduling.latency import (
    exact_oneport_latency,
    oneport_latency_schedule,
    overlap_latency_layered,
    tree_latency,
)
from ..scheduling.outorder import outorder_period


class Effort(enum.Enum):
    """How hard evaluators work: a bound, a heuristic, or exact search."""

    BOUND = "bound"
    HEURISTIC = "heuristic"
    EXACT = "exact"


def _normalise(
    platform: Optional[Platform], mapping: Optional[Mapping]
) -> "tuple[Optional[Platform], Optional[Mapping]]":
    """Unit platforms evaluate exactly like ``platform=None`` — collapse them.

    This keeps the fast normalised code path (and shared cache entries) for
    ``Platform.homogeneous(n)``, the paper's platform.  A shared
    (non-injective) mapping is *never* collapsed: co-location zeroes
    intra-server communications and aggregates per-server loads even when
    every speed and bandwidth is 1.
    """
    if (
        platform is not None
        and platform.is_unit
        and (mapping is None or mapping.is_injective)
    ):
        return None, None
    return platform, mapping


def period_is_bound(
    model: CommModel, effort: Effort, mapping: Optional[Mapping]
) -> bool:
    """Is the Section-2.1 bound ``max Cexec`` the period objective itself?

    True for OVERLAP at every effort (Theorem 1, any platform), for the
    ``BOUND`` effort by definition, and for shared-server mappings (the
    one-port orchestration schedulers assume one service per server; the
    aggregated steady-state bound is the concurrent regime's analytic
    readout).  The one
    coverage rule of the period objective's float kernels: wherever it
    holds, a float lower bound may gate the exact objective.  *mapping*
    is the normalised one (``None`` on the unit platform).
    """
    return (
        model is CommModel.OVERLAP
        or effort is Effort.BOUND
        or (mapping is not None and not mapping.is_injective)
    )


def latency_is_bound(
    effort: Effort, mapping: Optional[Mapping], graph: ExecutionGraph
) -> bool:
    """Is the critical-path bound the latency objective itself?

    True for shared-server mappings (Algorithm 1 and the one-port
    schedulers assume one service per server; the critical path with free
    intra-server edges is the concurrent regime's readout) and, at the
    ``BOUND`` effort, for every graph but an injective forest (whose
    objective is Algorithm 1).
    The latency twin of :func:`period_is_bound`; the model plays no role.
    """
    shared = mapping is not None and not mapping.is_injective
    return shared or (effort is Effort.BOUND and not graph.is_forest)


def fast_period_value(
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[float]:
    """Float-tier period value, or ``None`` when no float kernel applies.

    One-shot form of :func:`make_fast_period_objective` — that factory is
    the single source of truth for which configurations the kernel
    covers.
    """
    fast = make_fast_period_objective(model, effort, platform, mapping)
    return fast(graph) if fast is not None else None


def fast_latency_value(
    graph: ExecutionGraph,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[float]:
    """Float-tier latency value, or ``None`` when no float kernel applies.

    One-shot form of :func:`make_fast_latency_objective` — that factory
    is the single source of truth for which configurations the kernel
    covers.
    """
    fast = make_fast_latency_objective(effort, platform, mapping)
    return fast(graph) if fast is not None else None


def period_objective(
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    *,
    costs: Optional[CostModel] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Fraction:
    """Period of the best known operation list for *graph* under *model*.

    * OVERLAP: always exact (Theorem 1 — the bound is achievable, on any
      platform).
    * INORDER: ``BOUND`` returns ``max_k Cexec``; ``HEURISTIC`` uses greedy
      orders + MCR (achievable); ``EXACT`` enumerates orders when feasible.
    * OUTORDER: ``BOUND`` as above; otherwise the repair scheduler's value
      (achievable, certified when it meets the bound).

    With a non-unit *platform* and ``mapping=None`` the value is the best
    over server assignments (the placement optimiser of
    :mod:`repro.optimize.placement`).

    *costs* reuses a caller-built :class:`~repro.core.CostModel` for the
    same configuration; *exactness* picks the numeric tier (``FAST``
    answers from the float kernel where one exists — see the module
    docstring).

    The Section 2.3 instance shows the INORDER bound/exact gap::

        >>> from repro.core import CommModel
        >>> from repro.workloads import fig1_example
        >>> graph = fig1_example().graph
        >>> period_objective(graph, CommModel.INORDER, Effort.BOUND)
        Fraction(7, 1)
        >>> period_objective(graph, CommModel.INORDER, Effort.EXACT)
        Fraction(23, 3)

    The planner memoizes this function through
    :class:`repro.planner.EvaluationCache`.
    """
    exactness = Exactness.coerce(exactness)
    platform, mapping = _normalise(platform, mapping)
    if exactness is Exactness.FAST:
        fast = fast_period_value(graph, model, effort, platform, mapping)
        if fast is not None:
            return Fraction(fast)
    if platform is not None and mapping is None:
        from .placement import optimize_mapping

        value, _ = optimize_mapping(
            graph, "period", model, effort, platform, exactness=exactness
        )
        return value
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    if period_is_bound(model, effort, mapping):
        return costs.period_lower_bound(model)
    if model is CommModel.INORDER:
        if effort is Effort.EXACT:
            # the value inorder_schedule's plan achieves, without the plan
            return inorder_period(graph, costs=costs)
        return inorder_period_for_orders(
            graph,
            greedy_orders(graph, costs=costs),
            durations=operation_durations(costs),
        )
    # OUTORDER
    return outorder_period(graph, costs=costs)


def latency_objective(
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    *,
    costs: Optional[CostModel] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Fraction:
    """Latency of the best known operation list for *graph* under *model*.

    Forests are exact for every effort level (Algorithm 1 / Prop 12, which
    generalises to platforms via the delivery-time exchange argument).
    General DAGs use the critical-path bound (``BOUND``), the greedy
    serialized scheduler plus — for OVERLAP — the layered bandwidth-sharing
    scheduler (``HEURISTIC``), or branch-and-bound (``EXACT``, one-port;
    an upper bound for OVERLAP where multi-port can be strictly better).

    With a non-unit *platform* and ``mapping=None`` the value is the best
    over server assignments.  *costs*/*exactness* as in
    :func:`period_objective`.

    Example (the Figure-1 graph; the paper's hand schedule achieves 21)::

        >>> from repro.core import CommModel
        >>> from repro.workloads import fig1_example
        >>> latency_objective(fig1_example().graph, CommModel.INORDER)
        Fraction(21, 1)
    """
    exactness = Exactness.coerce(exactness)
    platform, mapping = _normalise(platform, mapping)
    if exactness is Exactness.FAST:
        fast = fast_latency_value(graph, effort, platform, mapping)
        if fast is not None:
            return Fraction(fast)
    if platform is not None and mapping is None:
        from .placement import optimize_mapping

        value, _ = optimize_mapping(
            graph, "latency", model, effort, platform, exactness=exactness
        )
        return value
    if latency_is_bound(effort, mapping, graph):
        if costs is None:
            costs = CostModel(graph, platform, mapping)
        return costs.latency_lower_bound()
    if graph.is_forest:
        return tree_latency(graph, platform=platform, mapping=mapping)
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    if effort is Effort.EXACT and len(graph.nodes) <= 7:
        value = exact_oneport_latency(graph, platform=platform, mapping=mapping)
    else:
        value = oneport_latency_schedule(
            graph, platform=platform, mapping=mapping
        ).latency
    if model is CommModel.OVERLAP:
        layered = overlap_latency_layered(graph, platform=platform, mapping=mapping)
        if layered is not None and layered.latency < value:
            value = layered.latency
    return value


Objective = Callable[[ExecutionGraph], Fraction]


def make_period_objective(
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Objective:
    """Bind :func:`period_objective` to a fixed model/effort/platform.

    Example::

        >>> from repro.core import CommModel, ExecutionGraph, make_application
        >>> obj = make_period_objective(CommModel.OVERLAP)
        >>> app = make_application([("A", 4, 1), ("B", 4, 1)])
        >>> obj(ExecutionGraph.chain(app, ["A", "B"]))
        Fraction(4, 1)

    For a memoized equivalent use
    ``repro.planner.EvaluationCache.objective("period", model, effort)``.
    """
    return lambda graph: period_objective(
        graph, model, effort, platform, mapping, exactness=exactness
    )


def make_latency_objective(
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Objective:
    """Bind :func:`latency_objective` to a fixed model/effort/platform.

    Example::

        >>> from repro.core import CommModel, ExecutionGraph, make_application
        >>> obj = make_latency_objective(CommModel.OVERLAP)
        >>> app = make_application([("A", 4, 1), ("B", 4, 1)])
        >>> obj(ExecutionGraph.chain(app, ["A", "B"]))   # 1+4+1+4+1
        Fraction(11, 1)
    """
    return lambda graph: latency_objective(
        graph, model, effort, platform, mapping, exactness=exactness
    )


def make_fast_period_objective(
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[Callable[[ExecutionGraph], Optional[float]]]:
    """A ``graph -> float | None`` period evaluator on the float tier.

    The single source of truth for the period kernel's coverage: OVERLAP
    at any effort (Theorem 1), the ``BOUND`` effort under any model, and
    shared-server mappings (whose aggregated bound is the concurrent
    readout) — exactly the configurations where the Section-2.1 bound
    *is* the period objective.  A non-unit platform with a free mapping
    is not covered (the objective there runs the placement optimiser,
    which has its own fast path), and the factory then returns ``None``.
    The returned callable answers ``None`` per graph when the instance's
    quantities overflow a float — the caller must score exactly.
    """
    plat, mapp = _normalise(platform, mapping)
    if plat is not None and mapp is None:
        return None
    if not period_is_bound(model, effort, mapp):
        return None

    def evaluate(graph: ExecutionGraph) -> Optional[float]:
        try:
            return FloatCosts(graph, plat, mapp).period_lower_bound(model)
        except OverflowError:
            return None  # beyond float range: exact tier only

    return evaluate


def make_forest_period_batch(
    app,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
):
    """A :class:`~repro.core.ForestBatch` for this configuration, or ``None``.

    The batched twin of :func:`make_fast_period_objective`: covered in
    exactly the same configurations (its per-row values are bit-for-bit
    the scalar kernel's), ``None`` where the scalar factory would return
    ``None`` — plus when numpy is unavailable or the instance overflows
    float range at compilation time.
    """
    plat, mapp = _normalise(platform, mapping)
    if plat is not None and mapp is None:
        return None
    if not period_is_bound(model, effort, mapp):
        return None
    try:
        return ForestBatch(app, model, plat, mapp)
    except OverflowError:
        return None  # beyond float range: exact tier only


def make_fast_latency_objective(
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[Callable[[ExecutionGraph], Optional[float]]]:
    """A ``graph -> float | None`` latency evaluator on the float tier.

    The single source of truth for the latency kernel's coverage: shared
    mappings and the ``BOUND`` effort, minus injective forests (their
    objective is the Algorithm-1 scheduler, answered with a per-graph
    ``None`` — as is an instance overflowing float range).  The
    communication model plays no role: the critical-path bound is
    model-independent.
    """
    plat, mapp = _normalise(platform, mapping)
    if plat is not None and mapp is None:
        return None
    shared = mapp is not None and not mapp.is_injective
    if not (shared or effort is Effort.BOUND):
        return None

    def evaluate(graph: ExecutionGraph) -> Optional[float]:
        if not latency_is_bound(effort, mapp, graph):
            return None  # Algorithm 1 territory: no float shortcut
        try:
            return FloatCosts(graph, plat, mapp).latency_lower_bound()
        except OverflowError:
            return None  # beyond float range: exact tier only
    return evaluate


__all__ = [
    "Effort",
    "Objective",
    "fast_latency_value",
    "fast_period_value",
    "latency_is_bound",
    "latency_objective",
    "make_fast_latency_objective",
    "make_fast_period_objective",
    "make_forest_period_batch",
    "make_latency_objective",
    "make_period_objective",
    "period_is_bound",
    "period_objective",
]
