"""Float fast-path cost kernel with exact certification (two-tier numerics).

Every quantity of :mod:`repro.core.costs` is an exact
:class:`~fractions.Fraction`, which keeps the reproduction bit-for-bit
faithful to the paper — and makes the search hot paths (branch-and-bound
node scoring, reparenting and placement local search, exhaustive scans) one
to two orders of magnitude slower than native floats.  This module is the
**fast tier** of a two-tier numeric engine:

* :class:`GraphArrays` compiles one execution graph into integer-indexed
  flat arrays — ancestor-selectivity products, output sizes, work volumes,
  predecessor/successor index lists — with no dict lookups or
  ``Fraction`` allocation past construction;
* :class:`FloatCosts` mirrors the :class:`~repro.core.CostModel` bound
  algebra (``Cin``/``Ccomp``/``Cout``, per-server aggregates,
  ``period_lower_bound``, ``latency_lower_bound``) in float arithmetic on
  those arrays, for any platform/mapping configuration (shared mappings
  included);
* :class:`Exactness` names the certification contract a caller picks, and
  :data:`CERT_EPS` is the conservative relative slack every *certified*
  float comparison must leave;
* :func:`certified_threshold` and the running best :class:`Incumbent`
  built on it are the one float gate every certified search uses.

The **certification protocol**: searches rank, prune and accept/reject
candidates on the float tier, but a certified search may discard a
candidate only when its float lower bound exceeds the incumbent by more
than ``CERT_EPS`` *relative* — ``float_lb > incumbent * (1 + eps)`` — and
must re-score every surviving incumbent in exact ``Fraction``s.  Float
evaluation of the Section-2.1 algebra over ``n`` services accumulates at
most a few hundred ulps of relative error (``~1e-13``), so a slack of
``1e-9`` can never hide a true improvement: any candidate whose exact
value beats the exact incumbent also beats the float threshold, hence is
re-scored exactly and the returned optimum stays bit-for-bit the paper's.
See ``docs/performance.md`` for the full argument and measurements.

    >>> from repro import CommModel, ExecutionGraph, make_application
    >>> from repro.core import CostModel
    >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    >>> graph = ExecutionGraph.chain(app, ["A", "B"])
    >>> fast = FloatCosts(graph)
    >>> fast.period_lower_bound(CommModel.OVERLAP)
    4.0
    >>> float(CostModel(graph).period_lower_bound(CommModel.OVERLAP))
    4.0
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Optional, Union

from .constants import INPUT, OUTPUT
from .graph import ExecutionGraph
from .models import CommModel
from .platform import Mapping, Platform, link_flow_counts

#: Relative slack of every certified float comparison.  Float evaluation
#: of the cost algebra keeps ~1e-13 relative accuracy (a few hundred ulps
#: over the longest product chains we form), so 1e-9 leaves four orders of
#: magnitude of margin while still pruning everything that is not a
#: near-tie.  Near-ties inside the band fall back to exact arithmetic.
CERT_EPS = 1e-9


class Exactness(enum.Enum):
    """How much exactness a solve guarantees — the two-tier engine's knob.

    * ``EXACT`` — every comparison and every value in exact ``Fraction``
      arithmetic; the pre-fast-path behaviour, bit-for-bit.
    * ``CERTIFIED`` — rank/prune/scan on the float tier with the
      :data:`CERT_EPS` guard, re-score candidates that survive in exact
      ``Fraction``s.  Returned values are **bit-for-bit identical** to
      ``EXACT``; only the wall time changes.  The default everywhere.
    * ``FAST`` — float tier throughout; returned values are float images
      (exact binary ``Fraction(float)``) and optimality is *not*
      certified.  For scans and sweeps where speed beats the last ulp.
    """

    EXACT = "exact"
    CERTIFIED = "certified"
    FAST = "fast"

    @classmethod
    def coerce(cls, value: Union[str, "Exactness", None]) -> "Exactness":
        """Accept an :class:`Exactness`, its string value, or ``None``."""
        if value is None:
            return cls.CERTIFIED
        if isinstance(value, Exactness):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(e.value for e in cls)
            raise ValueError(
                f"unknown exactness {value!r}; expected one of: {names}"
            ) from None

    @property
    def uses_float(self) -> bool:
        """Does this mode run the float tier inside searches?"""
        return self is not Exactness.EXACT

    @property
    def memo_tier(self) -> str:
        """The cache/memo slot this tier's *values* belong to.

        ``CERTIFIED`` results are bit-for-bit the ``EXACT`` ones (the
        float tier only gates which candidates get exact scoring), so the
        two share the ``"exact"`` slot; ``FAST`` values are float images
        and must never be served to an exact or certified caller — they
        get their own slot.  The single source of truth for both the
        evaluation cache and the placement memo.
        """
        return "fast" if self is Exactness.FAST else "exact"


class GraphArrays:
    """Mapping-independent flat arrays of one execution graph.

    Node order is the application's canonical name order; every array is
    indexed by that integer position.  Platform-independent quantities —
    selectivities, costs, ancestor products, output sizes, work volumes —
    are computed once here so several :class:`FloatCosts` (one per
    candidate mapping, say) can share them.
    """

    __slots__ = (
        "graph", "names", "index", "n", "sigma", "cost",
        "preds", "succs", "topo", "anc", "outsize", "work",
    )

    def __init__(self, graph: ExecutionGraph) -> None:
        self.graph = graph
        names = list(graph.nodes)
        self.names = names
        index = {name: i for i, name in enumerate(names)}
        self.index = index
        self.n = len(names)
        app = graph.application
        self.sigma = [float(app.selectivity(name)) for name in names]
        self.cost = [float(app.cost(name)) for name in names]
        self.preds = [
            [index[p] for p in graph.predecessors(name)] for name in names
        ]
        self.succs = [
            [index[s] for s in graph.successors(name)] for name in names
        ]
        self.topo = [index[name] for name in graph.topological_order]
        anc = [1.0] * self.n
        for name in names:
            i = index[name]
            ancestors = graph.ancestors(name)
            prod = 1.0
            # Fold in canonical name order, not set-iteration order: the
            # product is then a deterministic float expression any batched
            # kernel can replay operation-for-operation (bit-for-bit).
            for j, other in enumerate(names):
                if other in ancestors:
                    prod *= self.sigma[j]
            anc[i] = prod
        self.anc = anc
        self.outsize = [anc[i] * self.sigma[i] for i in range(self.n)]
        self.work = [anc[i] * self.cost[i] for i in range(self.n)]


class FloatCosts:
    """Float mirror of :class:`~repro.core.CostModel` on flat arrays.

    Accepts the same ``(graph, platform, mapping)`` configurations as the
    exact model — unit platforms collapse to the paper's normalised
    arithmetic, shared (non-injective) mappings zero intra-server edges
    and aggregate per server.  Every query answers in native floats;
    relative agreement with the exact model is property-tested to 1e-9.

    Pass *arrays* (a :class:`GraphArrays` built from the same graph) to
    amortise the mapping-independent compilation across many mappings.
    *weights* (per-service scale factors, the concurrent planner's
    ``1 / period_target``) scale each service's three quantities in the
    shared per-server aggregation, mirroring
    :class:`repro.optimize.incremental.IncrementalSharedCosts`.
    """

    __slots__ = (
        "arrays", "platform", "mapping", "_shared",
        "_speed_div", "_in_coef", "_input_coef", "_out_coef", "_output_coef",
        "_server", "_cin", "_ccomp", "_cout", "_weight",
    )

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        *,
        arrays: Optional[GraphArrays] = None,
        weights: Optional[Dict[str, object]] = None,
    ) -> None:
        a = arrays if arrays is not None else GraphArrays(graph)
        self.arrays = a
        if platform is None:
            mapping = None  # mirror CostModel: a mapping needs a platform
        elif mapping is None:
            mapping = Mapping.default(graph.nodes, platform)
        self.platform = platform
        self.mapping = mapping
        scaled = platform is not None and not platform.is_unit
        # Weighted queries always aggregate per server: a shared-space
        # candidate that happens to be injective must still be priced as
        # the weighted per-server load (the exact objective the concurrent
        # searches certify against), not the unweighted per-node maximum.
        shared = mapping is not None and (
            not mapping.is_injective or bool(weights)
        )
        self._shared = shared

        n = a.n
        if mapping is not None:
            server: List[Optional[str]] = [mapping.server(name) for name in a.names]
        else:
            server = [None] * n
        self._server = server

        if scaled:
            assert platform is not None
            speed_cache: Dict[str, float] = {}
            bw_cache: Dict[tuple, float] = {}

            def speed(u: str) -> float:
                found = speed_cache.get(u)
                if found is None:
                    found = speed_cache[u] = float(platform.speed(u))
                return found

            def coef(u: str, v: str) -> float:
                found = bw_cache.get((u, v))
                if found is None:
                    found = bw_cache[(u, v)] = 1.0 / float(platform.bandwidth(u, v))
                return found

            speed_div = [speed(server[i] or a.names[i]) for i in range(n)]
            # Contended topologies: the coefficient of a cross-server pair
            # is the route bottleneck with flow counts folded in —
            # ``max_l k_l / cap_l``.  Computed as ``float(k) * (1/float(cap))``
            # so the batched kernel can replay the expression bit-for-bit
            # (counts are small exact integers; the max is order-free).
            contended: Dict[tuple, float] = {}
            if platform.has_contention and mapping is not None:
                flows = [
                    (server[i], server[j])
                    for i in range(n)
                    for j in a.succs[i]
                    if server[i] != server[j]
                ]
                counts = link_flow_counts(platform, flows)
                invcap = [1.0 / float(c) for c in platform.link_capacities()]
                for pair in set(flows):
                    route = platform.route(*pair)
                    if route:
                        contended[pair] = max(
                            float(counts[l]) * invcap[l] for l in route
                        )
        else:
            def coef(u: str, v: str) -> float:  # noqa: ARG001 - unit platform
                return 1.0

            speed_div = [1.0] * n
            contended = {}

        def edge_coef(i: int, j: int) -> float:
            """Transfer-time coefficient of the edge ``i -> j`` (0 = free)."""
            if shared and server[i] == server[j]:
                return 0.0
            if not scaled:
                return 1.0
            eff = contended.get((server[i], server[j]))
            if eff is not None:
                return eff
            return coef(server[i] or a.names[i], server[j] or a.names[j])

        self._in_coef = [[edge_coef(p, i) for p in a.preds[i]] for i in range(n)]
        self._input_coef = [
            coef(INPUT, server[i] or a.names[i]) if scaled else 1.0
            for i in range(n)
        ]
        self._out_coef = [[edge_coef(i, s) for s in a.succs[i]] for i in range(n)]
        self._output_coef = [
            coef(server[i] or a.names[i], OUTPUT) if scaled else 1.0
            for i in range(n)
        ]

        outsize = a.outsize
        cin = [0.0] * n
        cout = [0.0] * n
        for i in range(n):
            preds = a.preds[i]
            if preds:
                acc = 0.0
                row = self._in_coef[i]
                for k, p in enumerate(preds):
                    acc += outsize[p] * row[k]
                cin[i] = acc
            else:
                cin[i] = self._input_coef[i]
            succs = a.succs[i]
            if succs:
                acc = 0.0
                row = self._out_coef[i]
                for k in range(len(succs)):
                    acc += outsize[i] * row[k]
                cout[i] = acc
            else:
                cout[i] = outsize[i] * self._output_coef[i]
        self._cin = cin
        self._ccomp = [a.work[i] / speed_div[i] for i in range(n)]
        self._cout = cout
        self._speed_div = speed_div
        if weights:
            self._weight: Optional[List[float]] = [
                float(weights.get(name, 1)) for name in a.names  # type: ignore[arg-type]
            ]
        else:
            self._weight = None

    # -- per-service queries (float mirrors of CostModel) -------------------
    def ancestor_selectivity(self, node: str) -> float:
        return self.arrays.anc[self.arrays.index[node]]

    def outsize(self, node: str) -> float:
        return self.arrays.outsize[self.arrays.index[node]]

    def cin(self, node: str) -> float:
        return self._cin[self.arrays.index[node]]

    def ccomp(self, node: str) -> float:
        return self._ccomp[self.arrays.index[node]]

    def cout(self, node: str) -> float:
        return self._cout[self.arrays.index[node]]

    def cexec(self, node: str, model: CommModel) -> float:
        i = self.arrays.index[node]
        if model.overlaps_compute:
            return max(self._cin[i], self._ccomp[i], self._cout[i])
        return self._cin[i] + self._ccomp[i] + self._cout[i]

    # -- global bounds -------------------------------------------------------
    def period_lower_bound(self, model: CommModel) -> float:
        """Float ``max_u Cexec(u)`` — per server when the mapping shares."""
        cin, ccomp, cout = self._cin, self._ccomp, self._cout
        overlap = model.overlaps_compute
        if self._shared:
            weight = self._weight
            sums: Dict[str, List[float]] = {}
            for i in range(self.arrays.n):
                acc = sums.get(self._server[i])  # type: ignore[arg-type]
                if acc is None:
                    acc = sums[self._server[i]] = [0.0, 0.0, 0.0]  # type: ignore[index]
                w = 1.0 if weight is None else weight[i]
                acc[0] += w * cin[i]
                acc[1] += w * ccomp[i]
                acc[2] += w * cout[i]
            if overlap:
                return max(max(acc) for acc in sums.values())
            return max(acc[0] + acc[1] + acc[2] for acc in sums.values())
        if overlap:
            best = 0.0
            for i in range(self.arrays.n):
                v = cin[i]
                if ccomp[i] > v:
                    v = ccomp[i]
                if cout[i] > v:
                    v = cout[i]
                if v > best:
                    best = v
            return best
        return max(
            cin[i] + ccomp[i] + cout[i] for i in range(self.arrays.n)
        )

    def latency_lower_bound(self) -> float:
        """Float critical-path latency bound (mirrors the exact model)."""
        a = self.arrays
        finish = [0.0] * a.n
        for i in a.topo:
            preds = a.preds[i]
            if preds:
                row = self._in_coef[i]
                start = 0.0
                for k, p in enumerate(preds):
                    t = finish[p] + a.outsize[p] * row[k]
                    if t > start:
                        start = t
            else:
                start = self._input_coef[i]
            finish[i] = start + self._ccomp[i]
        return max(
            finish[i] + a.outsize[i] * self._output_coef[i]
            for i in range(a.n)
            if not a.succs[i]
        )

    # -- per-server aggregation (shared mappings) ---------------------------
    def server_cin(self, server: str) -> float:
        return sum(
            self._cin[i] for i in range(self.arrays.n) if self._server[i] == server
        )

    def server_ccomp(self, server: str) -> float:
        return sum(
            self._ccomp[i] for i in range(self.arrays.n) if self._server[i] == server
        )

    def server_cout(self, server: str) -> float:
        return sum(
            self._cout[i] for i in range(self.arrays.n) if self._server[i] == server
        )

    def server_cexec(self, server: str, model: CommModel) -> float:
        cin = self.server_cin(server)
        ccomp = self.server_ccomp(server)
        cout = self.server_cout(server)
        if model.overlaps_compute:
            return max(cin, ccomp, cout)
        return cin + ccomp + cout


def certified_threshold(incumbent) -> float:
    """The float cut above which a certified search may prune outright.

    *incumbent* is the running best, exact (a ``Fraction``) or float.  A
    candidate whose float lower bound exceeds this can not have an exact
    value below the exact incumbent (the float error is orders of
    magnitude below :data:`CERT_EPS`); anything at or under it must be
    re-scored exactly before being discarded.  An incumbent beyond float
    range gives ``inf``: no float value can reject, everything is scored
    exactly.
    """
    try:
        return float(incumbent) * (1.0 + CERT_EPS)
    except OverflowError:
        return math.inf


class Incumbent:
    """The running best of a certified scan and its float cut.

    :meth:`offer` keeps the first strict minimum (ties keep the earlier
    item) and moves the cut to :func:`certified_threshold` of the new
    best; :meth:`rejects` is the one float gate — a candidate is skipped
    only when its float lower bound lies above the cut.  Before the first
    offer nothing is rejected.

        >>> best = Incumbent()
        >>> best.offer(3, "a"), best.offer(3, "b")
        (True, False)
        >>> best.item, best.rejects(3.0), best.rejects(3.1), best.rejects(None)
        ('a', False, True, False)
    """

    __slots__ = ("value", "item", "cut")

    def __init__(self) -> None:
        self.value = None
        self.item = None
        self.cut = math.inf

    def offer(self, value, item) -> bool:
        """Keep *item* if *value* strictly beats the best; report whether."""
        if self.value is not None and not value < self.value:
            return False
        self.value, self.item = value, item
        self.cut = certified_threshold(value)
        return True

    def rejects(self, fast: Optional[float]) -> bool:
        """Is the float bound *fast* provably no better than the best?

        ``None`` (no float value for this candidate) never rejects; a
        numpy array of bounds is answered elementwise.
        """
        return fast is not None and fast > self.cut


__all__ = [
    "CERT_EPS",
    "Exactness",
    "FloatCosts",
    "GraphArrays",
    "Incumbent",
    "certified_threshold",
]
