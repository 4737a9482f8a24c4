"""Delta evaluation for the searches' hot paths (exact-Fraction parity).

The reparenting local search and the placement local search both score
hundreds of near-identical candidates per pass, and the baseline path
rebuilds an :class:`~repro.core.ExecutionGraph` plus a full
:class:`~repro.core.CostModel` for every one of them.  The Section-2.1
algebra makes that unnecessary:

* **Reparenting** a service ``v`` (moving its subtree under a new parent)
  rescales the ancestor-selectivity product of every node in ``v``'s
  subtree by a single factor ``f = P_new(v) / P_old(v)`` — so the
  subtree's ``Cin``/``Ccomp``/``Cout`` all scale by ``f`` — and only the
  old and new parents' ``Cout`` (one message removed / added) plus ``v``'s
  own ``Cin`` need recomputation.  :class:`IncrementalForestPeriod`
  maintains exactly those quantities.
* **Reassigning or swapping servers** on a fixed graph leaves every data
  size untouched; only the moved services' ``Ccomp`` (new speed) and the
  communication times of their incident edges (new links) change.
  :class:`IncrementalMappingCosts` recomputes just the touched services.

Both evaluators compute the same value as a fresh
:meth:`CostModel.period_lower_bound` — bit-for-bit, in exact
:class:`~fractions.Fraction` arithmetic (property-tested against full
recomputation).  That bound *is* the period objective for OVERLAP
(Theorem 1, on any platform) and for ``Effort.BOUND`` under the one-port
models, which is when the searches engage the delta path; other
configurations keep the full evaluation.

**Two numeric tiers.**  The evaluators are numeric-generic: every input
quantity passes through the class's ``_num`` hook once at construction,
after which all arithmetic stays in that tier.  The base classes keep the
identity hook (exact ``Fraction``s); the ``Float*`` twins
(:class:`FloatForestPeriod`, :class:`FloatMappingCosts`,
:class:`FloatSharedCosts`) convert to native floats, turning every delta
into a handful of float multiplies — one to two orders of magnitude
faster.  The :class:`Certified` wrapper pairs an exact evaluator with its
float twin: candidates are scored on the float tier and only the ones
within the :data:`~repro.core.CERT_EPS` band of the current value are
re-scored exactly, so the accept/reject decisions — and hence the whole
search trajectory — stay **bit-for-bit identical** to the exact tier.

    >>> from repro import CommModel, ExecutionGraph, make_application
    >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    >>> inc = IncrementalForestPeriod(
    ...     ExecutionGraph.empty(app), model=CommModel.OVERLAP)
    >>> inc.value()
    Fraction(8, 1)
    >>> inc.score_reparent("B", "A")     # trial only — nothing committed
    Fraction(4, 1)
    >>> inc.apply_reparent("B", "A")
    >>> inc.value(), sorted(inc.graph().edges)
    (Fraction(4, 1), [('A', 'B')])
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core import (
    INPUT,
    OUTPUT,
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    GraphArrays,
    Mapping,
    Platform,
    certified_threshold,
)

ONE = Fraction(1)

#: A quantity in either numeric tier.
Num = Union[Fraction, float]


def _require_supported(
    platform: Optional[Platform], mapping: Optional[Mapping]
) -> Tuple[Optional[Platform], Optional[Mapping]]:
    """Unit platforms collapse to the paper's normalised model."""
    if mapping is not None and not mapping.is_injective:
        raise ValueError(
            "incremental reparenting assumes an injective mapping; use "
            "IncrementalSharedCosts for shared-server (concurrent) mappings"
        )
    if platform is None or platform.is_unit:
        return None, None
    if platform.has_contention:
        raise ValueError(
            "incremental evaluation does not model link contention: one "
            "move changes the flow counts, hence every co-routed edge's "
            "effective bandwidth; use FullPlacementCosts / a full "
            "CostModel recompute on contended topologies"
        )
    if mapping is None:
        raise ValueError(
            "incremental evaluation on a non-unit platform needs a pinned "
            "mapping (a free mapping re-optimises the placement per graph)"
        )
    return platform, mapping


class IncrementalForestPeriod:
    """Mutable ``Cin``/``Ccomp``/``Cout`` state of a forest, with deltas.

    Parameters mirror :class:`~repro.core.CostModel`: the value maintained
    is ``max_k Cexec(k)`` where ``Cexec`` is ``max(Cin, Ccomp, Cout)``
    under OVERLAP and the sum under the one-port models — i.e. exactly
    ``CostModel(graph, platform, mapping).period_lower_bound(model)``.

    ``score_reparent`` prices a candidate move without committing (``None``
    when the move would create a cycle); ``apply_reparent`` commits one.
    """

    #: Numeric-tier hook: every selectivity, cost, speed and bandwidth is
    #: converted through this exactly once.  The base class keeps exact
    #: ``Fraction``s; :class:`FloatForestPeriod` swaps in ``float``.
    _num = staticmethod(lambda value: value)

    def __init__(
        self,
        graph: ExecutionGraph,
        *,
        model: CommModel = CommModel.OVERLAP,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
    ) -> None:
        if not graph.is_forest:
            raise ValueError("incremental reparenting requires a forest")
        self.app = graph.application
        if self.app.precedence:
            raise ValueError("incremental reparenting assumes no precedence")
        self.model = model
        self.platform, self.mapping = _require_supported(platform, mapping)
        num = self._num
        self._one: Num = num(ONE)
        self._zero: Num = num(Fraction(0))
        self._sigma: Dict[str, Num] = {
            n: num(self.app.selectivity(n)) for n in self.app.names
        }
        self._costv: Dict[str, Num] = {
            n: num(self.app.cost(n)) for n in self.app.names
        }
        self._bw_cache: Dict[Tuple[str, str], Num] = {}
        self._speed_cache: Dict[str, Num] = {}
        self.parents: Dict[str, Optional[str]] = {}
        self.children: Dict[str, Set[str]] = {n: set() for n in self.app.names}
        for node in graph.nodes:
            preds = graph.predecessors(node)
            parent = preds[0] if preds else None
            self.parents[node] = parent
            if parent is not None:
                self.children[parent].add(node)
        self._anc: Dict[str, Num] = {}
        self._cin: Dict[str, Num] = {}
        self._ccomp: Dict[str, Num] = {}
        self._cout: Dict[str, Num] = {}
        for node in graph.topological_order:
            self._recompute(node)

    # -- platform helpers --------------------------------------------------
    def _bw(self, src: str, dst: str) -> Num:
        if self.platform is None:
            return self._one
        found = self._bw_cache.get((src, dst))
        if found is not None:
            return found
        endpoints = []
        for end in (src, dst):
            if end in (INPUT, OUTPUT):
                endpoints.append(end)
            else:
                endpoints.append(self.mapping.server(end))  # type: ignore[union-attr]
        value = self._num(self.platform.bandwidth(endpoints[0], endpoints[1]))
        self._bw_cache[(src, dst)] = value
        return value

    def _speed(self, node: str) -> Num:
        if self.platform is None:
            return self._one
        found = self._speed_cache.get(node)
        if found is None:
            found = self._speed_cache[node] = self._num(
                self.platform.speed(self.mapping.server(node))  # type: ignore[union-attr]
            )
        return found

    # -- per-node quantities ----------------------------------------------
    def _outsize(self, node: str) -> Num:
        return self._anc[node] * self._sigma[node]

    def _cin_of(self, node: str, parent: Optional[str], anc: Num) -> Num:
        if parent is None:
            return self._one / self._bw(INPUT, node)
        return anc / self._bw(parent, node)

    def _cout_of(
        self, node: str, anc: Num, children: Iterable[str]
    ) -> Num:
        outsize = anc * self._sigma[node]
        kids = list(children)
        if not kids:
            return outsize / self._bw(node, OUTPUT)
        return sum(
            (outsize / self._bw(node, child) for child in kids), self._zero
        )

    def _recompute(self, node: str) -> None:
        parent = self.parents[node]
        anc = self._one if parent is None else self._outsize(parent)
        self._anc[node] = anc
        self._cin[node] = self._cin_of(node, parent, anc)
        self._ccomp[node] = anc * self._costv[node] / self._speed(node)
        self._cout[node] = self._cout_of(node, anc, self.children[node])

    def _cexec(self, cin: Num, ccomp: Num, cout: Num) -> Num:
        if self.model.overlaps_compute:
            return max(cin, ccomp, cout)
        return cin + ccomp + cout

    # -- public API --------------------------------------------------------
    def value(self) -> Num:
        """``max_k Cexec(k)`` of the current forest."""
        return max(
            self._cexec(self._cin[n], self._ccomp[n], self._cout[n])
            for n in self.app.names
        )

    def subtree(self, node: str) -> List[str]:
        """*node* plus all its descendants (the set a reparent rescales)."""
        out = [node]
        stack = [node]
        while stack:
            for child in self.children[stack.pop()]:
                out.append(child)
                stack.append(child)
        return out

    def _trial(
        self, node: str, new_parent: Optional[str]
    ) -> Optional[Dict[str, Tuple[Num, Num, Num]]]:
        """(cin, ccomp, cout) overrides for the move, or ``None`` on a cycle."""
        old_parent = self.parents[node]
        if new_parent == old_parent or new_parent == node:
            return None
        sub = self.subtree(node)
        if new_parent is not None and new_parent in sub:
            return None  # the new parent descends from node: cycle
        overrides: Dict[str, Tuple[Num, Num, Num]] = {}
        new_anc = self._one if new_parent is None else self._outsize(new_parent)
        factor = new_anc / self._anc[node]  # selectivities are > 0
        for m in sub:
            if m == node:
                cin = self._cin_of(node, new_parent, new_anc)
            else:
                cin = self._cin[m] * factor
            overrides[m] = (
                cin, self._ccomp[m] * factor, self._cout[m] * factor
            )
        if old_parent is not None:
            kids = self.children[old_parent] - {node}
            overrides[old_parent] = (
                self._cin[old_parent],
                self._ccomp[old_parent],
                self._cout_of(old_parent, self._anc[old_parent], kids),
            )
        if new_parent is not None:
            kids = self.children[new_parent] | {node}
            overrides[new_parent] = (
                self._cin[new_parent],
                self._ccomp[new_parent],
                self._cout_of(new_parent, self._anc[new_parent], kids),
            )
        return overrides

    def score_reparent(self, node: str, new_parent: Optional[str]) -> Optional[Num]:
        """The period bound after moving *node* under *new_parent*.

        ``None`` means the move is invalid (cycle or no-op).  Costs
        ``O(|subtree| + n)``; nothing is committed.
        """
        overrides = self._trial(node, new_parent)
        if overrides is None:
            return None
        best = None
        for m in self.app.names:
            cin, ccomp, cout = overrides.get(
                m, (self._cin[m], self._ccomp[m], self._cout[m])
            )
            cexec = self._cexec(cin, ccomp, cout)
            if best is None or cexec > best:
                best = cexec
        assert best is not None
        return best

    def apply_reparent(self, node: str, new_parent: Optional[str]) -> None:
        """Commit a reparent previously priced by :meth:`score_reparent`."""
        overrides = self._trial(node, new_parent)
        if overrides is None:
            raise ValueError(
                f"reparenting {node!r} under {new_parent!r} is not a valid move"
            )
        old_parent = self.parents[node]
        if old_parent is not None:
            self.children[old_parent].discard(node)
        if new_parent is not None:
            self.children[new_parent].add(node)
        self.parents[node] = new_parent
        factor_base = self._anc[node]
        new_anc = self._one if new_parent is None else self._outsize(new_parent)
        factor = new_anc / factor_base
        for m in self.subtree(node):
            self._anc[m] *= factor
        for m, (cin, ccomp, cout) in overrides.items():
            self._cin[m], self._ccomp[m], self._cout[m] = cin, ccomp, cout

    def graph(self) -> ExecutionGraph:
        """The current forest as an :class:`~repro.core.ExecutionGraph`."""
        return ExecutionGraph.from_parents(self.app, self.parents)

    def parent_row(self) -> Tuple[int, ...]:
        """The current forest as a parent-vector row: one index into
        ``app.names`` per service, ``-1`` marking a root — the encoding
        :class:`~repro.core.ForestBatch` rows and the branch-and-bound
        state keys share."""
        names = self.app.names
        index = {name: i for i, name in enumerate(names)}
        return tuple(
            -1 if self.parents[name] is None else index[self.parents[name]]
            for name in names
        )


class FloatForestPeriod(IncrementalForestPeriod):
    """Float twin of :class:`IncrementalForestPeriod` (the fast tier).

    Same moves, same API, native-float arithmetic throughout — values
    agree with the exact evaluator to ~1e-13 relative (property-tested at
    1e-9).  Pair it with the exact class through :class:`Certified` when
    the search result must stay bit-for-bit exact.

        >>> from repro import CommModel, ExecutionGraph, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> fast = FloatForestPeriod(
        ...     ExecutionGraph.empty(app), model=CommModel.OVERLAP)
        >>> fast.value(), fast.score_reparent("B", "A")
        (8.0, 4.0)
    """

    _num = staticmethod(float)


class Certified:
    """An exact evaluator and its float twin behind one certified interface.

    The one float-gate/exact-confirm wrapper for every evaluator pair of
    this module — forest reparents, injective, shared and contended
    placements.  A candidate move is priced on the *fast* twin first; a
    float price above :func:`~repro.core.certified_threshold` of the
    current exact value is provably worse and returned as is (as is
    ``None``, an invalid reparent on both tiers), anything else is
    re-priced on *exact*.  Because the float error is orders of
    magnitude below the :data:`~repro.core.CERT_EPS` band, every move the
    exact evaluator would accept gets an exact score here too — the search
    trajectory is bit-for-bit the exact one, at float cost for the (vast)
    majority of rejected candidates.  Committed moves go to both tiers;
    everything else (``value``, ``graph``, ``mapping``, ``assignment``,
    ``parents``, ...) is read from *exact*.
    """

    __slots__ = ("exact", "fast", "_cut")

    def __init__(self, exact, fast) -> None:
        self.exact = exact
        self.fast = fast
        self._cut = certified_threshold(exact.value())

    def __getattr__(self, name: str):
        return getattr(self.exact, name)

    def _score(self, method: str, *move) -> Optional[Num]:
        trial = getattr(self.fast, method)(*move)
        if trial is None or trial > self._cut:
            return trial  # an invalid move, or provably worse than now
        return getattr(self.exact, method)(*move)

    def _apply(self, method: str, *move) -> None:
        getattr(self.exact, method)(*move)
        getattr(self.fast, method)(*move)
        self._cut = certified_threshold(self.exact.value())

    def score_reparent(self, node: str, new_parent: Optional[str]) -> Optional[Num]:
        return self._score("score_reparent", node, new_parent)

    def apply_reparent(self, node: str, new_parent: Optional[str]) -> None:
        self._apply("apply_reparent", node, new_parent)

    def score_reassign(self, service: str, server: str) -> Num:
        return self._score("score_reassign", service, server)

    def apply_reassign(self, service: str, server: str) -> None:
        self._apply("apply_reassign", service, server)

    def score_swap(self, a: str, b: str) -> Num:
        return self._score("score_swap", a, b)

    def apply_swap(self, a: str, b: str) -> None:
        self._apply("apply_swap", a, b)


def _tiered(exactness: Exactness, exact_cls, float_cls, *args, **kwargs):
    """The evaluator of one exactness tier from an (exact, float) class pair.

    ``EXACT`` builds *exact_cls*, ``FAST`` its *float_cls* twin (float
    values throughout — re-score the winner exactly), ``CERTIFIED`` the
    :class:`Certified` pair.  An instance beyond float range gets the
    exact evaluator on every tier.
    """
    if exactness.uses_float:
        try:
            fast = float_cls(*args, **kwargs)
        except OverflowError:
            pass  # beyond float range: the exact tier is always correct
        else:
            if exactness is Exactness.FAST:
                return fast
            return Certified(exact_cls(*args, **kwargs), fast)
    return exact_cls(*args, **kwargs)


def period_delta(
    graph: ExecutionGraph,
    model: CommModel,
    effort,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Exactness = Exactness.EXACT,
):
    """An incremental forest evaluator when it provably computes the
    period objective for this configuration, else ``None``.

    The maintained quantity is the Section-2.1 bound, so the objective
    must be that bound (:func:`~repro.optimize.evaluation.period_is_bound`).
    The delta additionally needs an injective mapping, an uncontended
    platform, a pinned mapping on a non-unit platform (a free mapping
    re-runs the placement optimiser per graph, which a structural delta
    cannot reproduce) and a precedence-free forest.  This is the
    eligibility rule shared by the local-search solver and the
    branch-and-bound incumbent seeding.

    *exactness* picks the numeric tier (see :func:`_tiered`):
    :class:`IncrementalForestPeriod`, its :class:`FloatForestPeriod` twin,
    or the :class:`Certified` pair of both.
    """
    from .evaluation import period_is_bound

    if not period_is_bound(model, effort, mapping):
        return None
    if platform is not None and platform.has_contention:
        # One reparent changes the flow pattern, hence the effective
        # bandwidth of every co-routed edge — the subtree-rescale delta
        # is invalid.  Callers fall back to full recomputation.
        return None
    if platform is not None and not platform.is_unit and mapping is None:
        return None
    if mapping is not None and not mapping.is_injective:
        return None
    if not graph.is_forest or graph.application.precedence:
        return None
    return _tiered(
        Exactness.coerce(exactness),
        IncrementalForestPeriod, FloatForestPeriod,
        graph, model=model, platform=platform, mapping=mapping,
    )


class IncrementalSharedCosts:
    """Delta evaluation of shared-server (non-injective) mappings.

    The concurrent-applications regime maps several services — possibly
    from different applications — onto one server.  The maintained value is
    the aggregated steady-state bound
    ``max_u Cexec(u)`` of :meth:`CostModel.server_cexec
    <repro.core.CostModel.server_cexec>`: per server, ``Cin``/``Ccomp``/
    ``Cout`` *sum* over co-located services (intra-server edges cost zero
    communication), combined by ``max`` under OVERLAP and by ``+`` under
    the one-port models — i.e. exactly ``CostModel(graph, platform,
    mapping).period_lower_bound(model)`` for the current shared mapping.

    Optional *weights* scale each service's three quantities (the
    concurrent planner passes ``1 / period_target`` of the owning
    application, turning the value into the max per-server *utilisation*).

    Moving one service touches only that service's triple, its graph
    neighbours' triples (their links to it change), and the per-server sums
    of the affected servers — so a reassign/swap is priced in
    ``O(degree)`` instead of a full recompute (exact-Fraction parity,
    property-tested).

        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel
        >>> app = make_application([("A", 2, 1), ("B", 3, 1)])
        >>> inc = IncrementalSharedCosts(
        ...     ExecutionGraph.empty(app), Platform.homogeneous(2),
        ...     Mapping.shared({"A": "S1", "B": "S1"}))
        >>> inc.value(), inc.score_reassign("B", "S2")
        (Fraction(5, 1), Fraction(3, 1))
    """

    #: Numeric-tier hook (see :class:`IncrementalForestPeriod`).
    _num = staticmethod(lambda value: value)

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
    ) -> None:
        mapping.validate_on(graph.nodes, platform)
        if platform.has_contention:
            raise ValueError(
                "IncrementalSharedCosts assumes static link bandwidths; "
                "contended topologies need FullPlacementCosts (one move "
                "changes every co-routed edge's effective bandwidth)"
            )
        self.graph = graph
        self.platform = platform
        self.model = model
        num = self._num
        self._one: Num = num(ONE)
        self._zero: Num = num(Fraction(0))
        self.weights: Dict[str, Num] = (
            {k: num(v) for k, v in weights.items()} if weights else {}
        )
        self._bw_cache: Dict[Tuple[str, str], Num] = {}
        self._speed_cache: Dict[str, Num] = {}
        self.assignment: Dict[str, str] = {
            svc: mapping.server(svc) for svc in graph.nodes
        }
        arrays = GraphArrays(graph, num)
        self._outsize: Dict[str, Num] = dict(zip(arrays.names, arrays.outsize))
        self._work: Dict[str, Num] = dict(zip(arrays.names, arrays.work))
        self._triple: Dict[str, Tuple[Num, Num, Num]] = {}
        self._sums: Dict[str, List[Num]] = {}
        for node in graph.nodes:
            self._triple[node] = self._node_triple(node, self.assignment)
        self._rebuild_sums()

    # -- internals ---------------------------------------------------------
    def _bw(self, src: str, dst: str) -> Num:
        found = self._bw_cache.get((src, dst))
        if found is None:
            found = self._bw_cache[(src, dst)] = self._num(
                self.platform.bandwidth(src, dst)
            )
        return found

    def _sp(self, server: str) -> Num:
        found = self._speed_cache.get(server)
        if found is None:
            found = self._speed_cache[server] = self._num(
                self.platform.speed(server)
            )
        return found

    def _node_triple(
        self, node: str, assignment: Dict[str, str]
    ) -> Tuple[Num, Num, Num]:
        """Weighted (Cin, Ccomp, Cout) of *node* under *assignment*."""
        graph = self.graph
        server = assignment[node]
        preds = graph.predecessors(node)
        if preds:
            cin = sum(
                (
                    self._outsize[p] / self._bw(assignment[p], server)
                    for p in preds
                    if assignment[p] != server
                ),
                self._zero,
            )
        else:
            cin = self._one / self._bw(INPUT, server)
        ccomp = self._work[node] / self._sp(server)
        succs = graph.successors(node)
        if succs:
            cout = sum(
                (
                    self._outsize[node] / self._bw(server, assignment[s])
                    for s in succs
                    if assignment[s] != server
                ),
                self._zero,
            )
        else:
            cout = self._outsize[node] / self._bw(server, OUTPUT)
        w = self.weights.get(node)
        if w is not None and w != 1:
            return (cin * w, ccomp * w, cout * w)
        return (cin, ccomp, cout)

    def _rebuild_sums(self) -> None:
        sums: Dict[str, List[Num]] = {}
        for node, (cin, ccomp, cout) in self._triple.items():
            acc = sums.setdefault(
                self.assignment[node], [self._zero, self._zero, self._zero]
            )
            acc[0] += cin
            acc[1] += ccomp
            acc[2] += cout
        self._sums = sums

    def _affected(self, moved: Iterable[str]) -> Set[str]:
        out: Set[str] = set()
        for svc in moved:
            out.add(svc)
            out.update(self.graph.predecessors(svc))
            out.update(self.graph.successors(svc))
        return out

    def _combine(self, sums: Sequence[Num]) -> Num:
        if self.model.overlaps_compute:
            return max(sums)
        return sums[0] + sums[1] + sums[2]

    def _trial_sums(
        self, trial: Dict[str, str], moved: Iterable[str]
    ) -> Dict[str, List[Num]]:
        """Per-server sums after the move (only affected servers copied)."""
        sums = dict(self._sums)
        affected = self._affected(moved)
        touched = {self.assignment[m] for m in affected}
        touched |= {trial[m] for m in affected}
        for server in touched:
            sums[server] = list(
                sums.get(server, (self._zero, self._zero, self._zero))
            )
        for m in affected:
            old = self._triple[m]
            acc = sums[self.assignment[m]]
            acc[0] -= old[0]
            acc[1] -= old[1]
            acc[2] -= old[2]
        for m in affected:
            new = self._node_triple(m, trial)
            acc = sums[trial[m]]
            acc[0] += new[0]
            acc[1] += new[1]
            acc[2] += new[2]
        return sums

    def _value_of(self, sums: Dict[str, List[Num]], trial: Dict[str, str]) -> Num:
        used = set(trial.values())
        return max(self._combine(sums[u]) for u in used)

    # -- public API --------------------------------------------------------
    def value(self) -> Num:
        """``max_u Cexec(u)`` (weighted) of the current shared mapping."""
        return max(self._combine(acc) for acc in self._sums.values())

    def mapping(self) -> Mapping:
        return Mapping.shared(self.assignment)

    def score_reassign(self, service: str, server: str) -> Num:
        """Price moving *service* onto *server* (shared — any server)."""
        trial = dict(self.assignment)
        trial[service] = server
        return self._value_of(self._trial_sums(trial, [service]), trial)

    def apply_reassign(self, service: str, server: str) -> None:
        trial = dict(self.assignment)
        trial[service] = server
        self._commit(trial, [service])

    def score_swap(self, a: str, b: str) -> Num:
        """Price exchanging the servers of services *a* and *b*."""
        trial = dict(self.assignment)
        trial[a], trial[b] = trial[b], trial[a]
        return self._value_of(self._trial_sums(trial, [a, b]), trial)

    def apply_swap(self, a: str, b: str) -> None:
        trial = dict(self.assignment)
        trial[a], trial[b] = trial[b], trial[a]
        self._commit(trial, [a, b])

    def _commit(self, trial: Dict[str, str], moved: Iterable[str]) -> None:
        affected = self._affected(moved)
        sums = self._trial_sums(trial, moved)
        for m in affected:
            self._triple[m] = self._node_triple(m, trial)
        self.assignment = trial
        # Drop emptied servers so value() never reads a stale zero row.
        used = set(trial.values())
        self._sums = {u: acc for u, acc in sums.items() if u in used}


class IncrementalMappingCosts(IncrementalSharedCosts):
    """Delta evaluation of server reassignments/swaps, injective mappings.

    The paper's one-service-per-server regime as a strict specialisation
    of :class:`IncrementalSharedCosts`: with an injective mapping every
    per-server sum is a single service's triple, intra-server zeroing
    never fires, and the maintained value is the paper's
    ``max_k Cexec(k)`` — i.e. ``CostModel(graph, platform,
    mapping).period_lower_bound(model)``.  The injective-only constructor
    keeps the placement local search honest (its reassign moves target
    idle servers, so the assignment stays one-to-one).

        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel
        >>> app = make_application([("A", 1, 1), ("B", 9, 1)])
        >>> platform = Platform.of(speeds=[1, 1, 3])
        >>> inc = IncrementalMappingCosts(
        ...     ExecutionGraph.empty(app), platform,
        ...     Mapping({"A": "S1", "B": "S2"}), model=CommModel.OVERLAP)
        >>> inc.value(), inc.score_reassign("B", "S3")
        (Fraction(9, 1), Fraction(3, 1))
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
    ) -> None:
        if not mapping.is_injective:
            raise ValueError(
                "IncrementalMappingCosts assumes an injective mapping; use "
                "IncrementalSharedCosts for shared-server mappings"
            )
        super().__init__(graph, platform, mapping, model=model)

    def mapping(self) -> Mapping:
        return Mapping(self.assignment)


class FloatSharedCosts(IncrementalSharedCosts):
    """Float twin of :class:`IncrementalSharedCosts` (the fast tier)."""

    _num = staticmethod(float)


class FloatMappingCosts(IncrementalMappingCosts):
    """Float twin of :class:`IncrementalMappingCosts` (the fast tier)."""

    _num = staticmethod(float)


class FullPlacementCosts:
    """Full-recompute placement evaluator for contended topologies.

    On a contended topology one reassign changes the flow counts on every
    link its edges share — and with them the effective bandwidth of every
    co-routed edge — so the ``O(degree)`` deltas of
    :class:`IncrementalSharedCosts` are invalid.  This evaluator speaks
    the same protocol (``value``/``score_*``/``apply_*``/``assignment``/
    ``mapping``) but re-prices each candidate mapping from scratch through
    the :class:`~repro.core.CostModel` of its number type, sharing one
    :class:`~repro.core.GraphArrays` across every mapping;
    :class:`FloatFullPlacementCosts` is its float twin.  *weights* (or
    ``shared=True``) price the per-server aggregate of the concurrent
    regime.
    """

    #: The cost class of this evaluator's number type.
    _costs = CostModel

    __slots__ = (
        "graph", "platform", "model", "weights", "shared", "assignment",
        "_arrays", "_value",
    )

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
        shared: bool = False,
    ) -> None:
        mapping.validate_on(graph.nodes, platform)
        self.graph = graph
        self.platform = platform
        self.model = model
        self.weights = dict(weights) if weights else None
        self.shared = shared
        self.assignment: Dict[str, str] = {
            svc: mapping.server(svc) for svc in graph.nodes
        }
        self._arrays = GraphArrays(graph, self._costs._num)
        self._value = self._price(self.mapping())

    def _price(self, mapping: Mapping) -> Num:
        return self._costs(
            self.graph, self.platform, mapping,
            arrays=self._arrays, weights=self.weights,
        ).period_lower_bound(self.model)

    # -- public API (the incremental evaluators' protocol) ------------------
    def value(self) -> Num:
        return self._value

    def mapping(self) -> Mapping:
        return Mapping(self.assignment, shared=self.shared)

    def score_reassign(self, service: str, server: str) -> Num:
        trial = dict(self.assignment)
        trial[service] = server
        return self._price(Mapping(trial, shared=self.shared))

    def apply_reassign(self, service: str, server: str) -> None:
        self.assignment = dict(self.assignment)
        self.assignment[service] = server
        self._value = self._price(self.mapping())

    def score_swap(self, a: str, b: str) -> Num:
        trial = dict(self.assignment)
        trial[a], trial[b] = trial[b], trial[a]
        return self._price(Mapping(trial, shared=self.shared))

    def apply_swap(self, a: str, b: str) -> None:
        self.assignment = dict(self.assignment)
        self.assignment[a], self.assignment[b] = (
            self.assignment[b], self.assignment[a]
        )
        self._value = self._price(self.mapping())


class FloatFullPlacementCosts(FullPlacementCosts):
    """Float twin of :class:`FullPlacementCosts` (the fast tier)."""

    __slots__ = ()

    _costs = FloatCosts


def placement_evaluator(
    graph: ExecutionGraph,
    platform: Platform,
    mapping: Mapping,
    *,
    model: CommModel = CommModel.OVERLAP,
    weights: Optional[Dict[str, Fraction]] = None,
    shared: bool = False,
    exactness: Exactness = Exactness.EXACT,
):
    """The placement evaluator matching one exactness tier.

    Picks the (exact, float) class pair once — :class:`FullPlacementCosts`
    on contended topologies (the incremental deltas are invalid there),
    :class:`IncrementalSharedCosts` for shared placements,
    :class:`IncrementalMappingCosts` for injective ones — and builds the
    tier's evaluator from it (:func:`_tiered`): the exact class, its
    float twin (``FAST``) or the :class:`Certified` pair (``CERTIFIED``,
    bit-for-bit identical search decisions).  *weights* only apply to
    shared placements.
    """
    if weights and not shared:
        raise ValueError("weights only apply to shared placements")
    if platform.has_contention:
        pair = (FullPlacementCosts, FloatFullPlacementCosts)
        options = {"weights": weights, "shared": shared}
    elif shared:
        pair = (IncrementalSharedCosts, FloatSharedCosts)
        options = {"weights": weights}
    else:
        pair = (IncrementalMappingCosts, FloatMappingCosts)
        options = {}
    return _tiered(
        Exactness.coerce(exactness), *pair,
        graph, platform, mapping, model=model, **options,
    )


__all__ = [
    "Certified",
    "FloatForestPeriod",
    "FloatFullPlacementCosts",
    "FloatMappingCosts",
    "FloatSharedCosts",
    "FullPlacementCosts",
    "IncrementalForestPeriod",
    "IncrementalMappingCosts",
    "IncrementalSharedCosts",
    "period_delta",
    "placement_evaluator",
]
