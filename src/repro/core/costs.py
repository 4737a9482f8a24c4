"""Cost formulas of Section 2.1, generalised to heterogeneous platforms.

For an execution graph ``EG`` and a service ``C_k``:

* ``ancestor_selectivity(k) = prod_{j in Ancest_k(EG)} sigma_j`` — the size
  of the data set that ``C_k`` actually processes;
* ``outsize(k) = ancestor_selectivity(k) * sigma_k`` — the size of the data
  ``C_k`` emits, and hence the size of every message ``C_k -> C_j``;
* ``Cin(k)`` — total incoming communication time (entry nodes receive one
  unit-size message from the synthetic input node);
* ``Ccomp(k) = ancestor_selectivity(k) * c_k / s_u`` where ``u`` is the
  server hosting ``C_k``;
* ``Cout(k)`` — total outgoing communication time; exit nodes emit one
  extra message of size ``outsize(k)`` to the synthetic output node.

The paper normalises ``delta_0 = b = s = 1`` (Section 2.1), which makes
communication *times* equal message *sizes* and computation times equal
``P_k * c_k``.  Passing a :class:`~repro.core.platform.Platform` (plus a
:class:`~repro.core.platform.Mapping` of services to servers) lifts the
normalisation: :meth:`CostModel.comm_time` prices each message at the
link it crosses (``size * (1 / b)``), and :meth:`CostModel.ccomp` divides
by the hosting server's speed.  With ``platform=None`` (or any *unit*
platform such as ``Platform.homogeneous(n)``) every value is bit-for-bit
the paper's.

A **shared** (non-injective) mapping — several services on one server, the
regime of the multi-application sequels — changes two things: an edge
between co-located services costs zero communication time (the data never
leaves the server), and the period bound aggregates ``Cin``/``Ccomp``/
``Cout`` per *server* over all co-located services
(:meth:`CostModel.server_sums`, :meth:`CostModel.period_lower_bound`).
Per-service *weights* (the concurrent planner's ``1 / rho_a``) scale each
service's share of that aggregate, turning it into a utilisation.  For
injective, unweighted mappings both rules degenerate to the paper's
formulas bit-for-bit.

**One algebra, two number types.**  :class:`CostModel` is written once
over a class-level ``_num`` hook: every selectivity, cost, speed,
bandwidth, capacity and weight passes through it exactly once, after
which all arithmetic stays in that type.  The base class keeps exact
:class:`~fractions.Fraction`\\ s; :class:`repro.core.FloatCosts` swaps in
``float`` (the fast tier of :mod:`repro.core.numeric`).  Both compute from
one compiled :class:`GraphArrays` form whose ancestor products fold in
canonical name order, so the float tier's doubles are exactly the ones
the batched numpy kernels replay.

.. note::
   Appendix A of the paper writes the message size on an edge
   ``(C_i, C_j)`` as ``prod_{k in Ancest_i} sigma_k`` (without ``sigma_i``),
   but every worked example (B.1, B.2, B.3) and the ``Cout`` formula require
   the message to be the *output* of the sender, i.e. including ``sigma_i``.
   We follow the examples; see DESIGN.md "Known paper slips".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping as TypingMapping
from typing import Optional, Tuple, Union

from .constants import INPUT, OUTPUT
from .graph import ExecutionGraph
from .models import CommModel
from .platform import Mapping, Platform, link_flow_counts

CommEdge = Tuple[str, str]

#: A cost quantity in either number type.
Num = Union[Fraction, float]

ONE = Fraction(1)
ZERO = Fraction(0)


def comm_edges(graph: ExecutionGraph) -> List[CommEdge]:
    """All communications of a plan built on *graph*, in a stable order.

    Includes one ``(INPUT, k)`` edge per entry node and one ``(k, OUTPUT)``
    edge per exit node, besides the graph's own edges.
    """
    edges: List[CommEdge] = [(INPUT, k) for k in graph.entry_nodes]
    edges.extend(sorted(graph.edges))
    edges.extend((k, OUTPUT) for k in graph.exit_nodes)
    return edges


def contention_coefficients(
    platform: Platform,
    flows: Iterable[Tuple[str, str]],
    num: Callable[[object], Num],
) -> Dict[Tuple[str, str], Num]:
    """Transfer-time coefficient ``1 / b_eff`` of every contended server pair.

    Each ``(src_server, dst_server)`` pair of *flows* is one concurrent
    flow (a graph edge crossing servers); ``k`` flows on a link of
    capacity ``c`` each see ``c / k``, so a pair's coefficient is its
    route bottleneck ``max_l k_l * (1 / cap_l)``.  Pairs with an empty
    route (flat cliques, the outside world) are absent.  Every quantity
    passes through *num*; the float expression is the one the batched
    kernel replays bit-for-bit (counts are small exact integers, and the
    max is order-free).
    """
    flows = list(flows)
    counts = link_flow_counts(platform, flows)
    caps = platform.link_capacities()
    one = num(ONE)
    invcap = {l: one / num(caps[l]) for l in counts}
    coefs: Dict[Tuple[str, str], Num] = {}
    for pair in set(flows):
        route = platform.route(*pair)
        if route:
            coefs[pair] = max(num(counts[l]) * invcap[l] for l in route)
    return coefs


class GraphArrays:
    """Mapping-independent flat arrays of one execution graph.

    Node order is the application's canonical name order; every array is
    indexed by that integer position.  Platform-independent quantities —
    selectivities, costs, ancestor products, output sizes, work volumes —
    are computed once, in the number type *num* (``float`` by default,
    the identity for exact ``Fraction``\\ s), so several
    :class:`CostModel`\\ s (one per candidate mapping, say) can share
    them.
    """

    __slots__ = (
        "graph", "names", "index", "n", "sigma", "cost",
        "preds", "succs", "topo", "anc", "outsize", "work",
    )

    def __init__(
        self, graph: ExecutionGraph, num: Callable[[object], Num] = float
    ) -> None:
        self.graph = graph
        services = graph.application.services
        names = [svc.name for svc in services]
        self.names = names
        index = {name: i for i, name in enumerate(names)}
        self.index = index
        self.n = len(names)
        self.sigma = sigma = [num(svc.selectivity) for svc in services]
        self.cost = cost = [num(svc.cost) for svc in services]
        self.preds = [
            [index[p] for p in graph.predecessors(name)] for name in names
        ]
        self.succs = [
            [index[s] for s in graph.successors(name)] for name in names
        ]
        self.topo = [index[name] for name in graph.topological_order]
        one = num(ONE)
        self.anc: List[Num] = []
        self.outsize: List[Num] = []
        self.work: List[Num] = []
        for i, name in enumerate(names):
            ancestors = graph.ancestors(name)
            # Fold in canonical name order, not set-iteration order: the
            # product is then a deterministic float expression any batched
            # kernel can replay operation-for-operation (bit-for-bit; the
            # kernels' ``1.0 *`` factors are exact, so a root skips them).
            factors = [sigma[j] for j, other in enumerate(names) if other in ancestors]
            if not factors:
                self.anc.append(one)
                self.outsize.append(sigma[i])
                self.work.append(cost[i])
                continue
            prod = factors[0]
            for factor in factors[1:]:
                prod *= factor
            self.anc.append(prod)
            self.outsize.append(prod * sigma[i])
            self.work.append(prod * cost[i])


def _total(terms: List[Num]) -> Num:
    """Left-to-right sum of a non-empty list (the float kernel's order)."""
    acc = terms[0]
    for term in terms[1:]:
        acc += term
    return acc


def _serial(cin: Num, ccomp: Num, cout: Num) -> Num:
    return cin + ccomp + cout


def _combine(model: CommModel) -> Callable[[Num, Num, Num], Num]:
    """How ``Cin``/``Ccomp``/``Cout`` combine into ``Cexec`` under *model*:
    the three directions overlap (``max``) under OVERLAP and serialise
    (``+``) under the one-port models."""
    return max if model.overlaps_compute else _serial


class CostModel:
    """Cached evaluation of all Section-2.1 quantities for one graph.

    Parameters
    ----------
    graph:
        The execution graph.
    platform:
        Server speeds and link bandwidths; ``None`` means the paper's
        normalised unit platform (``s = b = 1``).
    mapping:
        Which server hosts which service.  Defaults to the positional
        one-to-one :meth:`~repro.core.platform.Mapping.default`; irrelevant
        (and ignored) without a platform.
    arrays:
        A :class:`GraphArrays` of the same graph in this class's number
        type, to amortise the mapping-independent compilation across many
        mappings.
    weights:
        Per-service scale factors (the concurrent planner's
        ``1 / period_target``; services left out weigh 1).  Weighted
        models always aggregate per server — an injective candidate of a
        shared search is priced as the weighted per-server load too — and
        every per-server quantity is the weighted sum.

    Values are exact ``Fraction``\\ s; :class:`repro.core.FloatCosts`
    is the same class in native floats.
    """

    #: Number-type hook: every input quantity is converted through this
    #: exactly once.  The identity keeps exact ``Fraction``s;
    #: :class:`repro.core.FloatCosts` swaps in ``float``.
    _num = staticmethod(lambda value: value)

    __slots__ = (
        "graph", "platform", "mapping", "arrays", "_scaled", "_shared",
        "_one", "_zero", "_server", "_weight", "_coefs", "_speeds",
        "_times", "_triples", "_sums",
    )

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        *,
        arrays: Optional[GraphArrays] = None,
        weights: Optional[TypingMapping[str, object]] = None,
    ) -> None:
        self.graph = graph
        if platform is not None:
            if mapping is None:
                mapping = Mapping.default(graph.nodes, platform)
            else:
                mapping.validate_on(graph.nodes, platform)
        else:
            mapping = None
        self.platform = platform
        self.mapping = mapping
        num = self._num
        self._one = num(ONE)
        self._zero = num(ZERO)
        a = arrays if arrays is not None else GraphArrays(graph, num)
        self.arrays = a
        # Unit platforms take the exact code path of the normalised paper
        # model: no divisions, identical values.  Shared (non-injective)
        # mappings always take the platform-aware path: co-location zeroes
        # intra-server communications even when every speed is 1.
        self._scaled = platform is not None and not platform.is_unit
        self._shared = bool(weights) or (
            mapping is not None and not mapping.is_injective
        )
        self._server: List[str] = (
            a.names if mapping is None
            else [mapping.server(name) for name in a.names]
        )
        self._weight: Optional[List[Num]] = (
            [num(weights.get(name, 1)) for name in a.names] if weights else None
        )
        self._speeds: Dict[str, Num] = {}
        self._coefs: Optional[Dict[Tuple[str, str], Num]] = None
        self._times: Optional[Tuple[List[List[Num]], List[List[Num]]]] = None
        self._triples: Optional[Tuple[List[Num], List[Num], List[Num]]] = None
        self._sums: Optional[Dict[str, Tuple[Num, Num, Num]]] = None

    # -- platform lookups ------------------------------------------------------
    def _endpoint(self, node: str) -> str:
        """Map a service (or INPUT/OUTPUT) to its platform endpoint."""
        if node in (INPUT, OUTPUT) or self.mapping is None:
            return node
        return self.mapping.server(node)

    def _coef(self, src: str, dst: str) -> Num:
        """``1 / b`` of the endpoint pair ``src -> dst`` (scaled platforms).

        Contended topologies price every cross-server edge at the
        bottleneck of its route under this mapping's flow pattern;
        input/output-world edges ride dedicated links and never contend.
        """
        coefs = self._coefs
        if coefs is None:
            a, server = self.arrays, self._server
            flows = (
                (server[i], server[j])
                for i in range(a.n)
                for j in a.succs[i]
                if server[i] != server[j]
            )
            coefs = self._coefs = (
                contention_coefficients(self.platform, flows, self._num)
                if self.platform.has_contention
                else {}
            )
        found = coefs.get((src, dst))
        if found is None:
            found = coefs[(src, dst)] = self._one / self._num(
                self.platform.bandwidth(src, dst)
            )
        return found

    def _speed(self, server: str) -> Num:
        """``s_u`` of *server* (scaled platforms)."""
        found = self._speeds.get(server)
        if found is None:
            found = self._speeds[server] = self._num(self.platform.speed(server))
        return found

    def _time(self, size: Num, src: str, dst: str) -> Num:
        """Transfer time of a *size* message between endpoints src, dst."""
        if self._shared and src == dst:
            return self._zero  # co-located: the data never leaves the server
        if not self._scaled:
            return size
        return size * self._coef(src, dst)

    def link_bandwidth(self, src: str, dst: str) -> Num:
        """``b_{u,v}`` of the link carrying the communication ``src -> dst``.

        On a contended topology this is the *effective* bandwidth of the
        pair under the current ``(graph, mapping)`` flow pattern — the
        route bottleneck with concurrent flows dividing each shared
        link's capacity.
        """
        if not self._scaled:
            return self._one
        return self._one / self._coef(self._endpoint(src), self._endpoint(dst))

    # -- sizes ---------------------------------------------------------------
    def ancestor_selectivity(self, node: str) -> Num:
        """``prod_{j in Ancest(node)} sigma_j`` — input data-set size of *node*."""
        return self.arrays.anc[self.arrays.index[node]]

    def outsize(self, node: str) -> Num:
        """Size of the data emitted by *node* (its input size times ``sigma``)."""
        return self.arrays.outsize[self.arrays.index[node]]

    def message_size(self, src: str, dst: str) -> Num:
        """Size of the message carried by communication ``src -> dst``.

        ``src = INPUT`` gives the unit-size initial data set; ``dst = OUTPUT``
        carries the sender's output to the outside world.  Sizes are
        platform-independent; :meth:`comm_time` is the transfer time.
        """
        if src == INPUT:
            return self._one
        size = self.arrays.outsize[self.arrays.index[src]]
        if dst != OUTPUT and (src, dst) not in self.graph.edges:
            raise KeyError(f"({src!r}, {dst!r}) is not an edge of the execution graph")
        return size

    def comm_time(self, src: str, dst: str) -> Num:
        """Full-bandwidth transfer time of ``src -> dst``: size / ``b_{u,v}``.

        Equals :meth:`message_size` on the unit platform.  This is the
        duration of a one-port communication and the minimum duration of a
        multi-port one (ratio 1).  Under a shared (non-injective) mapping an
        edge between two services hosted by the *same* server crosses no
        link and costs zero time — the data never leaves the server.
        """
        size = self.message_size(src, dst)
        if not (self._scaled or self._shared):
            return size
        return self._time(size, self._endpoint(src), self._endpoint(dst))

    # -- the three Section-2.1 quantities -------------------------------------
    def _ccomp_at(self, i: int) -> Num:
        work = self.arrays.work[i]
        if not self._scaled:
            return work
        return work / self._speed(self._server[i])

    def _transfer_times(self) -> Tuple[List[List[Num]], List[List[Num]]]:
        """Per service: the transfer time of each incoming/outgoing message.

        ``in_times[i]`` holds one time per predecessor (the input message
        for an entry node), ``out_times[i]`` one per successor (the output
        message for an exit node).  Computed on first use, so callers that
        only read :meth:`comm_time`/:meth:`ccomp` never pay for it.
        """
        if self._times is None:
            a, one = self.arrays, self._one
            server, outsize = self._server, a.outsize
            in_times: List[List[Num]] = []
            out_times: List[List[Num]] = []
            if not (self._scaled or self._shared):
                # The paper's normalised platform: every time is a size.
                for i in range(a.n):
                    preds, succs = a.preds[i], a.succs[i]
                    in_times.append([outsize[p] for p in preds] if preds else [one])
                    out_times.append([outsize[i]] * (len(succs) or 1))
            else:
                time = self._time
                for i in range(a.n):
                    preds, succs, u = a.preds[i], a.succs[i], server[i]
                    in_times.append(
                        [time(outsize[p], server[p], u) for p in preds]
                        if preds else [time(one, INPUT, u)]
                    )
                    out_times.append(
                        [time(outsize[i], u, server[s]) for s in succs]
                        if succs else [time(outsize[i], u, OUTPUT)]
                    )
            self._times = (in_times, out_times)
        return self._times

    def _loads(self) -> Tuple[List[Num], List[Num], List[Num]]:
        """``(Cin, Ccomp, Cout)`` of every service, index-aligned lists."""
        if self._triples is None:
            in_times, out_times = self._transfer_times()
            self._triples = (
                [_total(times) for times in in_times],
                [self._ccomp_at(i) for i in range(self.arrays.n)],
                [_total(times) for times in out_times],
            )
        return self._triples

    def cin(self, node: str) -> Num:
        """Total incoming communication time ``Cin(node)`` (lower bound)."""
        return self._loads()[0][self.arrays.index[node]]

    def ccomp(self, node: str) -> Num:
        """Computation time ``Ccomp(node) = P_k * c_k / s_u``."""
        return self._ccomp_at(self.arrays.index[node])

    def cout(self, node: str) -> Num:
        """Total outgoing communication time ``Cout(node)`` (lower bound)."""
        return self._loads()[2][self.arrays.index[node]]

    def cexec(self, node: str, model: CommModel) -> Num:
        """Per-service execution time bound under *model* (Section 2.2)."""
        return _combine(model)(self.cin(node), self.ccomp(node), self.cout(node))

    # -- per-server aggregation (shared mappings) ------------------------------
    def server_sums(self) -> Dict[str, Tuple[Num, Num, Num]]:
        """Per used server: ``(Cin, Ccomp, Cout)`` summed over its services.

        Intra-server edges contribute zero (see :meth:`comm_time`), so only
        data actually crossing a link is counted; with *weights* every
        service's triple is scaled by its weight first.  Sums run in
        canonical service order; servers appear in first-use order.
        Without a mapping every service is its own server.
        """
        if self._sums is None:
            cin, ccomp, cout = self._loads()
            weight, zero = self._weight, self._zero
            sums: Dict[str, List[Num]] = {}
            for i, server in enumerate(self._server):
                acc = sums.get(server)
                if acc is None:
                    acc = sums[server] = [zero, zero, zero]
                if weight is None:
                    acc[0] += cin[i]
                    acc[1] += ccomp[i]
                    acc[2] += cout[i]
                else:
                    w = weight[i]
                    acc[0] += w * cin[i]
                    acc[1] += w * ccomp[i]
                    acc[2] += w * cout[i]
            self._sums = {u: (acc[0], acc[1], acc[2]) for u, acc in sums.items()}
        return self._sums

    def used_servers(self) -> Tuple[str, ...]:
        """Servers hosting at least one service of the graph (sorted).

        Without a mapping every service is its own server (the paper's
        regime), so the services themselves are returned.
        """
        return tuple(sorted(set(self._server)))

    def server_services(self, server: str) -> Tuple[str, ...]:
        """The graph's services hosted by *server* (sorted)."""
        return tuple(sorted(
            name for name, u in zip(self.arrays.names, self._server)
            if u == server
        ))

    def _server_sum(self, server: str) -> Tuple[Num, Num, Num]:
        zero = self._zero
        return self.server_sums().get(server, (zero, zero, zero))

    def server_cin(self, server: str) -> Num:
        """Aggregated incoming communication time of *server* per data set."""
        return self._server_sum(server)[0]

    def server_ccomp(self, server: str) -> Num:
        """Aggregated computation time of *server* per data set."""
        return self._server_sum(server)[1]

    def server_cout(self, server: str) -> Num:
        """Aggregated outgoing communication time of *server* per data set."""
        return self._server_sum(server)[2]

    def server_cexec(self, server: str, model: CommModel) -> Num:
        """Execution-time bound of *server* over all co-located services.

        Under OVERLAP the three aggregated quantities overlap each other
        (``max``); under the one-port models the server serialises
        everything (``sum``).  For an injective mapping this equals
        :meth:`cexec` of the single hosted service.
        """
        return _combine(model)(*self._server_sum(server))

    # -- global lower bounds ---------------------------------------------------
    def period_lower_bound(self, model: CommModel) -> Num:
        """``max_u Cexec(u)`` — a period lower bound valid for *model*.

        Achievable for OVERLAP (Theorem 1, which generalises verbatim to
        heterogeneous platforms — every quantity is already a time); not
        always achievable for the one-port models (Section 2.3's ``23/3``
        example).  Under a shared (non-injective) mapping the max runs over
        *servers* with their aggregated loads — the steady-state bound of
        the multi-application sequels; for injective mappings the two
        formulations coincide service by service.  A graph without
        services has period ``0``.
        """
        if self._shared:
            loads = tuple(zip(*self.server_sums().values())) or ((), (), ())
        else:
            loads = self._loads()
        return max(map(_combine(model), *loads), default=self._zero)

    def communication_period_bound(self) -> Num:
        """``max_k max(Cin(k), Cout(k))`` — the communication-only bound.

        This is the quantity the paper calls "the maximum time needed for
        communications" in counter-example B.3.
        """
        cin, _, cout = self._loads()
        return max(map(max, cin, cout), default=self._zero)

    def latency_lower_bound(self) -> Num:
        """Critical-path latency bound, valid for every model.

        Each service starts no earlier than every predecessor's finish time
        plus the corresponding (full-bandwidth) message time; exit nodes add
        their output message.  Port contention is ignored, hence a lower
        bound for one-port *and* multi-port schedules (a multi-port transfer
        at ratio ``r <= 1`` takes at least its full-bandwidth time).  A
        graph without services has latency ``0``.
        """
        a = self.arrays
        in_times, out_times = self._transfer_times()
        finish: List[Num] = [self._zero] * a.n
        for i in a.topo:
            preds = a.preds[i]
            if preds:
                start = max(finish[p] + t for p, t in zip(preds, in_times[i]))
            else:
                start = in_times[i][0]
            finish[i] = start + self._ccomp_at(i)
        return max(
            (finish[i] + out_times[i][0] for i in range(a.n) if not a.succs[i]),
            default=self._zero,
        )

    # -- convenience -----------------------------------------------------------
    def comm_edges(self) -> List[CommEdge]:
        return comm_edges(self.graph)

    def total_work(self) -> Num:
        """Sum of all computation times (a utilisation statistic)."""
        return sum((self.ccomp(n) for n in self.graph.nodes), self._zero)

    def total_communication(self) -> Num:
        """Sum of all message sizes (input and output messages included)."""
        return sum(
            (self.message_size(a, b) for a, b in self.comm_edges()), self._zero
        )

    def total_communication_time(self) -> Num:
        """Sum of all full-bandwidth transfer times on this platform."""
        return sum(
            (self.comm_time(a, b) for a, b in self.comm_edges()), self._zero
        )


__all__ = [
    "CommEdge", "CostModel", "GraphArrays", "comm_edges", "contention_coefficients",
]
