"""Unit and property tests for the cyclic scheduling substrate (MCR)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, ExecutionGraph, make_application
from repro.cyclic import (
    EventGraph,
    InfeasibleScheduleError,
    brute_force_mcr,
    earliest_times,
    is_feasible,
    minimum_period,
)
from repro.scheduling.inorder import (
    _best_orders,
    inorder_event_graph,
    inorder_period_for_orders,
    iter_all_orders,
    operation_durations,
)

F = Fraction


def simple_cycle_graph(weights, heights):
    """A single directed cycle with the given edge weights/heights."""
    eg = EventGraph()
    n = len(weights)
    for i in range(n):
        eg.add_constraint(i, (i + 1) % n, weights[i], heights[i])
    return eg


class TestEventGraph:
    def test_idempotent_events(self):
        eg = EventGraph()
        assert eg.add_event("x") == eg.add_event("x")
        assert len(eg) == 1
        assert "x" in eg

    def test_negative_height_rejected(self):
        eg = EventGraph()
        with pytest.raises(ValueError):
            eg.add_constraint("a", "b", 1, height=-1)

    def test_labels_roundtrip(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 1, 0)
        assert eg.label(eg.index("a")) == "a"
        assert set(eg.labels) == {"a", "b"}


class TestMinimumPeriod:
    def test_single_server_cycle(self):
        # in(1) -> comp(4) -> out(1) -> wrap: period = 6
        eg = EventGraph()
        eg.add_constraint("in", "comp", 1, 0)
        eg.add_constraint("comp", "out", 4, 0)
        eg.add_constraint("out", "in", 1, 1)
        assert minimum_period(eg) == 6

    def test_independent_self_loops_take_max(self):
        eg = EventGraph()
        eg.add_constraint("s", "s", 5, 1)
        eg.add_constraint("t", "t", 3, 1)
        assert minimum_period(eg) == 5

    def test_fractional_ratio(self):
        eg = simple_cycle_graph([F(23)], [3])
        assert minimum_period(eg) == F(23, 3)

    def test_floor_respected(self):
        eg = simple_cycle_graph([F(4)], [1])
        assert minimum_period(eg, floor=10) == 10

    def test_infeasible_zero_height(self):
        eg = simple_cycle_graph([F(1), F(1)], [0, 0])
        with pytest.raises(InfeasibleScheduleError):
            minimum_period(eg)

    def test_acyclic_graph_returns_floor(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 7, 0)
        eg.add_constraint("b", "c", 3, 0)
        assert minimum_period(eg) == 0
        assert minimum_period(eg, floor=2) == 2

    def test_negative_weights_ok(self):
        eg = simple_cycle_graph([F(-1), F(5)], [1, 1])
        assert minimum_period(eg) == 2

    def test_is_feasible_monotone(self):
        eg = simple_cycle_graph([F(10), F(4)], [1, 1])
        assert not is_feasible(eg, 6)
        assert is_feasible(eg, 7)
        assert is_feasible(eg, 8)


class TestEarliestTimes:
    def test_chain_times(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 2, 0)
        eg.add_constraint("b", "c", 3, 0)
        times = earliest_times(eg, 10)
        assert times["a"] == 0
        assert times["b"] == 2
        assert times["c"] == 5

    def test_height_reduces_offset(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 12, 1)
        times = earliest_times(eg, 10)
        assert times["b"] == 2  # 12 - 10

    def test_infeasible_raises(self):
        eg = simple_cycle_graph([F(10)], [1])
        with pytest.raises(InfeasibleScheduleError):
            earliest_times(eg, 5)

    def test_times_satisfy_constraints(self):
        eg = EventGraph()
        eg.add_constraint("a", "b", 3, 0)
        eg.add_constraint("b", "c", 4, 1)
        eg.add_constraint("c", "a", 2, 1)
        lam = minimum_period(eg)
        times = earliest_times(eg, lam)
        for e in eg.edges:
            u, v = eg.label(e.src), eg.label(e.dst)
            assert times[v] >= times[u] + e.weight - lam * e.height


#: Weights on a common grid, on a huge power-of-two grid, and on a grid
#: coprime to it: reduced costs then need a ~120-bit common denominator.
WEIGHTS = st.one_of(
    st.fractions(min_value=0, max_value=10),
    st.integers(0, 10 * 2**60).map(lambda k: Fraction(k, 2**60)),
    st.integers(0, 10 * (2**61 - 1)).map(lambda k: Fraction(k, 2**61 - 1)),
)


@st.composite
def random_event_graph(draw):
    n = draw(st.integers(2, 6))
    n_edges = draw(st.integers(1, 10))
    eg = EventGraph()
    for node in range(n):
        eg.add_event(node)
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            h = 1  # self loops must advance data sets
        else:
            h = draw(st.integers(0, 2))
        eg.add_constraint(u, v, draw(WEIGHTS), h)
    return eg


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(random_event_graph())
    def test_mcr_matches_cycle_enumeration(self, eg):
        try:
            expected = brute_force_mcr(eg)
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                minimum_period(eg)
            return
        got = minimum_period(eg)
        if expected is None or expected < 0:
            assert got == 0  # floor
        else:
            assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(random_event_graph())
    def test_earliest_times_valid_at_mcr(self, eg):
        try:
            lam = minimum_period(eg)
        except InfeasibleScheduleError:
            return
        if lam == 0:
            lam = Fraction(1)
        times = earliest_times(eg, lam)
        for e in eg.edges:
            u, v = eg.label(e.src), eg.label(e.dst)
            assert times[v] >= times[u] + e.weight - lam * e.height

    @settings(max_examples=60, deadline=None)
    @given(random_event_graph(), st.data())
    def test_floor_at_a_cycle_ratio_is_exact(self, eg, data):
        """Raising from the ratio of a real cycle reaches the brute-force MCR.

        A cycle 0 -> 1 -> ... -> 0 of height 1 per edge is planted, so its
        ratio is known without enumerating cycles.
        """
        k = data.draw(st.integers(1, eg.n_events))
        weights = [data.draw(WEIGHTS) for _ in range(k)]
        for i, w in enumerate(weights):
            eg.add_constraint(i, (i + 1) % k, w, 1)
        floor = sum(weights, Fraction(0)) / k
        try:
            expected = brute_force_mcr(eg)
        except InfeasibleScheduleError:
            return
        assert floor <= expected
        assert minimum_period(eg, floor) == expected

    @settings(max_examples=60, deadline=None)
    @given(random_event_graph(), WEIGHTS)
    def test_cutoff_is_exact_below_and_bounded_above(self, eg, cutoff):
        try:
            expected = brute_force_mcr(eg)
        except InfeasibleScheduleError:
            return
        exact = max(expected or 0, 0)
        got = minimum_period(eg, cutoff=cutoff)
        if exact < cutoff:
            assert got == exact
        else:
            assert cutoff <= got <= exact

    @settings(max_examples=60, deadline=None)
    @given(random_event_graph())
    def test_earliest_times_are_least_at_the_mcr(self, eg):
        """At the brute-force MCR the earliest times exist, satisfy every
        constraint and are tight (each event waits for some constraint or
        starts at 0); a hair below it no schedule exists."""
        try:
            expected = brute_force_mcr(eg)
        except InfeasibleScheduleError:
            return
        if expected is None or expected <= 0:
            return
        times = earliest_times(eg, expected)
        tight = {label: times[label] == 0 for label in eg.labels}
        for e in eg.edges:
            u, v = eg.label(e.src), eg.label(e.dst)
            slack = times[v] - (times[u] + e.weight - expected * e.height)
            assert slack >= 0
            tight[v] = tight[v] or slack == 0
        assert all(tight.values())
        with pytest.raises(InfeasibleScheduleError):
            earliest_times(eg, expected - Fraction(1, 2**200))


@st.composite
def small_dag(draw):
    n = draw(st.integers(2, 5))
    app = make_application([
        (f"C{i}", draw(st.integers(0, 5)),
         draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])))
        for i in range(n)
    ])
    edges = [
        (f"C{i}", f"C{j}")
        for j in range(1, n) for i in range(j) if draw(st.booleans())
    ]
    return ExecutionGraph(app, edges)


class TestIncumbentCutoff:
    @settings(max_examples=40, deadline=None)
    @given(small_dag())
    def test_enumeration_picks_the_first_best_orders(self, graph):
        """The cut-off enumeration returns the period and orders that a full
        evaluation of every configuration picks (first strict minimum)."""
        best = None
        for orders in iter_all_orders(graph):
            try:
                lam = inorder_period_for_orders(graph, orders)
            except InfeasibleScheduleError:
                continue
            if best is None or lam < best[0]:
                best = (lam, orders)
        assert _best_orders(CostModel(graph)) == (best or (None, None))

    @settings(max_examples=40, deadline=None)
    @given(small_dag())
    def test_server_cycle_floor_is_a_lower_bound(self, graph):
        """The floor the durations carry never exceeds the brute-force MCR
        of an order configuration's event graph."""
        floor = operation_durations(CostModel(graph)).floor
        for orders in itertools.islice(iter_all_orders(graph), 8):
            try:
                mcr = brute_force_mcr(inorder_event_graph(graph, orders))
            except InfeasibleScheduleError:
                continue
            assert floor <= mcr

    def test_a_tie_above_the_floor_keeps_the_first_orders(self):
        """Configurations 0 and 10 of this DAG share the optimum 27/4, above
        the server-cycle floor, so the search must run past the tie."""
        app = make_application([
            ("C0", 2, 1), ("C1", 3, 1), ("C2", 3, 1), ("C3", 2, Fraction(1, 2)),
            ("C4", 1, 1),
        ])
        graph = ExecutionGraph(app, [
            ("C0", "C1"), ("C0", "C2"), ("C0", "C4"), ("C1", "C3"),
            ("C2", "C3"), ("C3", "C4"),
        ])
        first = next(iter_all_orders(graph))
        assert _best_orders(CostModel(graph)) == (Fraction(27, 4), first)
