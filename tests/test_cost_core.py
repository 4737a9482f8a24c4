"""One Section-2.1 cost core for both number types.

:class:`~repro.core.CostModel` is written once over a number-type hook;
:class:`~repro.core.FloatCosts` is the same class in floats.  Under test:

1. **Determinism of the float tier** — every float quantity folds the
   ancestor products in canonical name order, so a value is one double
   whatever ``PYTHONHASHSEED`` the process runs under, and the FAST
   placement evaluators agree with :class:`FloatCosts`.
2. **The exact weighted tier** — ``CostModel(..., weights=w)`` prices the
   concurrent sequels' per-server utilisation exactly (equal to a
   hand-rolled weighted sum and to ``ConcurrentCosts.max_utilisation``),
   and its float twin equals the batched ``MappingBatch(shared=True,
   weights=w)`` rows bit for bit.
3. **Empty graphs** — the bounds of a graph without services are ``0``.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.concurrent import ConcurrentApp, ConcurrentCosts, MultiApplication
from repro.core import (
    Application,
    CommModel,
    CostModel,
    ExecutionGraph,
    FloatCosts,
    GraphArrays,
    Mapping,
    MappingBatch,
    Platform,
    make_application,
)
from repro.planner.catalog import load_platform
from repro.workloads.generators import random_application, random_execution_graph

F = Fraction

MODELS = (CommModel.OVERLAP, CommModel.INORDER, CommModel.OUTORDER)

#: Five services with awkward selectivities feeding one expensive sink: the
#: sink's ancestor product rounds differently depending on fold order.
_HASH_SEED_PROBE = """
from fractions import Fraction as F
from repro.core import CommModel, ExecutionGraph, Mapping, Platform, make_application
from repro.optimize.incremental import placement_evaluator
sels = [F(1, 3), F(1, 7), F(5, 11), F(3, 13), F(7, 17)]
app = make_application(
    [(n, i + 1, s) for i, (n, s) in enumerate(zip("abcde", sels))]
    + [("x", 10**6, 1)]
)
graph = ExecutionGraph(app, [(n, "x") for n in "abcde"])
platform = Platform.of(speeds=[1, 2, 3, 1, 2, 3, 1])
mapping = Mapping(dict(zip(graph.nodes, platform.names)))
print(repr(placement_evaluator(
    graph, platform, mapping, model=CommModel.OUTORDER, exactness="fast"
).value()))
"""


def _probe_instance():
    sels = [F(1, 3), F(1, 7), F(5, 11), F(3, 13), F(7, 17)]
    app = make_application(
        [(n, i + 1, s) for i, (n, s) in enumerate(zip("abcde", sels))]
        + [("x", 10**6, 1)]
    )
    graph = ExecutionGraph(app, [(n, "x") for n in "abcde"])
    platform = Platform.of(speeds=[1, 2, 3, 1, 2, 3, 1])
    return graph, platform, Mapping(dict(zip(graph.nodes, platform.names)))


class TestOneClassTwoNumberTypes:
    def test_float_costs_is_the_float_cost_model(self):
        graph, platform, mapping = _probe_instance()
        fast = FloatCosts(graph, platform, mapping)
        exact = CostModel(graph, platform, mapping)
        assert isinstance(fast, CostModel)
        assert type(fast.period_lower_bound(CommModel.OVERLAP)) is float
        assert type(exact.period_lower_bound(CommModel.OVERLAP)) is Fraction
        for node in graph.nodes:
            assert fast.cin(node) == float(exact.cin(node))
            assert fast.ccomp(node) == float(exact.ccomp(node))

    def test_fast_placement_value_is_hash_seed_independent(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout.strip())
        graph, platform, mapping = _probe_instance()
        scalar = FloatCosts(graph, platform, mapping).period_lower_bound(
            CommModel.OUTORDER
        )
        assert outputs[0] == outputs[1] == repr(scalar)

    def test_exact_arrays_amortise_across_mappings(self):
        graph, platform, _ = _probe_instance()
        arrays = GraphArrays(graph, CostModel._num)
        rng = random.Random(4)
        for _ in range(5):
            servers = rng.sample(platform.names, len(graph.nodes))
            mapping = Mapping(dict(zip(graph.nodes, servers)))
            shared = CostModel(graph, platform, mapping, arrays=arrays)
            fresh = CostModel(graph, platform, mapping)
            for model in MODELS:
                assert shared.period_lower_bound(
                    model
                ) == fresh.period_lower_bound(model)

    def test_empty_graph_bounds_are_zero(self):
        graph = ExecutionGraph.empty(Application(()))
        for cls, zero in ((CostModel, Fraction(0)), (FloatCosts, 0.0)):
            costs = cls(graph, Platform.homogeneous(2), Mapping.shared({}))
            for model in MODELS:
                assert costs.period_lower_bound(model) == zero
            assert costs.latency_lower_bound() == zero
            assert costs.communication_period_bound() == zero


def _multi_instance(seed, platform):
    """2..3 targeted applications, randomly shared over *platform*."""
    rng = random.Random(seed)
    members = []
    for a in range(rng.randrange(2, 4)):
        app = random_application(
            rng.randrange(2, 4), seed=seed * 17 + a, filter_fraction=0.6
        )
        graph = random_execution_graph(app, seed=seed * 17 + a + 5, density=0.5)
        target = F(rng.randrange(20, 60), rng.randrange(1, 4))
        members.append(ConcurrentApp(f"app{a}", graph, target))
    multi = MultiApplication(members)
    mapping = Mapping.shared(
        {
            svc: rng.choice(platform.names)
            for svc in multi.combined_graph.nodes
        }
    )
    return multi, mapping


def _hand_weighted_utilisation(graph, platform, mapping, weights, model):
    """The sequels' weighted per-server load, summed by hand."""
    costs = CostModel(graph, platform, mapping)
    loads = {}
    for svc in graph.nodes:
        w = weights[svc]
        acc = loads.setdefault(mapping.server(svc), [F(0), F(0), F(0)])
        acc[0] += w * costs.cin(svc)
        acc[1] += w * costs.ccomp(svc)
        acc[2] += w * costs.cout(svc)
    if model.overlaps_compute:
        return max(max(acc) for acc in loads.values())
    return max(sum(acc) for acc in loads.values())


@pytest.mark.parametrize(
    "spec", ["hom:n=3", "het:n=4,seed=1", "tree:racks=2,servers=2"]
)
class TestExactWeightedTier:
    def test_weighted_bound_is_the_max_utilisation(self, spec):
        platform = load_platform(spec)
        for seed in range(8):
            multi, mapping = _multi_instance(seed, platform)
            graph, weights = multi.combined_graph, multi.weights()
            for model in MODELS:
                exact = CostModel(
                    graph, platform, mapping, weights=weights
                ).period_lower_bound(model)
                assert type(exact) is Fraction
                readout = ConcurrentCosts(
                    multi, platform, mapping, model=model
                ).max_utilisation()
                assert exact == readout, (spec, seed, model)
                assert exact == _hand_weighted_utilisation(
                    graph, platform, mapping, weights, model
                ), (spec, seed, model)

    def test_float_twin_equals_batched_rows(self, spec):
        platform = load_platform(spec)
        for seed in range(8):
            multi, mapping = _multi_instance(seed, platform)
            graph, weights = multi.combined_graph, multi.weights()
            rng = random.Random(seed + 100)
            mappings = [mapping] + [
                Mapping.shared(
                    {svc: rng.choice(platform.names) for svc in graph.nodes}
                )
                for _ in range(5)
            ]
            for model in MODELS:
                batch = MappingBatch(
                    graph, platform, kind="period", model=model,
                    shared=True, weights=weights,
                )
                rows = batch.values(np.stack([batch.encode(m) for m in mappings]))
                for k, m in enumerate(mappings):
                    fast = FloatCosts(
                        graph, platform, m, weights=weights
                    ).period_lower_bound(model)
                    assert rows[k] == fast, (spec, seed, model, k)
