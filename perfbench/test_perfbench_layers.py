"""The benchmark's own checks: its files agree, and each layer wrapper fires
where ``predictions.json`` says it does and reads zero where it says so.

Runs small versions of the four workloads (one pass over a tiny suite, a
three-second open loop) with tracing on::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.load_program()
from spans import Tracer, install_layers  # noqa: E402

PREDICTIONS = json.loads((HERE / "predictions.json").read_text())["predictions"]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for prediction in PREDICTIONS:
        assert prediction["metric"] in run.PER_LAYER
        assert set(prediction["moves"]) <= set(run.END_TO_END)
        named = {prediction["on"], *prediction["fires_on"], *prediction["zero_on"]}
        assert named <= set(run.WORKLOADS)


def test_every_wrapper_target_exists():
    tracer = Tracer()
    try:
        install_layers(tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def test_a_paused_tracer_records_nothing():
    tracer = Tracer()
    span = tracer.span("s", lambda: 1)
    count = tracer.counter("c", lambda: 2)
    with tracer.paused():
        assert (span(), count()) == (1, 2)
    assert not tracer.calls and not tracer.counts and not tracer.records
    span(), count()
    assert tracer.calls["s"] == 1 and tracer.counts["c"] == 1


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of a small traced run of every workload."""
    layers = {}
    for name in run.WORKLOADS:
        if name == "serve-mixed":
            job = workloads.ServeRun(seed=3)
            job.setup(3.0)
        else:
            job = workloads.BatchRun(name, seed=3, smoke=True)
            job.setup()
        tracer = Tracer()
        install_layers(tracer)
        try:
            outcome = job.run(3.0 if name == "serve-mixed" else 0.0, tracer)
        finally:
            tracer.uninstall()
        assert outcome.failed == 0 and not outcome.errors, outcome.errors
        assert set(outcome.layer) == set(run.PER_LAYER)
        layers[name] = outcome.layer
    return layers


@pytest.mark.parametrize("prediction", PREDICTIONS, ids=lambda p: p["metric"])
def test_layer_isolation(traced, prediction):
    metric = prediction["metric"]
    for workload in prediction["fires_on"]:
        assert traced[workload][metric] > 0, f"{metric} idle on {workload}"
    for workload in prediction["zero_on"]:
        assert traced[workload][metric] == 0, f"{metric} busy on {workload}"


def test_wrappers_are_removed_after_a_traced_run(traced):
    from repro.cyclic import mcr
    from repro.scheduling import inorder

    assert not hasattr(inorder.minimum_period, "__wrapped__")
    assert not hasattr(mcr._find_positive_cycle, "__wrapped__")
