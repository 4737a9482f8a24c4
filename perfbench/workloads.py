"""The benchmark's workloads: inputs from a seed, timed runs, answer checks.

Batch workloads solve a suite of instances cold (fresh ``EvaluationCache``
and placement memo per solve) in whole passes until the run time is used.
The suite's base instances are fixed catalog specs, so every seed solves
the same instances; the seed renames and reorders each instance's services
and shuffles the solve order, so every seed gives the program new inputs.
Each result is checked right after it is timed.  ``serve-mixed`` drives an
in-process ``PlannerServer`` with an open loop of Poisson arrivals
generated from the seed, then re-serves some of its cold solves one at a
time.

Times are reported at a fixed reference machine speed: a pure-Python
:func:`reference_work` is timed between solves (batch, and the served
probes of serve-mixed) or, in CPU time, every :data:`SPEED_EVERY` seconds
of the open loop, and each measured time is divided by its time over
:data:`REFERENCE_S`.  The wall-clock figures are printed beside them.

Everything here calls only the program's public API; the traced run adds
spans by wrapping layer functions (:mod:`spans`), never by editing ``src/``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import make_application
from repro.core import CommModel, CostModel
from repro.dynamic import diurnal_trace
from repro.optimize.placement import clear_placement_memo, placement_memo_size
from repro.planner import EvaluationCache, load_workload, solve
from repro.serve import PlannerServer, ServeConfig

from spans import REQUEST, Tracer

#: Time of one :func:`reference_work` on the 2-core Xeon VM the benchmark
#: was defined on.  That machine's speed drifts by +-20% over seconds to
#: minutes, so every reported time is rescaled to this reference speed.
REFERENCE_S = 0.001
#: Reference computations per speed reading; their median is used, so a
#: single preempted computation does not distort a reading.
REFERENCE_SAMPLES = 9

#: Operations answered later than this count as missed in ``goodput_rps``.
LATENCY_LIMIT_MS = {
    "oneport-period": 1000.0,
    "overlap-search": 2000.0,
    "placement": 5000.0,
    "serve-mixed": 100.0,
}


@dataclass
class Case:
    """One suite entry: a catalog application plus its solve options."""

    spec: str
    kwargs: Dict[str, Any]
    exact_check: bool = False


def _cases(specs, exact_first: int = 0, **kwargs) -> List[Case]:
    return [Case(spec, kwargs, i < exact_first) for i, spec in enumerate(specs)]


def suite(workload: str, smoke: bool = False) -> List[Case]:
    """The fixed base instances of a batch workload (``smoke``: a tiny
    stand-in with the same layer profile, for the layer test)."""
    if workload == "oneport-period":
        sizes, seeds = ((5,), (0,)) if smoke else ((6, 7), range(16))
        specs = [f"random:n={n},seed={s}" for n in sizes for s in seeds]
        return (_cases(specs, 1, model="inorder", objective="period")
                + _cases(specs, 1, model="outorder", objective="period"))
    if workload == "overlap-search":
        sizes, seeds = ((6,), (0,)) if smoke else ((9, 10, 11), range(8))
        period = [f"random:n={n},seed={s}" for n in sizes for s in seeds]
        latency = [f"random:n={4 if smoke else 5},seed={s}" for s in seeds]
        return (_cases(period, 1, model="overlap", objective="period")
                + _cases(latency, 1, model="overlap", objective="latency"))
    if workload == "placement":
        n = 3 if smoke else 5
        platforms = ("het:n=6,seed=0", "tree:racks=2,servers=3", "torus:dims=2x3")
        return [
            Case(f"random:n={n},seed={i}",
                 {"model": "overlap", "objective": "period", "platform": p},
                 exact_check=i == 1)
            for i, p in enumerate(platforms * (1 if smoke else 3))
        ]
    raise ValueError(f"unknown batch workload {workload!r}")


def relabel(app, rng: random.Random):
    """*app* with its services renamed and reordered (same instance)."""
    services = list(app.services)
    names = [f"s{i}" for i in range(len(services))]
    rng.shuffle(names)
    rng.shuffle(services)
    renamed = dict(zip((s.name for s in services), names))
    return make_application(
        [(renamed[s.name], s.cost, s.selectivity) for s in services],
        [(renamed[a], renamed[b]) for a, b in app.precedence],
    )


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def at(self, x: int) -> int:
        return self.a * x + self.b


def reference_work() -> int:
    """A fixed pure-Python computation (fractions, objects, dicts, sorting)
    that shares no code with the program: its time tracks machine speed."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(i + 1, 3)
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    points = [_Point(i, i + 1) for i in range(600)]
    values = sorted((p.at(3) * 7919) % 1009 for p in points)
    return acc.numerator + values[-1] + len(table)


def slowness(samples: int = 1, clock: Callable[[], float] = time.perf_counter) -> float:
    """Median time of *samples* reference computations over its time on the
    machine the benchmark was defined on (> 1: this machine runs slower).

    The collector is off meanwhile, so that garbage the program left behind
    is collected during the program's own solves, not charged to the
    reference.  *clock* is the time that is measured (``time.thread_time``
    for CPU time that GIL waits do not inflate)."""
    times = []
    gc.disable()
    try:
        for _ in range(samples):
            start = clock()
            reference_work()
            times.append(clock() - start)
    finally:
        gc.enable()
    return statistics.median(times) / REFERENCE_S


def _untraced(tracer: Optional[Tracer]):
    """Context in which the benchmark's own calls into the program are not
    recorded."""
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_plan_result(result, errors: List[str], label: str) -> None:
    """The answer checks every solve must pass."""
    if result.plan is None or not result.plan.is_valid():
        errors.append(f"{label}: plan missing or invalid")
        return
    if result.value != result.scheduled_value:
        errors.append(f"{label}: value {result.value} != plan's {result.scheduled_value}")
    costs = CostModel(result.graph, result.platform, result.mapping)
    if result.objective == "period":
        bound = costs.period_lower_bound(result.model)
        if result.model is CommModel.OVERLAP and result.value != bound:
            errors.append(f"{label}: OVERLAP period {result.value} != bound {bound}")
        if result.value < bound:
            errors.append(f"{label}: period {result.value} below bound {bound}")
    elif result.value < costs.latency_lower_bound():
        errors.append(f"{label}: latency below the critical-path bound")


@dataclass
class Outcome:
    """What a run measured and checked, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    rss_mb: float = 0.0
    lines: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)


# -- batch workloads ---------------------------------------------------------

@dataclass
class BatchRun:
    workload: str
    seed: int
    smoke: bool = False

    def setup(self) -> None:
        """Generate the inputs and run an untimed warm-up solve."""
        rng = random.Random(f"{self.workload}/{self.seed}")
        self.cases = suite(self.workload, self.smoke)
        self.apps = [relabel(load_workload(c.spec).application, rng) for c in self.cases]
        self.order = list(range(len(self.cases)))
        rng.shuffle(self.order)
        warm = self.cases[0]
        solve(load_workload("random:n=3,seed=0").application,
              cache=EvaluationCache(), **warm.kwargs)
        clear_placement_memo()

    def close(self) -> None:
        """Nothing outlives a batch set-up."""

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        solve_fn: Callable = solve if tracer is None else tracer.span("planner.solve", solve)
        out = Outcome()
        # Each result is checked as soon as it is timed and then dropped, so
        # memory use does not grow with the number of passes that fit.
        self.first: Dict[int, Any] = {}
        self.sizes: List[Tuple[int, int]] = []  # (cache entries, memo entries)
        self.stats: Dict[str, int] = defaultdict(int)  # see _tally
        # Per pass: (solve time, machine slowness) pairs; the slowness of a
        # solve is the mean of the reference computations timed just before
        # and just after it, which follows the machine's drift.
        passes: List[List[Tuple[float, float]]] = []
        started = time.perf_counter()
        while True:
            timed = []
            before = slowness(REFERENCE_SAMPLES)
            for i in self.order:
                clear_placement_memo()
                cache = EvaluationCache()
                REQUEST.set(len(self.sizes))
                t0 = time.perf_counter()
                result = solve_fn(self.apps[i], cache=cache, **self.cases[i].kwargs)
                t1 = time.perf_counter()
                after = slowness(REFERENCE_SAMPLES)
                timed.append((t1 - t0, (before + after) / 2))
                self.sizes.append((len(cache), placement_memo_size()))
                with _untraced(tracer):
                    self._check(i, result, out)
                self._tally(result)
                del result, cache
                before = slowness(REFERENCE_SAMPLES)
            passes.append(timed)
            elapsed = time.perf_counter() - started
            # Stop at the whole number of passes nearest to the run time.
            if elapsed >= seconds - elapsed / len(passes) / 2:
                break
        out.elapsed = elapsed
        out.rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()  # the exact-tier checks below are not traced
        self._check_exact(out)
        self._metrics(passes, out, tracer)
        return out

    def _check(self, i: int, result, out: Outcome) -> None:
        errors: List[str] = []
        label = f"{self.cases[i].spec} {self.cases[i].kwargs}"
        _check_plan_result(result, errors, label)
        if self.first.setdefault(i, result.value) != result.value:
            errors.append(f"{label}: value changed between passes")
        out.attempted += 1
        out.failed += bool(errors)
        out.errors += errors

    def _tally(self, result) -> None:
        """Add up the search statistics the traced run reports."""
        extras = result.stats.extras
        for name in ("expanded", "pruned", "evaluated"):
            self.stats[name] += extras.get(name, 0)
        self.stats["queries"] += result.stats.objective_queries
        self.stats["hits"] += result.stats.cache_hits

    def _check_exact(self, out: Outcome) -> None:
        """Outside the timed section: the certified answers equal the
        all-Fraction exact tier on a fixed subset of the suite."""
        for i, case in enumerate(self.cases):
            if case.exact_check:
                clear_placement_memo()
                exact = solve(self.apps[i], cache=EvaluationCache(),
                              exactness="exact", **case.kwargs)
                if exact.value != self.first[i]:
                    out.failed += 1
                    out.errors.append(
                        f"{case.spec}: certified {self.first[i]} != exact {exact.value}")
        clear_placement_memo()

    def _metrics(self, passes, out: Outcome, tracer) -> None:
        n, limit = len(self.sizes), LATENCY_LIMIT_MS[self.workload]
        # Times at reference speed; rates are medians over passes (each pass
        # solves the whole suite once).
        norm_ms = [t / slow * 1000 for timed in passes for t, slow in timed]
        rates, goodputs = [], []
        for timed in passes:
            busy = sum(t / slow for t, slow in timed)
            rates.append(len(timed) / busy)
            goodputs.append(sum(t / slow * 1000 <= limit for t, slow in timed) / busy)
        raw_ms = [t * 1000 for timed in passes for t, _ in timed]
        out.e2e = {
            "solves_per_s": statistics.median(rates),
            "solve_ms.p50": statistics.median(norm_ms),
            "goodput_rps": statistics.median(goodputs),
            "peak_rss_mb": out.rss_mb,
        }
        out.lines += [
            f"{len(passes)} passes x {len(self.cases)} cold solves = {n} solves "
            f"in {out.elapsed:.2f} s (closed loop, one solve at a time)",
            f"latency limit for goodput_rps: {limit:g} ms; solve_ms over n={n} "
            f"solves: p95 {percentile(norm_ms, 95):.3f}, p99 {percentile(norm_ms, 99):.3f}",
            f"machine slowness (reference time / {REFERENCE_S * 1000:g} ms): median "
            f"{statistics.median(slow for timed in passes for _, slow in timed):.3f}",
            f"wall clock, not rescaled: {n / sum(raw_ms) * 1000:.4f} solves/s, "
            f"solve_ms.p50 {statistics.median(raw_ms):.3f} ms",
        ]
        if tracer is None:
            return
        stats = self.stats
        out.layer = layer_metrics(tracer, n)
        out.layer.update({
            "optimize.bb.expanded": stats["expanded"] / n,
            "optimize.bb.pruned": stats["pruned"] / n,
            "optimize.bb.evaluated": stats["evaluated"] / n,
            "optimize.placement.memo_size": sum(m for _, m in self.sizes) / n,
            "planner.cache.hit_ratio":
                stats["hits"] / stats["queries"] if stats["queries"] else 0.0,
            "planner.cache.entries": sum(c for c, _ in self.sizes) / n,
        })


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-layer metrics from the spans and counters, per operation."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def per_op(value: float) -> float:
        return value / ops

    def self_ms(*names: str) -> float:
        return per_op(sum(self_s.get(name, 0.0) for name in names) * 1000)

    return {
        "cyclic.mcr.calls": per_op(calls.get("cyclic.mcr", 0)),
        "cyclic.feasible.calls": per_op(counts.get("cyclic.feasible", 0)),
        "cyclic.earliest.calls": per_op(calls.get("cyclic.earliest", 0)),
        "cyclic.self_ms": self_ms("cyclic.mcr", "cyclic.earliest"),
        "scheduling.inorder_period.calls": per_op(calls.get("scheduling.inorder_period", 0)),
        "scheduling.inorder_period.self_ms": self_ms("scheduling.inorder_period"),
        "scheduling.orders_tried": per_op(counts.get("scheduling.orders_tried", 0)),
        "scheduling.build.self_ms": self_ms("scheduling.build"),
        "optimize.bb.self_ms": self_ms("optimize.bb"),
        "optimize.local_search.self_ms": self_ms("optimize.local_search"),
        "optimize.objective.calls": per_op(calls.get("optimize.objective", 0)),
        "optimize.objective.self_ms": self_ms("optimize.objective"),
        "optimize.placement.calls": per_op(calls.get("optimize.placement", 0)),
        "optimize.placement.self_ms": self_ms("optimize.placement"),
        "core.batched.rows": per_op(counts.get("core.batched.rows", 0)),
        "core.batched.self_ms": self_ms("core.batched"),
        "core.costs.models": per_op(counts.get("core.costs.models", 0)),
        "core.costs.self_ms": self_ms("core.costs"),
        "planner.solve.calls": per_op(calls.get("planner.solve", 0)),
        "planner.solve.self_ms": self_ms("planner.solve"),
        "dynamic.replan.self_ms": self_ms("dynamic.replan"),
        "dynamic.replan.moves": per_op(counts.get("dynamic.replan.moves", 0)),
        "dynamic.replan.cold_fallbacks": per_op(counts.get("dynamic.replan.cold_fallbacks", 0)),
        "serve.decode_ms": 0.0,
        "serve.wait_ms": 0.0,
        "serve.worker_ms": 0.0,
        "serve.coalesced": 0.0,
        "serve.batch_size.mean": 0.0,
        "serve.result_cache.hit_ratio": 0.0,
        "trace.spans": per_op(sum(calls.values())),
        "trace.missing_targets": float(len(tracer.missing)),
    }


# -- serve-mixed ----------------------------------------------------------------

#: Offered load of the open loop (about half the measured capacity).
SERVE_RATE = 100.0
#: Request mix: share of arrivals that are replans, bursts of identical
#: cold solves, single cold solves; the rest read the hot set.
WRITE_SHARE, BURST_SHARE, COLD_SHARE = 0.04, 0.015, 0.22
BURST_SIZE = 4
HOT_SET = 16
REPLAN_BUDGET = 2
REPLAN_PLATFORM = "hom:n=4"
#: Distinct cold solves of the open loop re-served one at a time afterwards.
PROBES = 256
#: Seconds between the reference computations timed during the open loop.
SPEED_EVERY = 0.25


def _solve_request(spec: str, objective: str) -> Dict[str, Any]:
    return {"op": "solve", "workload": spec, "objective": objective, "model": "overlap"}


@dataclass
class ServeRun:
    seed: int

    def setup(self, seconds: float) -> None:
        """Generate the arrival schedule, start the server, warm it up,
        prime the hot set and admit the replan incumbent's applications."""
        rng = random.Random(f"serve-mixed/{self.seed}")
        base = 1_000_000 * (self.seed % 1000 + 1)
        self.hot = [
            _solve_request(f"random:n={6 + i % 2},seed={base + i}",
                           ("period", "latency")[(i // 2) % 2])
            for i in range(HOT_SET)
        ]
        trace = diurnal_trace(n_apps=3, cycles=2)
        self.admits = [e for e in trace.events if e.kind == "admit"]
        loads = [e for e in trace.events if e.kind != "admit"]
        # A Poisson process conditioned on its arrival count: uniform times.
        # The mix is dealt from a shuffled deck with exact shares, and cold
        # solves cycle through the (n, objective) strata, so seeds differ in
        # timing and instances but not in the amount of work.
        arrivals = round(SERVE_RATE * seconds)
        times = sorted(rng.uniform(0, seconds) for _ in range(arrivals))
        deck = (["write"] * round(WRITE_SHARE * arrivals)
                + ["burst"] * round(BURST_SHARE * arrivals)
                + ["cold"] * round(COLD_SHARE * arrivals))
        deck += ["read"] * (arrivals - len(deck))
        rng.shuffle(deck)
        strata = ((6, "period"), (7, "latency"), (7, "period"), (6, "latency"))
        self.schedule: List[Tuple[float, str, Dict[str, Any]]] = []
        cold = writes = 0
        for t, kind in zip(times, deck):
            if kind == "write":
                event = loads[writes % len(loads)]
                writes += 1
                self.schedule.append((t, "write", {
                    "op": "replan", "event": event.as_dict(), "budget": REPLAN_BUDGET}))
            elif kind == "read":
                self.schedule.append((t, "read", rng.choice(self.hot)))
            else:
                n, objective = strata[cold % len(strata)]
                cold += 1
                request = _solve_request(f"random:n={n},seed={base + 1000 + cold}", objective)
                self.schedule += [(t, "cold", request)] * (BURST_SIZE if kind == "burst" else 1)
        self.loop = asyncio.new_event_loop()
        self.server = PlannerServer(ServeConfig(workers=0))
        self.loop.run_until_complete(self._prime())

    async def _prime(self) -> None:
        server = self.server
        warm = _solve_request("random:n=3,seed=0", "period")
        for request in (warm, {"op": "clear_cache"}):
            await server.handle_request(request)
        self.primed = {}
        for request in self.hot:
            response = await server.handle_request(request)
            self.primed[_key(request)] = response["result"]["value"]
        await server.handle_request(
            {"op": "replan", "platform": REPLAN_PLATFORM, "reset": True})
        for event in self.admits:
            await server.handle_request({"op": "replan", "event": event.as_dict()})

    def close(self) -> None:
        """Stop the server's threads and the event loop."""
        self.loop.run_until_complete(self.server.aclose())
        self.loop.close()

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Outcome:
        out = Outcome()
        try:
            replies, lateness = self.loop.run_until_complete(self._drive(tracer))
        finally:
            self.loop.close()
        out.elapsed = seconds
        out.rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()  # the answer checks below are not traced
        self._check(replies, out)
        self._metrics(replies, lateness, seconds, out, tracer)
        return out

    async def _drive(self, tracer: Optional[Tracer]):
        replies: List[Tuple[int, float, float, str, Dict, Dict]] = []
        lateness: List[float] = []
        server = self.server
        # CPU time of the whole process over the open loop, and reference
        # computations timed in CPU time on the event loop meanwhile.
        self.speed: List[float] = []
        stop = asyncio.Event()

        async def sample_speed() -> None:
            while not stop.is_set():
                self.speed.append(slowness(clock=time.thread_time))
                await asyncio.sleep(SPEED_EVERY)

        async def issue(rid: int, due: float, kind: str, request: Dict) -> None:
            REQUEST.set(rid)
            response = await server.handle_request(request)
            done = time.perf_counter()
            replies.append((rid, due, done, kind, request, response))
            if tracer is not None:
                tracer.record("serve.request", due, done, rid)

        tasks = []
        sampler = asyncio.create_task(sample_speed())
        cpu = time.process_time()
        start = time.perf_counter() + 0.05
        try:
            for rid, (offset, kind, request) in enumerate(self.schedule):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                tasks.append(asyncio.create_task(issue(rid, due, kind, request)))
            await asyncio.gather(*tasks)
            stop.set()
            await sampler
            self.cpu_s = time.process_time() - cpu - sum(self.speed) * REFERENCE_S
            self.server_stats = server.stats()
            self.cache_entries = len(server.cache)
            self.memo_entries = placement_memo_size()
            with _untraced(tracer):
                await self._probe(replies)
        finally:
            stop.set()
            await server.aclose()
        return replies, lateness

    async def _probe(self, replies) -> None:
        """Re-serve the first :data:`PROBES` distinct cold solves of the
        open loop one at a time, each after emptying the server's caches:
        the served cold-solve time without the open loop's queueing.

        Only the CPU part of a served time is rescaled to reference speed
        (by reference computations timed in CPU time around it); the rest,
        such as the batch window, is waiting, which takes as long on any
        machine."""
        requests: Dict[Tuple[str, str], Dict] = {}
        for _, _, _, kind, request, _ in sorted(replies, key=lambda r: r[0]):
            if kind == "cold" and len(requests) < PROBES:
                requests.setdefault(_key(request), request)
        self.probed: Dict[Tuple[str, str], Dict] = {}
        self.probe_ms: List[float] = []
        before = slowness(REFERENCE_SAMPLES, clock=time.thread_time)
        for key, request in requests.items():
            await self.server.handle_request({"op": "clear_cache"})
            t0, cpu0 = time.perf_counter(), time.process_time()
            self.probed[key] = await self.server.handle_request(request)
            t1, cpu1 = time.perf_counter(), time.process_time()
            after = slowness(REFERENCE_SAMPLES, clock=time.thread_time)
            cpu = cpu1 - cpu0
            idle = max(0.0, t1 - t0 - cpu)
            self.probe_ms.append((idle + cpu * 2 / (before + after)) * 1000)
            before = after

    def _check(self, replies, out: Outcome) -> None:
        cold: Dict[Tuple[str, str], List[str]] = {}
        for rid, _, _, kind, request, response in replies:
            errors: List[str] = []
            result = response.get("result")
            if not response.get("ok"):
                errors.append(f"request {rid}: {response.get('error')}")
            elif kind == "write":
                if not result["fallback"] and len(result["moved"]) > REPLAN_BUDGET:
                    errors.append(f"request {rid}: replan moved more than the budget")
            elif not result.get("plan_valid") or result["value"] != result["scheduled_value"]:
                errors.append(f"request {rid}: plan invalid or value != plan's")
            elif kind == "read" and result["value"] != self.primed[_key(request)]:
                errors.append(f"request {rid}: hot-set answer changed")
            elif kind == "cold":
                cold.setdefault(_key(request), []).append(result["value"])
            out.attempted += 1
            out.failed += bool(errors)
            out.errors += errors
        # Each probe is an operation too: served ok, answered as in the loop.
        for key, response in self.probed.items():
            out.attempted += 1
            first = cold.get(key, [None])[0]
            if not response.get("ok") or response["result"]["value"] != first:
                out.failed += 1
                out.errors.append(f"{key}: probe answered {response} after {first}")
        # After the open loop: every distinct cold answer equals a direct
        # cold solve (which must pass the batch checks), and the first few
        # equal the exact tier.
        for index, ((spec, objective), values) in enumerate(sorted(cold.items())):
            errors = []
            app = load_workload(spec).application
            direct = solve(app, objective=objective, model="overlap", cache=EvaluationCache())
            _check_plan_result(direct, errors, spec)
            if any(v != str(direct.value) for v in values):
                errors.append(f"{spec} {objective}: served {values} != {direct.value}")
            if index < 3:
                exact = solve(app, objective=objective, model="overlap",
                              cache=EvaluationCache(), exactness="exact")
                if exact.value != direct.value:
                    errors.append(f"{spec} {objective}: certified != exact")
            out.failed += bool(errors)
            out.errors += errors

    def _metrics(self, replies, lateness, seconds: float, out: Outcome, tracer) -> None:
        latency = {rid: (done - due) * 1000 for rid, due, done, *_ in replies}
        served = {rid: (r.get("served"), kind) for rid, _, _, kind, _, r in replies}
        ok = {rid for rid, *_, r in replies if r.get("ok")}
        solves = [rid for rid in ok if served[rid][1] != "write"]
        cold = [latency[rid] for rid in solves if served[rid][0] == "solve"]
        hits = [latency[rid] for rid in solves if served[rid][0] == "result-cache"]
        writes = [latency[rid] for rid in ok if served[rid][1] == "write"]
        limit = LATENCY_LIMIT_MS["serve-mixed"]
        every = list(latency.values())
        late_ms = [x * 1000 for x in lateness]
        # Goodput over the wall time from the first due time to the last reply.
        span = max(done for _, _, done, *_ in replies) - min(due for _, due, *_ in replies)
        speed = statistics.median(self.speed)
        out.e2e = {
            "solves_per_s": len(solves) / (self.cpu_s / speed),
            "solve_ms.p50": statistics.median(self.probe_ms),
            "goodput_rps": sum(latency[rid] <= limit for rid in ok) / span,
            "peak_rss_mb": out.rss_mb,
        }
        behind = percentile(late_ms, 99) > limit / 2
        out.lines += [
            f"open loop: {len(replies)} requests over {seconds:g} s at "
            f"{SERVE_RATE:g} arrivals/s ({len(hits)} result-cache hits, "
            f"{len(cold)} cold solves, "
            f"{sum(served[r][0] == 'coalesced' for r in ok)} coalesced, "
            f"{len(writes)} replans); latency limit {limit:g} ms",
            f"solves_per_s: {len(solves)} solve requests answered per CPU-second of "
            f"the process ({self.cpu_s:.3f} s CPU, slowness {speed:.3f} over "
            f"{len(self.speed)} samples, {len(solves) / span:.3f} per wall second)",
            f"solve_ms.p50: {len(self.probe_ms)} distinct cold solves re-served one "
            f"at a time after the loop, CPU part at reference speed (p95 "
            f"{percentile(self.probe_ms, 95):.3f})",
            "wall-clock latency in ms from the due time (printed, not gated):",
            f"  latency_ms.p50 {statistics.median(every):.3f}, "
            f"p95 {percentile(every, 95):.3f}, p99 {percentile(every, 99):.3f} "
            f"(n={len(every)})",
            f"  cold solves p50 {statistics.median(cold):.3f} (n={len(cold)}); "
            f"replan_ms.p50 {statistics.median(writes):.3f} (n={len(writes)}); "
            f"hit_ms.p99 {percentile(hits, 99):.3f} (n={len(hits)})",
            f"generator lateness p50 {statistics.median(late_ms):.3f} ms, "
            f"p99 {percentile(late_ms, 99):.3f} ms, max {max(late_ms):.3f} ms"
            + (" -- GENERATOR FELL BEHIND" if behind else ""),
        ]
        if tracer is None:
            return
        n = len(replies)
        start = tracer.tables["solver_start"]
        key_of = tracer.tables["request_key"]
        due = {rid: d for rid, d, *_ in replies}
        waits = [max(0.0, start[key_of[rid]] - due[rid]) * 1000
                 for rid in solves
                 if served[rid][0] in ("solve", "coalesced") and key_of.get(rid) in start]
        jobs = tracer.counts.get("serve.jobs", 0)
        batches = self.server_stats["server"]
        out.layer = layer_metrics(tracer, n)
        out.layer.update({
            "serve.decode_ms": tracer.total_s.get("serve.decode", 0.0) * 1000 / n,
            "serve.wait_ms": statistics.median(waits) if waits else 0.0,
            "serve.worker_ms":
                tracer.total_s.get("serve.worker", 0.0) * 1000 / jobs if jobs else 0.0,
            "serve.coalesced": sum(served[r][0] == "coalesced" for r in ok) / n,
            "serve.batch_size.mean":
                batches["batched_jobs"] / batches["batches"] if batches["batches"] else 0.0,
            "serve.result_cache.hit_ratio": len(hits) / len(solves),
            **{f"optimize.bb.{name}": sum(
                r["result"]["stats"]["extras"].get(name, 0)
                for _, _, _, _, _, r in replies if r.get("served") == "solve"
            ) / n for name in ("expanded", "pruned", "evaluated")},
            "optimize.placement.memo_size": float(self.memo_entries),
            "planner.cache.hit_ratio": self.server_stats["evaluation_cache"]["hit_rate"],
            "planner.cache.entries": float(self.cache_entries),
        })


def _key(request: Dict[str, Any]) -> Tuple[str, str]:
    return request["workload"], request["objective"]
