"""In-memory spans and counters for the benchmark's traced run.

The program itself carries no tracing.  A :class:`Tracer` wraps the public
functions of each layer *where the caller looks the name up*: the modules
bind names with ``from ... import``, so ``exact_inorder_period`` is wrapped
in ``repro.optimize.evaluation`` (its objective caller) and in
``repro.scheduling.inorder`` (its scheduling caller), not only where it is
defined.  Methods are wrapped on their class.

A span records ``(id, name, start, end, parent id, request id)``.  Spans
nest per thread; a span's self time is its duration minus the time its
direct child spans cover.  Counters are plain per-name integers.  Spans are
kept in memory, at most :data:`MAX_SPANS` of them (beyond that only the
per-name aggregates grow and :attr:`Tracer.dropped` counts the rest), and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The request (or batch solve index) the current asyncio task works for.
REQUEST: "contextvars.ContextVar[Any]" = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: Spans kept in memory for the span file (about 200 bytes each).
MAX_SPANS = 500_000

#: ``before(tracer, args, kwargs)`` runs just before a wrapped call's span
#: opens; ``hook(tracer, args, kwargs, result)`` runs after the call.
Hook = Callable[..., None]


class Tracer:
    """Spans and counters, plus the wrappers that record them."""

    def __init__(self) -> None:
        #: Off: the wrappers call straight through (see :meth:`paused`).
        self.enabled = True
        self.records: List[tuple] = []
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        #: Per-purpose tables the hooks keep (e.g. request -> solve key).
        self.tables: Dict[str, dict] = defaultdict(dict)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def set_thread_request(self, request_id: Any) -> None:
        """Request id for spans on this thread (worker threads do not see
        the asyncio task's context)."""
        self._local.request = request_id

    def _request(self) -> Any:
        request = getattr(self._local, "request", None)
        return REQUEST.get() if request is None else request

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are neither timed nor counted (the
        benchmark's own answer checks call the program too)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(
        self, name: str, fn: Callable, hook: Optional[Hook] = None,
        before: Optional[Hook] = None,
    ) -> Callable:
        """*fn* wrapped in a span called *name*; see :data:`Hook`."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            # [id, parent id, request id, start, time covered by children]
            frame = [next(tracer._ids), parent[0] if parent else None,
                     tracer._request(), time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[3]
                if parent is not None:
                    parent[4] += duration
                tracer._finish(name, frame, end, duration)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so that each call adds one to counter *name*."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.add(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _finish(self, name: str, frame: list, end: float, duration: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[4]
            if len(self.records) < MAX_SPANS:
                self.records.append(
                    (frame[0], name, frame[3], end, frame[1], frame[2])
                )
            else:
                self.dropped += 1

    def record(self, name: str, start: float, end: float, request_id: Any) -> None:
        """A root span whose interval the caller measured itself."""
        frame = [next(self._ids), None, request_id, start, 0.0]
        self._finish(name, frame, end, end - start)

    # -- installing wrappers --------------------------------------------

    def patch(
        self, module: str, attr: str, name: str, *,
        count_only: bool = False, hook: Optional[Hook] = None,
        before: Optional[Hook] = None,
    ) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a
        recording wrapper; a target that no longer exists is listed in
        :attr:`missing` instead of failing the run."""
        owner: Any = importlib.import_module(module)
        *path, leaf = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (AttributeError, KeyError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = (
            self.counter(name, original) if count_only
            else self.span(name, original, hook, before)
        )
        setattr(owner, leaf, wrapper)
        self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines, then one summary line."""
        with gzip.open(path, "wt") as out:
            for sid, name, start, end, parent, request in self.records:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
            out.write(json.dumps({
                "summary": {
                    name: {"calls": self.calls[name],
                           "total_ms": self.total_s[name] * 1000,
                           "self_ms": self.self_s[name] * 1000}
                    for name in sorted(self.calls)
                },
                "counts": dict(self.counts),
                "dropped_spans": self.dropped,
                "missing_targets": self.missing,
            }) + "\n")


# -- the layer map ---------------------------------------------------------

def _count_rows(tracer: Tracer, args, kwargs, result) -> None:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.add("core.batched.rows", len(rows))


def _model_built(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("core.costs.models")


def _replanned(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("dynamic.replan.moves", len(result.moved) + len(result.forced))
    tracer.add("dynamic.replan.cold_fallbacks", int(result.fallback))


def _decoded_solve(tracer: Tracer, args, kwargs, job) -> None:
    """Remember which solve key each request asked for."""
    request = REQUEST.get()
    tracer.tables["request_key"][request] = job.key
    tracer.tables["key_request"].setdefault(job.key, request)


def _worker_starts(tracer: Tracer, args, kwargs) -> None:
    """``PlannerServer._solve_group(self, group, jobs)`` is starting."""
    jobs = args[2]
    now = time.perf_counter()
    starts = tracer.tables["solver_start"]
    for job in jobs:
        starts.setdefault(job.key, now)
    tracer.add("serve.jobs", len(jobs))
    tracer.set_thread_request(tracer.tables["key_request"].get(jobs[0].key))


def _worker_done(tracer: Tracer, args, kwargs, result) -> None:
    tracer.set_thread_request(None)


#: ``(module, attribute, span or counter name, options)`` for every wrapper.
LAYERS = (
    # planner: the serve worker's facade call (batch workloads wrap their
    # own call to repro.planner.solve under the same name)
    ("repro.serve.server", "solve", "planner.solve", {}),
    # optimize
    ("repro.planner.registry", "bb_minperiod", "optimize.bb", {}),
    ("repro.planner.registry", "bb_minlatency", "optimize.bb", {}),
    ("repro.planner.registry", "local_search_forest", "optimize.local_search", {}),
    ("repro.optimize.local_search", "local_search_forest", "optimize.local_search", {}),
    ("repro.planner.cache", "period_objective", "optimize.objective", {}),
    ("repro.planner.cache", "latency_objective", "optimize.objective", {}),
    ("repro.optimize.placement", "optimize_mapping", "optimize.placement", {}),
    # core: the exact and batched cost tiers
    ("repro.core.costs", "CostModel.__init__", "core.costs",
     {"hook": _model_built}),
    ("repro.core.costs", "CostModel.period_lower_bound", "core.costs", {}),
    ("repro.core.costs", "CostModel.latency_lower_bound", "core.costs", {}),
    ("repro.core.batched", "ForestBatch.periods", "core.batched", {"hook": _count_rows}),
    ("repro.core.batched", "MappingBatch.values", "core.batched", {"hook": _count_rows}),
    # scheduling
    ("repro.optimize.evaluation", "exact_inorder_period", "scheduling.inorder_period", {}),
    ("repro.scheduling.inorder", "exact_inorder_period", "scheduling.inorder_period", {}),
    ("repro.optimize.evaluation", "inorder_period_for_orders", "scheduling.orders_tried",
     {"count_only": True}),
    ("repro.scheduling.inorder", "inorder_period_for_orders", "scheduling.orders_tried",
     {"count_only": True}),
    ("repro.planner.facade", "build_schedule", "scheduling.build", {}),
    # cyclic: the max-cycle-ratio solver; a feasibility pass is one
    # Bellman-Ford run at a fixed period (the body of is_feasible, also
    # run by every cycle-raising step of minimum_period)
    ("repro.scheduling.inorder", "minimum_period", "cyclic.mcr", {}),
    ("repro.scheduling.oneport_overlap", "minimum_period", "cyclic.mcr", {}),
    ("repro.scheduling.inorder", "earliest_times", "cyclic.earliest", {}),
    ("repro.cyclic.mcr", "_find_positive_cycle", "cyclic.feasible", {"count_only": True}),
    # serve
    ("repro.serve.server", "parse_request", "serve.decode", {}),
    ("repro.serve.server", "resolve_solve", "serve.decode", {"hook": _decoded_solve}),
    ("repro.serve.server", "resolve_replan", "serve.decode", {}),
    ("repro.serve.server", "PlannerServer._solve_group", "serve.worker",
     {"before": _worker_starts, "hook": _worker_done}),
    # dynamic: the serve replan op imports the name from the package
    ("repro.dynamic", "replan", "dynamic.replan", {"hook": _replanned}),
)


def install_layers(tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` target (undo with :meth:`Tracer.uninstall`)."""
    for module, attr, name, options in LAYERS:
        tracer.patch(module, attr, name, **options)
