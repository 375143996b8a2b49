"""Outside-in tracing of the simulator's layers.

The program is not instrumented. Instead, :class:`Tracer` replaces public
functions of the ``repro`` packages with wrappers at class (or module)
level and restores the originals on :meth:`Tracer.remove`. A wrapper is
one of two kinds:

* a *span*: it times the call, pushes a frame on a span stack and charges
  the call's duration minus its children's to its layer's self time
  (``self_s``); a count key, when given, counts calls that enter the key
  from outside it, so ``collector.latest`` calling ``series.last`` is one
  metrics query, not two;
* a *counter*: it only counts (``TimeSeries.append``, ``EventHandle.cancel``
  and every trace ``rate``), because these run millions of times and a
  timed frame each would swamp what it measures. Their time stays with
  the enclosing span.

Spans and counts live in memory; the benchmark writes them out when the
run ends. Every wrapper forwards its arguments and result unchanged and
draws no random numbers, so a traced run must reproduce the untraced
run's outcome digest exactly; the benchmark checks that it does.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

perf = time.perf_counter

_READS = (
    "get_pod", "list_pods", "pending_pods", "running_pods", "list_nodes",
    "get_node", "total_allocatable", "total_allocated", "total_usage",
    "get_lease", "quota_allows_bind", "quota_allows_gang", "can_resize",
)
_WRITES = (
    "create_pod", "delete_pod", "bind_pod", "mark_finished", "set_quotas",
)
# Writes that report refusal through their result (False / None) instead
# of raising.
_STATUS_WRITES = (
    "patch_pod_allocation", "try_acquire_lease", "renew_lease",
    "release_lease",
)
_SERIES_QUERIES = (
    "last", "last_time", "value_at", "window", "mean_over", "max_over",
    "min_over", "percentile_over", "sum_over", "count_over", "rate_over",
    "ewma", "integrate", "to_lists",
)
_COLLECTOR_QUERIES = (
    "latest", "latest_time", "last_scrape_age", "window_mean",
    "window_percentile",
)
_STORE_VERBS = (
    "create_bucket", "has_bucket", "buckets", "put", "get", "delete",
    "list_objects", "drop_node", "add_replica", "bucket_size_mb",
    "locality_fraction", "replica_nodes", "nodes_with_data",
    "under_replicated", "lost_objects",
)

#: (module, class, methods, layer, count key) for every timed span of a
#: full trace. A method is wrapped on the class that defines it; classes
#: that merely inherit it are covered by the base's wrapper.
SPANS = (
    ("repro.platform.evolve", "EvolvePlatform", ("__init__",),
     "platform", "platform.builds"),
    ("repro.platform.evolve", "EvolvePlatform",
     ("deploy_microservice", "submit_bigdata", "submit_recurring_pipeline",
      "deploy_stream", "submit_hpc"), "platform", None),
    ("repro.workloads.arrivals", "PoissonArrivals", ("window",),
     "workloads.arrivals", "workloads.arrivals.windows"),
    ("repro.workloads.arrivals", "MMPPArrivals", ("window",),
     "workloads.arrivals", "workloads.arrivals.windows"),
    ("repro.workloads.arrivals", "MarkedArrivals", ("window", "window_marked"),
     "workloads.arrivals", "workloads.arrivals.windows"),
    ("repro.workloads.microservice", "Microservice", ("tick",),
     "workloads.micro", "workloads.micro.ticks"),
    ("repro.workloads.microservice", "Microservice", ("sample_metrics",),
     "workloads.micro", None),
    ("repro.workloads.bigdata", "BigDataJob", ("tick", "sample_metrics"),
     "workloads.bigdata", None),
    ("repro.workloads.stream", "StreamJob", ("tick", "sample_metrics"),
     "workloads.stream", None),
    ("repro.workloads.hpc", "HPCJob", ("tick", "sample_metrics"),
     "workloads.hpc", None),
    ("repro.cluster.api", "ClusterAPI", _READS, "cluster", "cluster.reads"),
    ("repro.cluster.api", "ClusterAPI", _WRITES + _STATUS_WRITES,
     "cluster", "cluster.writes"),
    ("repro.metrics.collector", "MetricsCollector", ("scrape",),
     "metrics.scrape", "metrics.scrapes"),
    ("repro.metrics.collector", "MetricsCollector", _COLLECTOR_QUERIES,
     "metrics.query", "metrics.queries"),
    ("repro.metrics.timeseries", "TimeSeries", _SERIES_QUERIES,
     "metrics.query", "metrics.queries"),
    ("repro.metrics.timeseries", "ChangePointSeries", _SERIES_QUERIES,
     "metrics.query", "metrics.queries"),
    ("repro.verify.invariants", "InvariantChecker", ("check_now",),
     "verify", "verify.checks"),
    ("repro.obs.slo", "SLOEngine", ("on_scrape",), "obs", "obs.slo_evals"),
    ("repro.obs.telemetry", "Telemetry", ("sample_metrics",), "obs", None),
    ("repro.control.manager", "ControlLoopManager", ("run_once",),
     "control", "control.ticks"),
    ("repro.control.multiresource", "MultiResourceController", ("decide",),
     "control", "control.decisions"),
    ("repro.autoscaler.static", "StaticPolicy", ("reconcile",),
     "autoscaler", "autoscaler.reconciles"),
    ("repro.autoscaler.hpa", "HorizontalPodAutoscaler", ("reconcile",),
     "autoscaler", "autoscaler.reconciles"),
    ("repro.autoscaler.vpa", "VerticalPodAutoscaler", ("reconcile",),
     "autoscaler", "autoscaler.reconciles"),
    ("repro.autoscaler.adaptive", "HorizontalEscapePolicy", ("adjust",),
     "autoscaler", None),
    ("repro.scheduler.base", "SchedulerBase", ("schedule_cycle",),
     "scheduler", None),
    ("repro.scheduler.converged", "ConvergedScheduler", ("schedule_cycle",),
     "scheduler", None),
    ("repro.scheduler.converged", "SiloedScheduler", ("schedule_cycle",),
     "scheduler", None),
    ("repro.workloads.plo", "LatencyPLO", ("evaluate",),
     "analysis", "analysis.plo_evals"),
    ("repro.workloads.plo", "ThroughputPLO", ("evaluate",),
     "analysis", "analysis.plo_evals"),
    ("repro.workloads.plo", "DeadlinePLO", ("evaluate",),
     "analysis", "analysis.plo_evals"),
    ("repro.storage.objectstore", "ObjectStore", _STORE_VERBS,
     "storage", None),
    ("repro.storage.repair", "StorageRepairService", ("scan",),
     "storage", None),
)

#: Module-level entry points that build a platform, and the modules that
#: hold a reference to them (``repro.arena`` imports ``build_platform``).
BUILDERS = (
    ("repro.verify.fuzzer", "build_platform"),
    ("repro.arena", "build_platform"),
)

#: Modules whose classes define a ``rate(t)`` (load traces, modulators).
RATE_MODULES = ("repro.workloads.traces", "repro.workloads.arrivals")


def _scheduler_stats(scheduler) -> tuple[int, int, int]:
    return (
        getattr(scheduler, "cycles", 0),
        getattr(scheduler, "binds", 0),
        getattr(scheduler, "failures", 0),
    )


class Tracer:
    """Span stack, per-layer self time and counts for one process.

    ``full=False`` installs only what the end-to-end metrics need: the
    platform builders (set-up time), ``EvolvePlatform.run`` (simulated
    seconds and host seconds inside the engine) and ``repro.arena.run_cell``
    (scoring time). ``full=True`` adds every span and counter above.
    """

    def __init__(self, *, full: bool):
        self.full = full
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        #: Outermost spans as [layer, start, duration] (seconds from
        #: the tracer's creation), kept for the written-out trace.
        self.spans: list[list] = []
        self.origin = perf()
        self.last_platform = None
        self._patches: list[tuple[object, str, object]] = []
        self._window_depth = 0
        self._rate_depth = 0

    # -- span bookkeeping ----------------------------------------------------

    def wrap(self, fn, layer: str, key: str | None = None, on_result=None):
        """``fn`` as a span of ``layer``, counted under ``key``."""
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s
        counts = self.counts
        spans = self.spans
        origin = self.origin

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = key is not None and (parent is None or parent[1] != key)
            if outer:
                counts[key] += 1
            frame = [layer, key, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                self_s[layer] += dur - frame[2]
                if outer:
                    incl_s[key] += dur
                if parent is not None:
                    parent[2] += dur
                else:
                    spans.append([layer, t0 - origin, dur])
            if outer and on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original)``; a name the
        owner no longer defines is skipped, so its layer reads 0."""
        original = owner.__dict__.get(name)
        if original is None:
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        """Install the wrappers (before any platform is built)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        evolve = importlib.import_module("repro.platform.evolve")
        self._patch(
            evolve.EvolvePlatform, "run",
            lambda fn: self._run_probe(self.wrap(fn, "sim", "sim.runs")),
        )
        for module_name, name in BUILDERS:
            self._patch(
                importlib.import_module(module_name), name,
                lambda fn: self.wrap(fn, "platform", "platform.setups"),
            )
        self._patch(
            importlib.import_module("repro.arena"), "run_cell",
            lambda fn: self.wrap(fn, "arena", "arena.cells"),
        )
        if self.full:
            self._install_full()

    def _install_full(self) -> None:
        for module_name, cls_name, methods, layer, key in SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            for method in methods if cls is not None else ():
                self._patch(cls, method, self._full_span(method, layer, key))
        timeseries = importlib.import_module("repro.metrics.timeseries")
        for cls in (timeseries.TimeSeries, timeseries.ChangePointSeries):
            self._patch(
                cls, "append", lambda fn: self._counter(fn, "metrics.appends")
            )
        engine = importlib.import_module("repro.sim.engine")
        self._patch(engine.EventHandle, "cancel", self._cancel_counter)
        for module_name in RATE_MODULES:
            module = importlib.import_module(module_name)
            for obj in list(vars(module).values()):
                if (
                    isinstance(obj, type)
                    and obj.__module__ == module_name
                    and not getattr(obj, "_is_protocol", False)
                ):
                    self._patch(obj, "rate", self._rate_counter)

    def _full_span(self, method: str, layer: str, key: str | None):
        """The wrapper factory for one SPANS method, with its result hook."""
        hook = None
        if key == "cluster.writes":
            hook = (
                self._count_status_write if method in _STATUS_WRITES
                else self._count_write
            )
        elif key == "verify.checks":
            hook = self._count_violations
        elif key == "workloads.arrivals.windows":
            return lambda fn: self._windowed(
                self.wrap(fn, layer, key, self._count_requests)
            )
        return lambda fn: self.wrap(fn, layer, key, hook)

    def remove(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run a block (e.g. a post-run audit) with no wrapper installed."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    # -- special wrappers ----------------------------------------------------

    def _run_probe(self, run):
        """Around the ``run`` span: record the platform, the simulated
        seconds and the engine/scheduler/collector counts the run added."""
        counts = self.counts
        tracer = self

        def probe(platform, duration):
            engine = platform.engine
            events = engine.events_executed
            compactions = engine.heap_compactions
            cycles, binds, failures = _scheduler_stats(platform.scheduler)
            series = len(platform.collector.series_names())
            tracer.last_platform = platform
            run(platform, duration)
            counts["sim.sim_seconds"] += duration
            counts["sim.events"] += engine.events_executed - events
            counts["sim.heap_compactions"] += (
                engine.heap_compactions - compactions
            )
            cycles2, binds2, failures2 = _scheduler_stats(platform.scheduler)
            counts["scheduler.cycles"] += cycles2 - cycles
            counts["scheduler.binds"] += binds2 - binds
            counts["scheduler.failures"] += failures2 - failures
            counts["metrics.series"] += (
                len(platform.collector.series_names()) - series
            )

        probe.__wrapped__ = run
        return probe

    def _windowed(self, span):
        """Mark the extent of an arrival window, for ``rate`` counting."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._window_depth += 1
            try:
                return span(*args, **kwargs)
            finally:
                tracer._window_depth -= 1

        wrapper.__wrapped__ = span
        return wrapper

    def _rate_counter(self, fn):
        """Count outermost ``rate`` calls made inside an arrival window:
        the thinning candidates plus the window's bound scan."""
        tracer = self
        counts = self.counts

        def wrapper(obj, t):
            if tracer._rate_depth == 0 and tracer._window_depth:
                counts["workloads.trace.rate_calls"] += 1
            tracer._rate_depth += 1
            try:
                return fn(obj, t)
            finally:
                tracer._rate_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cancel_counter(self, fn):
        """Count cancellations of still-pending events (scheduled work
        the engine will discard)."""
        counts = self.counts

        def wrapper(handle):
            if handle.pending:
                counts["sim.cancels"] += 1
            return fn(handle)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks --------------------------------------------------------

    def _count_requests(self, result) -> None:
        times = result[0] if isinstance(result, tuple) else result
        self.counts["workloads.arrivals.requests"] += len(times)

    def _count_violations(self, result) -> None:
        self.counts["verify.violations"] += len(result)

    def _count_write(self, result) -> None:
        self.counts["cluster.writes_ok"] += 1

    def _count_status_write(self, result) -> None:
        if result is not None and result is not False:
            self.counts["cluster.writes_ok"] += 1
