"""Scrape loop aggregating workload and cluster metrics.

Workload models register as :class:`MetricsSource`; every scrape interval
the collector samples each source plus cluster-wide allocation/usage, and
stores everything in named :class:`~repro.metrics.timeseries.TimeSeries`.
Controllers read only from the collector, so they see metrics at scrape
granularity — the same staleness a real PID loop fights.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Mapping, Protocol

from repro.cluster.api import ClusterAPI
from repro.cluster.resources import RESOURCES
from repro.metrics.timeseries import ChangePointSeries, TimeSeries, append_column
from repro.sim.engine import Engine, PeriodicHandle

_span_start = attrgetter("start")

#: Metric keys of the cluster-wide and per-node gauges, in store order.
_CLUSTER_KEYS = tuple(
    f"{kind}/{name}" for name in RESOURCES for kind in ("alloc_frac", "usage_frac")
)
_NODE_KEYS = tuple(
    f"{kind}/{name}" for name in RESOURCES for kind in ("usage_frac", "alloc_frac")
)


class MetricsSource(Protocol):
    """Anything that can be scraped for named float metrics."""

    def metric_prefix(self) -> str:
        """Prefix for this source's series names (e.g. ``app/frontend``)."""
        ...

    def sample_metrics(self, now: float) -> Mapping[str, float]:
        """Return current metric values keyed by short metric name."""
        ...


def _fractions(first: tuple[float, ...], second: tuple[float, ...],
               cap: tuple[float, ...]) -> tuple[float, ...]:
    """Per-field ``first / cap`` and ``second / cap`` (fields in
    :data:`RESOURCES` order), interleaved; 0 where ``cap`` is not
    positive."""
    f_c, f_m, f_d, f_n = first
    s_c, s_m, s_d, s_n = second
    c, m, d, n = cap
    return (
        f_c / c if c > 0 else 0.0,
        s_c / c if c > 0 else 0.0,
        f_m / m if m > 0 else 0.0,
        s_m / m if m > 0 else 0.0,
        f_d / d if d > 0 else 0.0,
        s_d / d if d > 0 else 0.0,
        f_n / n if n > 0 else 0.0,
        s_n / n if n > 0 else 0.0,
    )


class _Frame:
    """Where one round of a source (or of the cluster gauges) is stored.

    ``keys`` is what the frame was built for and is rebuilt on: a
    source's metric keys in round order, or the cluster round's node
    names. ``names`` are the full series names in store order and
    ``series`` the resolved series. A slot stays None until a sample
    under its name is stored: a series whose first samples a fault drops
    does not exist (``has_series`` is False) until one is kept.
    """

    __slots__ = ("keys", "names", "series")

    def __init__(self, keys: tuple[str, ...], names: tuple[str, ...],
                 series_map):
        self.keys = keys
        self.names = names
        self.series: list[TimeSeries | None] = [
            series_map.get(name) for name in names
        ]


def _cluster_names(node_names: tuple[str, ...]) -> tuple[str, ...]:
    """Series names of the cluster round in store order: the cluster
    fractions, each node's fractions, then the pending-pod count."""
    return (
        *(f"cluster/{key}" for key in _CLUSTER_KEYS),
        *(f"node/{node}/{key}" for node in node_names for key in _NODE_KEYS),
        "cluster/pending_pods",
    )


class MetricsCollector:
    """Periodic scraper storing all series for an experiment.

    Parameters
    ----------
    engine, api:
        Simulation engine and the cluster to scrape.
    scrape_interval:
        Seconds between scrapes (Prometheus default order: 5–15 s).
    """

    def __init__(
        self,
        engine: Engine,
        api: ClusterAPI,
        *,
        scrape_interval: float = 5.0,
        series_maxlen: int = 100_000,
        faults=None,
    ):
        if scrape_interval <= 0:
            raise ValueError("scrape_interval must be positive")
        self.engine = engine
        self.api = api
        self.scrape_interval = scrape_interval
        self._series_maxlen = series_maxlen
        self._sources: list[MetricsSource] = []
        # Internal sources, each with its metric -> series table.
        self._internal_sources: list[
            tuple[MetricsSource, dict[str, ChangePointSeries]]
        ] = []
        self._series: dict[str, TimeSeries] = {}
        # Store frames: one per source prefix, and the cluster round's,
        # keyed by the node names it covers.
        self._frames: dict[str, _Frame] = {}
        self._cluster_frame: _Frame | None = None
        self._handle: PeriodicHandle | None = None
        self.scrapes = 0
        #: Scrape rounds that produced no samples (dropped by a fault) or
        #: arrived later than 1.5× the configured interval.
        self.scrape_gaps = 0
        self._last_attempt: float | None = None
        #: Optional :class:`~repro.metrics.faults.MetricsFaultInjector`
        #: distorting the scrape path (never the out-of-band ``record``).
        self.faults = faults
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None
        # Spans of completed scrape rounds, in time order, so a decision
        # can be linked back to the scrape that fed it.
        self._scrape_spans: list = []
        # Post-scrape hooks (e.g. the SLO engine) run after a completed
        # round, never on dropped rounds. Observation-only by contract.
        self._scrape_hooks: list = []

    # -- registration -------------------------------------------------------

    def register(self, source: MetricsSource) -> None:
        """Add a source to the scrape set."""
        self._sources.append(source)

    def unregister(self, source: MetricsSource) -> None:
        """Remove a source; missing sources are ignored."""
        try:
            self._sources.remove(source)
        except ValueError:
            pass

    def register_internal(self, source: MetricsSource) -> None:
        """Add a control-plane source scraped WITHOUT the fault filter.

        Self-metrics describe the controller, not a kubelet exporter, so
        metrics-layer faults (blackouts, noise) must not distort them —
        and must not draw extra RNG for them, which would perturb seeded
        runs depending on whether telemetry is enabled.
        """
        self._internal_sources.append((source, {}))

    def add_scrape_hook(self, hook) -> None:
        """Run ``hook(now)`` after each completed scrape round.

        Hooks fire once all sources (internal ones included) have been
        sampled, and are skipped entirely when a fault drops the round.
        Hooks must be observation-only — no engine events, no RNG — so
        seeded runs stay bit-identical with hooks attached or not.
        """
        self._scrape_hooks.append(hook)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Begin periodic scraping (first scrape one interval from now)."""
        if self._handle is not None:
            raise RuntimeError("collector already started")
        self._handle = self.engine.every(
            self.scrape_interval, self.scrape, priority=-10
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- scraping ---------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        """Get (creating if needed) the series with the given full name."""
        if name not in self._series:
            self._series[name] = TimeSeries(maxlen=self._series_maxlen)
        return self._series[name]

    def has_series(self, name: str) -> bool:
        return name in self._series

    def series_names(self) -> list[str]:
        return sorted(self._series)

    def record(self, name: str, value: float) -> None:
        """Record an out-of-band sample (e.g. per-event observations)."""
        self.series(name).append(self.engine.now, value)

    def scrape(self) -> None:
        """Sample every source and cluster-level gauges once."""
        now = self.engine.now
        self.scrapes += 1
        tel = self.telemetry
        # Late-arrival gap detection: if more than 1.5 intervals elapsed
        # since the previous attempt, the rounds in between never ran
        # (stopped collector, leadership gap). Disjoint from drop-gaps
        # below, which count rounds that ran but produced nothing.
        if self._last_attempt is not None:
            elapsed = now - self._last_attempt
            if elapsed > 1.5 * self.scrape_interval:
                missed = max(1, round(elapsed / self.scrape_interval) - 1)
                self.scrape_gaps += missed
                if tel is not None:
                    tel.scrape_gaps.inc(missed)
                    tel.tracer.instant(
                        "scrape_gap", "metrics", missed=missed, elapsed=elapsed
                    )
        self._last_attempt = now
        if self.faults is not None and self.faults.should_drop_scrape(now):
            self.scrape_gaps += 1
            if tel is not None:
                tel.scrape_gaps.inc()
                tel.tracer.instant("scrape_dropped", "metrics")
            return
        if tel is None:
            self._scrape_all(now)
        else:
            tel.scrapes.inc()
            sp = tel.tracer.begin("scrape", "metrics", round=self.scrapes)
            self._scrape_spans.append(sp)
            try:
                self._scrape_all(now)
            finally:
                tel.tracer.end(sp)
        if self._scrape_hooks:
            for hook in self._scrape_hooks:
                hook(now)

    def _store(self, frame: _Frame, values, now: float, faults) -> None:
        """Store one round of ``frame``'s samples, ``values`` in key order.

        On a quiescent pipeline the round is appended column-wise. When
        ``faults`` is set, the filter runs per sample in key order (its
        RNG draws are part of the seeded stream) and only the samples it
        keeps are appended; a series is created when its first sample is
        stored, never for a dropped one.
        """
        slots = frame.series
        if faults is not None:
            column, kept = [], []
            for i, value in enumerate(values):
                name = frame.names[i]
                series = slots[i]
                if series is None:
                    # A reader may have created it since the frame was built.
                    series = slots[i] = self._series.get(name)
                value = faults.filter(
                    name, value, now,
                    series.last() if series is not None else None,
                )
                if value is None:
                    continue
                if series is None:
                    series = slots[i] = self.series(name)
                column.append(series)
                kept.append(value)
            append_column(column, now, kept)
            return
        if None in slots:
            for i, name in enumerate(frame.names):
                if slots[i] is None:
                    slots[i] = self.series(name)
        append_column(slots, now, values)

    def _scrape_all(self, now: float) -> None:
        # The fault filter is consulted once per round; on a quiescent
        # pipeline (the common case) every frame appends column-wise.
        faults = self.faults
        if faults is not None and not faults.distorts_samples(now):
            faults = None
        store = self._store
        frames = self._frames
        for source in list(self._sources):
            prefix = source.metric_prefix()
            samples = source.sample_metrics(now)
            keys = tuple(samples)
            frame = frames.get(prefix)
            if frame is None or frame.keys != keys:
                # A new source, or its key set changed (a brownout gauge
                # appearing, a batch job entering a stage): rebuild.
                frame = frames[prefix] = _Frame(
                    keys, tuple(f"{prefix}/{key}" for key in keys),
                    self._series,
                )
            store(frame, samples.values(), now, faults)

        # The cluster round is one frame: the cluster fractions, each
        # node's fractions, the pending-pod count.
        nodes = self.api.list_nodes()
        node_names = tuple(node.name for node in nodes)
        frame = self._cluster_frame
        if frame is None or frame.keys != node_names:
            frame = self._cluster_frame = _Frame(
                node_names, _cluster_names(node_names), self._series
            )
        # One pass over the nodes sums each node's pod usage once, per
        # field. The cluster totals accumulate per field in node order from
        # 0.0: the floats ResourceVector.sum_of (Cluster.total_*) produces.
        cap_c = cap_m = cap_d = cap_n = 0.0
        alloc_c = alloc_m = alloc_d = alloc_n = 0.0
        use_c = use_m = use_d = use_n = 0.0
        node_values: list[float] = []
        for node in nodes:
            u_c = u_m = u_d = u_n = 0.0
            for pod in node.pods.values():
                usage = pod.usage
                u_c += usage.cpu
                u_m += usage.memory
                u_d += usage.disk_bw
                u_n += usage.net_bw
            cap, alloc = node.allocatable, node.allocated
            cap_c += cap.cpu
            cap_m += cap.memory
            cap_d += cap.disk_bw
            cap_n += cap.net_bw
            alloc_c += alloc.cpu
            alloc_m += alloc.memory
            alloc_d += alloc.disk_bw
            alloc_n += alloc.net_bw
            use_c += u_c
            use_m += u_m
            use_d += u_d
            use_n += u_n
            node_values += _fractions(
                (u_c, u_m, u_d, u_n),
                (alloc.cpu, alloc.memory, alloc.disk_bw, alloc.net_bw),
                (cap.cpu, cap.memory, cap.disk_bw, cap.net_bw),
            )
        values = list(_fractions(
            (alloc_c, alloc_m, alloc_d, alloc_n),
            (use_c, use_m, use_d, use_n),
            (cap_c, cap_m, cap_d, cap_n),
        ))
        values += node_values
        values.append(float(len(self.api.pending_pods())))
        store(frame, values, now, faults)
        # Control-plane self-metrics bypass the fault filter: see
        # register_internal. Their exports are delta-suppressed, so the key
        # set changes every round and a frame would never be reused; each
        # source keeps a metric -> series table instead, and its round is
        # resolved and appended without a call per sample (the telemetry
        # overhead gate counts calls).
        for source, table in list(self._internal_sources):
            samples = source.sample_metrics(now)
            try:
                column = list(map(table.__getitem__, samples))
            except KeyError:
                self._resolve_internal(source, table, samples)
                column = list(map(table.__getitem__, samples))
            append_column(column, now, samples.values())

    def _resolve_internal(self, source, table, samples) -> None:
        """Add the series of an internal source's new metrics to its table."""
        prefix = source.metric_prefix()
        for metric in samples:
            if metric not in table:
                name = f"{prefix}/{metric}"
                if name not in self._series:
                    # Change points, not uniform ticks: ChangePointSeries
                    # rejects windowed aggregates that would misread them.
                    self._series[name] = ChangePointSeries(
                        maxlen=self._series_maxlen
                    )
                table[metric] = self._series[name]

    # -- convenience queries ------------------------------------------------------

    def latest(self, name: str) -> float | None:
        """Most recent value of a series, or None if absent/empty."""
        series = self._series.get(name)
        return series.last() if series is not None else None

    def latest_sample(self, name: str) -> tuple[float, float] | None:
        """``(time, value)`` of the most recent sample, or None.

        One lookup for a reader that needs both :meth:`latest_time` and
        :meth:`latest` of the same series.
        """
        series = self._series.get(name)
        return series.last_sample() if series is not None else None

    def latest_time(self, name: str) -> float | None:
        """Timestamp of the most recent sample, or None if absent/empty.

        Freshness probe: consumers compare this against ``engine.now`` to
        detect a stalled scrape pipeline before acting on old data.
        """
        series = self._series.get(name)
        return series.last_time() if series is not None else None

    def last_scrape_age(self, name: str) -> float | None:
        """Seconds since the series last received a sample, or None.

        The per-series staleness signal: diverges from the global scrape
        cadence when a blackout or freeze fault hits one series while the
        rest keep flowing.
        """
        last = self.latest_time(name)
        return self.engine.now - last if last is not None else None

    def scrape_span_at(self, time: float) -> int | None:
        """Span id of the last completed scrape at or before ``time``."""
        idx = bisect.bisect_right(self._scrape_spans, time, key=_span_start) - 1
        return self._scrape_spans[idx].id if idx >= 0 else None

    def window_mean(self, name: str, span: float) -> float | None:
        series = self._series.get(name)
        if series is None:
            return None
        return series.mean_over(self.engine.now, span)

    def window_percentile(self, name: str, span: float, q: float) -> float | None:
        series = self._series.get(name)
        if series is None:
            return None
        return series.percentile_over(self.engine.now, span, q)

    # -- export --------------------------------------------------------------------

    def export_csv(self, path: str, names: list[str], *, step: float = 60.0,
                   start: float = 0.0, end: float | None = None) -> int:
        """Write selected series to a CSV (one time column, one column per
        series, step-interpolated at ``step`` resolution).

        The figure-regeneration path: every plot in EXPERIMENTS.md can be
        exported for external tooling. Returns the number of data rows.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        missing = [n for n in names if n not in self._series]
        if missing:
            raise KeyError(f"unknown series: {missing}")
        if end is None:
            end = self.engine.now
        rows = 0
        with open(path, "w") as handle:
            handle.write(",".join(["time"] + names) + "\n")
            t = start
            while t <= end + 1e-9:
                values = [self._series[n].value_at(t) for n in names]
                cells = [f"{t:g}"] + [
                    "" if v is None else f"{v:g}" for v in values
                ]
                handle.write(",".join(cells) + "\n")
                rows += 1
                t += step
        return rows
