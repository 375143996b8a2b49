"""Unit tests for the metrics collector / scrape loop."""

import numpy as np
import pytest

from repro.cluster.resources import RESOURCES, ResourceVector
from repro.metrics.collector import MetricsCollector
from repro.metrics.faults import MetricsFaultInjector
from repro.metrics.timeseries import TimeSeries
from tests.conftest import make_spec


class FakeSource:
    def __init__(self, prefix="app/fake"):
        self.prefix = prefix
        self.value = 1.0
        self.samples = 0

    def metric_prefix(self):
        return self.prefix

    def sample_metrics(self, now):
        self.samples += 1
        return {"latency": self.value, "throughput": 2 * self.value}


def test_scrape_records_source_metrics(engine, collector):
    source = FakeSource()
    collector.register(source)
    collector.start()
    engine.run_until(11.0)
    assert collector.scrapes == 2
    assert source.samples == 2
    assert collector.latest("app/fake/latency") == 1.0
    assert collector.latest("app/fake/throughput") == 2.0


def test_scrape_records_cluster_gauges(engine, api, collector):
    api.create_pod(make_spec("p0", cpu=12))
    api.bind_pod("p0", "node-0")
    collector.start()
    engine.run_until(6.0)
    assert collector.latest("cluster/alloc_frac/cpu") == pytest.approx(12 / 48)
    assert collector.latest("cluster/pending_pods") == 0.0


def test_pending_pods_gauge(engine, api, collector):
    api.create_pod(make_spec("p0"))
    collector.start()
    engine.run_until(6.0)
    assert collector.latest("cluster/pending_pods") == 1.0


def test_unregister_stops_sampling(engine, collector):
    source = FakeSource()
    collector.register(source)
    collector.start()
    engine.run_until(6.0)
    collector.unregister(source)
    engine.run_until(20.0)
    assert source.samples == 1


def test_unregister_missing_is_safe(collector):
    collector.unregister(FakeSource())


def test_record_out_of_band(engine, collector):
    engine.run_until(3.0)
    collector.record("custom/metric", 42.0)
    assert collector.latest("custom/metric") == 42.0


def test_window_queries(engine, collector):
    source = FakeSource()
    collector.register(source)
    collector.start()
    engine.run_until(5.0)
    source.value = 3.0
    engine.run_until(10.0)
    assert collector.window_mean("app/fake/latency", 10.0) == pytest.approx(2.0)
    assert collector.window_percentile("app/fake/latency", 10.0, 100) == 3.0


def test_missing_series_queries_return_none(collector):
    assert collector.latest("nope") is None
    assert collector.window_mean("nope", 10) is None
    assert collector.window_percentile("nope", 10, 99) is None


def test_series_names_and_has_series(engine, collector):
    collector.record("a/b", 1.0)
    assert collector.has_series("a/b")
    assert not collector.has_series("a/c")
    assert "a/b" in collector.series_names()


def test_double_start_rejected(collector):
    collector.start()
    with pytest.raises(RuntimeError):
        collector.start()


def test_stop_halts_scraping(engine, collector):
    collector.start()
    engine.run_until(6.0)
    collector.stop()
    engine.run_until(60.0)
    assert collector.scrapes == 1


def test_invalid_interval(engine, api):
    with pytest.raises(ValueError):
        MetricsCollector(engine, api, scrape_interval=0)


def test_last_scrape_age_tracks_per_series_staleness(engine, collector):
    source = FakeSource()
    collector.register(source)
    collector.start()
    engine.run_until(10.0)
    assert collector.last_scrape_age("app/fake/latency") == pytest.approx(0.0)
    collector.unregister(source)
    engine.run_until(22.0)
    # The series went stale while the scrape loop kept running.
    assert collector.last_scrape_age("app/fake/latency") == pytest.approx(12.0)
    assert collector.last_scrape_age("never/scraped") is None


def test_scrape_gap_counted_when_rounds_are_missed(engine, collector):
    collector.start()
    engine.run_until(10.0)
    assert collector.scrape_gaps == 0
    collector.stop()
    engine.run_until(40.0)
    collector.start()
    engine.run_until(46.0)
    # Rounds at 15..40 never ran: the late arrival at 45 books the
    # missed rounds as a gap.
    assert collector.scrape_gaps >= 5


def test_internal_source_bypasses_fault_filter(engine, api):
    from repro.metrics.faults import MetricsFaultInjector

    faults = MetricsFaultInjector()
    faults.drop_scrape_probability = 1.0
    collector = MetricsCollector(engine, api, scrape_interval=5.0,
                                 faults=faults)
    internal = FakeSource(prefix="ctrl")
    collector.register_internal(internal)
    collector.start()
    engine.run_until(20.0)
    # Every round was dropped by the fault, so nothing internal sampled
    # either — but the drops were booked as gaps.
    assert collector.scrape_gaps >= 3
    faults.drop_scrape_probability = 0.0
    engine.run_until(30.0)
    assert collector.latest("ctrl/latency") == 1.0


def test_scrape_span_at_without_telemetry_is_none(engine, collector):
    collector.start()
    engine.run_until(20.0)
    assert collector.scrape_span_at(20.0) is None


def test_scrape_span_at_returns_covering_round(engine, api):
    from repro.obs.telemetry import Telemetry

    collector = MetricsCollector(engine, api, scrape_interval=5.0)
    tel = Telemetry(engine)
    collector.telemetry = tel
    collector.start()
    engine.run_until(21.0)
    span_at_7 = collector.scrape_span_at(7.0)   # round at t=5
    span_at_20 = collector.scrape_span_at(20.0)  # round at t=20
    assert span_at_7 is not None and span_at_20 is not None
    assert span_at_7 != span_at_20
    assert tel.trace.get(span_at_20).start == 20.0
    assert collector.scrape_span_at(1.0) is None  # before the first round


# -- column-wise rounds against a per-sample reference ------------------------


def reference_round(series, api, sources, now, faults):
    """One scrape round stored one sample at a time, the reference the
    column-wise rounds must reproduce: full name, lookup, fault filter and
    append per sample; a series is created when a sample is stored."""

    def store(prefix, samples):
        for metric, value in samples.items():
            name = f"{prefix}/{metric}"
            ts = series.get(name)
            if faults is not None:
                value = faults.filter(
                    name, value, now, ts.last() if ts is not None else None
                )
                if value is None:
                    continue
            if ts is None:
                ts = series[name] = TimeSeries()
            ts.append(now, value)

    for source in sources:
        store(source.metric_prefix(), source.sample_metrics(now))
    cap = api.total_allocatable()
    alloc, usage = api.total_allocated(), api.total_usage()
    store("cluster", {
        f"{kind}/{r}": (vec[r] / cap[r] if cap[r] > 0 else 0.0)
        for r in RESOURCES
        for kind, vec in (("alloc_frac", alloc), ("usage_frac", usage))
    })
    for node in api.list_nodes():
        used, allocated = node.usage_fraction(), node.allocation_fraction()
        store(f"node/{node.name}", {
            f"{kind}/{r}": fractions[r]
            for r in RESOURCES
            for kind, fractions in (("usage_frac", used),
                                    ("alloc_frac", allocated))
        })
    store("cluster", {"pending_pods": float(len(api.pending_pods()))})


class ScriptedSource:
    """Samples a deterministic function of time; ``keys(round)`` gives the
    key set of each round, so it can grow and shrink mid-run."""

    def __init__(self, prefix, keys):
        self.prefix = prefix
        self.keys = keys

    def metric_prefix(self):
        return self.prefix

    def sample_metrics(self, now):
        rnd = int(now // 5)
        return {key: (rnd + i) * 0.1 + 1 / 3 for i, key in enumerate(self.keys(rnd))}


def _differential_setup(engine, api):
    for i, node in enumerate(("node-0", "node-1", "node-1")):
        api.create_pod(make_spec(f"p{i}", cpu=1.3 + i, memory=0.7))
        api.bind_pod(f"p{i}", node)
    api.create_pod(make_spec("waiting", cpu=100))
    return [
        ScriptedSource("app/steady", lambda r: ("latency", "throughput")),
        # A key added at round 6 and dropped again at round 12.
        ScriptedSource(
            "app/churn",
            lambda r: ("a", "extra", "b") if 6 <= r < 12 else ("a", "b"),
        ),
        # A key whose first sample arrives inside a blackout.
        ScriptedSource(
            "app/late", lambda r: ("base", "fresh") if r >= 9 else ("base",)
        ),
    ]


def _drive(engine, api, collector, reference, sources, faults_ref, rounds):
    pods = list(api.list_pods())
    for rnd in rounds:
        engine.run_until(5.0 * rnd)
        for i, pod in enumerate(pods):
            pod.usage = ResourceVector(cpu=0.1 * ((rnd + i) % 7), memory=0.3,
                                       disk_bw=1 / 3, net_bw=rnd * 0.7)
        collector.scrape()
        reference_round(reference, api, sources, engine.now, faults_ref)
        # No series exists before a sample of it was stored.
        assert set(collector.series_names()) == set(reference)
    for name, ts in reference.items():
        assert collector.series(name).to_lists() == ts.to_lists(), name


def test_rounds_match_per_sample_reference(engine, api):
    sources = _differential_setup(engine, api)
    collector = MetricsCollector(engine, api, scrape_interval=5.0)
    for source in sources:
        collector.register(source)
    reference = {}
    _drive(engine, api, collector, reference, sources, None, range(1, 21))
    assert collector.has_series("app/churn/extra")
    assert collector.series("app/churn/extra").to_lists()[0] == [
        5.0 * r for r in range(6, 12)
    ]


def test_rounds_match_per_sample_reference_under_faults(engine, api):
    sources = _differential_setup(engine, api)
    faults = MetricsFaultInjector(np.random.default_rng(9))
    faults_ref = MetricsFaultInjector(np.random.default_rng(9))
    collector = MetricsCollector(engine, api, scrape_interval=5.0,
                                 faults=faults)
    for source in sources:
        collector.register(source)
    for injector in (faults, faults_ref):
        # Blackout of app/late over rounds 7-13: its "fresh" key first
        # appears at round 9, inside the window.
        injector.blackout("app/late", 32.0, 37.0)
        injector.inject_noise(47.0, 30.0, probability=0.3, factor=4.0)
        injector.freeze("node/node-1", 80.0, 12.0)
    reference = {}
    _drive(engine, api, collector, reference, sources, faults_ref,
           range(1, 9))
    assert not collector.has_series("app/late/fresh")
    _drive(engine, api, collector, reference, sources, faults_ref,
           range(9, 33))
    assert collector.series("app/late/fresh").to_lists()[0][0] == 70.0
    assert faults.outliers_injected == faults_ref.outliers_injected > 0
    assert faults.rng.random() == faults_ref.rng.random()


class RecordingFaults:
    """A fault injector that distorts nothing but records filter calls."""

    def __init__(self):
        self.names = []

    def distorts_samples(self, now):
        return True

    def should_drop_scrape(self, now):
        return False

    def filter(self, name, value, now, last):
        self.names.append(name)
        return value


def test_fault_filter_sees_names_in_store_order(engine, api):
    faults = RecordingFaults()
    collector = MetricsCollector(engine, api, scrape_interval=5.0,
                                 faults=faults)
    collector.register(FakeSource("app/one"))
    collector.register(FakeSource("app/two"))
    collector.register_internal(FakeSource("ctrl"))
    engine.run_until(5.0)
    collector.scrape()
    cluster = [f"cluster/{kind}/{r}" for r in RESOURCES
               for kind in ("alloc_frac", "usage_frac")]
    nodes = [f"node/{node.name}/{kind}/{r}" for node in api.list_nodes()
             for r in RESOURCES for kind in ("usage_frac", "alloc_frac")]
    assert faults.names == [
        "app/one/latency", "app/one/throughput",
        "app/two/latency", "app/two/throughput",
        *cluster, *nodes, "cluster/pending_pods",
    ]
    # Internal sources bypass the filter but are still stored.
    assert collector.latest("ctrl/latency") == 1.0
