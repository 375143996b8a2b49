"""Unit tests for per-node metric gauges."""

import pytest

from repro.cluster.chaos import DegradationInjector, FailureInjector
from repro.cluster.resources import RESOURCES, ResourceVector
from tests.conftest import make_spec


def test_per_node_series_created(engine, api, collector):
    collector.start()
    engine.run_until(6.0)
    for node in api.list_nodes():
        assert collector.has_series(f"node/{node.name}/usage_frac/cpu")
        assert collector.has_series(f"node/{node.name}/alloc_frac/cpu")


def test_node_alloc_gauge_tracks_bindings(engine, api, collector):
    api.create_pod(make_spec("p", cpu=8))
    api.bind_pod("p", "node-1")
    collector.start()
    engine.run_until(6.0)
    assert collector.latest("node/node-1/alloc_frac/cpu") == pytest.approx(0.5)
    assert collector.latest("node/node-0/alloc_frac/cpu") == 0.0


def test_node_usage_gauge_tracks_consumption(engine, api, collector):
    pod = api.create_pod(make_spec("p", cpu=8))
    api.bind_pod("p", "node-1")
    engine.run_until(6.0)
    pod.record_usage(ResourceVector(cpu=4))
    collector.scrape()
    assert collector.latest("node/node-1/usage_frac/cpu") == pytest.approx(0.25)


def test_node_gauge_drops_after_release(engine, api, collector):
    api.create_pod(make_spec("p", cpu=8))
    api.bind_pod("p", "node-1")
    collector.start()
    engine.run_until(6.0)
    api.mark_finished("p")
    engine.run_until(11.0)
    assert collector.latest("node/node-1/alloc_frac/cpu") == 0.0


def test_gauges_equal_node_and_cluster_fractions(engine, cluster, api,
                                                 collector):
    """The scrape's one node pass stores exactly the fractions the node
    and cluster accessors compute, including a crashed node (allocatable
    zeroed: the cap-0 branch) and a degraded one."""
    for i, node in enumerate(("node-0", "node-1", "node-2", "node-2")):
        api.create_pod(make_spec(f"p{i}", cpu=0.7 + i, memory=1.1,
                                 disk_bw=3.3, net_bw=0.1))
        api.bind_pod(f"p{i}", node)
    engine.run_until(6.0)
    FailureInjector(cluster).fail_node("node-0")
    DegradationInjector(cluster).degrade_node("node-1", 0.37)
    for i, pod in enumerate(api.list_pods()):
        if pod.node_name is not None:
            pod.record_usage(ResourceVector(cpu=0.1 * (i + 1), memory=1 / 3,
                                            disk_bw=2.2, net_bw=0.07))
    collector.scrape()
    assert cluster.get_node("node-0").allocatable.is_zero()

    for node in api.list_nodes():
        used, allocated = node.usage_fraction(), node.allocation_fraction()
        for r in RESOURCES:
            assert collector.latest(f"node/{node.name}/usage_frac/{r}") == used[r]
            assert (collector.latest(f"node/{node.name}/alloc_frac/{r}")
                    == allocated[r])
    cap = cluster.total_allocatable()
    alloc, usage = cluster.total_allocated(), cluster.total_usage()
    for r in RESOURCES:
        assert collector.latest(f"cluster/alloc_frac/{r}") == (
            alloc[r] / cap[r] if cap[r] > 0 else 0.0
        )
        assert collector.latest(f"cluster/usage_frac/{r}") == (
            usage[r] / cap[r] if cap[r] > 0 else 0.0
        )
    assert collector.latest("node/node-0/usage_frac/cpu") == 0.0
