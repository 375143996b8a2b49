"""Integration tests: tenant quotas on the full platform."""

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.platform.loader import platform_from_dict
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traces import ConstantTrace


DEMANDS = ServiceDemands(cpu_seconds=0.01, base_latency=0.01)


def test_quota_caps_tenant_scaleout():
    """A capped tenant's autoscaler hits the quota wall; an uncapped
    tenant on the same cluster scales freely."""
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=3),
        policy="adaptive",
    )
    platform.set_tenant_quota(
        "capped", ResourceVector(cpu=2, memory=8, disk_bw=100, net_bw=100)
    )
    for tenant in ("capped", "free"):
        platform.deploy_microservice(
            f"svc-{tenant}",
            trace=ConstantTrace(400),  # needs ~4 cores
            demands=DEMANDS,
            allocation=ResourceVector(cpu=0.5, memory=1, disk_bw=20, net_bw=20),
            plo=LatencyPLO(0.05, window=30),
            labels={"tenant": tenant},
        )
    platform.run(2 * 3600.0)

    capped_alloc = platform.quotas.usage(
        "capped", platform.cluster.pods.values()
    )
    assert capped_alloc.cpu <= 2.0 + 1e-6
    result = platform.result()
    # The capped tenant suffers for its cap; the free one converges.
    assert result.violation_fraction("svc-capped") > 0.5
    assert result.violation_fraction("svc-free") < 0.15
    assert platform.quotas.denials > 0


def test_quota_isolation_protects_neighbours():
    """Without quotas a greedy tenant can consume the cluster; with them
    the neighbour keeps its resources."""

    def run(with_quota: bool):
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=3),
            config=PlatformConfig(seed=8),
            policy="adaptive",
        )
        if with_quota:
            platform.set_tenant_quota(
                "greedy", ResourceVector(cpu=8, memory=16, disk_bw=200,
                                         net_bw=200)
            )
        platform.deploy_microservice(
            "greedy-svc",
            trace=ConstantTrace(2500),  # wants ~25 cores; cluster has 45
            demands=DEMANDS,
            allocation=ResourceVector(cpu=1, memory=1, disk_bw=20, net_bw=20),
            plo=LatencyPLO(0.05, window=30),
            labels={"tenant": "greedy"},
        )
        platform.run(3600.0)
        return platform.quotas.usage(
            "greedy", platform.cluster.pods.values()
        ).cpu

    unlimited = run(False)
    limited = run(True)
    assert limited <= 8.0 + 1e-6
    assert unlimited > limited * 1.5


def test_quotas_via_loader():
    config = {
        "duration": 300,
        "cluster": {"nodes": 3},
        "quotas": {"acme": {"cpu": 1, "memory": 4, "disk_bw": 50, "net_bw": 50}},
        "workloads": [
            {
                "kind": "micro",
                "name": "svc",
                "trace": {"kind": "constant", "value": 10},
                "demands": {"cpu_seconds": 0.01},
                "allocation": {"cpu": 2, "memory": 1, "disk_bw": 10,
                               "net_bw": 10},
                "labels": {"tenant": "acme"},
                "managed": False,
            }
        ],
    }
    platform, duration = platform_from_dict(config)
    platform.run(duration)
    # The 2-cpu pod exceeds the 1-cpu quota: never bound.
    assert platform.apps["svc"].running_pods() == []
    assert platform.quotas.denials > 0
