"""Public-API surface checks: exports exist and are importable.

A downstream user's first contact is ``from repro.X import Y``; this
test pins the advertised surface so refactors cannot silently drop it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


PUBLIC_SURFACE = {
    "repro": ["EvolvePlatform", "ResourceVector", "ClusterSpec",
              "PlatformConfig", "ExperimentResult", "RESOURCES",
              "__version__"],
    "repro.sim": ["Engine", "RngRegistry", "SimulationError", "Watchdog"],
    "repro.cluster": ["Cluster", "ClusterAPI", "Node", "Pod", "PodSpec",
                      "PodPhase", "WorkloadClass", "ResourceVector",
                      "FailureInjector", "ChaosMonkey", "QuotaManager",
                      "DegradationInjector", "ActuationFaultInjector",
                      "ActuationError", "FaultLog", "FaultEpisode",
                      "NodeCrashDomain", "NodeDegradationDomain",
                      "PartitionError", "Lease", "ScopedClusterAPI",
                      "PodNotFound", "NodeNotFound", "PartitionInjector",
                      "ControllerCrashDomain", "PartitionDomain",
                      "ExecutorKillDomain", "StragglerDomain",
                      "DataLossDomain", "LeaderElected", "LeaderDeposed"],
    "repro.metrics": ["TimeSeries", "MetricsCollector", "MetricsSource",
                      "MetricsFaultInjector"],
    "repro.workloads": ["Application", "Microservice", "ServiceDemands",
                        "BigDataJob", "Stage", "HPCJob", "StreamJob",
                        "Operator", "LatencyPLO",
                        "ThroughputPLO", "DeadlinePLO", "ViolationTracker",
                        "ConstantTrace", "DiurnalTrace", "BurstyTrace",
                        "FlashCrowdTrace", "NoisyTrace", "OUTrace",
                        "ReplayTrace", "CompositeTrace", "StepTrace",
                        "RampTrace", "ScaledTrace"],
    "repro.control": ["PIDController", "PIDGains", "AdaptiveGainTuner",
                      "BottleneckEstimator", "MultiResourceController",
                      "AllocationBounds", "ControlDecision",
                      "ControlLoopManager", "ResilienceConfig",
                      "FeedforwardScaler", "ControllerStateStore",
                      "ReplicatedControlPlane", "FailoverEvent",
                      "StateSnapshot", "WalRecord"],
    "repro.autoscaler": ["StaticPolicy", "HorizontalPodAutoscaler",
                         "VerticalPodAutoscaler", "AdaptiveAutoscaler",
                         "HorizontalEscapePolicy"],
    "repro.scheduler": ["KubeScheduler", "ConvergedScheduler",
                        "SiloedScheduler", "GangAdmission",
                        "PreemptionPlan", "plan_gang"],
    "repro.storage": ["ObjectStore", "StorageObject", "DatasetPlacement",
                      "spread_blocks", "StorageRepairService"],
    "repro.platform": ["EvolvePlatform", "ClusterSpec", "PlatformConfig",
                       "build_nodes", "DataPlaneConfig"],
    "repro.analysis": ["PLOMonitor", "utilization_summary", "settling_time",
                       "recovery_time", "overshoot", "format_table",
                       "PriceSheet", "app_cost", "PowerModel",
                       "cluster_energy", "EpisodeRecovery", "RecoveryStats",
                       "fault_recovery_report", "reconvergence_time",
                       "summarize", "FailoverStats", "failover_stats",
                       "series_divergence", "actuations", "critical_path",
                       "end_to_end_reaction", "latency_quantiles",
                       "reaction_latencies", "triggering_scrape"],
    "repro.obs": ["Telemetry", "Tracer", "Trace", "Span",
                  "DecisionProvenance", "MetricsRegistry", "Counter",
                  "Gauge", "Histogram", "NAME_PATTERN", "lint_names",
                  "to_chrome_trace", "write_chrome_trace",
                  "write_trace_jsonl"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in PUBLIC_SURFACE[module_name]
        if not hasattr(module, name)
    ]
    assert not missing, f"{module_name} lost exports: {missing}"


def test_all_lists_are_accurate():
    for module_name in PUBLIC_SURFACE:
        module = importlib.import_module(module_name)
        declared = getattr(module, "__all__", None)
        if declared is None:
            continue
        missing = [name for name in declared if not hasattr(module, name)]
        assert not missing, f"{module_name}.__all__ lies: {missing}"


def test_cli_module_importable():
    from repro import cli
    assert callable(cli.main)


def test_runtime_imports_do_not_load_networkx():
    """networkx is a test-only dependency: importing the package, the
    arena and the fuzzer must not pull it in."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, repro, repro.arena, repro.verify.fuzzer; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"
