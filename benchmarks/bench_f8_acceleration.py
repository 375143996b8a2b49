"""R-F8 — FPGA acceleration on the heterogeneous cluster.

EVOLVE's testbed pairs general-purpose workers with FPGA-accelerated
nodes. An analytics job whose kernel stage is accelerable (5× on FPGA)
runs three ways: on a CPU-only cluster, on the heterogeneous cluster
with a locality/affinity-blind scheduler, and with the converged
scheduler's accelerator preference. Figure: makespan per configuration,
with and without competing load on the FPGA nodes.
Shape expected: the preference captures most of the hardware speedup;
a blind scheduler forfeits it whenever packing pulls executors away.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, NodeGroup, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.traces import ConstantTrace

SEED = 9
GENERAL = ResourceVector(cpu=16, memory=64, disk_bw=500, net_bw=1250)
FPGA = ResourceVector(cpu=8, memory=32, disk_bw=200, net_bw=1250)
SPEEDUP = 5.0
CONFIGS = {
    "hetero_aware": dict(scheduler="converged", hetero=True, busy_fpga=True),
    "hetero_blind": dict(scheduler="kube", hetero=True, busy_fpga=True),
    "cpu_only": dict(scheduler="converged", hetero=False, busy_fpga=False),
}
#: mode -> configurations
GRIDS = {
    "smoke": ("hetero_aware", "hetero_blind"),
    "full": ("hetero_aware", "hetero_blind", "cpu_only"),
}


def hetero_spec():
    return ClusterSpec(groups=(
        NodeGroup("worker", 4, GENERAL),
        NodeGroup("fpga", 2, FPGA, labels={"accelerator": "fpga"}),
    ))


def run_config(*, scheduler: str, hetero: bool, busy_fpga: bool, seed: int):
    platform = EvolvePlatform(
        cluster_spec=hetero_spec() if hetero else ClusterSpec(node_count=6),
        config=PlatformConfig(seed=seed),
        scheduler=scheduler,
    )
    if busy_fpga:
        # Competing load pre-occupying the accelerated nodes, so packing
        # scores pull blind schedulers toward the idle general workers.
        platform.deploy_microservice(
            "noise",
            trace=ConstantTrace(50),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=2, memory=4, disk_bw=20, net_bw=20),
            managed=False, replicas=2,
            node_selector={"accelerator": "fpga"},
        )
        platform.run(60.0)
    job = platform.submit_bigdata(
        "train",
        stages=[
            Stage("prep", 500.0),
            Stage("kernel", 4000.0, deps=("prep",), accel_speedup=SPEEDUP),
        ],
        allocation=ResourceVector(cpu=4, memory=8, disk_bw=50, net_bw=50),
        executors=2,
        accelerator="fpga",
    )
    platform.run(3 * 3600.0)
    return job.makespan(), platform.engine.events_executed


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    events = 0
    metrics: dict = {}
    for label in GRIDS[mode]:
        metrics[f"makespan_s/{label}"], run_events = run_config(
            **CONFIGS[label], seed=seed)
        events += run_events
    return {"seed": seed, "events_executed": events, "metrics": metrics}


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    aware = metrics["makespan_s/hetero_aware"]
    # Shape: affinity captures a large share of the 5x kernel speedup;
    # the blind scheduler loses it to packing.
    if "makespan_s/cpu_only" in metrics:
        assert aware < metrics["makespan_s/cpu_only"] / 1.8
    assert aware < metrics["makespan_s/hetero_blind"] / 1.5


def format_case(case: dict) -> list[str]:
    rows = [
        [name.split("/", 1)[1], f"{makespan:.0f} s" if makespan else "never"]
        for name, makespan in case["metrics"].items()
    ]
    return [
        f"R-F8: accelerable analytics job ({SPEEDUP:.0f}x kernel on FPGA nodes)",
        format_table(["configuration", "makespan"], rows),
    ]
