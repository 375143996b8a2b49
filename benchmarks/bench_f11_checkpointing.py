"""R-F11 — HPC checkpointing under failures.

An HPC gang running under a chaos monkey, with checkpoint intervals from
"none" (rank loss restarts the job) down to frequent. Figure series:
completion makespan vs checkpoint interval. Shape expected: makespan
falls steeply once any checkpointing exists and flattens — the classic
checkpoint-interval curve — while the failure-free run is unaffected by
the interval.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform

SEED = 77
JOB_DURATION = 1800.0
#: mode -> (checkpoint intervals under chaos, horizon); full adds the
#: failure-free reference run.
GRIDS = {
    "smoke": ((50.0,), 3 * 3600.0),
    "full": ((None, 600.0, 150.0, 50.0), 10 * 3600.0),
}


def _label(interval: float | None) -> str:
    return "none" if interval is None else f"{interval:g}s"


def run_job(checkpoint_interval, *, chaos: bool, horizon: float, seed: int):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed),
    )
    job = platform.submit_hpc(
        "sim", ranks=3, duration=JOB_DURATION,
        allocation=ResourceVector(cpu=6, memory=8, disk_bw=5, net_bw=80),
        checkpoint_interval=checkpoint_interval,
    )
    if chaos:
        platform.enable_chaos(mtbf=450.0, repair_time=120.0)
    platform.run(horizon)
    return job.makespan(), job.rollbacks, platform.engine.events_executed


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    intervals, horizon = GRIDS[mode]
    events = 0
    metrics: dict = {}
    for interval in intervals:
        label = _label(interval)
        makespan, rollbacks, run_events = run_job(
            interval, chaos=True, horizon=horizon, seed=seed)
        metrics[f"makespan_s/{label}"] = makespan
        metrics[f"rollbacks/{label}"] = rollbacks
        events += run_events
    if mode == "full":
        metrics["makespan_s/calm"], _, run_events = run_job(
            None, chaos=False, horizon=horizon, seed=seed)
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "intervals": intervals,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    frequent_makespan = metrics["makespan_s/50s"]
    assert frequent_makespan is not None
    # Shape: checkpointing recovers most of the failure cost.
    if "makespan_s/none" in metrics:
        none_makespan = metrics["makespan_s/none"]
        assert none_makespan is not None
        assert frequent_makespan < none_makespan
    if "makespan_s/calm" in metrics:
        assert frequent_makespan < metrics["makespan_s/calm"] * 2.0


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    rows = []
    for interval in case["intervals"]:
        label = _label(interval)
        makespan = metrics[f"makespan_s/{label}"]
        rows.append([
            "none (restart)" if interval is None else f"{interval:.0f} s",
            f"{makespan:.0f} s" if makespan else "never",
            metrics[f"rollbacks/{label}"],
        ])
    calm = metrics.get("makespan_s/calm")
    return [
        "R-F11: HPC makespan vs checkpoint interval under chaos "
        f"(nominal {JOB_DURATION:.0f} s"
        + ("" if calm is None else f"; failure-free run: {calm:.0f} s")
        + ")",
        format_table(["checkpoint interval", "makespan", "rollbacks"], rows),
    ]
