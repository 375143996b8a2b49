"""R-F4 — Converged co-location over time: utilization and HPC waits.

A stream of HPC gangs arriving through a day of services + analytics,
on the shared cluster vs the siloed partition. Figure series: cluster
usage per 30 minutes for both schedulers, plus gang wait times. Shape:
the converged cluster runs hotter (one pool absorbs every world's peaks)
and serves gangs that the HPC silo cannot even admit.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from benchmarks.scenarios import (
    HOUR,
    build_platform,
    deploy_batch_churn,
    deploy_hpc_stream,
    deploy_service_mix,
)

SEED = 31
BUCKET = 1800.0
#: mode -> (schedulers, simulated seconds, HPC gangs)
GRIDS = {
    "smoke": (("converged",), 2 * HOUR, 2),
    "full": (("converged", "siloed"), 4 * HOUR, 4),
}


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    schedulers, duration, count = GRIDS[mode]
    events = 0
    metrics: dict = {}
    usage = {}
    waits = {}
    for scheduler in schedulers:
        platform = build_platform("adaptive", nodes=6, seed=seed,
                                  scheduler=scheduler)
        deploy_service_mix(platform)
        deploy_batch_churn(platform, start=0.25 * HOUR)
        gangs = deploy_hpc_stream(platform, count=count, spacing=0.75 * HOUR)
        platform.run(duration)
        result = platform.result()
        series = platform.collector.series("cluster/usage_frac/cpu")
        metrics[f"mean_cpu_usage/{scheduler}"] = (
            series.integrate(0.0, duration) / duration)
        waits[scheduler] = {g: result.hpc_waits.get(g) for g in gangs}
        metrics[f"gangs_served/{scheduler}"] = sum(
            1 for w in waits[scheduler].values() if w is not None)
        usage[scheduler] = {
            start: series.integrate(start, start + BUCKET) / BUCKET
            for start in range(0, int(duration), int(BUCKET))
        }
        events += platform.engine.events_executed
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "gangs": gangs,
        "usage": usage,
        "waits": waits,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    gangs = case["gangs"]
    # Shape: converged sustains materially higher usage and admits every
    # gang; the 2-node HPC silo cannot host 4×8-core gangs at all.
    assert metrics["gangs_served/converged"] == len(gangs)
    if "gangs_served/siloed" in metrics:
        assert (metrics["mean_cpu_usage/converged"]
                > 1.5 * metrics["mean_cpu_usage/siloed"])
        assert metrics["gangs_served/siloed"] == 0


def _wait(value: float | None) -> str:
    return "never" if value is None else f"{value:.0f} s"


def format_case(case: dict) -> list[str]:
    usage, waits = case["usage"], case["waits"]
    rows = [
        [f"{t / 60:.0f}-{(t + BUCKET) / 60:.0f}",
         *(f"{per_bucket[t]:.1%}" for per_bucket in usage.values())]
        for t in sorted(usage["converged"])
    ]
    wait_rows = [
        [gang, *(_wait(per_gang[gang]) for per_gang in waits.values())]
        for gang in case["gangs"]
    ]
    return [
        "R-F4: cluster CPU usage per 30-min bucket",
        format_table(["t (min)", *usage], rows),
        "R-F4: HPC gang queue waits",
        format_table(["gang", *waits], wait_rows),
    ]
