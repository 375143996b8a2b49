"""R-T4 — Scheduler quality: converged vs siloed vs vanilla kube.

The mixed-worlds arrival trace (services + big-data DAGs + HPC gangs) on
the same 6-node cluster, scheduled three ways. Reports microservice PLO
violations, batch makespans, HPC gang waits, and cluster usage.

Shape expected: the converged scheduler admits every gang quickly (silos
strand the 32-core gangs forever), finishes analytics at least as fast
(locality), and keeps service PLOs intact despite co-location.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from benchmarks.scenarios import (
    HOUR,
    build_platform,
    deploy_batch_churn,
    deploy_gang_rush,
    deploy_service_mix,
)

SEED = 23
#: mode -> (schedulers, simulated seconds)
GRIDS = {
    "smoke": (("converged",), 1.5 * HOUR),
    "full": (("kube", "siloed", "converged"), 4 * HOUR),
}


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    schedulers, duration = GRIDS[mode]
    events = 0
    metrics: dict = {}
    runs = {}
    for scheduler in schedulers:
        platform = build_platform("adaptive", nodes=6, seed=seed,
                                  scheduler=scheduler)
        services = deploy_service_mix(platform)
        batches = deploy_batch_churn(platform, start=0.25 * HOUR)
        gangs = deploy_gang_rush(platform)
        platform.run(duration)
        result = platform.result()
        metrics[f"svc_violations/{scheduler}"] = sum(
            result.violation_fraction(s) for s in services) / len(services)
        metrics[f"gangs_done/{scheduler}"] = sum(
            1 for g in gangs if result.makespans[g] is not None)
        metrics[f"usage/{scheduler}"] = result.utilization.overall_usage
        events += platform.engine.events_executed
        runs[scheduler] = result
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "services": services,
        "batches": batches,
        "gangs": gangs,
        "results": runs,
    }


def check_case(case: dict) -> None:
    gangs = case["gangs"]
    conv = case["results"]["converged"]
    # Shape: converged runs every gang; silos strand them (4×8-core gangs
    # cannot fit any 2-node pool).
    assert all(conv.makespans[g] is not None for g in gangs)
    if "siloed" in case["results"]:
        silo = case["results"]["siloed"]
        assert all(silo.makespans[g] is None for g in gangs)
    # Co-location does not wreck the services.
    assert all(conv.violation_fraction(s) < 0.25 for s in case["services"])


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _fmt(value, scale=1.0, suffix=""):
    return "never" if value is None else f"{value * scale:.0f}{suffix}"


def format_case(case: dict) -> list[str]:
    gangs = case["gangs"]
    rows = []
    for scheduler, result in case["results"].items():
        batch_makespan = _mean([result.makespans[b] for b in case["batches"]])
        gang_wait = _mean([result.hpc_waits[g] for g in gangs])
        rows.append([
            scheduler,
            f"{case['metrics'][f'svc_violations/{scheduler}']:.1%}",
            _fmt(batch_makespan, suffix=" s"),
            _fmt(gang_wait, suffix=" s"),
            f"{case['metrics'][f'gangs_done/{scheduler}']}/{len(gangs)}",
            f"{result.utilization.overall_usage:.1%}",
        ])
    return [
        "R-T4: one mixed-worlds trace, per scheduler "
        f"({case['duration'] / HOUR:.1f} h, 6 nodes)",
        format_table(
            ["scheduler", "svc violations", "batch makespan",
             "gang wait", "gangs done", "cluster usage"],
            rows,
        ),
    ]
