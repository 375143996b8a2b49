"""R-T1 — PLO violations per policy (the headline table).

Three services with different bottlenecks (CPU / disk / memory+net) under
dynamic load for 4 simulated hours, once per autoscaling policy. Reports
per-app and total violation time. Shape expected from the paper's claims:
the adaptive multi-resource controller cuts violations by a large factor
(Skynet-lineage claim: >7×) versus the request-based Kubernetes baseline.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 42
#: mode -> (policies, simulated seconds)
GRIDS = {
    "smoke": (("static", "adaptive"), HOUR),
    "full": (("static", "hpa", "vpa", "adaptive"), 4 * HOUR),
}


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    policies, duration = GRIDS[mode]
    events = 0
    metrics: dict = {}
    results = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=seed)
        apps = deploy_service_mix(platform)
        platform.run(duration)
        results[policy] = platform.result()
        metrics[f"violations/{policy}"] = results[policy].total_violation_fraction()
        events += platform.engine.events_executed
    metrics["improvement_vs_static"] = metrics["violations/static"] / max(
        metrics["violations/adaptive"], 1e-6
    )
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "apps": apps,
        "duration": duration,
        "results": results,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    static_total = metrics["violations/static"]
    adaptive_total = metrics["violations/adaptive"]
    # Shape assertions: adaptive wins by a wide margin.
    assert adaptive_total < static_total / 3
    for policy in ("hpa", "vpa"):
        if f"violations/{policy}" in metrics:
            assert adaptive_total <= metrics[f"violations/{policy}"] + 0.02


def format_case(case: dict) -> list[str]:
    apps = case["apps"]
    rows = []
    for policy, result in case["results"].items():
        rows.append([
            policy,
            *(f"{result.violation_fraction(app):.1%}" for app in apps),
            f"{result.total_violation_fraction():.1%}",
        ])
    return [
        "R-T1: PLO violation time per policy "
        f"(3 services, 6 nodes, {case['duration'] / HOUR:.0f} h)",
        format_table(["policy", *apps, "total"], rows),
        "adaptive improvement over static: "
        f"{case['metrics']['improvement_vs_static']:.1f}x",
    ]
