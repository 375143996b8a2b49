"""R-T5 — Allocation cost per policy (the operator's view of R-T2).

The same over-provisioned service mix as R-T2, but billed: each policy's
reserved resources priced at cloud-style unit prices, against the fixed
cost of keeping the cluster provisioned. Shape expected: the adaptive
controller cuts the tenants' allocation bill by several × versus static
sizing at near-equal PLO compliance — the money version of reclaim.
"""

from __future__ import annotations

from repro.analysis.cost import PriceSheet, app_cost, cluster_provisioned_cost
from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform
from benchmarks.bench_t2_utilization import deploy_overprovisioned_mix

SEED = 17
#: mode -> (policies, simulated seconds)
GRIDS = {
    "smoke": (("static", "adaptive"), HOUR),
    "full": (("static", "vpa", "adaptive"), 4 * HOUR),
}


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    policies, duration = GRIDS[mode]
    prices = PriceSheet()
    events = 0
    metrics: dict = {}
    violations = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=seed)
        apps = deploy_overprovisioned_mix(platform)
        platform.run(duration)
        metrics[f"bill/{policy}"] = sum(
            app_cost(platform.collector, app, prices=prices).total
            for app in apps)
        violations[policy] = platform.result().total_violation_fraction()
        events += platform.engine.events_executed
    metrics["hardware_cost"] = cluster_provisioned_cost(
        platform.api.total_allocatable(), duration, prices=prices)
    metrics["bill_reduction"] = (
        metrics["bill/static"] / max(metrics["bill/adaptive"], 1e-9))
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "violations": violations,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    # Shape: reclaim translates into a multi-x smaller bill at small
    # violation cost.
    assert metrics["bill/adaptive"] < metrics["bill/static"] / 2
    assert case["violations"]["adaptive"] < 0.15


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    hardware = metrics["hardware_cost"]
    rows = [
        [
            policy,
            f"${metrics[f'bill/{policy}']:.2f}",
            f"{metrics[f'bill/{policy}'] / hardware:.1%}",
            f"{violations:.1%}",
        ]
        for policy, violations in case["violations"].items()
    ]
    return [
        f"R-T5: tenant allocation bill over {case['duration'] / HOUR:.0f} h "
        f"(cluster hardware cost ${hardware:.2f})",
        format_table(
            ["policy", "allocation bill", "of hardware cost", "violations"],
            rows,
        ),
    ]
