"""R-F7 — Sensitivity to the control period.

The service mix under the adaptive policy with control periods from 5 s
to 80 s. Figure series: violation time and resize count vs period.
Shape expected: violations grow with the period (slower reaction to
transients) while actuation churn falls; the default (10 s) sits at the
knee. This is the cadence-vs-stability trade every deployed controller
must pick, so the evaluation documents it.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cluster.events import PodResized
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from benchmarks.scenarios import HOUR, deploy_service_mix

SEED = 42
#: mode -> (control periods, simulated seconds)
GRIDS = {
    "smoke": ((10.0, 80.0), HOUR),
    "full": ((5.0, 10.0, 20.0, 40.0, 80.0), 3 * HOUR),
}


def run_period(period: float, duration: float, seed: int):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=6),
        config=PlatformConfig(seed=seed, control_interval=period),
        scheduler="converged",
        policy="adaptive",
    )
    resizes = [0]
    platform.api.watch(PodResized, lambda e: resizes.__setitem__(0, resizes[0] + 1))
    deploy_service_mix(platform)
    platform.run(duration)
    return (platform.result().total_violation_fraction(), resizes[0],
            platform.engine.events_executed)


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    periods, duration = GRIDS[mode]
    events = 0
    metrics: dict = {}
    for period in periods:
        violations, resizes, run_events = run_period(period, duration, seed)
        metrics[f"violations/{period:g}s"] = violations
        metrics[f"resizes/{period:g}s"] = resizes
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "periods": periods,
        "duration": duration,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    fastest, slowest = case["periods"][0], case["periods"][-1]
    # Shape: slower loops violate more and resize less.
    assert metrics[f"violations/{slowest:g}s"] > metrics[f"violations/{fastest:g}s"]
    assert metrics[f"resizes/{slowest:g}s"] < metrics[f"resizes/{fastest:g}s"]
    # The default period keeps violations in single digits.
    assert metrics["violations/10s"] < 0.10


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    rows = [
        [f"{period:.0f} s", f"{metrics[f'violations/{period:g}s']:.1%}",
         metrics[f"resizes/{period:g}s"]]
        for period in case["periods"]
    ]
    return [
        "R-F7: violation time and resize churn vs control period "
        f"(service mix, {case['duration'] / HOUR:.0f} h)",
        format_table(["control period", "violation time", "resizes"], rows),
    ]
