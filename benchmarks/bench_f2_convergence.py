"""R-F2 — Controller convergence after a load step.

For load steps of 2×, 4×, and 6×: how long until the PLO is met again
(ratio back ≤ 1 and holding), and how far latency peaked meanwhile —
with adaptive gains on and off. The figure shows recovery time growing
sub-linearly with step size: actuation is error-proportional, so a
bigger violation produces a bigger correction.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.stats import recovery_time
from benchmarks.scenarios import HOUR, build_platform, step_load_service

SEED = 7
STEP_AT = HOUR / 2
DURATION = 1.5 * HOUR
#: mode -> (step factor, adaptive gains) combinations
GRIDS = {
    "smoke": ((4.0, True),),
    "full": tuple(
        (factor, adaptive)
        for factor in (2.0, 4.0, 6.0) for adaptive in (True, False)),
}


def _label(factor: float, adaptive: bool) -> str:
    return f"{factor:g}x_{'adaptive' if adaptive else 'fixed'}"


def run_step(factor: float, adaptive: bool, seed: int):
    platform = build_platform(
        "adaptive", nodes=4, seed=seed,
        policy_kwargs={"horizontal": False, "adaptive": adaptive},
    )
    app = step_load_service(platform, factor=factor, step_at=STEP_AT)
    platform.run(DURATION)
    series = platform.collector.series(f"plo/{app}/ratio")
    settle = recovery_time(series, after=STEP_AT, threshold=1.0, hold=120.0)
    times, values = series.to_lists()
    peak = max(
        (v for t, v in zip(times, values) if t >= STEP_AT), default=0.0
    )
    violation = platform.result().trackers[app].violation_fraction
    return settle, peak, violation, platform.engine.events_executed


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    events = 0
    metrics: dict = {}
    violations = {}
    for factor, adaptive in GRIDS[mode]:
        label = _label(factor, adaptive)
        settle, peak, violations[label], run_events = run_step(
            factor, adaptive, seed)
        metrics[f"recovery_s/{label}"] = settle
        metrics[f"peak_ratio/{label}"] = peak
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "combos": GRIDS[mode],
        "violations": violations,
    }


def check_case(case: dict) -> None:
    # Shape: the loop settles for every step size, within minutes.
    for factor, adaptive in case["combos"]:
        if adaptive:
            settle = case["metrics"][f"recovery_s/{_label(factor, adaptive)}"]
            assert settle is not None
            assert settle < 600.0


def format_case(case: dict) -> list[str]:
    rows = []
    for factor, adaptive in case["combos"]:
        label = _label(factor, adaptive)
        settle = case["metrics"][f"recovery_s/{label}"]
        rows.append([
            f"{factor:.0f}x",
            "adaptive" if adaptive else "fixed",
            "n/a" if settle is None else f"{settle:.0f} s",
            f"{case['metrics'][f'peak_ratio/{label}']:.1f}x",
            f"{case['violations'][label]:.1%}",
        ])
    return [
        "R-F2: recovery time and peak PLO ratio after a load step",
        format_table(
            ["step", "gains", "recovery time", "peak ratio", "violation time"],
            rows,
        ),
    ]
