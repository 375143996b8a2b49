"""R-F3 — Multi-resource adaptation as the bottleneck moves.

The phase-shifting service (CPU → disk → network every 20 min) under the
full controller. The figure series: per-dimension allocation over time,
showing each allocation rising in its phase and being reclaimed
afterwards, plus (full mode) the same run with the CPU-only ablation
flatlining.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cluster.resources import RESOURCES
from benchmarks.scenarios import (
    PHASE_LEN,
    build_platform,
    phase_shift_service,
)

SEED = 7
DURATION = 3 * PHASE_LEN
SAMPLE = 300.0
#: mode -> (label, controlled dimensions or None for all) variants
GRIDS = {
    "smoke": (("multi", None),),
    "full": (("multi", None), ("cpu_only", ("cpu",))),
}


def run_variant(dimensions, seed: int):
    kwargs: dict = {"horizontal": False}
    if dimensions:
        kwargs["dimensions"] = dimensions
    platform = build_platform("adaptive", nodes=4, seed=seed, policy_kwargs=kwargs)
    app = phase_shift_service(platform)
    platform.run(DURATION)
    # Per-replica allocation every SAMPLE seconds, read back from the
    # exported series (one replica: horizontal scaling is off).
    series = {r: platform.collector.series(f"app/{app}/alloc/{r}")
              for r in RESOURCES}
    samples = []
    t = SAMPLE
    while t <= DURATION:
        samples.append((t, {r: s.value_at(t) for r, s in series.items()}))
        t += SAMPLE
    violations = platform.result().trackers[app].violation_fraction
    return samples, violations, platform.engine.events_executed


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    events = 0
    metrics: dict = {}
    samples = {}
    for label, dimensions in GRIDS[mode]:
        samples[label], metrics[f"violations/{label}"], run_events = (
            run_variant(dimensions, seed))
        events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "samples": samples["multi"],
    }


def check_case(case: dict) -> None:
    samples = case["samples"]
    metrics = case["metrics"]

    def mean_alloc(phase_index, resource):
        lo = phase_index * PHASE_LEN
        hi = (phase_index + 1) * PHASE_LEN
        values = [a[resource] for t, a in samples if lo < t <= hi]
        return sum(values) / len(values)

    # Shape: each dimension peaks in its own phase.
    assert mean_alloc(0, "cpu") > mean_alloc(2, "cpu")
    assert mean_alloc(1, "disk_bw") > mean_alloc(0, "disk_bw")
    assert mean_alloc(2, "net_bw") > mean_alloc(0, "net_bw")
    # And the ablation is far worse overall.
    if "violations/cpu_only" in metrics:
        assert metrics["violations/multi"] < metrics["violations/cpu_only"] / 2


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    rows = [
        [
            f"{t / 60:.0f}",
            ("cpu" if t <= PHASE_LEN else
             "disk" if t <= 2 * PHASE_LEN else "net"),
            f"{alloc['cpu']:.2f}",
            f"{alloc['disk_bw']:.0f}",
            f"{alloc['net_bw']:.0f}",
        ]
        for t, alloc in case["samples"]
    ]
    lines = [
        "R-F3: per-dimension allocation as the bottleneck moves "
        "(multi-resource controller)",
        format_table(
            ["t (min)", "phase", "cpu (cores)", "disk (MB/s)", "net (MB/s)"],
            rows,
        ),
        f"multi-resource violations: {metrics['violations/multi']:.1%}",
    ]
    if "violations/cpu_only" in metrics:
        lines[-1] += (
            f"; cpu-only ablation: {metrics['violations/cpu_only']:.1%}")
    return lines
