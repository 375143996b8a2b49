"""R-F1 — Latency timeline under diurnal + flash-crowd load, per policy.

The figure behind R-T1's headline number: p99 latency of the ``web``
service sampled every 5 minutes for each policy, so *when* each policy
violates is visible (static: whole peak; VPA: every ramp; HPA: flash
crowd only; adaptive: brief transients).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 42
#: mode -> (policies, simulated seconds)
GRIDS = {
    "smoke": (("adaptive",), HOUR),
    "full": (("static", "hpa", "vpa", "adaptive"), 3 * HOUR),
}
SAMPLE = 300.0
PLO_TARGET = 0.05


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    policies, duration = GRIDS[mode]
    events = 0
    metrics: dict = {}
    timelines = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=seed)
        deploy_service_mix(platform)
        platform.run(duration)
        times, values = platform.collector.series("app/web/latency").to_lists()
        buckets: dict[float, float] = {}
        for t, v in zip(times, values):
            bucket = int(t // SAMPLE) * SAMPLE
            buckets[bucket] = max(buckets.get(bucket, 0.0), v)
        warm = [t for t in buckets if t >= 600]
        metrics[f"worst_bucket_ms/{policy}"] = max(
            buckets[t] for t in warm) * 1000
        events += platform.engine.events_executed
        timelines[policy] = buckets
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "timelines": timelines,
    }


def check_case(case: dict) -> None:
    timelines = case["timelines"]
    # Shape: adaptive's worst bucket after warm-up beats static's typical
    # bucket, and the flash crowd (t≈130 min) is visible for static.
    warm = [t for t in sorted(timelines["adaptive"]) if t >= 600]
    if "static" in timelines:
        static_peak = max(timelines["static"][t] for t in warm)
        assert static_peak > PLO_TARGET * 2
    # Adaptive spends most buckets under target.
    ok_buckets = sum(
        1 for t in warm if timelines["adaptive"][t] <= PLO_TARGET * 1.2)
    assert ok_buckets / len(warm) > 0.7


def format_case(case: dict) -> list[str]:
    timelines = case["timelines"]
    rows = [
        [
            f"{t / 60:.0f}",
            *(f"{timeline.get(t, float('nan')) * 1000:.0f}"
              for timeline in timelines.values()),
        ]
        for t in sorted(timelines["adaptive"])
    ]
    return [
        "R-F1: worst p99 latency (ms) per 5-min bucket, web service "
        f"(target {PLO_TARGET * 1000:.0f} ms)",
        format_table(["t (min)", *timelines], rows),
    ]
