"""R-T6 — Robustness of the headline result across seeds.

The R-T1 scenario re-run under consecutive random seeds (which move the
bursty trace, noise, and arrival phases). Reports the per-seed violation
fractions and the adaptive-vs-static improvement factor. Shape
expected: the ordering never flips and the improvement stays a large
multiple for every seed — the headline is not a lucky draw.
"""

from __future__ import annotations

import statistics

from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

#: First seed of the sweep; a ``--seed`` override moves the whole range.
SEED = 1
#: mode -> (number of seeds, simulated seconds)
GRIDS = {"smoke": (2, HOUR), "full": (5, 3 * HOUR)}


def run_case(mode: str, seed: int | None = None) -> dict:
    base = SEED if seed is None else seed
    count, duration = GRIDS[mode]
    seeds = tuple(range(base, base + count))
    events = 0
    metrics: dict = {}
    violations = {}
    improvements = []
    for run_seed in seeds:
        for policy in ("static", "adaptive"):
            platform = build_platform(policy, nodes=6, seed=run_seed)
            deploy_service_mix(platform)
            platform.run(duration)
            violations[(policy, run_seed)] = (
                platform.result().total_violation_fraction())
            events += platform.engine.events_executed
        improvement = violations[("static", run_seed)] / max(
            violations[("adaptive", run_seed)], 1e-6)
        improvements.append(improvement)
        metrics[f"improvement/seed-{run_seed}"] = improvement
    metrics["min_improvement"] = min(improvements)
    metrics["mean_improvement"] = sum(improvements) / len(improvements)
    return {
        "seed": seeds[0],
        "events_executed": events,
        "metrics": metrics,
        "seeds": seeds,
        "duration": duration,
        "violations": violations,
    }


def check_case(case: dict) -> None:
    # Shape: the headline holds for every seed, comfortably past the
    # paper-lineage 7.4x claim on average.
    assert case["metrics"]["min_improvement"] > 5.0
    assert case["metrics"]["mean_improvement"] > 7.4


def format_case(case: dict) -> list[str]:
    violations = case["violations"]
    improvements = []
    rows = []
    for seed in case["seeds"]:
        improvement = case["metrics"][f"improvement/seed-{seed}"]
        improvements.append(improvement)
        rows.append([
            seed, f"{violations[('static', seed)]:.1%}",
            f"{violations[('adaptive', seed)]:.1%}", f"{improvement:.1f}x",
        ])
    rows.append([
        "mean", "", "",
        f"{statistics.mean(improvements):.1f}x ± "
        f"{statistics.pstdev(improvements):.1f}",
    ])
    return [
        "R-T6: adaptive-vs-static violation improvement across seeds "
        f"({case['duration'] / HOUR:.0f} h service mix)",
        format_table(["seed", "static", "adaptive", "improvement"], rows),
    ]
