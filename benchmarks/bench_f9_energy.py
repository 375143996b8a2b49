"""R-F9 — Energy: consolidation on the converged cluster.

The DATE-venue angle: the converged scheduler's consolidate-packing mode
packs the mixed workload onto few nodes so the rest park, versus the
spread default and the siloed partition (which keeps every pool's nodes
warm). Reports energy (kWh), mean power, parked-node time, and the PLO
cost of consolidating.
Shape expected: consolidate < spread < siloed energy, with a modest
violation penalty for consolidation (less headroom per node).
"""

from __future__ import annotations

from repro.analysis.energy import PowerModel, cluster_energy
from repro.analysis.report import format_table
from benchmarks.scenarios import HOUR, build_platform, deploy_service_mix

SEED = 42
CONFIGS = {
    "consolidate": dict(scheduler="converged",
                        scheduler_kwargs={"packing": "consolidate"}),
    "spread": dict(scheduler="converged", scheduler_kwargs=None),
    "siloed": dict(scheduler="siloed", scheduler_kwargs=None),
}
#: mode -> (configurations, simulated seconds)
GRIDS = {
    "smoke": (("consolidate", "spread"), 1.5 * HOUR),
    "full": (tuple(CONFIGS), 3 * HOUR),
}


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    names, duration = GRIDS[mode]
    model = PowerModel()
    parked_kwh_per_node = model.parked_watts * duration / 3.6e6
    events = 0
    metrics: dict = {}
    energy = {}
    parked = {}
    for name in names:
        platform = build_platform("adaptive", nodes=6, seed=seed, **CONFIGS[name])
        deploy_service_mix(platform)
        platform.run(duration)
        energy[name] = cluster_energy(
            platform.collector, list(platform.cluster.nodes),
            start=0.0, end=duration, model=model)
        parked[name] = sum(
            1 for kwh in energy[name].per_node_kwh.values()
            if kwh <= parked_kwh_per_node * 1.05
        )
        metrics[f"energy_kwh/{name}"] = energy[name].total_kwh
        metrics[f"violations/{name}"] = (
            platform.result().total_violation_fraction())
        events += platform.engine.events_executed
    metrics["energy_saving"] = (
        1 - metrics["energy_kwh/consolidate"] / metrics["energy_kwh/spread"])
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "duration": duration,
        "energy": energy,
        "parked": parked,
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    # Shape: consolidation parks nodes and saves energy without wrecking
    # the PLOs.
    assert metrics["energy_kwh/consolidate"] < metrics["energy_kwh/spread"]
    assert case["parked"]["consolidate"] >= 1
    assert metrics["violations/consolidate"] < 0.15


def format_case(case: dict) -> list[str]:
    rows = [
        [
            name,
            f"{energy.total_kwh:.2f} kWh",
            f"{energy.mean_watts:.0f} W",
            f"{case['parked'][name]}/6",
            f"{case['metrics'][f'violations/{name}']:.1%}",
        ]
        for name, energy in case["energy"].items()
    ]
    return [
        f"R-F9: cluster energy over {case['duration'] / HOUR:.1f} h "
        "(service mix)",
        format_table(
            ["configuration", "energy", "mean power", "parked nodes",
             "violations"],
            rows,
        ),
    ]
