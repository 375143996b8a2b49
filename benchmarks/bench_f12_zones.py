"""R-F12 — Topology-aware gang placement across zones.

A communication-heavy gang on a two-zone cluster, placed zone-aware vs
zone-blind, across communication fractions. Figure series: makespan
ratio (blind / aware) vs comm fraction. Shape expected: the penalty of
spanning zones grows with the job's communication share; compute-bound
gangs barely care.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform

SEED = 5
JOB_DURATION = 900.0
#: mode -> (communication fractions, horizon)
GRIDS = {"smoke": ((0.5,), 2 * 3600.0), "full": ((0.1, 0.3, 0.5), 6 * 3600.0)}


def _key(comm_fraction: float, zone_aware: bool) -> str:
    return f"makespan_s/comm-{comm_fraction:g}/{'aware' if zone_aware else 'blind'}"


def run_gang(comm_fraction: float, zone_aware: bool, horizon: float, seed: int):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4, zones=2),
        config=PlatformConfig(seed=seed),
        scheduler="converged",
        scheduler_kwargs={"zone_aware_gangs": zone_aware,
                          "interference_weight": 0.0},
    )
    job = platform.submit_hpc(
        "mpi", ranks=2, duration=JOB_DURATION,
        allocation=ResourceVector(cpu=7, memory=8, disk_bw=5, net_bw=100),
        comm_fraction=comm_fraction, zone_penalty=1.0,
    )
    platform.run(horizon)
    return job.makespan(), platform.engine.events_executed


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    fractions, horizon = GRIDS[mode]
    events = 0
    metrics: dict = {}
    for cf in fractions:
        for aware in (True, False):
            metrics[_key(cf, aware)], run_events = run_gang(
                cf, aware, horizon, seed)
            events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "fractions": fractions,
    }


def _gain(case: dict, cf: float) -> float:
    """Zone-blind over zone-aware makespan at one comm fraction."""
    return case["metrics"][_key(cf, False)] / case["metrics"][_key(cf, True)]


def check_case(case: dict) -> None:
    gain_heavy = _gain(case, 0.5)
    # Shape: the penalty grows with communication share.
    if 0.1 in case["fractions"]:
        assert gain_heavy > _gain(case, 0.1)
    assert gain_heavy > 1.3
    # Zone-aware always runs at nominal speed.
    for cf in case["fractions"]:
        assert abs(case["metrics"][_key(cf, True)] - (JOB_DURATION + 12)) <= 20


def format_case(case: dict) -> list[str]:
    rows = [
        [
            f"{cf:.0%}",
            f"{case['metrics'][_key(cf, True)]:.0f} s",
            f"{case['metrics'][_key(cf, False)]:.0f} s",
            f"{_gain(case, cf):.2f}x",
        ]
        for cf in case["fractions"]
    ]
    return [
        "R-F12: gang makespan, zone-aware vs zone-blind placement "
        "(2 zones, cross-zone comm 2x slower)",
        format_table(
            ["comm fraction", "zone-aware", "zone-blind", "blind/aware"],
            rows,
        ),
    ]
