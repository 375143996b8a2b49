"""R-F6 — Data-locality benefit of shared object-store placement.

An I/O-bound scan job over a dataset whose placement skew varies from
fully spread (every node holds blocks) to fully hot (one node holds
everything), scheduled by the locality-aware converged scheduler and the
locality-blind kube scheduler. Figure series: makespan vs skew for both.
Shape: kube degrades as data concentrates (executors read remotely);
converged follows the data and degrades only when the hot node cannot
hold every executor.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import Stage

SEED = 3
DATASET_MB = 16_000
#: mode -> placement skews
GRIDS = {"smoke": (0.9,), "full": (0.0, 0.5, 0.9)}


def run_scan(scheduler: str, skew: float, seed: int):
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=seed),
        scheduler=scheduler,
    )
    spread_blocks(
        platform.store, "logs", total_mb=DATASET_MB, block_mb=100,
        nodes=sorted(platform.cluster.nodes), skew=skew,
    )
    job = platform.submit_bigdata(
        "scan",
        stages=[Stage("scan", 200.0, input_mb=DATASET_MB)],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=200, net_bw=60),
        executors=2,
        dataset="logs",
    )
    platform.run(4 * 3600.0)
    return job.makespan(), platform.engine.events_executed


def _key(scheduler: str, skew: float) -> str:
    return f"makespan_s/{scheduler}/skew-{skew:g}"


def run_case(mode: str, seed: int | None = None) -> dict:
    seed = SEED if seed is None else seed
    events = 0
    metrics: dict = {}
    for skew in GRIDS[mode]:
        for scheduler in ("converged", "kube"):
            metrics[_key(scheduler, skew)], run_events = run_scan(
                scheduler, skew, seed)
            events += run_events
    return {
        "seed": seed,
        "events_executed": events,
        "metrics": metrics,
        "skews": GRIDS[mode],
    }


def check_case(case: dict) -> None:
    metrics = case["metrics"]
    # Shape: the locality-aware scheduler wins, and its advantage grows
    # (or at least holds) as the data concentrates.
    gains = {}
    for skew in case["skews"]:
        conv = metrics[_key("converged", skew)]
        kube = metrics[_key("kube", skew)]
        assert conv is not None and kube is not None
        assert conv <= kube * 1.05
        gains[skew] = kube / conv
    assert gains.get(0.9, 0.0) >= 1.1 or gains.get(0.0, 0.0) >= 1.1


def _secs(value: float | None) -> str:
    return "never" if value is None else f"{value:.0f} s"


def format_case(case: dict) -> list[str]:
    metrics = case["metrics"]
    rows = []
    for skew in case["skews"]:
        conv = metrics[_key("converged", skew)]
        kube = metrics[_key("kube", skew)]
        rows.append([
            f"{skew:.1f}",
            _secs(conv),
            _secs(kube),
            f"{kube / conv:.2f}x" if conv and kube else "n/a",
        ])
    return [
        "R-F6: scan makespan vs dataset placement skew",
        format_table(["skew", "converged", "kube", "kube/converged"], rows),
    ]
