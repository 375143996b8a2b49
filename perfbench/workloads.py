"""The benchmark's three workloads.

Each workload turns a seed into a fixed amount of simulated work, runs it
through public ``repro`` entry points as a sequence of *units* (an arena
cell, a converged-scale run, a fuzz episode), checks every unit's outputs
and reduces each unit to an outcome digest: a hash of the simulated
statistics a pure-speed change must leave untouched.

* ``arena-sweep`` — every registered policy on every scenario-pack entry,
  with the arena's own seed override. Loads open-loop arrivals, telemetry
  and SLO evaluation; 36 small platform builds.
* ``converged-scale`` — one large converged cluster (microservices on
  closed-form traces, DAG jobs over a block dataset, gangs, streams) built
  with the public ``EvolvePlatform`` verbs. Loads the replica model,
  cluster bookkeeping and the metrics pipeline; bypasses arrivals, obs
  and the checker.
* ``fuzz-audit`` — fuzzer episodes under the invariant checker at stride
  1. Loads the checker and chaos-driven cluster writes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

#: Fuzz run seeds whose episode shapes make up ``fuzz-audit``. They are
#: the CI fuzz-smoke seeds, which between them arm every chaos domain, the
#: data-plane fault tolerance and every arrival model.
FUZZ_RUN_SEEDS = (7, 23, 41, 57, 78, 101)
FUZZ_EPISODES_PER_SEED = 7

CONVERGED_NODES = 16
CONVERGED_SERVICES = 32
CONVERGED_HORIZON = 3600.0


@dataclass
class Unit:
    """One run unit: its name, outcome digest and first failure, if any."""

    name: str
    digest: str | None = None
    error: str | None = None


def digest_of(obj) -> str:
    """Stable hash of a JSON-able outcome (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def placements(platform) -> list:
    """Final (pod, node, phase) triples, read without the public verbs so
    a traced run counts no extra cluster reads."""
    return sorted(
        (pod.name, pod.node_name, pod.phase.value)
        for pod in platform.cluster.pods.values()
    )


# -- arena-sweep -----------------------------------------------------------------

_RATE_FIELDS = ("plo_violation_rate", "slo_attainment", "slack_frac")


def check_scorecard(card: dict) -> str | None:
    """Range checks on one arena scorecard; returns the first failure."""
    for name in _RATE_FIELDS:
        if not 0.0 <= card[name] <= 1.0:
            return f"{name}={card[name]!r} outside [0, 1]"
    cost = card["cost_dollars"]
    if not (math.isfinite(cost) and cost >= 0.0):
        return f"cost_dollars={cost!r} not finite and >= 0"
    if card["events_executed"] <= 0:
        return "no events executed"
    return None


def arena_sweep(seed: int, tracer, *, scenarios: tuple | None = None) -> list:
    """The cell loop of ``repro.arena.run_arena(seed=seed)``, one cell at a
    time so that a raising cell fails alone."""
    from repro import arena
    from repro.autoscaler.registry import registered_policies
    from repro.scenarios import load_scenario, scenario_names

    units = []
    for scenario in scenarios or scenario_names():
        entry = load_scenario(scenario)
        for policy in registered_policies():
            unit = Unit(f"{policy}/{scenario}")
            try:
                card = arena.run_cell(policy, entry, seed=seed).to_dict()
            except Exception as exc:  # a raising cell is a failed unit
                unit.error = f"{type(exc).__name__}: {exc}"
            else:
                unit.error = check_scorecard(card)
                unit.digest = digest_of(card)
            units.append(unit)
    return units


# -- converged-scale -------------------------------------------------------------


def build_converged(seed: int, *, services: int = CONVERGED_SERVICES):
    """One converged cluster carrying all three worlds, public verbs only."""
    from repro import ClusterSpec, EvolvePlatform, PlatformConfig, ResourceVector
    from repro.storage.placement import spread_blocks
    from repro.workloads import (
        BurstyTrace,
        DiurnalTrace,
        LatencyPLO,
        NoisyTrace,
        Operator,
        ServiceDemands,
        Stage,
    )

    hour = 3600.0
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=CONVERGED_NODES),
        config=PlatformConfig(seed=seed),
        scheduler="converged",
        policy="adaptive",
    )
    rng = platform.rng
    nodes = sorted(platform.cluster.nodes)
    spread_blocks(
        platform.store, "clickstream", total_mb=24_000, block_mb=100,
        nodes=nodes[: CONVERGED_NODES // 2], replication=2,
    )
    # Cloud world: services on seeded closed-form rate traces, alternating
    # CPU-, disk- and network-heavy demand mixes.
    mixes = (
        (ServiceDemands(cpu_seconds=0.008, disk_mb=0.05, net_mb=0.05,
                        base_latency=0.01),
         ResourceVector(cpu=0.8, memory=1.5, disk_bw=15, net_bw=20)),
        (ServiceDemands(cpu_seconds=0.002, disk_mb=1.0, net_mb=0.2,
                        base_latency=0.015),
         ResourceVector(cpu=0.4, memory=1.5, disk_bw=40, net_bw=20)),
        (ServiceDemands(cpu_seconds=0.002, net_mb=0.6, mem_base=1.0,
                        mem_per_inflight=0.01, base_latency=0.008),
         ResourceVector(cpu=0.4, memory=2.0, disk_bw=10, net_bw=40)),
    )
    for i in range(services):
        demands, allocation = mixes[i % len(mixes)]
        diurnal = DiurnalTrace(
            base=60.0, amplitude=35.0, period=hour, phase=i * 110.0
        )
        if i % 4 == 3:
            trace = BurstyTrace(
                40.0, burst_factor=2.5, burst_rate=1 / 1500.0,
                burst_duration=150.0, horizon=CONVERGED_HORIZON,
                rng=rng.stream(f"bench/trace/svc-{i}"),
            )
        else:
            trace = NoisyTrace(
                diurnal, rel_std=0.15, bucket=60.0,
                horizon=CONVERGED_HORIZON,
                rng=rng.stream(f"bench/trace/svc-{i}"),
            )
        platform.deploy_microservice(
            f"svc-{i:02d}", trace=trace, demands=demands,
            allocation=allocation, plo=LatencyPLO(0.06, window=30),
        )
    # Big-data world: staged DAG jobs over the shared dataset.
    for i in range(4):
        platform.submit_bigdata(
            f"etl-{i}",
            stages=[
                Stage("scan", 600.0, input_mb=8_000),
                Stage("join", 900.0, input_mb=2_000, deps=("scan",)),
                Stage("agg", 300.0, input_mb=200, deps=("join",)),
            ],
            allocation=ResourceVector(cpu=2, memory=4, disk_bw=80, net_bw=60),
            executors=3, dataset="clickstream", delay=i * 800.0,
        )
    # HPC world: gangs arriving through the run.
    for i in range(4):
        platform.submit_hpc(
            f"mpi-{i}", ranks=4, duration=1200.0,
            allocation=ResourceVector(cpu=4, memory=8, disk_bw=5, net_bw=80),
            delay=120.0 + i * 800.0,
        )
    # Streaming: managed pipelines on seeded noisy rates.
    for i in range(2):
        platform.deploy_stream(
            f"stream-{i}",
            trace=NoisyTrace(
                DiurnalTrace(base=300.0, amplitude=120.0, period=hour),
                rel_std=0.1, horizon=CONVERGED_HORIZON,
                rng=rng.stream(f"bench/trace/stream-{i}"),
            ),
            operators=[Operator("parse", 0.002), Operator("agg", 0.001)],
            allocation=ResourceVector(cpu=1.0, memory=2, disk_bw=10,
                                      net_bw=30),
            plo=LatencyPLO(5.0, window=30), workers=2,
        )
    return platform


def result_outcome(platform) -> dict:
    """The simulated statistics of a converged run, for its digest."""
    result = platform.result()
    util = result.utilization
    return {
        "events": platform.engine.events_executed,
        "violations": {
            name: result.violation_fraction(name)
            for name in sorted(result.trackers)
        },
        "usage": util.overall_usage,
        "alloc": util.overall_alloc,
        "makespans": result.makespans,
        "hpc_waits": result.hpc_waits,
        "scale_events": result.scale_events,
        "placements": placements(platform),
    }


def converged_scale(
    seed: int, tracer, *, horizon: float = CONVERGED_HORIZON,
    services: int = CONVERGED_SERVICES,
) -> list:
    """One converged run, then an invariant audit of its final state."""
    from repro.verify.invariants import InvariantChecker

    unit = Unit("converged")
    try:
        build = tracer.wrap(build_converged, "platform", "platform.setups")
        platform = build(seed, services=services)
        platform.run(horizon)
        outcome = result_outcome(platform)
    except Exception as exc:
        unit.error = f"{type(exc).__name__}: {exc}"
        return [unit]
    unit.digest = digest_of(outcome)
    # The audit is the benchmark's check, not the workload: run it with
    # the wrappers out so it shows in no layer.
    with tracer.suspended():
        checker = InvariantChecker.attach(platform, every=1)
        violations = checker.check_now()
        checker.detach()
    if violations:
        unit.error = f"invariant audit: {violations[0]}"
    return [unit]


# -- fuzz-audit ------------------------------------------------------------------


def hash_seed(*parts: int) -> int:
    """A 31-bit seed derived from integers, stable across processes."""
    text = "/".join(str(int(p)) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest(), 16) % (2**31 - 1)


def fuzz_specs(seed: int, *, per_seed: int = FUZZ_EPISODES_PER_SEED) -> list:
    """Episode specs: the CI fuzz episodes, re-seeded from ``seed``.

    Episode shapes (cluster, workloads, chaos schedule) stay those of the
    CI fuzz runs and ``seed`` re-seeds every episode's simulation, as the
    arena's seed override does for pack entries. Drawing fresh shapes per
    seed instead would make the amount of work itself vary by seed (60
    episodes at fuzz seeds 3 and 7 differ by ~45% in host time).
    """
    from repro.verify.fuzzer import generate_scenario

    specs = []
    for run_seed in FUZZ_RUN_SEEDS:
        for index in range(per_seed):
            spec = generate_scenario(run_seed, index)
            episode_seed = hash_seed(seed, run_seed, index)
            specs.append((f"{run_seed}/{index}", replace(spec, seed=episode_seed)))
    return specs


def fuzz_audit(
    seed: int, tracer, *, per_seed: int = FUZZ_EPISODES_PER_SEED,
    inject=None,
) -> list:
    """Checker-audited fuzz episodes; ``inject`` plants a corruption the
    way ``run_episode(..., inject=...)`` does (tests only)."""
    from repro.verify.fuzzer import run_episode

    units = []
    for name, spec in fuzz_specs(seed, per_seed=per_seed):
        unit = Unit(name)
        try:
            result = run_episode(spec, every=1, inject=inject)
        except Exception as exc:
            unit.error = f"{type(exc).__name__}: {exc}"
        else:
            unit.digest = digest_of({
                "events": result.events_executed,
                "checks": result.checks_run,
                "violations": [str(v) for v in result.violations],
                "placements": placements(tracer.last_platform),
            })
            if result.violations:
                unit.error = f"invariant violation: {result.violations[0]}"
        units.append(unit)
    return units


WORKLOADS = {
    "arena-sweep": arena_sweep,
    "converged-scale": converged_scale,
    "fuzz-audit": fuzz_audit,
}
