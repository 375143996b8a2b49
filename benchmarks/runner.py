"""Unified benchmark runner: every experiment, one registry, one gate.

Each entry in :data:`EXPERIMENTS` wraps one ``bench_*.py`` experiment
with two modes:

* ``smoke`` — a CI-sized variant (reduced grid / duration) that still
  exercises the full platform stack, plus **deterministic budgets**:
  seeded simulations execute an exact, reproducible number of engine
  events (and profiled function calls), so the runner asserts those
  counts against recorded upper bounds. A regression that makes the
  control plane busier — more events, more calls — fails CI
  deterministically, with zero timing flake on noisy runners.
* ``full`` — the paper-scale grid behind EXPERIMENTS.md.

Every run emits one ``BENCH_<exp>.json`` (see :func:`run_experiment`
for the schema): wall time, events executed, events/sec, the
experiment's headline metrics, the seed, and the budget verdicts.
Wall-clock-derived numbers are reported under ``timing`` — never under
``metrics`` — so two smoke runs of the same tree produce bit-identical
``metrics`` blocks (the determinism test relies on this split).

Usage::

    python -m benchmarks.runner --smoke --json out/
    python -m repro bench --smoke --json out/       # same thing
    python -m benchmarks.runner --only t1,f5 --list
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.analysis.cost import PriceSheet, app_cost, cluster_provisioned_cost
from repro.analysis.energy import PowerModel, cluster_energy
from repro.analysis.recovery import fault_recovery_report, summarize
from repro.analysis.stats import recovery_time
from repro.cluster.events import PodResized
from repro.cluster.resources import ResourceVector
from repro.control.pid import PIDGains
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO
from repro.workloads.traces import ConstantTrace, NoisyTrace

from benchmarks import bench_f5_scalability as bench_f5
from benchmarks import bench_f8_acceleration as bench_f8
from benchmarks import bench_f10_feedforward as bench_f10
from benchmarks import bench_micro_timeseries as bench_micro
from benchmarks import bench_t2_utilization as bench_t2
from benchmarks import bench_t7_fault_matrix as bench_t7
from benchmarks import bench_t8_control_plane_outage as bench_t8
from benchmarks import bench_t9_reaction_latency as bench_t9
from benchmarks import bench_t10_overload as bench_t10
from benchmarks import bench_t11_dataplane as bench_t11
from benchmarks import bench_t12_slo as bench_t12
from benchmarks import bench_telemetry_overhead as bench_tel
from benchmarks.scenarios import (
    HOUR,
    PHASE_LEN,
    build_platform,
    deploy_batch_churn,
    deploy_gang_rush,
    deploy_hpc_stream,
    deploy_service_mix,
    phase_shift_service,
    step_load_service,
)


@dataclass(frozen=True)
class Experiment:
    """One registered benchmark.

    ``run(mode)`` returns a dict with keys ``seed``, ``events_executed``
    (int or None), ``metrics`` (deterministic values only) and optional
    ``timing`` (wall-clock-derived values, excluded from determinism
    comparisons). ``budgets`` maps dotted result paths (``events_executed``
    or ``metrics.<name>``) to smoke-mode upper bounds.
    """

    name: str
    module: str
    title: str
    run: Callable[[str], dict]
    budgets: Mapping[str, int] = field(default_factory=dict)


def _events(*platforms) -> int:
    return sum(p.engine.events_executed for p in platforms)


#: Run-seed override (``--seed``). Adapters that build platforms
#: directly route their default seed through :func:`_seed`; experiments
#: that delegate to a bench module's own seeded case (t8, t9, f5, the
#: micro-benchmarks) keep their internal seeds. Smoke budgets are only
#: calibrated at the default seeds, so an override skips budget gating
#: (see docs/testing.md).
_SEED_OVERRIDE: int | None = None


def _seed(default: int) -> int:
    return default if _SEED_OVERRIDE is None else _SEED_OVERRIDE


# -- experiment adapters ------------------------------------------------------
#
# Smoke variants shrink the grid and the simulated duration but keep the
# seeds and scenario construction of the full experiment, so their event
# counts stay deterministic and comparable across commits.


def _run_t1(mode: str) -> dict:
    policies = ("static", "adaptive") if mode == "smoke" else (
        "static", "hpa", "vpa", "adaptive")
    duration = HOUR if mode == "smoke" else 4 * HOUR
    events = 0
    metrics: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=_seed(42))
        deploy_service_mix(platform)
        platform.run(duration)
        metrics[f"violations/{policy}"] = (
            platform.result().total_violation_fraction())
        events += _events(platform)
    metrics["improvement_vs_static"] = (
        metrics["violations/static"] / max(metrics["violations/adaptive"], 1e-6))
    return {"seed": _seed(42), "events_executed": events, "metrics": metrics}


def _run_t2(mode: str) -> dict:
    policies = ("static", "adaptive") if mode == "smoke" else (
        "static", "vpa", "adaptive")
    duration = HOUR if mode == "smoke" else 4 * HOUR
    events = 0
    metrics: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=_seed(17))
        bench_t2.deploy_overprovisioned_mix(platform)
        deploy_batch_churn(platform, start=0.5 * HOUR)
        platform.run(duration)
        util = platform.result().utilization
        metrics[f"efficiency/{policy}"] = (
            util.overall_usage / max(util.overall_alloc, 1e-9))
        events += _events(platform)
    metrics["utilization_gain"] = (
        metrics["efficiency/adaptive"] / max(metrics["efficiency/static"], 1e-9))
    return {"seed": _seed(17), "events_executed": events, "metrics": metrics}


_T3_WEAK = PIDGains(kp=0.05, ki=0.005, kd=0.0)


def _t3_platform(policy_kwargs: dict) -> EvolvePlatform:
    return build_platform(
        "adaptive", nodes=4, seed=_seed(7),
        policy_kwargs={"horizontal": False, **policy_kwargs})


def _t3_step(policy_kwargs: dict) -> tuple[float, EvolvePlatform]:
    platform = _t3_platform(policy_kwargs)
    app = step_load_service(platform, factor=6.0, step_at=HOUR / 2)
    platform.run(1.5 * HOUR)
    return platform.result().trackers[app].violation_fraction, platform


def _t3_shift(policy_kwargs: dict) -> tuple[float, EvolvePlatform]:
    platform = _t3_platform(policy_kwargs)
    app = phase_shift_service(platform)
    platform.run(3 * HOUR)
    return platform.result().trackers[app].violation_fraction, platform


def _t3_noisy(policy_kwargs: dict) -> tuple[int, EvolvePlatform]:
    platform = _t3_platform(policy_kwargs)
    resizes = [0]
    platform.api.watch(
        PodResized, lambda e: resizes.__setitem__(0, resizes[0] + 1))
    trace = NoisyTrace(ConstantTrace(100), rel_std=0.15, bucket=60,
                       horizon=3 * HOUR, rng=platform.rng.stream("trace/noise"))
    platform.deploy_microservice(
        "pipe",
        trace=trace,
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
        allocation=ResourceVector(cpu=1.2, memory=1.5, disk_bw=20, net_bw=20),
        plo=ThroughputPLO(100.0, window=30),
    )
    platform.run(2 * HOUR)
    return resizes[0], platform


def _run_t3(mode: str) -> dict:
    events = 0
    metrics: dict = {}
    for label, kwargs in (("adaptive_weak", {"gains": _T3_WEAK}),
                          ("fixed_weak", {"gains": _T3_WEAK, "adaptive": False})):
        violations, platform = _t3_step(kwargs)
        metrics[f"violations/{label}"] = violations
        events += _events(platform)
    if mode == "full":
        for label, kwargs in (("multi", {}), ("cpu_only", {"dimensions": ("cpu",)})):
            violations, platform = _t3_shift(kwargs)
            metrics[f"violations/{label}"] = violations
            events += _events(platform)
        for label, kwargs in (("deadband", {"deadband": 0.1}),
                              ("no_deadband", {"deadband": 0.0})):
            resizes, platform = _t3_noisy(kwargs)
            metrics[f"resizes/{label}"] = resizes
            events += _events(platform)
    return {"seed": _seed(7), "events_executed": events, "metrics": metrics}


def _run_t4(mode: str) -> dict:
    schedulers = ("converged",) if mode == "smoke" else (
        "kube", "siloed", "converged")
    duration = 1.5 * HOUR if mode == "smoke" else 4 * HOUR
    events = 0
    metrics: dict = {}
    for scheduler in schedulers:
        platform = build_platform("adaptive", nodes=6, seed=_seed(23),
                                  scheduler=scheduler)
        services = deploy_service_mix(platform)
        deploy_batch_churn(platform, start=0.25 * HOUR)
        gangs = deploy_gang_rush(platform)
        platform.run(duration)
        result = platform.result()
        metrics[f"svc_violations/{scheduler}"] = sum(
            result.violation_fraction(s) for s in services) / len(services)
        metrics[f"gangs_done/{scheduler}"] = sum(
            1 for g in gangs if result.makespans[g] is not None)
        metrics[f"usage/{scheduler}"] = result.utilization.overall_usage
        events += _events(platform)
    return {"seed": _seed(23), "events_executed": events, "metrics": metrics}


def _run_t5(mode: str) -> dict:
    policies = ("static", "adaptive") if mode == "smoke" else (
        "static", "vpa", "adaptive")
    duration = HOUR if mode == "smoke" else 4 * HOUR
    prices = PriceSheet()
    events = 0
    metrics: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=_seed(17))
        apps = bench_t2.deploy_overprovisioned_mix(platform)
        platform.run(duration)
        bill = sum(
            app_cost(platform.collector, app, prices=prices).total
            for app in apps)
        metrics[f"bill/{policy}"] = bill
        events += _events(platform)
    metrics["hardware_cost"] = cluster_provisioned_cost(
        platform.api.total_allocatable(), duration, prices=prices)
    metrics["bill_reduction"] = (
        metrics["bill/static"] / max(metrics["bill/adaptive"], 1e-9))
    return {"seed": _seed(17), "events_executed": events, "metrics": metrics}


def _run_t6(mode: str) -> dict:
    base = _seed(1)
    seeds = (base, base + 1) if mode == "smoke" else tuple(
        range(base, base + 5))
    duration = HOUR if mode == "smoke" else 3 * HOUR
    events = 0
    metrics: dict = {}
    improvements = []
    for seed in seeds:
        per_policy = {}
        for policy in ("static", "adaptive"):
            platform = build_platform(policy, nodes=6, seed=seed)
            deploy_service_mix(platform)
            platform.run(duration)
            per_policy[policy] = platform.result().total_violation_fraction()
            events += _events(platform)
        improvement = per_policy["static"] / max(per_policy["adaptive"], 1e-6)
        improvements.append(improvement)
        metrics[f"improvement/seed-{seed}"] = improvement
    metrics["min_improvement"] = min(improvements)
    metrics["mean_improvement"] = sum(improvements) / len(improvements)
    return {"seed": seeds[0], "events_executed": events, "metrics": metrics}


def _run_t7(mode: str) -> dict:
    if mode == "smoke":
        cells = (("micro", "crash"),)
    else:
        cells = tuple(
            (workload, fault)
            for workload in bench_t7.WORKLOADS
            for fault in bench_t7.FAULT_CLASSES)
    events = 0
    metrics: dict = {"cells": len(cells)}
    healed_cells = 0
    for workload, fault in cells:
        platform = build_platform("adaptive", nodes=6, seed=_seed(11))
        apps = bench_t7._deploy(platform, workload)
        bench_t7._arm_fault(platform, fault, apps)
        platform.run(bench_t7.DURATION)
        threshold = 0.5 if workload == "bigdata" else 0.35
        agg = summarize(fault_recovery_report(
            platform.fault_log, platform.collector, apps,
            threshold=threshold, settle=3))
        ok = (agg.episodes >= 1 and agg.healed == agg.episodes
              and agg.unconverged == 0)
        healed_cells += 1 if ok else 0
        metrics[f"healed/{workload}/{fault}"] = ok
        metrics[f"mttr/{workload}/{fault}"] = agg.max_mttr
        events += _events(platform)
    metrics["cells_healed"] = healed_cells
    return {"seed": _seed(11), "events_executed": events, "metrics": metrics}


def _run_t8(mode: str) -> dict:
    if mode == "smoke":
        case = bench_t8.run_outage_case(
            crash_at=600.0, repair=200.0, duration=1500.0)
    else:
        case = bench_t8.run_outage_case()
    bench_t8.check_outage_case(case)
    stats = case["stats"]
    metrics = {
        "failovers": stats.failovers,
        "max_gap_s": stats.max_gap,
        "snapshot_restores": stats.snapshot_restores,
        "duplicate_actuations": len(case["duplicates"]),
        "max_cpu_divergence": max(case["divergence"].values()),
        "violations/ha": case["ha_violations"],
        "violations/clean": case["clean_violations"],
        "violations/single": case["single_violations"],
    }
    events = _events(case["ha"], case["clean"], case["single"])
    return {"seed": bench_t8.SEED, "events_executed": events,
            "metrics": metrics}


def _run_t9(mode: str) -> dict:
    if mode == "smoke":
        case = bench_t9.run_case(duration=0.75 * HOUR, step_at=HOUR / 4)
    else:
        case = bench_t9.run_case()
    bench_t9.check_case(case)
    metrics = {
        "applied": case["applied"],
        "chained": case["chained"],
        "provenance": case["provenance"],
        "reaction_p50_s": case["trace_quantiles"]["p50"],
        "reaction_p99_s": case["trace_quantiles"]["p99"],
        "step_reaction_s": case["step_reaction"],
        "violations": case["violations"],
    }
    return {"seed": 11, "events_executed": _events(case["platform"]),
            "metrics": metrics}


def _run_t10(mode: str) -> dict:
    if mode == "smoke":
        case = bench_t10.run_case(duration=900.0, factors=(1.0, 4.0))
    else:
        case = bench_t10.run_case()
    bench_t10.check_case(case)
    res_1x, res_peak = case["resilient"][0], case["resilient"][-1]
    base_peak = case["baseline"][-1]
    shed = res_peak["shed_by_class"]
    outage = case["outage"]
    metrics = {
        "goodput/resilient-1x": res_1x["goodput"],
        "goodput/resilient-peak": res_peak["goodput"],
        "goodput/baseline-peak": base_peak["goodput"],
        "shed_total": res_peak["shed_total"],
        "shed/best-effort": shed["best-effort"],
        "shed/batch": shed["batch"],
        "running_evictions": res_peak["evicted_running"],
        "brownout_duty": res_peak["brownout_duty"],
        "outage/pods_displaced": outage["pods_displaced"],
        "outage/time_to_recover_s": outage["time_to_recover_s"],
    }
    events = sum(
        p["events"] for p in case["resilient"] + case["baseline"]
    ) + outage["events"]
    return {"seed": bench_t10.SEED, "events_executed": events,
            "metrics": metrics}


def _run_t11(mode: str) -> dict:
    if mode == "smoke":
        case = bench_t11.run_case(duration=900.0, levels=("calm", "harsh"))
    else:
        case = bench_t11.run_case()
    bench_t11.check_case(case)
    calm_ft = case["ft"][0]
    harsh_ft = case["ft"][-1]
    calm_base = case["baseline"][0]
    metrics = {
        "makespan_s/ft-calm": calm_ft["makespan"],
        "makespan_s/ft-harsh": harsh_ft["makespan"],
        "makespan_s/baseline-calm": calm_base["makespan"],
        "stream_lag_s/ft-harsh": harsh_ft["stream_lag_seconds"],
        "executor_losses": harsh_ft["executor_losses"],
        "lineage_recomputes": harsh_ft["lineage_recomputes"],
        "reopened_cpu_s": harsh_ft["reopened_work"],
        "stream_restarts": harsh_ft["stream_restarts"],
        "stream_replayed": harsh_ft["stream_replayed"],
        "repair_traffic_mb": harsh_ft["repair_traffic_mb"],
    }
    events = sum(c["events"] for c in case["ft"] + case["baseline"])
    return {"seed": bench_t11.SEED, "events_executed": events,
            "metrics": metrics}


def _run_t12(mode: str) -> dict:
    if mode == "smoke":
        case = bench_t12.run_case(
            calm_duration=bench_t12.SMOKE_CALM_DURATION)
    else:
        case = bench_t12.run_case()
    bench_t12.check_case(case)
    cells = case["scenarios"]
    overload = cells["overload"]
    metrics = {
        "attainment/calm": cells["calm"]["overall_attainment"],
        "attainment/overload": overload["overall_attainment"],
        "attainment/data-fault": cells["data-fault"]["overall_attainment"],
        "alerts/calm": cells["calm"]["alerts"],
        "alerts/overload": overload["alerts"],
        "alerts_resolved/overload": overload["alerts_resolved"],
        "alert_latency_s/web_latency": (
            overload["alert_latency_s"]["web_latency"]),
        "budget_spent_s/shed_free": (
            overload["budget_spent_s"]["shed_free"]),
        "budget_spent_s/brownout_free": (
            overload["budget_spent_s"]["brownout_free"]),
        "ledgers_ok": all(c["ledgers_ok"] for c in cells.values()),
    }
    events = sum(c["events"] for c in cells.values())
    # The per-scenario RunReports ride along so --json can emit the
    # flight-recorder artifact (REPORT_t12.json) next to the payload.
    reports = {name: c["report"] for name, c in cells.items()}
    return {"seed": bench_t12.SEED, "events_executed": events,
            "metrics": metrics, "report": reports}


def _run_t13(mode: str) -> dict:
    # Imported lazily: the arena pulls in the scenario pack and the
    # fuzzer's platform builder, which the other adapters never need.
    from benchmarks import bench_t13_arena as bench_t13
    from repro.arena import run_arena

    if _SEED_OVERRIDE is not None:
        # The shape checks are calibrated at the pack's native seeds;
        # under --seed only the sweep itself runs (like every budget).
        payload = run_arena(seed=_SEED_OVERRIDE)
    else:
        # Smoke replays the pack at its native horizons (the pack IS
        # CI-sized); full mode doubles every cell's horizon so slow
        # convergence and late reclaim show up in the scorecards.
        payload = bench_t13.run_case(
            horizon=bench_t13.FULL_HORIZON if mode == "full" else None
        )
        bench_t13.check_case(payload)
    return {
        "seed": payload["seed"],
        "events_executed": payload["events_executed"],
        "metrics": payload["metrics"],
        "timing": payload["timing"],
    }


def _run_t14(mode: str) -> dict:
    # Imported lazily like t13: pulls the arrival library and a full
    # platform build the other adapters never need.
    from benchmarks import bench_t14_trace_realism as bench_t14

    case = bench_t14.run_case(mode=mode)
    bench_t14.check_case(case)
    cells = case["cells"]
    metrics = {
        "poisson/rate_rel_error": cells["poisson"]["rate_rel_error"],
        "poisson/flat_cv": cells["poisson"]["flat_cv"],
        "mmpp/cv": cells["mmpp"]["cv"],
        "mmpp/states_visited": cells["mmpp"]["states_visited"],
        **{f"count/{name}_z": c["z"] for name, c in cells["count"].items()},
        "count/constant_dispersion": cells["count"]["constant"]["dispersion"],
        "pareto/alpha_hill": cells["pareto"]["alpha_hill"],
        "pareto/mean_rel_error": cells["pareto"]["mean_rel_error"],
        "replay/count_error": cells["replay"]["count_error"],
        "replay/fingerprint": cells["replay"]["fingerprint"],
        "surge/active_frac": cells["surge"]["active_frac"],
        "platform/offered_rel_error": (
            cells["platform"]["offered_rel_error"]),
        "platform/mean_size_factor": (
            cells["platform"]["mean_size_factor"]),
    }
    # Only the end-to-end platform cell runs the engine; the statistical
    # cells draw from standalone streams.
    return {"seed": bench_t14.SEED,
            "events_executed": cells["platform"]["events"],
            "metrics": metrics}


def _run_f1(mode: str) -> dict:
    policies = ("adaptive",) if mode == "smoke" else (
        "static", "hpa", "vpa", "adaptive")
    duration = HOUR if mode == "smoke" else 3 * HOUR
    sample = 300.0
    events = 0
    metrics: dict = {}
    for policy in policies:
        platform = build_platform(policy, nodes=6, seed=_seed(42))
        deploy_service_mix(platform)
        platform.run(duration)
        times, values = platform.collector.series("app/web/latency").to_lists()
        buckets: dict[float, float] = {}
        for t, v in zip(times, values):
            bucket = int(t // sample) * sample
            buckets[bucket] = max(buckets.get(bucket, 0.0), v)
        warm = [t for t in buckets if t >= 600]
        metrics[f"worst_bucket_ms/{policy}"] = max(
            buckets[t] for t in warm) * 1000
        events += _events(platform)
    return {"seed": _seed(42), "events_executed": events, "metrics": metrics}


def _f2_step(factor: float, adaptive: bool) -> tuple[dict, EvolvePlatform]:
    step_at = HOUR / 2
    platform = build_platform(
        "adaptive", nodes=4, seed=_seed(7),
        policy_kwargs={"horizontal": False, "adaptive": adaptive})
    app = step_load_service(platform, factor=factor, step_at=step_at)
    platform.run(1.5 * HOUR)
    series = platform.collector.series(f"plo/{app}/ratio")
    settle = recovery_time(series, after=step_at, threshold=1.0, hold=120.0)
    times, values = series.to_lists()
    peak = max((v for t, v in zip(times, values) if t >= step_at), default=0.0)
    return {"recovery_s": settle, "peak_ratio": peak}, platform


def _run_f2(mode: str) -> dict:
    combos = ((4.0, True),) if mode == "smoke" else tuple(
        (factor, adaptive)
        for factor in (2.0, 4.0, 6.0) for adaptive in (True, False))
    events = 0
    metrics: dict = {}
    for factor, adaptive in combos:
        out, platform = _f2_step(factor, adaptive)
        label = f"{factor:g}x_{'adaptive' if adaptive else 'fixed'}"
        metrics[f"recovery_s/{label}"] = out["recovery_s"]
        metrics[f"peak_ratio/{label}"] = out["peak_ratio"]
        events += _events(platform)
    return {"seed": _seed(7), "events_executed": events, "metrics": metrics}


def _run_f3(mode: str) -> dict:
    variants = (("multi", None),) if mode == "smoke" else (
        ("multi", None), ("cpu_only", ("cpu",)))
    events = 0
    metrics: dict = {}
    for label, dimensions in variants:
        kwargs: dict = {"horizontal": False}
        if dimensions:
            kwargs["dimensions"] = dimensions
        platform = build_platform("adaptive", nodes=4, seed=_seed(7),
                                  policy_kwargs=kwargs)
        app = phase_shift_service(platform)
        platform.run(3 * PHASE_LEN)
        metrics[f"violations/{label}"] = (
            platform.result().trackers[app].violation_fraction)
        events += _events(platform)
    return {"seed": _seed(7), "events_executed": events, "metrics": metrics}


def _run_f4(mode: str) -> dict:
    schedulers = ("converged",) if mode == "smoke" else ("converged", "siloed")
    duration = 2 * HOUR if mode == "smoke" else 4 * HOUR
    events = 0
    metrics: dict = {}
    for scheduler in schedulers:
        platform = build_platform("adaptive", nodes=6, seed=_seed(31),
                                  scheduler=scheduler)
        deploy_service_mix(platform)
        deploy_batch_churn(platform, start=0.25 * HOUR)
        gangs = deploy_hpc_stream(
            platform, count=2 if mode == "smoke" else 4, spacing=0.75 * HOUR)
        platform.run(duration)
        result = platform.result()
        series = platform.collector.series("cluster/usage_frac/cpu")
        metrics[f"mean_cpu_usage/{scheduler}"] = (
            series.integrate(0.0, duration) / duration)
        metrics[f"gangs_served/{scheduler}"] = sum(
            1 for g in gangs if result.hpc_waits.get(g) is not None)
        events += _events(platform)
    return {"seed": _seed(31), "events_executed": events, "metrics": metrics}


def _run_f5(mode: str) -> dict:
    counts = (8,) if mode == "smoke" else (4, 8, 16, 32)
    events = 0
    metrics: dict = {}
    timing: dict = {}
    for apps in counts:
        wall, decisions, run_events, violations = bench_f5.run_scale(apps)
        timing[f"wall_s/{apps}-apps"] = wall
        metrics[f"decisions/{apps}-apps"] = decisions
        metrics[f"events/{apps}-apps"] = run_events
        metrics[f"violations/{apps}-apps"] = violations
        events += run_events
    return {"seed": 3, "events_executed": events, "metrics": metrics,
            "timing": timing}


def _f6_scan(scheduler: str, skew: float) -> tuple[float | None, EvolvePlatform]:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=_seed(3)),
        scheduler=scheduler,
    )
    spread_blocks(
        platform.store, "logs", total_mb=16_000, block_mb=100,
        nodes=sorted(platform.cluster.nodes), skew=skew)
    job = platform.submit_bigdata(
        "scan",
        stages=[Stage("scan", 200.0, input_mb=16_000)],
        allocation=ResourceVector(cpu=2, memory=4, disk_bw=200, net_bw=60),
        executors=2,
        dataset="logs",
    )
    platform.run(4 * HOUR)
    return job.makespan(), platform


def _run_f6(mode: str) -> dict:
    skews = (0.9,) if mode == "smoke" else (0.0, 0.5, 0.9)
    events = 0
    metrics: dict = {}
    for skew in skews:
        for scheduler in ("converged", "kube"):
            makespan, platform = _f6_scan(scheduler, skew)
            metrics[f"makespan_s/{scheduler}/skew-{skew:g}"] = makespan
            events += _events(platform)
    return {"seed": _seed(3), "events_executed": events, "metrics": metrics}


def _run_f7(mode: str) -> dict:
    periods = (10.0, 80.0) if mode == "smoke" else (
        5.0, 10.0, 20.0, 40.0, 80.0)
    duration = HOUR if mode == "smoke" else 3 * HOUR
    events = 0
    metrics: dict = {}
    for period in periods:
        platform = EvolvePlatform(
            cluster_spec=ClusterSpec(node_count=6),
            config=PlatformConfig(seed=_seed(42), control_interval=period),
            scheduler="converged",
            policy="adaptive",
        )
        resizes = [0]
        platform.api.watch(
            PodResized, lambda e: resizes.__setitem__(0, resizes[0] + 1))
        deploy_service_mix(platform)
        platform.run(duration)
        metrics[f"violations/{period:g}s"] = (
            platform.result().total_violation_fraction())
        metrics[f"resizes/{period:g}s"] = resizes[0]
        events += _events(platform)
    return {"seed": _seed(42), "events_executed": events, "metrics": metrics}


def _f8_config(*, scheduler: str, hetero: bool,
               busy_fpga: bool) -> tuple[float | None, EvolvePlatform]:
    platform = EvolvePlatform(
        cluster_spec=bench_f8.hetero_spec() if hetero else ClusterSpec(
            node_count=6),
        config=PlatformConfig(seed=_seed(9)),
        scheduler=scheduler,
    )
    if busy_fpga:
        platform.deploy_microservice(
            "noise",
            trace=ConstantTrace(50),
            demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
            allocation=ResourceVector(cpu=2, memory=4, disk_bw=20, net_bw=20),
            managed=False, replicas=2,
            node_selector={"accelerator": "fpga"},
        )
        platform.run(60.0)
    job = platform.submit_bigdata(
        "train",
        stages=[
            Stage("prep", 500.0),
            Stage("kernel", 4000.0, deps=("prep",),
                  accel_speedup=bench_f8.SPEEDUP),
        ],
        allocation=ResourceVector(cpu=4, memory=8, disk_bw=50, net_bw=50),
        executors=2,
        accelerator="fpga",
    )
    platform.run(3 * HOUR)
    return job.makespan(), platform


def _run_f8(mode: str) -> dict:
    configs = {
        "hetero_aware": dict(scheduler="converged", hetero=True,
                             busy_fpga=True),
        "hetero_blind": dict(scheduler="kube", hetero=True, busy_fpga=True),
    }
    if mode == "full":
        configs["cpu_only"] = dict(scheduler="converged", hetero=False,
                                   busy_fpga=False)
    events = 0
    metrics: dict = {}
    for label, kwargs in configs.items():
        makespan, platform = _f8_config(**kwargs)
        metrics[f"makespan_s/{label}"] = makespan
        events += _events(platform)
    return {"seed": _seed(9), "events_executed": events, "metrics": metrics}


_F9_CONFIGS = {
    "consolidate": dict(scheduler="converged",
                        scheduler_kwargs={"packing": "consolidate"}),
    "spread": dict(scheduler="converged", scheduler_kwargs=None),
    "siloed": dict(scheduler="siloed", scheduler_kwargs=None),
}


def _run_f9(mode: str) -> dict:
    names = ("consolidate", "spread") if mode == "smoke" else tuple(_F9_CONFIGS)
    duration = 1.5 * HOUR if mode == "smoke" else 3 * HOUR
    events = 0
    metrics: dict = {}
    for name in names:
        cfg = _F9_CONFIGS[name]
        platform = build_platform(
            "adaptive", nodes=6, seed=_seed(42),
            scheduler=cfg["scheduler"],
            scheduler_kwargs=cfg["scheduler_kwargs"])
        deploy_service_mix(platform)
        platform.run(duration)
        energy = cluster_energy(
            platform.collector, list(platform.cluster.nodes),
            start=0.0, end=duration, model=PowerModel())
        metrics[f"energy_kwh/{name}"] = energy.total_kwh
        metrics[f"violations/{name}"] = (
            platform.result().total_violation_fraction())
        events += _events(platform)
    metrics["energy_saving"] = (
        1 - metrics["energy_kwh/consolidate"] / metrics["energy_kwh/spread"])
    return {"seed": _seed(42), "events_executed": events, "metrics": metrics}


def _f10_surge(factory, feedforward: bool) -> tuple[float, EvolvePlatform]:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=_seed(6)),
        policy="adaptive",
        policy_kwargs={"horizontal": False, "feedforward": feedforward},
    )
    platform.deploy_microservice(
        "svc",
        trace=factory(),
        demands=ServiceDemands(cpu_seconds=0.01, base_latency=0.01),
        allocation=ResourceVector(cpu=1, memory=1.5, disk_bw=20, net_bw=20),
        plo=LatencyPLO(0.05, window=30),
    )
    platform.run(3600.0)
    return platform.result().trackers["svc"].violation_seconds, platform


def _run_f10(mode: str) -> dict:
    surges = ("flash crowd",) if mode == "smoke" else tuple(bench_f10.SURGES)
    events = 0
    metrics: dict = {}
    for name in surges:
        factory = bench_f10.SURGES[name]
        label = name.split(" (")[0].replace(" ", "_")
        for feedforward in (False, True):
            seconds, platform = _f10_surge(factory, feedforward)
            suffix = "feedforward" if feedforward else "feedback"
            metrics[f"violation_s/{label}/{suffix}"] = seconds
            events += _events(platform)
    metrics["flash_saving"] = 1 - (
        metrics["violation_s/flash_crowd/feedforward"]
        / max(metrics["violation_s/flash_crowd/feedback"], 1e-9))
    return {"seed": _seed(6), "events_executed": events, "metrics": metrics}


def _f11_job(interval: float | None, *, chaos: bool,
             horizon: float) -> tuple[float | None, int, EvolvePlatform]:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=_seed(77)),
    )
    job = platform.submit_hpc(
        "sim", ranks=3, duration=1800.0,
        allocation=ResourceVector(cpu=6, memory=8, disk_bw=5, net_bw=80),
        checkpoint_interval=interval,
    )
    if chaos:
        platform.enable_chaos(mtbf=450.0, repair_time=120.0)
    platform.run(horizon)
    return job.makespan(), job.rollbacks, platform


def _run_f11(mode: str) -> dict:
    if mode == "smoke":
        intervals: tuple[float | None, ...] = (50.0,)
        horizon = 3 * HOUR
    else:
        intervals = (None, 600.0, 150.0, 50.0)
        horizon = 10 * HOUR
    events = 0
    metrics: dict = {}
    for interval in intervals:
        label = "none" if interval is None else f"{interval:g}s"
        makespan, rollbacks, platform = _f11_job(
            interval, chaos=True, horizon=horizon)
        metrics[f"makespan_s/{label}"] = makespan
        metrics[f"rollbacks/{label}"] = rollbacks
        events += _events(platform)
    if mode == "full":
        calm, _rollbacks, platform = _f11_job(None, chaos=False, horizon=horizon)
        metrics["makespan_s/calm"] = calm
        events += _events(platform)
    return {"seed": _seed(77), "events_executed": events, "metrics": metrics}


def _f12_gang(comm_fraction: float, zone_aware: bool,
              horizon: float) -> tuple[float | None, EvolvePlatform]:
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4, zones=2),
        config=PlatformConfig(seed=_seed(5)),
        scheduler="converged",
        scheduler_kwargs={"zone_aware_gangs": zone_aware,
                          "interference_weight": 0.0},
    )
    job = platform.submit_hpc(
        "mpi", ranks=2, duration=900.0,
        allocation=ResourceVector(cpu=7, memory=8, disk_bw=5, net_bw=100),
        comm_fraction=comm_fraction, zone_penalty=1.0,
    )
    platform.run(horizon)
    return job.makespan(), platform


def _run_f12(mode: str) -> dict:
    if mode == "smoke":
        fractions = (0.5,)
        horizon = 2 * HOUR
    else:
        fractions = (0.1, 0.3, 0.5)
        horizon = 6 * HOUR
    events = 0
    metrics: dict = {}
    for cf in fractions:
        for aware in (True, False):
            makespan, platform = _f12_gang(cf, aware, horizon)
            suffix = "aware" if aware else "blind"
            metrics[f"makespan_s/comm-{cf:g}/{suffix}"] = makespan
            events += _events(platform)
    return {"seed": _seed(5), "events_executed": events, "metrics": metrics}


def _run_micro_timeseries(mode: str) -> dict:
    if mode == "smoke":
        case = bench_micro.run_case(samples=20_000, queries=500)
    else:
        case = bench_micro.run_case()
    bench_micro.check_case(case)
    timing = {
        f"speedup/{op}": case["slow"][op] / max(case["fast"][op], 1e-9)
        for op in ("value_at", "window")
    }
    metrics = {"samples": case["samples"], "queries": case["queries"]}
    return {"seed": 0, "events_executed": None, "metrics": metrics,
            "timing": timing}


def _run_telemetry_overhead(mode: str) -> dict:
    if mode == "smoke":
        case = bench_tel.run_case(apps=4, duration=HOUR / 2)
    else:
        case = bench_tel.run_case()
    bench_tel.check_case(case)
    metrics = {
        "calls_off": case["calls_off"],
        "calls_on": case["calls_on"],
        "enabled_call_overhead": case["enabled_overhead"],
        "identical": case["identical"],
        "spans": case["spans"],
        "provenance": case["provenance"],
    }
    timing = {
        "wall_off_s": case["wall_off"],
        "wall_on_s": case["wall_on"],
        "disabled_overhead": case["disabled_overhead"],
    }
    return {"seed": 3, "events_executed": case["events"], "metrics": metrics,
            "timing": timing}


# -- registry -----------------------------------------------------------------
#
# Budgets are deterministic upper bounds for SMOKE mode, set ~25% above
# the counts measured when the budget was recorded (see
# docs/performance.md for the procedure). Identical trees produce
# identical counts, so a breach is always a real workload change in the
# control plane — never runner noise.

EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "t1", "benchmarks.bench_t1_plo_violations",
        "R-T1: PLO violations per policy", _run_t1,
        budgets={"events_executed": 42_000}),
    Experiment(
        "t2", "benchmarks.bench_t2_utilization",
        "R-T2: cluster utilization per policy", _run_t2,
        budgets={"events_executed": 70_000}),
    Experiment(
        "t3", "benchmarks.bench_t3_ablation",
        "R-T3: controller ablations", _run_t3,
        budgets={"events_executed": 35_000}),
    Experiment(
        "t4", "benchmarks.bench_t4_converged_sched",
        "R-T4: converged vs siloed vs kube scheduling", _run_t4,
        budgets={"events_executed": 40_000}),
    Experiment(
        "t5", "benchmarks.bench_t5_cost",
        "R-T5: allocation cost per policy", _run_t5,
        budgets={"events_executed": 70_000}),
    Experiment(
        "t6", "benchmarks.bench_t6_seed_robustness",
        "R-T6: seed robustness of the headline", _run_t6,
        budgets={"events_executed": 83_000}),
    Experiment(
        "t7", "benchmarks.bench_t7_fault_matrix",
        "R-T7: fault matrix (fault class x workload world)", _run_t7,
        budgets={"events_executed": 15_000}),
    Experiment(
        "t8", "benchmarks.bench_t8_control_plane_outage",
        "R-T8: control-plane outage and failover", _run_t8,
        budgets={"events_executed": 36_000}),
    Experiment(
        "t9", "benchmarks.bench_t9_reaction_latency",
        "R-T9: scrape-to-actuation reaction latency", _run_t9,
        budgets={"events_executed": 9_000, "metrics.applied": 300}),
    Experiment(
        "t10", "benchmarks.bench_t10_overload",
        "R-T10: overload resilience and graceful degradation", _run_t10,
        budgets={"events_executed": 55_000}),
    Experiment(
        "t11", "benchmarks.bench_t11_dataplane",
        "R-T11: data-plane fault tolerance under injected faults", _run_t11,
        budgets={"events_executed": 13_000}),
    Experiment(
        "t12", "benchmarks.bench_t12_slo",
        "R-T12: SLO attainment and burn-rate alerting", _run_t12,
        budgets={"events_executed": 21_000}),
    Experiment(
        # Named "arena" (not "t13") so the artifact lands as
        # BENCH_arena.json — the leaderboard file CI renders and uploads.
        "arena", "benchmarks.bench_t13_arena",
        "R-T13: autoscaler arena (policy x scenario scorecards)", _run_t13,
        budgets={"events_executed": 110_000}),
    Experiment(
        "trace_realism", "benchmarks.bench_t14_trace_realism",
        "R-T14: trace realism of the open-loop arrival library", _run_t14,
        budgets={"events_executed": 6_000}),
    Experiment(
        "f1", "benchmarks.bench_f1_latency_timeline",
        "R-F1: latency timeline per policy", _run_f1,
        budgets={"events_executed": 22_000}),
    Experiment(
        "f2", "benchmarks.bench_f2_convergence",
        "R-F2: convergence after a load step", _run_f2,
        budgets={"events_executed": 18_000}),
    Experiment(
        "f3", "benchmarks.bench_f3_bottleneck_shift",
        "R-F3: multi-resource bottleneck tracking", _run_f3,
        budgets={"events_executed": 12_000}),
    Experiment(
        "f4", "benchmarks.bench_f4_colocation",
        "R-F4: converged co-location utilization", _run_f4,
        budgets={"events_executed": 48_000}),
    Experiment(
        "f5", "benchmarks.bench_f5_scalability",
        "R-F5: control-plane scalability", _run_f5,
        budgets={"events_executed": 46_000}),
    Experiment(
        "f6", "benchmarks.bench_f6_locality",
        "R-F6: data-locality placement benefit", _run_f6,
        budgets={"events_executed": 55_000}),
    Experiment(
        "f7", "benchmarks.bench_f7_control_period",
        "R-F7: control-period sensitivity", _run_f7,
        budgets={"events_executed": 42_000}),
    Experiment(
        "f8", "benchmarks.bench_f8_acceleration",
        "R-F8: FPGA acceleration affinity", _run_f8,
        budgets={"events_executed": 69_000}),
    Experiment(
        "f9", "benchmarks.bench_f9_energy",
        "R-F9: consolidation energy savings", _run_f9,
        budgets={"events_executed": 65_000}),
    Experiment(
        "f10", "benchmarks.bench_f10_feedforward",
        "R-F10: feedforward load anticipation", _run_f10,
        budgets={"events_executed": 24_000}),
    Experiment(
        "f11", "benchmarks.bench_f11_checkpointing",
        "R-F11: HPC checkpointing under chaos", _run_f11,
        budgets={"events_executed": 23_000}),
    Experiment(
        "f12", "benchmarks.bench_f12_zones",
        "R-F12: zone-aware gang placement", _run_f12,
        budgets={"events_executed": 30_000}),
    Experiment(
        "micro_timeseries", "benchmarks.bench_micro_timeseries",
        "TimeSeries query micro-benchmark", _run_micro_timeseries),
    Experiment(
        "telemetry_overhead", "benchmarks.bench_telemetry_overhead",
        "Telemetry overhead gate", _run_telemetry_overhead,
        budgets={"events_executed": 13_000,
                 "metrics.calls_off": 1_300_000,
                 "metrics.calls_on": 1_360_000}),
)

REGISTRY: dict[str, Experiment] = {e.name: e for e in EXPERIMENTS}


# -- running ------------------------------------------------------------------


def _lookup(payload: dict, path: str):
    value: object = payload
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check_budgets(exp: Experiment, payload: dict) -> dict[str, dict]:
    """Evaluate the experiment's smoke budgets against a result payload."""
    verdicts = {}
    for path, limit in exp.budgets.items():
        value = _lookup(payload, path)
        verdicts[path] = {
            "value": value,
            "budget": limit,
            "ok": value is not None and value <= limit,
        }
    return verdicts


def run_experiment(exp: Experiment, mode: str) -> dict:
    """Run one experiment; returns the BENCH_<exp>.json payload."""
    start = time.perf_counter()
    out = exp.run(mode)
    wall = time.perf_counter() - start
    events = out.get("events_executed")
    payload = {
        "experiment": exp.name,
        "module": exp.module,
        "title": exp.title,
        "mode": mode,
        "seed": out["seed"],
        "wall_seconds": round(wall, 3),
        "events_executed": events,
        "events_per_sec": (
            round(events / wall) if events and wall > 0 else None),
        "metrics": out["metrics"],
        "timing": out.get("timing", {}),
    }
    if "report" in out:
        # Flight-recorder RunReport(s); split out into REPORT_<exp>.json
        # by write_result rather than bloating the BENCH payload.
        payload["report"] = out["report"]
    if mode == "smoke" and _SEED_OVERRIDE is None:
        budgets = check_budgets(exp, payload)
        payload["budgets"] = budgets
        payload["ok"] = all(v["ok"] for v in budgets.values())
    else:
        # Budgets are calibrated at the default seeds; a --seed override
        # changes the workload trajectory, so gating would be noise.
        payload["budgets"] = {}
        payload["ok"] = True
        if _SEED_OVERRIDE is not None:
            payload["seed_override"] = _SEED_OVERRIDE
    return payload


def write_result(payload: dict, outdir: str | Path) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = payload.pop("report", None)
    if report is not None:
        report_path = outdir / f"REPORT_{payload['experiment']}.json"
        report_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    path = outdir / f"BENCH_{payload['experiment']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _summary_line(payload: dict) -> str:
    events = payload["events_executed"]
    rate = payload["events_per_sec"]
    return (
        f"{payload['experiment']:>18s}  "
        f"{payload['wall_seconds']:7.2f}s  "
        f"{events if events is not None else '-':>8}  "
        f"{rate if rate is not None else '-':>8}  "
        f"{'ok' if payload['ok'] else 'BUDGET EXCEEDED'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.runner", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--smoke", action="store_true",
                       help="CI-sized variants with deterministic budget "
                            "gates (default)")
    group.add_argument("--full", action="store_true",
                       help="paper-scale grids behind EXPERIMENTS.md")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="write one BENCH_<exp>.json per experiment")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every adapter's run seed; smoke "
                             "budget gates are skipped (they are calibrated "
                             "at the default seeds — see docs/testing.md)")
    args = parser.parse_args(argv)

    global _SEED_OVERRIDE
    _SEED_OVERRIDE = args.seed

    if args.list:
        for exp in EXPERIMENTS:
            print(f"{exp.name:>18s}  {exp.title}  [{exp.module}]")
        return 0

    mode = "full" if args.full else "smoke"
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            parser.error(f"unknown experiments: {', '.join(unknown)}")
        selected = [REGISTRY[n] for n in names]
    else:
        selected = list(EXPERIMENTS)

    print(f"{'experiment':>18s}  {'wall':>8s}  {'events':>8s}  "
          f"{'ev/s':>8s}  status")
    failed = []
    for exp in selected:
        try:
            payload = run_experiment(exp, mode)
        except Exception as err:  # one broken experiment must not hide others
            payload = {
                "experiment": exp.name, "module": exp.module,
                "title": exp.title, "mode": mode, "seed": None,
                "wall_seconds": None, "events_executed": None,
                "events_per_sec": None, "metrics": {}, "timing": {},
                "budgets": {}, "ok": False,
                "error": f"{type(err).__name__}: {err}",
            }
            print(f"{exp.name:>18s}  FAILED: {payload['error']}")
        else:
            print(_summary_line(payload))
            for path, verdict in payload["budgets"].items():
                if not verdict["ok"]:
                    print(f"{'':>18s}  budget {path}: "
                          f"{verdict['value']} > {verdict['budget']}")
        if args.json:
            write_result(payload, args.json)
        if not payload["ok"]:
            failed.append(exp.name)

    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"OK: {len(selected)} experiments ({mode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
