"""Unified benchmark runner: every experiment, one registry, one gate.

Each entry in :data:`EXPERIMENTS` names one ``bench_*.py`` module, the
only definition of its experiment. A module exposes

* ``run_case(mode, seed)`` — runs the smoke or full grid and returns a
  dict with ``seed`` (the seed actually used), ``events_executed`` (int
  or None), ``metrics`` (deterministic values only), optional ``timing``
  (wall-clock-derived values) and ``report``, plus whatever its check
  and table need;
* ``check_case(case)`` — the experiment's shape assertions;
* ``format_case(case)`` — its table, as printable lines.

The two modes:

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
    python -m benchmarks.runner --full --only t7    # paper-scale R-T7
    python -m benchmarks.runner --list
"""

from __future__ import annotations

import argparse
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Mapping

from benchmarks import (
    bench_f1_latency_timeline,
    bench_f2_convergence,
    bench_f3_bottleneck_shift,
    bench_f4_colocation,
    bench_f5_scalability,
    bench_f6_locality,
    bench_f7_control_period,
    bench_f8_acceleration,
    bench_f9_energy,
    bench_f10_feedforward,
    bench_f11_checkpointing,
    bench_f12_zones,
    bench_micro_timeseries,
    bench_t1_plo_violations,
    bench_t2_utilization,
    bench_t3_ablation,
    bench_t4_converged_sched,
    bench_t5_cost,
    bench_t6_seed_robustness,
    bench_t7_fault_matrix,
    bench_t8_control_plane_outage,
    bench_t9_reaction_latency,
    bench_t10_overload,
    bench_t11_dataplane,
    bench_t12_slo,
    bench_t13_arena,
    bench_t14_trace_realism,
    bench_telemetry_overhead,
)


@dataclass(frozen=True)
class Experiment:
    """One registered benchmark.

    ``module`` is the bench module defining it (``run_case`` /
    ``check_case`` / ``format_case``, see the module docstring).
    ``budgets`` maps dotted result paths (``events_executed`` or
    ``metrics.<name>``) to smoke-mode upper bounds.
    """

    name: str
    module: ModuleType
    title: str
    budgets: Mapping[str, int] = field(default_factory=dict)


# -- registry -----------------------------------------------------------------
#
# Budgets are deterministic upper bounds for SMOKE mode, set ~25% above
# the counts measured when the budget was recorded (see
# docs/performance.md for the procedure). Identical trees produce
# identical counts, so a breach is always a real workload change in the
# control plane — never runner noise.

EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "t1", bench_t1_plo_violations,
        "R-T1: PLO violations per policy",
        budgets={"events_executed": 23_800}),
    Experiment(
        "t2", bench_t2_utilization,
        "R-T2: cluster utilization per policy",
        budgets={"events_executed": 24_300}),
    Experiment(
        "t3", bench_t3_ablation,
        "R-T3: controller ablations",
        budgets={"events_executed": 35_000}),
    Experiment(
        "t4", bench_t4_converged_sched,
        "R-T4: converged vs siloed vs kube scheduling",
        budgets={"events_executed": 18_700}),
    Experiment(
        "t5", bench_t5_cost,
        "R-T5: allocation cost per policy",
        budgets={"events_executed": 24_500}),
    Experiment(
        "t6", bench_t6_seed_robustness,
        "R-T6: seed robustness of the headline",
        budgets={"events_executed": 46_900}),
    Experiment(
        "t7", bench_t7_fault_matrix,
        "R-T7: fault matrix (fault class x workload world)",
        budgets={"events_executed": 8_800}),
    Experiment(
        "t8", bench_t8_control_plane_outage,
        "R-T8: control-plane outage and failover",
        budgets={"events_executed": 18_900}),
    Experiment(
        "t9", bench_t9_reaction_latency,
        "R-T9: scrape-to-actuation reaction latency",
        budgets={"events_executed": 9_000, "metrics.applied": 300}),
    Experiment(
        "t10", bench_t10_overload,
        "R-T10: overload resilience and graceful degradation",
        budgets={"events_executed": 15_900}),
    Experiment(
        "t11", bench_t11_dataplane,
        "R-T11: data-plane fault tolerance under injected faults",
        budgets={"events_executed": 12_500}),
    Experiment(
        "t12", bench_t12_slo,
        "R-T12: SLO attainment and burn-rate alerting",
        budgets={"events_executed": 9_700}),
    Experiment(
        # Named "arena" (not "t13") so the artifact lands as
        # BENCH_arena.json — the leaderboard file CI renders and uploads.
        "arena", bench_t13_arena,
        "R-T13: autoscaler arena (policy x scenario scorecards)",
        budgets={"events_executed": 71_900}),
    Experiment(
        "trace_realism", bench_t14_trace_realism,
        "R-T14: trace realism of the open-loop arrival library",
        budgets={"events_executed": 6_000}),
    Experiment(
        "f1", bench_f1_latency_timeline,
        "R-F1: latency timeline per policy",
        budgets={"events_executed": 12_800}),
    Experiment(
        "f2", bench_f2_convergence,
        "R-F2: convergence after a load step",
        budgets={"events_executed": 18_000}),
    Experiment(
        "f3", bench_f3_bottleneck_shift,
        "R-F3: multi-resource bottleneck tracking",
        budgets={"events_executed": 12_000}),
    Experiment(
        "f4", bench_f4_colocation,
        "R-F4: converged co-location utilization",
        budgets={"events_executed": 25_500}),
    Experiment(
        "f5", bench_f5_scalability,
        "R-F5: control-plane scalability",
        budgets={"events_executed": 14_000}),
    Experiment(
        "f6", bench_f6_locality,
        "R-F6: data-locality placement benefit",
        budgets={"events_executed": 55_000}),
    Experiment(
        "f7", bench_f7_control_period,
        "R-F7: control-period sensitivity",
        budgets={"events_executed": 23_800}),
    Experiment(
        "f8", bench_f8_acceleration,
        "R-F8: FPGA acceleration affinity",
        budgets={"events_executed": 68_100}),
    Experiment(
        "f9", bench_f9_energy,
        "R-F9: consolidation energy savings",
        budgets={"events_executed": 37_900}),
    Experiment(
        "f10", bench_f10_feedforward,
        "R-F10: feedforward load anticipation",
        budgets={"events_executed": 24_000}),
    Experiment(
        "f11", bench_f11_checkpointing,
        "R-F11: HPC checkpointing under chaos",
        budgets={"events_executed": 23_000}),
    Experiment(
        "f12", bench_f12_zones,
        "R-F12: zone-aware gang placement",
        budgets={"events_executed": 30_000}),
    Experiment(
        "micro_timeseries", bench_micro_timeseries,
        "TimeSeries query micro-benchmark"),
    Experiment(
        "telemetry_overhead", bench_telemetry_overhead,
        "Telemetry overhead gate",
        budgets={"events_executed": 6_200,
                 "metrics.calls_off": 799_000,
                 "metrics.calls_on": 837_000}),
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


def _execute(exp: Experiment, mode: str, seed: int | None) -> tuple[dict, dict]:
    """Run and check one experiment: (BENCH_<exp>.json payload, raw case)."""
    start = time.perf_counter()
    case = exp.module.run_case(mode, seed)
    wall = time.perf_counter() - start
    if seed is None:
        # Shape checks, like budgets, are calibrated at the default seeds.
        exp.module.check_case(case)
    events = case["events_executed"]
    payload = {
        "experiment": exp.name,
        "module": exp.module.__name__,
        "title": exp.title,
        "mode": mode,
        "seed": case["seed"],
        "wall_seconds": round(wall, 3),
        "events_executed": events,
        "events_per_sec": (
            round(events / wall) if events and wall > 0 else None),
        "metrics": case["metrics"],
        "timing": case.get("timing", {}),
    }
    if "report" in case:
        # Flight-recorder RunReport(s); split out into REPORT_<exp>.json
        # by write_result rather than bloating the BENCH payload.
        payload["report"] = case["report"]
    if mode == "smoke" and seed is None:
        budgets = check_budgets(exp, payload)
        payload["budgets"] = budgets
        payload["ok"] = all(v["ok"] for v in budgets.values())
    else:
        # Budgets are calibrated at the default seeds; a --seed override
        # changes the workload trajectory, so gating would be noise.
        payload["budgets"] = {}
        payload["ok"] = True
        if seed is not None:
            payload["seed_override"] = seed
    return payload, case


def run_experiment(exp: Experiment, mode: str, seed: int | None = None) -> dict:
    """Run one experiment; returns the BENCH_<exp>.json payload.

    ``seed=None`` runs the module's default seed(s) and applies its shape
    checks (and, in smoke mode, its budgets); an explicit seed runs the
    same grid at that seed with neither.
    """
    return _execute(exp, mode, seed)[0]


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
                        help="run every experiment at this seed; shape "
                             "checks and smoke budget gates are skipped "
                             "(they are calibrated at the default seeds — "
                             "see docs/testing.md)")
    args = parser.parse_args(argv)

    if args.list:
        for exp in EXPERIMENTS:
            print(f"{exp.name:>18s}  {exp.title}  [{exp.module.__name__}]")
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
            payload, case = _execute(exp, mode, args.seed)
            table = exp.module.format_case(case)
        except Exception as err:  # one broken experiment must not hide others
            where = traceback.extract_tb(err.__traceback__)[-1]
            payload = {
                "experiment": exp.name, "module": exp.module.__name__,
                "title": exp.title, "mode": mode, "seed": None,
                "wall_seconds": None, "events_executed": None,
                "events_per_sec": None, "metrics": {}, "timing": {},
                "budgets": {}, "ok": False,
                "error": f"{type(err).__name__}: {err} "
                         f"({Path(where.filename).name}:{where.lineno})",
            }
            print(f"{exp.name:>18s}  FAILED: {payload['error']}")
        else:
            print(_summary_line(payload))
            for path, verdict in payload["budgets"].items():
                if not verdict["ok"]:
                    print(f"{'':>18s}  budget {path}: "
                          f"{verdict['value']} > {verdict['budget']}")
            for line in table:
                print(line)
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
