"""T14: trace realism — the arrival library reproduces what it claims.

The open-loop arrival library (:mod:`repro.workloads.arrivals`,
:mod:`repro.workloads.traceio`) makes quantitative promises: a
non-homogeneous Poisson process delivers the rate curve's integral with
unit-CV exponential gaps, an MMPP over-disperses the same mean load, a
Pareto size mark has the tail index it was built with, the deterministic
replayer emits exactly the integral's worth of events with a stable
fingerprint, a correlated surge is active for its configured duty
cycle, and the per-tick ``count()`` the simulation draws sums to the
same integral with Poisson dispersion. T14 measures each promise on
seeded draws, then closes the loop end-to-end: a platform-hosted
microservice driven by marked MMPP arrivals must offer (over the whole
run) the load its trace prescribes, and two same-seed sweeps must agree
bit-for-bit.

Run standalone with ``python -m benchmarks.bench_t14_trace_realism``
(``--smoke`` for the CI-sized variant).
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.platform.config import ClusterSpec, PlatformConfig
from repro.platform.evolve import EvolvePlatform
from repro.workloads.arrivals import (
    CorrelatedSurge,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
    trace_integral,
)
from repro.workloads.microservice import ServiceDemands
from repro.workloads.plo import LatencyPLO
from repro.workloads.traceio import TraceReplayer
from repro.workloads.traces import ConstantTrace, DiurnalTrace, StepTrace

SEED = 414
#: Statistical horizons. Smoke keeps the same assertions at roughly a
#: third of the sample mass; the tolerances below are calibrated for the
#: *smoke* sizes, so full mode only tightens the effective error bars.
FULL = {"stat_horizon": 10_800.0, "pareto_n": 12_000, "platform": 2_700.0}
SMOKE = {"stat_horizon": 3_600.0, "pareto_n": 4_000, "platform": 1_800.0}

PARETO_ALPHA = 1.6


def _hill_alpha(samples: np.ndarray, *, top_frac: float = 0.1) -> float:
    """Hill estimator of the Pareto tail index from the top ``top_frac``."""
    order = np.sort(samples)[::-1]
    k = max(10, int(len(order) * top_frac))
    tail = order[: k + 1]
    return float(1.0 / np.mean(np.log(tail[:-1] / tail[-1])))


def _interarrival_cv(times: np.ndarray) -> float:
    gaps = np.diff(times)
    return float(np.std(gaps) / np.mean(gaps))


def _rng(seed: int, name: str) -> np.random.Generator:
    # Bench cells draw from standalone streams (no platform attached);
    # seed + stable per-cell salt keeps them independent and replayable.
    salt = sum(ord(c) for c in name)
    return np.random.default_rng((seed, salt))


def _poisson_cell(sizes: dict) -> dict:
    horizon = sizes["stat_horizon"]
    trace = DiurnalTrace(base=100.0, amplitude=60.0, period=horizon / 3.0)
    events = PoissonArrivals(trace, _rng(SEED, "poisson")).window(0.0, horizon)
    expected = trace_integral(trace, 0.0, horizon)
    flat = ConstantTrace(50.0)
    flat_events = PoissonArrivals(flat, _rng(SEED, "poisson-flat")).window(
        0.0, horizon
    )
    return {
        "events": int(len(events)),
        "expected": expected,
        "rate_rel_error": abs(len(events) - expected) / expected,
        "flat_cv": _interarrival_cv(flat_events),
    }


def _mmpp_cell(sizes: dict) -> dict:
    horizon = sizes["stat_horizon"]
    flat = ConstantTrace(50.0)
    proc = MMPPArrivals(flat, _rng(SEED, "mmpp"), horizon=horizon)
    events = proc.window(0.0, horizon)
    factors = {proc.factor_at(t) for t in np.arange(0.0, horizon, 5.0)}
    return {
        "events": int(len(events)),
        "cv": _interarrival_cv(events),
        "states_visited": int(len(factors)),
    }


def _count_cell(sizes: dict) -> dict:
    """``count()`` over contiguous 1 s windows — the simulation's query
    pattern — against the integral, per driving process."""
    horizon = sizes["stat_horizon"]
    flat = ConstantTrace(50.0)
    processes = {
        "constant": PoissonArrivals(flat, _rng(SEED, "count-constant")),
        "diurnal": PoissonArrivals(
            DiurnalTrace(base=100.0, amplitude=60.0, period=horizon / 3.0),
            _rng(SEED, "count-diurnal"),
        ),
        "step": PoissonArrivals(
            StepTrace([(horizon / 4.0, 120.0), (horizon / 2.0, 30.0)],
                      initial=60.0),
            _rng(SEED, "count-step"),
        ),
        "mmpp": MMPPArrivals(flat, _rng(SEED, "count-mmpp"), horizon=horizon),
    }
    cell = {}
    for name, proc in processes.items():
        counts = np.array(
            [proc.count(t, t + 1.0) for t in np.arange(0.0, horizon)]
        )
        expected = trace_integral(
            proc if name == "mmpp" else proc.trace, 0.0, horizon
        )
        cell[name] = {
            "total": int(counts.sum()),
            "expected": expected,
            "z": float((counts.sum() - expected) / math.sqrt(expected)),
        }
        if name == "constant":
            cell[name]["dispersion"] = float(counts.var() / counts.mean())
    return cell


def _pareto_cell(sizes: dict) -> dict:
    marks = ParetoSizes(alpha=PARETO_ALPHA)
    draws = marks.sample(_rng(SEED, "pareto"), sizes["pareto_n"])
    return {
        "alpha_true": PARETO_ALPHA,
        "alpha_hill": _hill_alpha(draws),
        "mean_rel_error": abs(float(np.mean(draws)) - marks.mean())
        / marks.mean(),
    }


def _replay_cell(sizes: dict) -> dict:
    horizon = sizes["stat_horizon"]
    trace = DiurnalTrace(base=40.0, amplitude=25.0, period=horizon / 2.0)
    replayer = TraceReplayer(trace)
    events = replayer.events(0.0, horizon)
    expected = trace_integral(trace, 0.0, horizon)
    twin = TraceReplayer(trace).fingerprint(0.0, horizon)
    return {
        "events": int(len(events)),
        "expected": expected,
        "count_error": abs(len(events) - expected),
        "fingerprint": replayer.fingerprint(0.0, horizon),
        "fingerprint_stable": replayer.fingerprint(0.0, horizon) == twin,
    }


def _surge_cell(sizes: dict) -> dict:
    horizon = sizes["stat_horizon"] * 4
    surge = CorrelatedSurge(
        _rng(SEED, "surge"),
        horizon=horizon,
        mean_interval=600.0,
        duration=90.0,
    )
    grid = np.arange(0.0, horizon, 5.0)
    active = float(np.mean([surge.active(t) for t in grid]))
    # Union length of the drawn windows (they may overlap): the duty
    # cycle active() must realise, independent of sampling noise.
    union = 0.0
    cursor = 0.0
    for start, end in surge.windows():
        lo = max(start, cursor)
        if end > lo:
            union += end - lo
            cursor = end
    return {
        "windows": int(len(surge.windows())),
        "active_frac": active,
        "expected_frac": union / horizon,
    }


def _platform_cell(sizes: dict) -> dict:
    """End-to-end: marked MMPP arrivals drive a platform microservice."""
    horizon = sizes["platform"]
    platform = EvolvePlatform(
        cluster_spec=ClusterSpec(node_count=4),
        config=PlatformConfig(seed=SEED),
        scheduler="converged",
        policy="adaptive",
    )
    trace = DiurnalTrace(base=120.0, amplitude=70.0, period=horizon / 2.0)
    mmpp = MMPPArrivals(
        trace,
        platform.rng.stream("workload/frontend/arrivals"),
        horizon=horizon,
    )
    arrivals = MarkedArrivals(
        mmpp,
        ParetoSizes(alpha=PARETO_ALPHA),
        platform.rng.stream("workload/frontend/sizes"),
    )
    platform.deploy_microservice(
        "frontend",
        trace=trace,
        arrivals=arrivals,
        demands=ServiceDemands(cpu_seconds=0.005, base_latency=0.005),
        allocation=ResourceVector(cpu=1.2, memory=2, disk_bw=10, net_bw=30),
        plo=LatencyPLO(0.08, window=30),
    )
    platform.run(horizon)
    times, offered = platform.collector.series("app/frontend/offered").to_lists()
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    offered_total = float(sum(offered)) * dt
    # The open-loop reference is the *modulated* rate (MMPP state path
    # included), not the base curve — realism means the service offered
    # exactly what the stochastic process prescribed, up to Poisson
    # noise and edge-window truncation.
    expected = trace_integral(mmpp, 0.0, horizon)
    _, sf = platform.collector.series("app/frontend/size_factor").to_lists()
    return {
        "events": int(platform.engine.events_executed),
        "offered_total": offered_total,
        "expected_total": expected,
        "offered_rel_error": abs(offered_total - expected) / expected,
        "mean_size_factor": float(np.mean(sf)) if sf else 0.0,
    }


def run_case(*, mode: str = "smoke") -> dict:
    sizes = SMOKE if mode == "smoke" else FULL
    cells = {
        "poisson": _poisson_cell(sizes),
        "mmpp": _mmpp_cell(sizes),
        "count": _count_cell(sizes),
        "pareto": _pareto_cell(sizes),
        "replay": _replay_cell(sizes),
        "surge": _surge_cell(sizes),
        "platform": _platform_cell(sizes),
    }
    return {"seed": SEED, "mode": mode, "cells": cells}


def check_case(case: dict) -> None:
    cells = case["cells"]

    # NHPP thinning delivers the rate curve's integral (hundreds of
    # thousands of events even in smoke, so 5% is a generous band) and
    # its constant-rate gaps are exponential (CV of 1).
    poisson = cells["poisson"]
    assert poisson["rate_rel_error"] < 0.05, (
        f"poisson mean rate off by {poisson['rate_rel_error']:.2%}"
    )
    assert abs(poisson["flat_cv"] - 1.0) < 0.1, (
        f"poisson gaps not exponential: CV={poisson['flat_cv']:.3f}"
    )

    # The MMPP visits multiple modulation states and over-disperses:
    # its CV must exceed Poisson's by a clear margin.
    mmpp = cells["mmpp"]
    assert mmpp["states_visited"] >= 2, "MMPP never switched state"
    assert mmpp["cv"] > 1.15, f"MMPP not over-dispersed: CV={mmpp['cv']:.3f}"

    # Per-tick counts sum to the integral within ±4σ for every driving
    # process, and constant-rate counts are Poisson (variance = mean).
    for name, count in cells["count"].items():
        assert abs(count["z"]) < 4.0, (
            f"count/{name} total {count['total']} is {count['z']:+.2f}σ "
            f"from the integral {count['expected']:.0f}"
        )
    dispersion = cells["count"]["constant"]["dispersion"]
    assert abs(dispersion - 1.0) < 0.1, (
        f"constant-rate counts not Poisson: var/mean={dispersion:.3f}"
    )

    # Hill's estimator recovers the configured tail index.
    pareto = cells["pareto"]
    assert abs(pareto["alpha_hill"] - pareto["alpha_true"]) < 0.25, (
        f"tail index drifted: hill={pareto['alpha_hill']:.3f}"
    )

    # The deterministic replayer is exact (one event per unit of
    # integrated rate, ±1 for the open right edge) and reproducible.
    replay = cells["replay"]
    assert replay["count_error"] <= 1.5, (
        f"replayer count error {replay['count_error']:.3f}"
    )
    assert replay["fingerprint_stable"], "replayer fingerprint unstable"

    # active() realises exactly the duty cycle its drawn windows imply
    # (within grid resolution), and the schedule is non-degenerate.
    surge = cells["surge"]
    assert surge["windows"] >= 2, "surge schedule degenerate"
    assert abs(surge["active_frac"] - surge["expected_frac"]) < 0.01, (
        f"surge duty {surge['active_frac']:.3f} vs "
        f"{surge['expected_frac']:.3f}"
    )

    # End to end: what the platform's microservice *offered* over the
    # run matches the trace integral (open-loop arrivals, so the only
    # slack is Poisson noise plus edge-window truncation), and the
    # heavy-tail marks actually modulated per-request work.
    plat = cells["platform"]
    assert plat["offered_rel_error"] < 0.08, (
        f"platform offered load off by {plat['offered_rel_error']:.2%}"
    )
    assert plat["mean_size_factor"] > 0.0, "size-factor gauge never exported"
    assert math.isfinite(plat["mean_size_factor"])


def format_case(case: dict) -> list[str]:
    cells = case["cells"]
    return [
        "T14 trace realism",
        (
            f"  poisson: {cells['poisson']['events']} events "
            f"(err {cells['poisson']['rate_rel_error']:.2%}, "
            f"flat CV {cells['poisson']['flat_cv']:.3f})"
        ),
        (
            f"  mmpp: CV {cells['mmpp']['cv']:.3f} over "
            f"{cells['mmpp']['states_visited']} states"
        ),
        "  count: "
        + ", ".join(
            f"{name} {c['z']:+.2f}σ" for name, c in cells["count"].items()
        )
        + f" (constant var/mean {cells['count']['constant']['dispersion']:.3f})",
        (
            f"  pareto: hill alpha {cells['pareto']['alpha_hill']:.3f} "
            f"(true {cells['pareto']['alpha_true']})"
        ),
        (
            f"  replay: {cells['replay']['events']} events "
            f"(count err {cells['replay']['count_error']:.3f}) "
            f"fp {cells['replay']['fingerprint'][:12]}"
        ),
        (
            f"  surge: duty {cells['surge']['active_frac']:.3f} "
            f"(expected {cells['surge']['expected_frac']:.3f})"
        ),
        (
            f"  platform: offered err "
            f"{cells['platform']['offered_rel_error']:.2%}, "
            f"mean size factor "
            f"{cells['platform']['mean_size_factor']:.3f}, "
            f"{cells['platform']['events']} events"
        ),
    ]


def test_trace_realism(report) -> None:
    case = run_case()
    report(*format_case(case))
    check_case(case)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized variant: shorter horizons, same assertions",
    )
    args = parser.parse_args(argv)
    case = run_case(mode="smoke" if args.smoke else "full")
    for line in format_case(case):
        print(line)
    check_case(case)
    print("T14 OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
