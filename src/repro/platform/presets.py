"""Canonical SLO scenarios: calm, overload, and data-fault presets.

The flight-recorder surfaces (``repro report`` and the R-T12 benchmark)
need seeded scenarios with SLOs attached. Defining them once here —
under ``repro`` rather than ``benchmarks`` — keeps the CLI usable from
an installed distribution (the ``benchmarks/`` package only exists in a
source checkout) and guarantees both surfaces exercise bit-identical
platforms.

Every preset is a loader config (:mod:`repro.platform.loader`), built by
:func:`repro.platform.loader.platform_from_dict` like any other
scenario. :data:`OVERLOAD` and :data:`DATA_FAULT` are also the R-T10 and
R-T11 benchmark scenarios; the benchmarks change only their swept field.

* ``calm`` — the R-F5 control-plane mix at four services: diurnal load,
  no faults, no overload. Every SLO should attain 100 % and no
  burn-rate alert should fire; this is the recorder's null baseline.
* ``overload`` — the R-T10 resilient build at 4× offered load: the
  admission latch, shedding, and brownout all engage, burning the
  shed/brownout error budgets and driving at least one firing→resolved
  web-latency alert as the degradation machinery catches up.
* ``data-fault`` — the R-T11 ft build under the harsh deterministic
  fault schedule: stream-lag and repair-backlog SLOs burn while
  checkpoint replay and the repair loop recover.

Every preset enables telemetry (SLOs require it) — which stays
decision-invisible, so these runs remain bit-identical to their
telemetry-off counterparts in the source benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.evolve import EvolvePlatform
from repro.platform.loader import platform_from_dict

# -- calm: the R-F5 service mix, no faults -----------------------------------

CALM: dict = {
    "seed": 3,
    "cluster": {"nodes": 4},
    "workloads": [
        {
            "kind": "micro",
            "name": f"svc-{i}",
            "trace": {"kind": "diurnal", "base": 60, "amplitude": 40,
                      "period": 3600.0, "phase": i * 120.0},
            "demands": {"cpu_seconds": 0.008, "disk_mb": 0.1,
                        "net_mb": 0.05, "base_latency": 0.01},
            "allocation": {"cpu": 0.6, "memory": 1, "disk_bw": 15,
                           "net_bw": 15},
            "plo": {"kind": "latency", "target": 0.06, "window": 30},
        }
        for i in range(4)
    ],
}

_CALM_SLOS = [
    {
        "name": "svc_latency",
        "series": "app/svc-0/latency",
        # The PLO is 60 ms; the SLO adds headroom for the adaptive
        # policy's small diurnal-peak excursions (~62 ms), which the
        # PLO tracker owns — the SLO watches for real degradation.
        "objective": 0.07,
        "comparator": "le",
        "target": 0.99,
        "warmup": 120.0,
        "kind": "latency",
        "description": "svc-0 latency within 70 ms (PLO + margin)",
    },
]


# -- overload: the R-T10 resilient build at 4x -------------------------------

_FILLER_DEMANDS = {"cpu_seconds": 0.01, "base_latency": 0.01}

#: R-T10: a latency-sensitive web service (offered load 600 rps × the
#: swept factor; demands are 100 rps/core) on a cluster whose spare room
#: is claimed by batch and best-effort fillers. Web starts at the
#: per-pod ceiling (``max_allocation``) so overload shows up as
#: horizontal scale-out — pending pods the admission controller manages.
#: Watermarks are tuned to this topology: fillers strand ~3 cores per
#: node, so node pressure saturates near 0.8 and a 4x surge shows up
#: mostly as pending-queue depth.
OVERLOAD: dict = {
    "seed": 42,
    "cluster": {"nodes": 6, "zones": 3},
    "overload": {
        "admission": True, "backpressure": True, "brownout": True,
        "high_watermark": 0.8, "low_watermark": 0.65, "pending_high": 12,
    },
    "max_allocation": {"cpu": 4, "memory": 16, "disk_bw": 200, "net_bw": 500},
    "workloads": [
        {
            "kind": "micro",
            "name": "web",
            "trace": {"kind": "scaled",
                      "base": {"kind": "constant", "value": 600.0},
                      "factor": 4.0},
            "demands": {"cpu_seconds": 0.01, "disk_mb": 0.02,
                        "net_mb": 0.05, "base_latency": 0.008},
            "allocation": {"cpu": 4, "memory": 4, "disk_bw": 20, "net_bw": 40},
            "plo": {"kind": "latency", "target": 0.05, "window": 30},
            "replicas": 2,
        },
        # A stream-class consumer: protected like latency work, never shed.
        {
            "kind": "micro",
            "name": "stream",
            "trace": {"kind": "constant", "value": 300.0},
            "demands": _FILLER_DEMANDS,
            "allocation": {"cpu": 1.5, "memory": 2, "disk_bw": 10,
                           "net_bw": 40},
            "plo": {"kind": "latency", "target": 0.08, "window": 30},
            "labels": {"shed-class": "stream"},
        },
    ] + [
        # Unmanaged fillers sized to claim the cluster's spare room, so
        # the web service's 4× scale-out has nowhere to go unless the
        # admission controller reclaims it from the sheddable tiers.
        {
            "kind": "micro",
            "name": f"{prefix}-{i}",
            "trace": {"kind": "constant", "value": rate},
            "demands": _FILLER_DEMANDS,
            "allocation": {"cpu": 4, "memory": 4, "disk_bw": 10, "net_bw": 20},
            "replicas": 3,
            "managed": False,
            "labels": {"shed-class": shed_class},
        }
        for prefix, rate, shed_class in (
            ("batch", 200.0, "batch"),
            ("be", 150.0, "best-effort"),
        )
        for i in range(3)
    ],
}

_OVERLOAD_SLOS = [
    {
        "name": "web_latency",
        "series": "app/web/latency",
        "objective": 0.05,
        "comparator": "le",
        "target": 0.95,
        "warmup": 120.0,
        "kind": "latency",
        "description": "web latency at or under the 50 ms PLO",
    },
    {
        "name": "shed_free",
        "series": "ctrl/sched/latch_active",
        "objective": 0.0,
        "comparator": "le",
        "target": 0.9,
        "warmup": 120.0,
        "kind": "goodput",
        "description": "admission latch disengaged (no load shedding)",
    },
    {
        "name": "brownout_free",
        "series": "ctrl/sched/brownout/active",
        "objective": 0.0,
        "comparator": "le",
        "target": 0.9,
        "warmup": 120.0,
        "kind": "goodput",
        "description": "no service running in a browned-out tier",
    },
]


# -- data-fault: the R-T11 ft build under the harsh schedule -----------------

#: R-T11: a two-stage analytics job reading a replicated dataset (on the
#: first three nodes) plus a continuous stream pipeline, with data-plane
#: fault tolerance armed. Faults come from :func:`fault_cycle`.
DATA_FAULT: dict = {
    "seed": 47,
    "cluster": {"nodes": 6},
    "data_plane": {"enabled": True},
    "workloads": [
        {
            "kind": "bigdata",
            "name": "t11-job",
            "stages": [
                {"name": "scan", "work": 360.0, "input_mb": 2400.0},
                {"name": "agg", "work": 240.0, "input_mb": 2400.0 / 10,
                 "deps": ["scan"]},
            ],
            "allocation": {"cpu": 2, "memory": 4, "disk_bw": 100,
                           "net_bw": 100},
            "executors": 3,
            "dataset": {"name": "t11-data", "total_mb": 2400.0,
                        "block_mb": 100.0, "nodes": 3, "replication": 2},
        },
        {
            "kind": "stream",
            "name": "t11-stream",
            "trace": {"kind": "constant", "value": 150.0},
            "operators": [
                {"name": "parse", "cpu_seconds": 0.004},
                {"name": "agg", "cpu_seconds": 0.002},
            ],
            "allocation": {"cpu": 1.5, "memory": 2, "disk_bw": 10,
                           "net_bw": 40},
            "plo": {"kind": "latency", "target": 5.0, "window": 30},
            "workers": 2,
        },
    ],
}

#: Injected fault kinds, cycled in order. Crash before data-loss so
#: mid-job node loss (the lineage trigger) lands while the analytics job
#: is still running.
FAULT_CYCLE = ("executor-kill", "crash", "data-loss", "straggler")
#: How long a crashed node stays dark / a straggler stays slow. Executor
#: kills and data loss have no heal; they take the crash window.
_FAULT_WINDOW = {"crash": 60.0, "straggler": 120.0}
_STRAGGLER_FACTOR = 0.5

_DATAFAULT_SLOS = [
    {
        "name": "stream_lag",
        "series": "ctrl/dp/stream/lag_events",
        # A checkpoint restart replays ~750-1000 events before the
        # backlog drains; anything over ~3 s of arrivals counts as burn.
        "objective": 500.0,
        "comparator": "le",
        "target": 0.9,
        "warmup": 120.0,
        "kind": "lag",
        "description": "stream backlog under ~3 s of arrivals (500 events)",
    },
    {
        "name": "repair_backlog",
        "series": "ctrl/store/repair_backlog",
        "objective": 0.0,
        "comparator": "le",
        "target": 0.9,
        "warmup": 120.0,
        "kind": "repair_backlog",
        "description": "no under-replicated objects awaiting repair",
    },
]


def fault_cycle(period: float, duration: float) -> list[dict]:
    """The R-T11 deterministic fault schedule as loader ``faults``.

    One fault every ``period`` seconds from t=60 s, cycling
    :data:`FAULT_CYCLE`, until one crash outage before ``duration``.
    Fault *i* targets candidate *i* of its domain's sorted candidate
    list — a pure function of the scenario, no RNG draws, so every build
    sees the exact same faults.
    """
    faults: list[dict] = []
    at = 60.0
    while at < duration - _FAULT_WINDOW["crash"]:
        domain = FAULT_CYCLE[len(faults) % len(FAULT_CYCLE)]
        fault = {
            "domain": domain,
            "at": at,
            "duration": _FAULT_WINDOW.get(domain, _FAULT_WINDOW["crash"]),
            "target": len(faults),
        }
        if domain == "straggler":
            fault["factor"] = _STRAGGLER_FACTOR
        faults.append(fault)
        at += period
    return faults


@dataclass(frozen=True)
class ScenarioPreset:
    """One named scenario: a loader config plus its default horizon."""

    name: str
    description: str
    duration: float
    seed: int
    #: Loader config with SLOs attached; ``duration``/``seed`` are set
    #: per build.
    config: dict
    #: Seconds between R-T11 cycle faults (:func:`fault_cycle`), which
    #: depend on the horizon; None = no fault schedule.
    fault_period: float | None = None


def _preset(
    name: str, description: str, duration: float, base: dict, slos: list,
    fault_period: float | None = None,
) -> ScenarioPreset:
    return ScenarioPreset(
        name=name,
        description=description,
        duration=duration,
        seed=base["seed"],
        config={**base, "telemetry": True, "slos": slos},
        fault_period=fault_period,
    )


PRESETS: dict[str, ScenarioPreset] = {
    preset.name: preset
    for preset in (
        _preset("calm", "R-F5 service mix, no faults: 100% attainment "
                "baseline", 1800.0, CALM, _CALM_SLOS),
        _preset("overload", "R-T10 resilient build at 4x load: "
                "shed/brownout burn", 900.0, OVERLOAD, _OVERLOAD_SLOS),
        _preset("data-fault", "R-T11 ft build, harsh fault schedule: "
                "lag/repair burn", 900.0, DATA_FAULT, _DATAFAULT_SLOS,
                fault_period=120.0),
    )
}


def build_scenario(
    name: str,
    *,
    duration: float | None = None,
    seed: int | None = None,
) -> tuple[EvolvePlatform, float]:
    """Build a preset's platform (SLOs attached, faults scheduled).

    Returns ``(platform, duration)`` where ``duration`` is the preset's
    default horizon unless overridden. The platform has not been run.
    """
    try:
        preset = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (choose from "
            f"{', '.join(sorted(PRESETS))})"
        ) from None
    horizon = preset.duration if duration is None else duration
    config = {
        **preset.config,
        "duration": horizon,
        "seed": preset.seed if seed is None else seed,
    }
    if preset.fault_period is not None:
        config["faults"] = fault_cycle(preset.fault_period, horizon)
    return platform_from_dict(config)
