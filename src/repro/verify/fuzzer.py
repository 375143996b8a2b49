"""Seeded scenario fuzzer with shrinking replay.

The fuzzer composes random-but-reproducible scenarios — a workload mix
(micro/stream/bigdata/hpc), an explicit chaos schedule, and a controller
config — runs each as a short platform episode with the full
:mod:`repro.verify.invariants` registry attached at ``every=1``, and on
any violation **shrinks** the scenario to a minimal failing form before
writing a replayable JSON repro file.

Determinism contract: a scenario is *entirely* described by its
:class:`ScenarioSpec`. Scenario generation draws only from
``RngRegistry(run_seed).stream("fuzz/scenario/<index>")``, and the
episode itself draws only from the platform's own registry seeded with
``spec.seed`` — so ``repro fuzz --seed 7`` produces the same episodes on
every machine, and a repro file replays the same run that failed (see
docs/testing.md for the seed-derivation scheme).

Every build goes through the scenario loader:
:meth:`ScenarioSpec.to_config` turns a spec into plain loader data and
:func:`build_platform` hands it to
:func:`repro.platform.loader.platform_from_dict`, so a fuzz or pack
scenario is also a config ``repro run`` can take.

Chaos is scheduled *explicitly* (the loader's ``faults`` list: strike
at ``at``, heal at ``at + duration``) rather than through the Poisson
:class:`~repro.cluster.chaos.ChaosMonkey`, so dropping one chaos event
during shrinking does not shift the timing of the others. Targets are
stored as integers and resolved against the candidate list at strike
time (``candidates[target % len(candidates)]``), which keeps a spec
valid under shrinking even when earlier faults changed which nodes are
healthy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.cluster.events import PodScheduled
from repro.platform.evolve import EvolvePlatform
from repro.platform.loader import platform_from_dict
from repro.sim.rng import RngRegistry
from repro.verify.invariants import Invariant, InvariantChecker, Violation

#: Bump when the repro JSON layout changes incompatibly. Version 2 adds
#: ``zones`` / ``overload`` spec fields and the ``zone-outage`` /
#: ``overload-surge`` chaos domains; version 3 adds the ``ft`` spec
#: field (arming data-plane fault tolerance) and the ``executor-kill``
#: / ``straggler`` / ``data-loss`` chaos domains; version 4 adds the
#: trace-model fields ``arrival_model`` (open-loop Poisson/MMPP
#: arrivals), ``heavy_tail`` (Pareto request-size marks), and ``surge``
#: (the correlated multi-app surge coordinator), plus an optional
#: ``samples`` micro param replaying a recorded rate curve. Older files
#: still load (the new fields default to the old behaviour), and each
#: version draws its new scenario knobs strictly *after* every
#: prior-version draw, so e.g. trace-model-less episodes are
#: bit-identical to the v3 fuzzer's.
FORMAT_VERSION = 4
SUPPORTED_FORMATS = (1, 2, 3, 4)

#: v4 open-loop arrival models; ``"rate"`` is the v3-and-earlier
#: rate-curve sampling.
ARRIVAL_MODELS = ("rate", "poisson", "mmpp")

WORKLOAD_KINDS = ("micro", "stream", "bigdata", "hpc")
NODE_DOMAINS = ("crash", "degrade")
CONTROLLER_DOMAINS = ("controller-crash", "partition")
ZONE_DOMAINS = ("zone-outage",)
OVERLOAD_DOMAINS = ("overload-surge",)
#: Data-plane fault domains (v3); only drawn when the spec arms ``ft``
#: so the un-armed prefix of a run stays identical to v2.
DATA_DOMAINS = ("executor-kill", "straggler", "data-loss")

#: Shrinking never reduces the horizon below this (the control loops
#: need a few intervals to do anything at all).
MIN_HORIZON = 60.0


# -- scenario specs ------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload in a scenario; ``params`` is kind-specific JSON."""

    kind: str
    name: str
    params: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(
            kind=data["kind"], name=data["name"], params=dict(data["params"])
        )


@dataclass(frozen=True)
class ChaosEvent:
    """One explicit fault: strike at ``at``, heal at ``at + duration``.

    ``target`` is an abstract index resolved against the candidate list
    at strike time, so it stays meaningful as scenarios shrink.
    """

    domain: str
    at: float
    duration: float
    target: int

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "at": self.at,
            "duration": self.duration,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEvent":
        return cls(
            domain=data["domain"],
            at=float(data["at"]),
            duration=float(data["duration"]),
            target=int(data["target"]),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable scenario."""

    seed: int
    horizon: float
    nodes: int
    controller_replicas: int = 1
    scheduler: str = "converged"
    workloads: tuple[WorkloadSpec, ...] = ()
    chaos: tuple[ChaosEvent, ...] = ()
    #: Availability zones (v2); 1 = flat cluster, the v1 behaviour.
    zones: int = 1
    #: Arm the overload-resilience stack (admission control,
    #: backpressure, brownout) for this episode (v2; off in v1).
    overload: bool = False
    #: Arm data-plane fault tolerance (task-granular big-data engine,
    #: stream checkpoints, storage repair) for this episode (v3).
    ft: bool = False
    #: Open-loop arrival model for microservices (v4): ``"rate"`` (the
    #: v3 rate-curve sampling), ``"poisson"`` (NHPP), or ``"mmpp"``.
    arrival_model: str = "rate"
    #: Pareto request-size marks on microservice arrivals (v4; only
    #: meaningful with an open-loop ``arrival_model``).
    heavy_tail: bool = False
    #: Couple microservice load through the CorrelatedSurge coordinator
    #: (v4): one shared surge schedule hits every service at once.
    surge: bool = False

    def __post_init__(self) -> None:
        if self.arrival_model not in ARRIVAL_MODELS:
            raise ValueError(
                f"arrival_model must be one of {ARRIVAL_MODELS}, "
                f"got {self.arrival_model!r}"
            )

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "seed": self.seed,
            "horizon": self.horizon,
            "nodes": self.nodes,
            "controller_replicas": self.controller_replicas,
            "scheduler": self.scheduler,
            "workloads": [w.to_dict() for w in self.workloads],
            "chaos": [c.to_dict() for c in self.chaos],
            "zones": self.zones,
            "overload": self.overload,
            "ft": self.ft,
            "arrival_model": self.arrival_model,
            "heavy_tail": self.heavy_tail,
            "surge": self.surge,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        version = data.get("format", FORMAT_VERSION)
        if version not in SUPPORTED_FORMATS:
            raise ValueError(
                f"repro format {version} not supported "
                f"(this build reads formats {SUPPORTED_FORMATS})"
            )
        return cls(
            seed=int(data["seed"]),
            horizon=float(data["horizon"]),
            nodes=int(data["nodes"]),
            controller_replicas=int(data.get("controller_replicas", 1)),
            scheduler=data.get("scheduler", "converged"),
            workloads=tuple(
                WorkloadSpec.from_dict(w) for w in data.get("workloads", ())
            ),
            chaos=tuple(
                ChaosEvent.from_dict(c) for c in data.get("chaos", ())
            ),
            zones=int(data.get("zones", 1)),
            overload=bool(data.get("overload", False)),
            ft=bool(data.get("ft", False)),
            arrival_model=str(data.get("arrival_model", "rate")),
            heavy_tail=bool(data.get("heavy_tail", False)),
            surge=bool(data.get("surge", False)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_config(self) -> dict:
        """The scenario as a loader config: plain JSON-able data for
        :func:`repro.platform.loader.platform_from_dict`, the one build
        path (``repro run`` takes the same dict from a file)."""
        config: dict = {
            "seed": self.seed,
            "duration": self.horizon,
            "cluster": {"nodes": self.nodes, "zones": self.zones},
            "scheduler": self.scheduler,
            "controller_replicas": self.controller_replicas,
            "workloads": [_workload_config(w, self) for w in self.workloads],
            "faults": [c.to_dict() for c in self.chaos],
        }
        if self.overload:
            config["overload"] = {
                "admission": True, "backpressure": True, "brownout": True,
            }
        if self.ft:
            config["data_plane"] = {"enabled": True}
        if self.surge:
            config["surge"] = {
                "mean_interval": max(120.0, self.horizon / 3.0),
                "duration": 60.0,
                "factor": 4.0,
                "max_lag": 15.0,
            }
        return config

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


# -- scenario generation -------------------------------------------------------


def _draw_workload(kind: str, index: int, rng) -> WorkloadSpec:
    name = f"{kind}-{index}"
    if kind == "micro":
        base = round(float(rng.uniform(50.0, 250.0)), 1)
        params = {
            "base": base,
            "amplitude": round(base * float(rng.uniform(0.2, 0.8)), 1),
            "period": 600.0,
            "cpu_seconds": round(float(rng.uniform(0.002, 0.01)), 4),
            "cpu": round(float(rng.uniform(0.5, 2.0)), 2),
            "memory": 2.0,
            "plo": 0.05,
            "replicas": int(rng.integers(1, 3)),
        }
    elif kind == "stream":
        params = {
            "rate": round(float(rng.uniform(100.0, 400.0)), 1),
            "cpu_seconds": round(float(rng.uniform(0.001, 0.004)), 4),
            "cpu": round(float(rng.uniform(0.5, 1.5)), 2),
            "memory": 2.0,
            "plo": 5.0,
            "workers": int(rng.integers(1, 3)),
        }
    elif kind == "bigdata":
        params = {
            "scan_cpu": round(float(rng.uniform(100.0, 400.0)), 1),
            "agg_cpu": round(float(rng.uniform(100.0, 400.0)), 1),
            "input_mb": round(float(rng.uniform(1000.0, 8000.0)), 1),
            "executors": int(rng.integers(2, 4)),
            "delay": round(float(rng.uniform(0.0, 60.0)), 1),
            "cpu": round(float(rng.uniform(1.0, 2.0)), 2),
            "memory": 4.0,
            "dataset": bool(rng.random() < 0.5),
        }
    elif kind == "hpc":
        params = {
            "ranks": int(rng.integers(2, 5)),
            "duration": round(float(rng.uniform(60.0, 180.0)), 1),
            "cpu": round(float(rng.uniform(2.0, 4.0)), 2),
            "memory": round(float(rng.uniform(4.0, 8.0)), 1),
            "delay": round(float(rng.uniform(0.0, 60.0)), 1),
        }
    else:  # pragma: no cover - guarded by WORKLOAD_KINDS
        raise ValueError(f"unknown workload kind {kind!r}")
    return WorkloadSpec(kind=kind, name=name, params=params)


def generate_scenario(run_seed: int, index: int) -> ScenarioSpec:
    """Draw episode ``index`` of a fuzz run, deterministically.

    Each (run_seed, index) pair maps to its own RNG stream, so episodes
    are independent: adding episode 12 never perturbs episode 13.
    """
    rng = RngRegistry(run_seed).stream(f"fuzz/scenario/{index}")
    nodes = int(rng.integers(3, 6))
    horizon = float(rng.integers(4, 11)) * 60.0
    replicas = 3 if float(rng.random()) < 0.25 else 1
    zones = 3 if float(rng.random()) < 0.3 else 1
    overload = bool(float(rng.random()) < 0.5)
    workloads = tuple(
        _draw_workload(
            WORKLOAD_KINDS[int(rng.integers(len(WORKLOAD_KINDS)))], i, rng
        )
        for i in range(int(rng.integers(1, 5)))
    )
    domains = (
        NODE_DOMAINS
        + (CONTROLLER_DOMAINS if replicas > 1 else ())
        + (ZONE_DOMAINS if zones > 1 else ())
        + OVERLOAD_DOMAINS
    )
    chaos = tuple(
        ChaosEvent(
            domain=domains[int(rng.integers(len(domains)))],
            at=round(float(rng.uniform(30.0, max(60.0, 0.6 * horizon))), 1),
            duration=round(float(rng.uniform(30.0, 120.0)), 1),
            target=int(rng.integers(16)),
        )
        for _ in range(int(rng.integers(0, 4)))
    )
    seed = int(rng.integers(2**31 - 1))
    # v3 draws happen strictly after every v2 draw (including the seed),
    # so the v2 prefix of an episode's stream — and therefore every
    # ft-less scenario — is bit-identical to what the v2 fuzzer drew.
    ft = bool(float(rng.random()) < 0.35)
    if ft:
        chaos += tuple(
            ChaosEvent(
                domain=DATA_DOMAINS[int(rng.integers(len(DATA_DOMAINS)))],
                at=round(
                    float(rng.uniform(30.0, max(60.0, 0.6 * horizon))), 1
                ),
                duration=round(float(rng.uniform(30.0, 120.0)), 1),
                target=int(rng.integers(16)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
    # v4 draws: trace-model knobs, strictly after every v3 draw, so
    # scenarios with the new models disabled are bit-identical to v3's.
    arrival_model = "rate"
    heavy_tail = False
    if float(rng.random()) < 0.35:
        arrival_model = ("poisson", "mmpp")[int(rng.integers(2))]
        heavy_tail = bool(float(rng.random()) < 0.4)
    surge = bool(float(rng.random()) < 0.25)
    return ScenarioSpec(
        seed=seed,
        horizon=horizon,
        nodes=nodes,
        controller_replicas=replicas,
        workloads=workloads,
        chaos=chaos,
        zones=zones,
        overload=overload,
        ft=ft,
        arrival_model=arrival_model,
        heavy_tail=heavy_tail,
        surge=surge,
    )


# -- platform construction -----------------------------------------------------


def _workload_config(workload: WorkloadSpec, spec: ScenarioSpec) -> dict:
    """One spec workload as a loader ``workloads`` entry."""
    p = workload.params
    entry: dict = {"kind": workload.kind, "name": workload.name}
    if workload.kind == "micro":
        if "samples" in p:
            # Replayed rate curve (pack v2's diurnal-replay entries).
            trace = {
                "kind": "replay",
                "samples": [[float(t), float(r)] for t, r in p["samples"]],
                "time_scale": float(p.get("time_scale", 1.0)),
                "rate_scale": float(p.get("rate_scale", 1.0)),
            }
        else:
            trace = {
                "kind": "diurnal",
                "base": p["base"],
                "amplitude": p["amplitude"],
                "period": p["period"],
            }
        entry.update(
            trace=trace,
            # Optional per-request disk/net demands (v4): services whose
            # bottleneck is I/O, not CPU — absent in older specs, so the
            # defaults reproduce the v3 deployment byte-for-byte.
            demands={
                "cpu_seconds": p["cpu_seconds"],
                "disk_mb": float(p.get("disk_mb", 0.0)),
                "net_mb": float(p.get("net_mb", 0.0)),
                "base_latency": 0.005,
            },
            allocation={
                "cpu": p["cpu"], "memory": p["memory"],
                "disk_bw": 10, "net_bw": 30,
            },
            plo={"kind": "latency", "target": p["plo"], "window": 30},
            replicas=p["replicas"],
        )
        if spec.arrival_model != "rate":
            arrivals: dict = {"model": spec.arrival_model}
            if spec.arrival_model == "mmpp":
                arrivals["factors"] = [0.3, 1.0, 3.0]
            if spec.heavy_tail:
                arrivals["sizes"] = {"kind": "pareto", "alpha": 1.6}
            entry["arrivals"] = arrivals
    elif workload.kind == "stream":
        entry.update(
            trace={"kind": "constant", "value": p["rate"]},
            operators=[
                {"name": "parse", "cpu_seconds": p["cpu_seconds"]},
                {"name": "agg", "cpu_seconds": p["cpu_seconds"] / 2},
            ],
            allocation={
                "cpu": p["cpu"], "memory": p["memory"],
                "disk_bw": 10, "net_bw": 40,
            },
            plo={"kind": "latency", "target": p["plo"], "window": 30},
            workers=p["workers"],
        )
    elif workload.kind == "bigdata":
        entry.update(
            stages=[
                {"name": "scan", "work": p["scan_cpu"], "input_mb": p["input_mb"]},
                {
                    "name": "agg",
                    "work": p["agg_cpu"],
                    "input_mb": p["input_mb"] / 10,
                    "deps": ["scan"],
                },
            ],
            allocation={
                "cpu": p["cpu"], "memory": p["memory"],
                "disk_bw": 60, "net_bw": 60,
            },
            executors=p["executors"],
            delay=p["delay"],
        )
        if p.get("dataset"):
            entry["dataset"] = {
                "name": f"{workload.name}-data",
                "total_mb": 2000,
                "block_mb": 100,
                "nodes": max(1, spec.nodes // 2),
            }
    elif workload.kind == "hpc":
        entry.update(
            ranks=p["ranks"],
            job_duration=p["duration"],
            allocation={
                "cpu": p["cpu"], "memory": p["memory"],
                "disk_bw": 5, "net_bw": 40,
            },
            delay=p["delay"],
        )
    # Any other kind passes through bare; the loader rejects it.
    return entry


def build_platform(
    spec: ScenarioSpec,
    *,
    telemetry: bool = False,
    policy: str = "adaptive",
    policy_kwargs: dict | None = None,
    slos: tuple = (),
) -> EvolvePlatform:
    """Materialize a spec through the loader (:meth:`ScenarioSpec.to_config`).

    ``policy`` / ``policy_kwargs`` / ``slos`` exist for the arena
    harness, which replays pack scenarios under every registered policy
    with SLO tracking armed; the defaults reproduce the fuzzer's
    canonical adaptive build bit-for-bit.
    """
    config = spec.to_config()
    config.update(
        telemetry=telemetry,
        policy=policy,
        slos=[asdict(slo) for slo in slos],
    )
    if policy_kwargs is not None:
        config["policy_kwargs"] = policy_kwargs
    platform, _duration = platform_from_dict(config)
    return platform


# -- episodes ------------------------------------------------------------------


@dataclass
class EpisodeResult:
    spec: ScenarioSpec
    violations: list[Violation]
    events_executed: int
    checks_run: int
    #: (time, pod, node) placement triples, when requested.
    fingerprint: list[tuple[float, str, str]] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


def run_episode(
    spec: ScenarioSpec,
    *,
    every: int = 1,
    telemetry: bool = False,
    invariants: list[Invariant] | None = None,
    inject: Callable[[EvolvePlatform], None] | None = None,
    collect_fingerprint: bool = False,
) -> EpisodeResult:
    """Run one scenario under the invariant checker.

    ``inject`` runs against the built platform before the clock starts —
    the hook tests use to plant a known corruption (a raw double-bind, a
    stale-heap push) and prove the harness catches it.
    """
    platform = build_platform(spec, telemetry=telemetry)
    checker = InvariantChecker.attach(
        platform,
        every=every,
        invariants=invariants,
        stop_on_violation=True,
    )
    fingerprint: list[tuple[float, str, str]] | None = None
    if collect_fingerprint:
        fingerprint = []
        platform.cluster.events.subscribe(
            PodScheduled,
            lambda e: fingerprint.append((e.time, e.pod_name, e.node_name)),
        )
    if inject is not None:
        inject(platform)
    platform.run(spec.horizon)
    checker.final_check()
    checker.detach()
    return EpisodeResult(
        spec=spec,
        violations=list(checker.violations),
        events_executed=platform.engine.events_executed,
        checks_run=checker.checks_run,
        fingerprint=fingerprint,
    )


def telemetry_identity_violation(
    spec: ScenarioSpec, *, every: int = 1
) -> Violation | None:
    """Differential invariant: telemetry must not change decisions.

    Runs the spec twice — telemetry off and on — and compares the
    placement fingerprint and total event count. Unlike the cycle-level
    invariants this one needs two full runs, so the fuzzer applies it
    per episode behind ``--differential``.
    """
    base = run_episode(spec, every=every, collect_fingerprint=True)
    tele = run_episode(
        spec, every=every, telemetry=True, collect_fingerprint=True
    )
    if base.fingerprint != tele.fingerprint:
        return Violation(
            "telemetry-identity",
            spec.horizon,
            f"placements diverge with telemetry enabled "
            f"({len(base.fingerprint)} vs {len(tele.fingerprint)} binds)",
        )
    if base.events_executed != tele.events_executed:
        return Violation(
            "telemetry-identity",
            spec.horizon,
            f"event count diverges with telemetry enabled "
            f"({base.events_executed} vs {tele.events_executed})",
        )
    return None


# -- shrinking -----------------------------------------------------------------


def shrink(
    spec: ScenarioSpec,
    still_fails: Callable[[ScenarioSpec], bool],
    *,
    max_evals: int = 64,
) -> ScenarioSpec:
    """Greedily minimize a failing spec.

    Reduction moves, tried to a fixpoint: drop one workload, drop one
    chaos event, drop the replicated control plane, flatten the zones,
    disable the overload stack, disable data-plane fault tolerance,
    disable the v4 trace models (surge, heavy-tail marks, open-loop
    arrivals — in that order, most-composite first), halve the horizon.
    A candidate is kept only if ``still_fails`` — so the result is
    1-minimal with respect to these moves (dropping any single remaining
    element makes the failure disappear), within an evaluation budget.
    """
    evals = 0

    def attempt(candidate: ScenarioSpec) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return still_fails(candidate)

    current = spec
    improved = True
    while improved and evals < max_evals:
        improved = False
        for i in range(len(current.workloads)):
            candidate = replace(
                current,
                workloads=current.workloads[:i] + current.workloads[i + 1:],
            )
            if attempt(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        for i in range(len(current.chaos)):
            candidate = replace(
                current, chaos=current.chaos[:i] + current.chaos[i + 1:]
            )
            if attempt(candidate):
                current = candidate
                improved = True
                break
        if improved:
            continue
        if current.controller_replicas > 1:
            candidate = replace(current, controller_replicas=1)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.zones > 1:
            candidate = replace(current, zones=1)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.overload:
            candidate = replace(current, overload=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.ft:
            # Data-plane chaos events stay runnable with ft off (evict
            # works regardless; speed_factor and dropped replicas are
            # inert without the fault-tolerant models), so this move
            # never needs to also prune the chaos list.
            candidate = replace(current, ft=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.surge:
            candidate = replace(current, surge=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.heavy_tail:
            candidate = replace(current, heavy_tail=False)
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.arrival_model != "rate":
            candidate = replace(current, arrival_model="rate")
            if attempt(candidate):
                current = candidate
                improved = True
                continue
        if current.horizon > MIN_HORIZON:
            candidate = replace(
                current, horizon=max(MIN_HORIZON, current.horizon / 2)
            )
            if attempt(candidate):
                current = candidate
                improved = True
    return current


# -- the fuzz loop -------------------------------------------------------------


@dataclass
class FuzzFailure:
    index: int
    violations: list[Violation]
    spec: ScenarioSpec
    shrunk: ScenarioSpec
    repro_path: str | None


@dataclass
class FuzzSummary:
    run_seed: int
    episodes: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def write_repro(
    spec: ScenarioSpec,
    violations: list[Violation],
    out_dir: str | Path,
    run_seed: int,
    index: int,
) -> Path:
    """Persist a failing (shrunken) spec as a replayable JSON file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"repro-{run_seed}-{index}.json"
    payload = spec.to_dict()
    payload["violations"] = [str(v) for v in violations]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a spec from a repro file (extra keys like violations ignored)."""
    return ScenarioSpec.from_dict(json.loads(Path(path).read_text()))


def fuzz(
    episodes: int,
    run_seed: int,
    *,
    every: int = 1,
    out_dir: str | Path | None = "fuzz-repros",
    shrink_failures: bool = True,
    differential: bool = False,
    inject: Callable[[EvolvePlatform], None] | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzSummary:
    """Run ``episodes`` seeded scenarios; shrink and persist any failure."""
    say = log if log is not None else (lambda _msg: None)
    summary = FuzzSummary(run_seed=run_seed, episodes=episodes)
    for index in range(episodes):
        spec = generate_scenario(run_seed, index)
        result = run_episode(spec, every=every, inject=inject)
        violations = list(result.violations)
        if not violations and differential:
            extra = telemetry_identity_violation(spec, every=every)
            if extra is not None:
                violations.append(extra)
        if not violations:
            say(
                f"episode {index}: ok "
                f"({result.events_executed} events, "
                f"{result.checks_run} checks)"
            )
            continue
        say(f"episode {index}: VIOLATION {violations[0]}")
        shrunk = spec
        if shrink_failures:

            def still_fails(candidate: ScenarioSpec) -> bool:
                if not run_episode(
                    candidate, every=every, inject=inject
                ).ok:
                    return True
                if differential:
                    return (
                        telemetry_identity_violation(candidate, every=every)
                        is not None
                    )
                return False

            shrunk = shrink(spec, still_fails)
            say(
                f"episode {index}: shrunk to {len(shrunk.workloads)} "
                f"workload(s), {len(shrunk.chaos)} chaos event(s), "
                f"horizon {shrunk.horizon:g}s"
            )
        repro_path = None
        if out_dir is not None:
            repro_path = str(
                write_repro(shrunk, violations, out_dir, run_seed, index)
            )
            say(f"episode {index}: repro written to {repro_path}")
        summary.failures.append(
            FuzzFailure(
                index=index,
                violations=violations,
                spec=spec,
                shrunk=shrunk,
                repro_path=repro_path,
            )
        )
    return summary


def replay(
    path: str | Path, *, seed: int | None = None, every: int = 1
) -> EpisodeResult:
    """Re-run a repro file; ``seed`` overrides the recorded episode seed."""
    spec = load_spec(path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return run_episode(spec, every=every)
