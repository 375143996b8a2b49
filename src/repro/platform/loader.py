"""Declarative scenario configs (JSON/dict) → a wired platform.

This is the one code path that turns scenario data into a platform:
``repro run`` configs, fuzzer and scenario-pack specs
(:meth:`repro.verify.fuzzer.ScenarioSpec.to_config`), the SLO presets
and the R-T10/R-T11 benchmarks all build through
:func:`platform_from_dict`. A config describes the cluster shape,
scheduler, policy, platform features (telemetry, SLOs, overload
resilience, data-plane fault tolerance), an ordered ``workloads`` list
(deployment order is behaviour), and faults — random (``chaos``) or an
explicit strike/heal schedule (``faults``). Every ``kind`` value maps
1:1 onto a library class, so the schema is a thin veneer over the API.
Unknown keys are errors, so a typo cannot silently run an empty cluster.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Mapping

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.dataplane import DataPlaneConfig
from repro.obs.slo import SLOSpec
from repro.platform.config import ClusterSpec, NodeGroup, PlatformConfig
from repro.platform.evolve import FAULT_DOMAINS, EvolvePlatform
from repro.scheduler.admission import OverloadConfig
from repro.storage.placement import spread_blocks
from repro.workloads.arrivals import (
    CorrelatedSurge,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
)
from repro.workloads.bigdata import Stage
from repro.workloads.microservice import DemandPhase, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO
from repro.workloads.stream import Operator
from repro.workloads.traceio import load_trace
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    LoadTrace,
    NoisyTrace,
    OUTrace,
    RampTrace,
    ReplayTrace,
    ScaledTrace,
    StepTrace,
)


class ConfigError(ValueError):
    """Raised for malformed experiment configs."""


_TOP_KEYS = frozenset({
    "seed", "duration", "cluster", "scheduler", "scheduler_kwargs",
    "policy", "policy_kwargs", "telemetry", "controller_replicas",
    "max_allocation", "slos", "overload", "data_plane", "surge",
    "workloads", "quotas", "chaos", "faults",
})
_CLUSTER_KEYS = frozenset(
    {"nodes", "capacity", "system_reserved", "zones", "groups"}
)
_GROUP_KEYS = frozenset({"name", "count", "capacity", "labels"})
#: Workload kind -> (required keys, optional keys) besides kind/name.
_WORKLOAD_KEYS = {
    "micro": (
        {"trace", "demands", "allocation"},
        {"plo", "replicas", "managed", "labels", "node_selector", "arrivals"},
    ),
    "stream": (
        {"trace", "operators", "allocation"},
        {"plo", "workers", "managed", "event_mb", "labels"},
    ),
    "bigdata": (
        {"stages", "allocation"},
        {"executors", "dataset", "deadline", "delay", "accelerator", "labels"},
    ),
    "hpc": (
        {"ranks", "job_duration", "allocation"},
        {"delay", "comm_fraction", "zone_penalty", "checkpoint_interval",
         "labels"},
    ),
}
_STAGE_KEYS = frozenset(
    {"name", "work", "input_mb", "deps", "max_parallelism", "accel_speedup"}
)
_OPERATOR_KEYS = frozenset(
    {"name", "cpu_seconds", "selectivity", "state_mb_per_eps"}
)
_DATASET_KEYS = frozenset(
    {"name", "total_mb", "block_mb", "nodes", "replication"}
)
#: Arrival model -> keys it takes besides ``model`` and ``sizes``.
_ARRIVAL_MODEL_KEYS = {
    "poisson": frozenset(),
    "mmpp": frozenset({"factors", "mean_dwell", "horizon"}),
}
_SIZES_KEYS = frozenset({"kind", "alpha", "x_min"})
_CHAOS_KEYS = frozenset({"mtbf", "repair_time", "max_concurrent_failures"})
_FAULT_KEYS = frozenset({"domain", "at", "duration", "target", "factor"})


def _require(data: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in data:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return data[key]


def _check_keys(data: Any, allowed: set | frozenset, context: str) -> None:
    """``data`` must be an object whose keys all appear in ``allowed``."""
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{context}: expected an object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"{context}: unknown key(s) {', '.join(map(repr, unknown))}"
        )


def _entries(data: Mapping[str, Any], key: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{key!r} must be a list")
    return value


def _pick(data: Mapping[str, Any], keys: tuple[str, ...]) -> dict:
    """The subset of ``keys`` present in ``data`` (library defaults apply
    to the rest)."""
    return {k: data[k] for k in keys if k in data}


def resources_from_dict(data: Mapping[str, float]) -> ResourceVector:
    try:
        return ResourceVector.from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad resource vector: {exc}") from exc


def trace_from_dict(
    data: Mapping[str, Any],
    rng: np.random.Generator | Callable[[], np.random.Generator],
) -> LoadTrace:
    """Build a load trace from its ``kind`` + parameters.

    ``rng`` may be a zero-argument callable returning the Generator; it
    is then called only by trace kinds that draw (bursty, ou, noisy), so
    a deterministic trace creates no RNG stream.
    """
    if callable(rng):
        draws = rng
    else:
        def draws() -> np.random.Generator:
            return rng

    if not isinstance(data, Mapping):
        raise ConfigError(f"trace: expected an object, got {data!r}")
    kind = _require(data, "kind", "trace")
    params = {k: v for k, v in data.items() if k != "kind"}
    try:
        if kind == "constant":
            return ConstantTrace(**params)
        if kind == "step":
            steps = [tuple(s) for s in _require(params, "steps", "step trace")]
            return StepTrace(steps, initial=params.get("initial", 0.0))
        if kind == "ramp":
            return RampTrace(**params)
        if kind == "diurnal":
            return DiurnalTrace(**params)
        if kind == "flash_crowd":
            return FlashCrowdTrace(**params)
        if kind == "bursty":
            return BurstyTrace(**params, rng=draws())
        if kind == "ou":
            return OUTrace(**params, rng=draws())
        if kind in ("noisy", "scaled"):
            base = trace_from_dict(_require(params, "base", f"{kind} trace"), rng)
            rest = {k: v for k, v in params.items() if k != "base"}
            if kind == "scaled":
                return ScaledTrace(base, **rest)
            return NoisyTrace(base, **rest, rng=draws())
        if kind == "composite":
            components = [
                trace_from_dict(c, rng)
                for c in _require(params, "components", "composite trace")
            ]
            return CompositeTrace(components)
        if kind == "replay":
            path = params.pop("path", None)
            if path is not None:
                return load_trace(path).trace(**params)
            samples = [tuple(s) for s in _require(params, "samples", "replay")]
            rest = {k: v for k, v in params.items() if k != "samples"}
            return ReplayTrace(samples, **rest)
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"trace kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown trace kind {kind!r}")


def demands_from_dict(data: Any):
    """A single demand profile, or a list of phased profiles."""
    try:
        if isinstance(data, Mapping):
            return ServiceDemands(**data)
        phases = []
        for entry in data:
            start = _require(entry, "start_time", "demand phase")
            profile = {k: v for k, v in entry.items() if k != "start_time"}
            phases.append(DemandPhase(start, ServiceDemands(**profile)))
        return phases
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad demands: {exc}") from exc


def plo_from_dict(data: Mapping[str, Any]):
    kind = _require(data, "kind", "plo")
    params = {k: v for k, v in data.items() if k != "kind"}
    try:
        if kind == "latency":
            return LatencyPLO(**params)
        if kind == "throughput":
            return ThroughputPLO(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plo kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown plo kind {kind!r}")


def cluster_spec_from_dict(data: Mapping[str, Any]) -> ClusterSpec:
    _check_keys(data, _CLUSTER_KEYS, "cluster")
    kwargs: dict[str, Any] = {}
    if "nodes" in data:
        kwargs["node_count"] = data["nodes"]
    if "capacity" in data:
        kwargs["node_capacity"] = resources_from_dict(data["capacity"])
    if "system_reserved" in data:
        kwargs["system_reserved"] = resources_from_dict(data["system_reserved"])
    if "zones" in data:
        kwargs["zones"] = data["zones"]
    if "groups" in data:
        groups = []
        for i, g in enumerate(_entries(data, "groups")):
            context = f"cluster.groups[{i}]"
            _check_keys(g, _GROUP_KEYS, context)
            try:
                groups.append(
                    NodeGroup(
                        name=_require(g, "name", context),
                        count=_require(g, "count", context),
                        capacity=resources_from_dict(
                            _require(g, "capacity", context)
                        ),
                        labels=g.get("labels", {}),
                    )
                )
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{context}: {exc}") from exc
        kwargs["groups"] = tuple(groups)
    try:
        return ClusterSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad cluster spec: {exc}") from exc


def _platform_config(config: Mapping[str, Any]) -> PlatformConfig:
    kwargs: dict[str, Any] = {"seed": int(config.get("seed", 0))}
    for key in ("telemetry", "controller_replicas"):
        if key in config:
            kwargs[key] = config[key]
    if "max_allocation" in config:
        kwargs["max_allocation"] = resources_from_dict(config["max_allocation"])
    sections = (
        ("overload", OverloadConfig),
        ("data_plane", DataPlaneConfig),
    )
    for key, cls in sections:
        if key in config:
            try:
                kwargs[key] = cls(**config[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    slos = []
    for i, slo in enumerate(_entries(config, "slos")):
        try:
            slos.append(SLOSpec(**slo))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"slos[{i}]: {exc}") from exc
    if slos:
        kwargs["slos"] = tuple(slos)
    try:
        return PlatformConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad platform config: {exc}") from exc


def _arrivals(
    data: Mapping[str, Any],
    platform: EvolvePlatform,
    name: str,
    trace: LoadTrace,
    duration: float,
):
    """Open-loop arrivals for one microservice: ``{"model": "poisson" |
    "mmpp", ...mmpp keys, "sizes": {"kind": "pareto", "alpha", "x_min"}}``.

    Streams are per-app (``workload/<name>/arrivals`` / ``…/sizes``) so
    adding a service never shifts a neighbour's draw sequence.
    """
    model = data.get("model") if isinstance(data, Mapping) else None
    model_keys = _ARRIVAL_MODEL_KEYS.get(model, frozenset())
    _check_keys(data, {"model", "sizes"} | model_keys, "arrivals")
    if model not in _ARRIVAL_MODEL_KEYS:
        raise ConfigError(f"unknown arrival model {model!r}")
    params = _pick(data, tuple(model_keys))
    rng = platform.rng.stream(f"workload/{name}/arrivals")
    if model == "poisson":
        process = PoissonArrivals(trace, rng)
    else:
        process = MMPPArrivals(trace, rng, **{"horizon": duration, **params})
    if "sizes" in data:
        sizes = data["sizes"]
        _check_keys(sizes, _SIZES_KEYS, "arrivals.sizes")
        if sizes.get("kind") != "pareto":
            raise ConfigError("arrival sizes: only kind 'pareto' is supported")
        process = MarkedArrivals(
            process,
            ParetoSizes(**_pick(sizes, ("alpha", "x_min"))),
            platform.rng.stream(f"workload/{name}/sizes"),
        )
    return process


def _deploy_workload(
    platform: EvolvePlatform,
    spec: Mapping[str, Any],
    *,
    surge: CorrelatedSurge | None,
    duration: float,
) -> None:
    """Deploy one ``workloads`` entry (keys already checked)."""
    kind, name = spec["kind"], spec["name"]
    allocation = resources_from_dict(spec["allocation"])
    labels = _pick(spec, ("labels",))
    if kind in ("micro", "stream"):
        trace = trace_from_dict(
            spec["trace"], lambda: platform.rng.stream(f"trace/{name}")
        )
        plo = plo_from_dict(spec["plo"]) if "plo" in spec else None
        managed = bool(spec.get("managed", plo is not None))
    if kind == "micro":
        if surge is not None:
            trace = surge.attach(trace, name=name)
        extra = _pick(spec, ("node_selector",))
        if "arrivals" in spec:
            extra["arrivals"] = _arrivals(
                spec["arrivals"], platform, name, trace, duration
            )
        platform.deploy_microservice(
            name,
            trace=trace,
            demands=demands_from_dict(spec["demands"]),
            allocation=allocation,
            plo=plo,
            replicas=int(spec.get("replicas", 1)),
            managed=managed,
            **labels,
            **extra,
        )
    elif kind == "stream":
        operators = []
        for op in spec["operators"]:
            _check_keys(op, _OPERATOR_KEYS, "operator")
            operators.append(
                Operator(
                    name=_require(op, "name", "operator"),
                    cpu_seconds=_require(op, "cpu_seconds", "operator"),
                    **_pick(op, ("selectivity", "state_mb_per_eps")),
                )
            )
        platform.deploy_stream(
            name,
            trace=trace,
            operators=operators,
            allocation=allocation,
            plo=plo,
            workers=int(spec.get("workers", 1)),
            managed=managed,
            **_pick(spec, ("event_mb",)),
            **labels,
        )
    elif kind == "bigdata":
        stages = []
        for s in spec["stages"]:
            _check_keys(s, _STAGE_KEYS, "stage")
            stages.append(
                Stage(
                    name=_require(s, "name", "stage"),
                    work_cpu_seconds=_require(s, "work", "stage"),
                    deps=tuple(s.get("deps", ())),
                    **_pick(s, ("input_mb", "max_parallelism", "accel_speedup")),
                )
            )
        dataset = None
        if "dataset" in spec:
            data = spec["dataset"]
            _check_keys(data, _DATASET_KEYS, "dataset")
            dataset = _require(data, "name", "dataset")
            nodes = sorted(platform.cluster.nodes)
            spread_blocks(
                platform.store,
                dataset,
                total_mb=_require(data, "total_mb", "dataset"),
                block_mb=_require(data, "block_mb", "dataset"),
                nodes=nodes[: data.get("nodes", len(nodes))],
                **_pick(data, ("replication",)),
            )
        platform.submit_bigdata(
            name,
            stages=stages,
            allocation=allocation,
            executors=int(spec.get("executors", 2)),
            dataset=dataset,
            delay=float(spec.get("delay", 0.0)),
            **_pick(spec, ("deadline", "accelerator")),
            **labels,
        )
    else:
        platform.submit_hpc(
            name,
            ranks=int(spec["ranks"]),
            duration=float(spec["job_duration"]),
            allocation=allocation,
            delay=float(spec.get("delay", 0.0)),
            **_pick(
                spec, ("comm_fraction", "zone_penalty", "checkpoint_interval")
            ),
            **labels,
        )


def _schedule_fault(
    platform: EvolvePlatform,
    domain: str,
    at: float,
    duration: float,
    target: int,
    factor: float | None = None,
) -> None:
    """Schedule one explicit strike at ``at`` and its heal at
    ``at + duration``, through the platform's fault domain ``domain``.

    ``target`` is an abstract index resolved against the domain's
    candidate list at strike time (``candidates[target % len(candidates)]``),
    so a schedule stays meaningful when earlier faults changed which nodes
    are healthy. A strike with no candidate (all nodes already down, no
    control plane …) is a no-op instead of an error: a shrunken fuzzer
    spec must stay runnable no matter which of its siblings were dropped.
    ``factor`` is the straggler's node speed.
    """
    dom = platform.fault_domains[domain]
    options = {} if factor is None else {"factor": factor}
    token = None

    def strike() -> None:
        nonlocal token
        candidates = dom.candidates()
        if candidates:
            victim = candidates[target % len(candidates)]
            token = dom.strike(victim, duration, **options)

    def heal() -> None:
        if token is not None:
            dom.heal(token)

    platform.engine.schedule_at(at, strike)
    if dom.heal is not None:
        platform.engine.schedule_at(at + duration, heal)


def _finite(value: Any, context: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return number


def _fault(data: Any, context: str) -> dict:
    _check_keys(data, _FAULT_KEYS, context)
    domain = _require(data, "domain", context)
    if domain not in FAULT_DOMAINS:
        raise ConfigError(
            f"{context}: unknown fault domain {domain!r} (choose from "
            f"{', '.join(FAULT_DOMAINS)})"
        )
    fault = {
        "domain": domain,
        "at": _finite(_require(data, "at", context), f"{context}.at"),
        "duration": _finite(
            _require(data, "duration", context), f"{context}.duration"
        ),
        "target": _require(data, "target", context),
    }
    if fault["at"] < 0:
        raise ConfigError(f"{context}.at must be non-negative")
    if fault["duration"] <= 0:
        raise ConfigError(f"{context}.duration must be positive")
    if not isinstance(fault["target"], int) or isinstance(fault["target"], bool):
        raise ConfigError(f"{context}.target must be an integer")
    if "factor" in data:
        if domain != "straggler":
            raise ConfigError(f"{context}: domain {domain!r} takes no factor")
        fault["factor"] = _finite(data["factor"], f"{context}.factor")
        if not 0.0 < fault["factor"] < 1.0:
            raise ConfigError(f"{context}.factor must be in (0, 1)")
    return fault


def platform_from_dict(config: Mapping[str, Any]) -> tuple[EvolvePlatform, float]:
    """Wire a platform from a config dict; returns (platform, duration)."""
    _check_keys(config, _TOP_KEYS, "config")
    duration = _finite(config.get("duration", 3600.0), "duration")
    if duration <= 0:
        raise ConfigError("duration must be positive")
    workloads = _entries(config, "workloads")
    for i, spec in enumerate(workloads):
        context = f"workloads[{i}]"
        if not isinstance(spec, Mapping):
            raise ConfigError(
                f"{context}: expected an object, got {type(spec).__name__}"
            )
        kind = _require(spec, "kind", context)
        if kind not in _WORKLOAD_KEYS:
            raise ConfigError(
                f"{context}: unknown workload kind {kind!r} (choose from "
                f"{', '.join(_WORKLOAD_KEYS)})"
            )
        required, optional = _WORKLOAD_KEYS[kind]
        _check_keys(spec, {"kind", "name"} | required | optional, context)
        for key in ["name", *sorted(required)]:
            _require(spec, key, context)
    faults = [
        _fault(f, f"faults[{i}]") for i, f in enumerate(_entries(config, "faults"))
    ]
    if "chaos" in config:
        _check_keys(config["chaos"], _CHAOS_KEYS, "chaos")

    try:
        platform = EvolvePlatform(
            cluster_spec=cluster_spec_from_dict(config.get("cluster", {})),
            config=_platform_config(config),
            scheduler=config.get("scheduler", "converged"),
            policy=config.get("policy", "adaptive"),
            policy_kwargs=config.get("policy_kwargs"),
            scheduler_kwargs=config.get("scheduler_kwargs"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad platform: {exc}") from exc

    surge = None
    if "surge" in config:
        # One shared schedule from a dedicated stream; every microservice
        # attaches in deployment order (which draws its lag).
        try:
            surge = CorrelatedSurge(
                platform.rng.stream("workload/surge"),
                **{"horizon": duration, **config["surge"]},
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"surge: {exc}") from exc

    for i, spec in enumerate(workloads):
        try:
            _deploy_workload(platform, spec, surge=surge, duration=duration)
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"workloads[{i}] ({spec['name']!r}): {exc}") from exc

    for tenant, limit in config.get("quotas", {}).items():
        platform.set_tenant_quota(tenant, resources_from_dict(limit))

    if "chaos" in config:
        chaos = config["chaos"]
        try:
            platform.enable_chaos(
                mtbf=float(chaos.get("mtbf", 3600.0)),
                repair_time=float(chaos.get("repair_time", 300.0)),
                max_concurrent_failures=int(
                    chaos.get("max_concurrent_failures", 1)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"chaos: {exc}") from exc

    for fault in faults:
        _schedule_fault(platform, **fault)
    return platform, duration


def platform_from_json(path: str) -> tuple[EvolvePlatform, float]:
    """Load a config file and wire the platform."""
    with open(path) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return platform_from_dict(config)
