"""EvolvePlatform: the end-to-end converged platform.

Typical experiment::

    platform = EvolvePlatform(policy="adaptive", scheduler="converged")
    svc = platform.deploy_microservice(
        "frontend", trace=DiurnalTrace(300, 200), demands=DEMANDS,
        plo=LatencyPLO(0.1), allocation=ResourceVector(cpu=1, memory=1),
    )
    platform.run(6 * 3600)
    result = platform.result()
    print(result.violation_fraction("frontend"), result.utilization.overall_usage)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.stats import PLOMonitor, UtilizationSummary, utilization_summary
from repro.autoscaler.adaptive import AdaptiveAutoscaler
from repro.cluster.chaos import (
    ActuationFaultInjector,
    ChaosMonkey,
    ControllerCrashDomain,
    DataLossDomain,
    DegradationInjector,
    ExecutorKillDomain,
    FailureInjector,
    FaultDomain,
    FaultLog,
    NodeCrashDomain,
    NodeDegradationDomain,
    PartitionDomain,
    PartitionInjector,
    StragglerDomain,
    ZoneOutageDomain,
)
from repro.cluster.quota import QuotaManager
from repro.autoscaler.registry import (
    PolicyContext,
    build_policy,
    registered_policies,
)
from repro.cluster.api import ClusterAPI
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.pod import WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.control.ha import ReplicatedControlPlane
from repro.control.multiresource import AllocationBounds
from repro.control.statestore import ControllerStateStore
from repro.metrics.collector import MetricsCollector
from repro.metrics.faults import MetricsFaultInjector
from repro.obs.slo import SLOEngine
from repro.obs.telemetry import Telemetry
from repro.platform.config import ClusterSpec, PlatformConfig, build_nodes
from repro.scheduler.admission import AdmissionController
from repro.scheduler.converged import ConvergedScheduler, SiloedScheduler
from repro.scheduler.kube import KubeScheduler
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.storage.objectstore import ObjectStore
from repro.storage.repair import StorageRepairService
from repro.workloads.base import Application
from repro.workloads.bigdata import BigDataJob, Stage
from repro.workloads.hpc import HPCJob
from repro.workloads.microservice import DemandPhase, Microservice, ServiceDemands
from repro.workloads.plo import DeadlinePLO, LatencyPLO, ThroughputPLO, ViolationTracker
from repro.workloads.traces import LoadTrace, ScaledTrace

#: Autoscaling policies selectable by name (snapshot of the registry at
#: import time; the platform itself consults the live registry, so
#: policies registered later are selectable even if absent here).
POLICIES = registered_policies()

#: Schedulers selectable by name.
SCHEDULERS = ("kube", "converged", "siloed")


class OverloadSurgeDomain:
    """A flash crowd, not a fault injection: multiply one microservice's
    offered load by 4× for the window, then restore its original trace.

    Exercises the shed → brownout → recover pipeline when the overload
    stack is armed. It records no fault episode, and it lives here rather
    than in :mod:`repro.cluster.chaos` because the cluster layer must not
    import workloads.
    """

    name = "overload-surge"

    def __init__(self, apps: dict[str, Application]):
        self.apps = apps

    def candidates(self) -> list[Microservice]:
        return [
            app
            for _name, app in sorted(self.apps.items())
            if isinstance(app, Microservice)
        ]

    def strike(self, victim: Microservice, duration: float) -> object:
        original = victim.trace
        victim.trace = ScaledTrace(original, 4.0)
        return (victim, original)

    def heal(self, token: object) -> None:
        app, original = token
        app.trace = original


#: Fault domain name → its builder on a platform: the one table behind a
#: scenario's explicit ``faults`` schedule (:mod:`repro.platform.loader`)
#: and :meth:`EvolvePlatform.enable_chaos`.
FAULT_DOMAINS: dict[str, Callable[["EvolvePlatform"], FaultDomain]] = {
    "crash": lambda p: NodeCrashDomain(p.injector),
    "degrade": lambda p: NodeDegradationDomain(p.degrader, p.injector),
    "controller-crash": lambda p: ControllerCrashDomain(
        p.control_plane, log=p.fault_log
    ),
    "partition": lambda p: PartitionDomain(p.control_plane, p.partition_faults),
    "zone-outage": lambda p: ZoneOutageDomain(p.injector),
    "overload-surge": lambda p: OverloadSurgeDomain(p.apps),
    "executor-kill": lambda p: ExecutorKillDomain(p.cluster, log=p.fault_log),
    "straggler": lambda p: StragglerDomain(p.cluster, log=p.fault_log),
    "data-loss": lambda p: DataLossDomain(p.store, p.cluster, log=p.fault_log),
}


@dataclass
class ExperimentResult:
    """Everything the benchmark harness reads after a run."""

    duration: float
    trackers: dict[str, ViolationTracker]
    utilization: UtilizationSummary
    makespans: dict[str, float | None]
    hpc_waits: dict[str, float | None]
    scale_events: dict[str, int] = field(default_factory=dict)

    def violation_fraction(self, app: str) -> float:
        return self.trackers[app].violation_fraction

    def total_violation_fraction(self) -> float:
        """Observation-weighted violation fraction across tracked apps."""
        total_observed = sum(t.observed_seconds for t in self.trackers.values())
        total_violation = sum(t.violation_seconds for t in self.trackers.values())
        return total_violation / total_observed if total_observed > 0 else 0.0


class EvolvePlatform:
    """The converged platform: construction + deployment verbs + run.

    Parameters
    ----------
    cluster_spec / config:
        Cluster shape and control-plane cadences.
    scheduler:
        ``"kube"``, ``"converged"``, or ``"siloed"`` (the latter requires
        ``silo_pools``).
    policy:
        Autoscaling policy for *managed* microservices: ``"static"``,
        ``"hpa"``, ``"vpa"``, or ``"adaptive"``.
    policy_kwargs:
        Extra keyword arguments forwarded to the policy constructor
        (e.g. ``adaptive=False`` or ``dimensions=("cpu",)`` for ablations).
    """

    def __init__(
        self,
        *,
        cluster_spec: ClusterSpec | None = None,
        config: PlatformConfig | None = None,
        scheduler: str = "converged",
        policy: str = "adaptive",
        policy_kwargs: dict | None = None,
        scheduler_kwargs: dict | None = None,
        silo_pools: dict[WorkloadClass, list[str]] | None = None,
    ):
        self._scheduler_kwargs = dict(scheduler_kwargs or {})
        self.config = config or PlatformConfig()
        self.cluster_spec = cluster_spec or ClusterSpec()
        self.engine = Engine()
        self.rng = RngRegistry(self.config.seed)
        self.store = ObjectStore()
        nodes = build_nodes(self.cluster_spec)
        self.cluster = Cluster(
            self.engine,
            nodes,
            config=ClusterConfig(
                startup_delay=self.config.startup_delay,
                resize_delay=self.config.resize_delay,
            ),
        )
        self.api = ClusterAPI(self.cluster)
        # Shared fault bookkeeping: every injector logs episodes here so
        # repro.analysis.recovery can compute MTTR across fault classes.
        self.fault_log = FaultLog()
        self.metrics_faults = MetricsFaultInjector(
            self.rng.stream("faults/metrics"), log=self.fault_log
        )
        self.actuation_faults = ActuationFaultInjector(
            self.rng.stream("faults/actuation"), log=self.fault_log
        )
        self.api.actuation_faults = self.actuation_faults
        self.partition_faults = PartitionInjector(log=self.fault_log)
        self.api.partitions = self.partition_faults
        self.collector = MetricsCollector(
            self.engine,
            self.api,
            scrape_interval=self.config.scrape_interval,
            faults=self.metrics_faults,
        )
        self.monitor = PLOMonitor(
            self.engine, self.collector, interval=self.config.plo_eval_interval
        )
        self.scheduler = self._build_scheduler(scheduler, silo_pools)
        # -- overload resilience (ISSUE 6) -----------------------------------
        # Admission control attaches to the scheduler's pending queue; it
        # is only built when asked for, so default configs keep the
        # scheduling path byte-identical.
        self.admission: AdmissionController | None = None
        if self.config.overload.admission:
            if isinstance(self.scheduler, SiloedScheduler):
                raise ValueError(
                    "admission control is not supported by the siloed "
                    "comparator scheduler"
                )
            self.admission = AdmissionController(
                self.engine, self.api, self.config.overload
            )
            self.scheduler.admission = self.admission
        self.bounds = AllocationBounds(
            self.config.min_allocation, self.config.max_allocation
        )
        self.policy_name = policy
        self.policy = self._build_policy(policy, dict(policy_kwargs or {}))
        # -- replicated control plane (R-T8) ---------------------------------
        # Only built when asked for: the legacy single-controller path stays
        # byte-identical (same components, same RNG draw order) otherwise.
        self.statestore: ControllerStateStore | None = None
        self.control_plane: ReplicatedControlPlane | None = None
        self.replica_policies = [self.policy]
        if self.config.controller_replicas > 1 or self.config.controller_ha:
            if policy != "adaptive":
                raise ValueError(
                    "the replicated control plane requires the adaptive policy"
                )
            for _ in range(self.config.controller_replicas - 1):
                self.replica_policies.append(
                    self._build_policy(policy, dict(policy_kwargs or {}))
                )
            self.statestore = ControllerStateStore(
                self.engine,
                snapshot_interval=self.config.snapshot_interval,
                fsync_latency=self.config.fsync_latency,
                log=self.fault_log,
            )
            self.control_plane = ReplicatedControlPlane(
                self.engine,
                self.api,
                self.replica_policies,
                lease_ttl=self.config.lease_ttl,
                store=self.statestore,
                rng=self.rng.stream("ha/election"),
                fault_log=self.fault_log,
            )
        self.apps: dict[str, Application] = {}
        self.quotas = QuotaManager()
        self.cluster.quotas = self.quotas
        self.injector = FailureInjector(self.cluster, log=self.fault_log)
        self.degrader = DegradationInjector(self.cluster, log=self.fault_log)
        self.fault_domains: dict[str, FaultDomain] = {
            name: build(self) for name, build in FAULT_DOMAINS.items()
        }
        self.chaos: ChaosMonkey | None = None
        # -- data-plane fault tolerance (ISSUE 7) -----------------------------
        # Only built when enabled: default runs keep the store liveness-
        # blind and schedule no repair events, staying byte-identical.
        self.repair: StorageRepairService | None = None
        if self.config.data_plane.enabled:
            self.store.node_liveness = self._node_live
            if self.config.data_plane.repair:
                self.repair = StorageRepairService(
                    self.engine,
                    self.store,
                    self.api,
                    config=self.config.data_plane,
                    log=self.fault_log,
                )
        self.telemetry: Telemetry | None = None
        if self.config.telemetry:
            self._enable_telemetry()
        # -- SLO engine (ISSUE 8) ---------------------------------------------
        # Evaluates declarative SLOs after every completed scrape round.
        # Observation-only (no events, no RNG): seeded runs are
        # bit-identical with SLOs on or off. Config validation guarantees
        # telemetry is enabled whenever SLOs are declared.
        self.slo_engine: SLOEngine | None = None
        if self.config.slos:
            self.slo_engine = SLOEngine(
                self.collector,
                self.config.slos,
                registry=self.telemetry.registry,
            )
            self.collector.add_scrape_hook(self.slo_engine.on_scrape)
        self.checker = None
        if self.config.verify:
            # Imported lazily: repro.verify imports cluster/control/sim
            # modules, and a module-level import would be cyclic.
            from repro.verify.invariants import InvariantChecker

            self.checker = InvariantChecker.attach(
                self, every=self.config.verify_every
            )
        self._started = False
        self._run_until = 0.0

    def _enable_telemetry(self) -> None:
        """Build the per-run Telemetry bundle and hand it to every
        instrumented component.

        Observation-only by construction: the tracer never schedules
        events or draws RNG, and the registry is scraped through
        ``register_internal`` (no fault filter, hence no extra RNG
        draws), so a seeded run is bit-identical with telemetry on or
        off.
        """
        tel = Telemetry(self.engine)
        self.telemetry = tel
        self.api.telemetry = tel
        self.collector.telemetry = tel
        self.collector.register_internal(tel)
        self.metrics_faults.telemetry = tel
        if self.statestore is not None:
            self.statestore.telemetry = tel
        if self.control_plane is not None:
            self.control_plane.telemetry = tel
        for policy in self.replica_policies:
            manager = getattr(policy, "manager", None)
            if manager is not None:
                manager.telemetry = tel
                # Only managers with backpressure or brownout armed have
                # sched/* state to sync; attaching unarmed ones would
                # add scrape-time work for nothing.
                if (
                    manager.backpressure is not None
                    or manager.brownout_cfg is not None
                ):
                    tel.attach_manager(manager)
        if self.admission is not None:
            self.admission.telemetry = tel
            self.admission.scrape_span_at = self.collector.scrape_span_at
            tel.attach_admission(self.admission)
        if self.repair is not None:
            self.repair.telemetry = tel
            tel.attach_repair(self.repair)

    def _node_live(self, name: str) -> bool:
        """Store liveness predicate: a dark node serves no replicas."""
        return not self.cluster.get_node(name).allocatable.is_zero()

    def set_tenant_quota(self, tenant: str, limit: ResourceVector) -> None:
        """Cap the total resources ``tenant``-labelled pods may hold.

        Deployments join a tenant by passing ``labels={"tenant": name}``.
        """
        self.quotas.set_quota(tenant, limit)

    def enable_chaos(
        self,
        *,
        mtbf: float = 3600.0,
        repair_time: float = 300.0,
        max_concurrent_failures: int = 1,
        domains: Sequence[str] | None = None,
    ) -> ChaosMonkey:
        """Arm random faults for the rest of the run.

        ``domains`` names the fault classes the monkey draws from, out of
        :data:`FAULT_DOMAINS` (``"controller-crash"`` and ``"partition"``
        need the replicated control plane, ``"zone-outage"`` a multi-zone
        cluster). Defaults to crash-only (the legacy behaviour).
        """
        if self.chaos is not None:
            raise RuntimeError("chaos already enabled")
        domains = list(domains or ())
        for name in domains:
            if name not in self.fault_domains:
                raise ValueError(
                    f"unknown fault domain {name!r}; choose from "
                    f"{', '.join(self.fault_domains)}"
                )
            if name in ("controller-crash", "partition") and (
                self.control_plane is None
            ):
                raise ValueError(
                    f"fault domain {name!r} needs the replicated control "
                    "plane (set controller_replicas > 1 or controller_ha in "
                    "PlatformConfig)"
                )
            if name == "zone-outage" and self.cluster_spec.zones <= 1:
                raise ValueError(
                    "fault domain 'zone-outage' needs a multi-zone cluster "
                    "(set ClusterSpec.zones > 1)"
                )
        self.chaos = ChaosMonkey(
            self.engine,
            self.injector,
            self.rng.stream("chaos"),
            mtbf=mtbf,
            repair_time=repair_time,
            max_concurrent_failures=max_concurrent_failures,
            domains=[self.fault_domains[name] for name in domains],
        )
        self.chaos.start()
        return self.chaos

    # -- construction helpers -------------------------------------------------

    def _build_scheduler(self, name: str, silo_pools):
        if name == "kube":
            return KubeScheduler(
                self.engine, self.api, interval=self.config.schedule_interval,
                **self._scheduler_kwargs,
            )
        if name == "converged":
            return ConvergedScheduler(
                self.engine,
                self.api,
                store=self.store,
                interval=self.config.schedule_interval,
                **self._scheduler_kwargs,
            )
        if name == "siloed":
            if silo_pools is None:
                silo_pools = self._default_silos()
            return SiloedScheduler(
                self.engine,
                self.api,
                pools=silo_pools,
                interval=self.config.schedule_interval,
                **self._scheduler_kwargs,
            )
        raise ValueError(f"unknown scheduler {name!r}; choose from {SCHEDULERS}")

    def _default_silos(self) -> dict[WorkloadClass, list[str]]:
        """Split nodes one-third per world (rounded), FIFO by name."""
        names = sorted(self.cluster.nodes)
        third = max(1, len(names) // 3)
        return {
            WorkloadClass.MICROSERVICE: names[:third],
            WorkloadClass.BIGDATA: names[third : 2 * third],
            WorkloadClass.HPC: names[2 * third :],
        }

    def _build_policy(self, name: str, kwargs: dict):
        """Build a registered policy against this platform's context.

        Unknown names raise
        :class:`~repro.autoscaler.registry.UnknownPolicyError` listing
        every registered policy, so misconfiguration is caught here —
        at construction — rather than surfacing as an attribute error
        deep in the control loop.
        """
        ctx = PolicyContext(
            engine=self.engine,
            collector=self.collector,
            bounds=self.bounds,
            control_interval=self.config.control_interval,
            rng_stream=self.rng.stream,
            fault_log=self.fault_log,
            overload=self.config.overload,
        )
        return build_policy(name, ctx, **kwargs)

    # -- deployment verbs ----------------------------------------------------------

    def deploy_microservice(
        self,
        name: str,
        *,
        trace: LoadTrace,
        demands: ServiceDemands | Sequence[DemandPhase],
        allocation: ResourceVector,
        plo: LatencyPLO | ThroughputPLO | None = None,
        replicas: int = 1,
        managed: bool = True,
        **kwargs,
    ) -> Microservice:
        """Deploy a latency-sensitive service, optionally PLO-managed."""
        app = Microservice(
            name,
            self.engine,
            self.api,
            trace=trace,
            demands=demands,
            initial_allocation=allocation,
            initial_replicas=replicas,
            **kwargs,
        )
        self._register(app, plo, managed)
        return app

    def submit_bigdata(
        self,
        name: str,
        *,
        stages: Sequence[Stage],
        allocation: ResourceVector,
        executors: int = 2,
        dataset: str | None = None,
        deadline: float | None = None,
        delay: float = 0.0,
        managed: bool = False,
        **kwargs,
    ) -> BigDataJob:
        """Submit an analytics job, optionally after ``delay`` seconds."""
        kwargs.setdefault("ft", self.config.data_plane)
        job = BigDataJob(
            name,
            self.engine,
            self.api,
            stages=stages,
            initial_allocation=allocation,
            initial_executors=executors,
            store=self.store if dataset is not None else None,
            dataset=dataset,
            deadline=deadline,
            **kwargs,
        )
        plo = None
        if deadline is not None:
            plo = DeadlinePLO(deadline, start_time=delay)
        self._register(job, plo, managed, start_delay=delay)
        return job

    def submit_recurring_pipeline(
        self,
        name: str,
        *,
        stages_factory,
        allocation: ResourceVector,
        period: float,
        runs: int,
        executors: int = 2,
        deadline: float | None = None,
        start: float = 0.0,
        managed: bool = False,
        **kwargs,
    ) -> "RecurringPipeline":
        """Submit a recurring DAG pipeline: one job every ``period`` s.

        ``stages_factory(run_index)`` builds each run's stage list; a
        ``deadline`` (seconds, relative to each run's start) attaches a
        DeadlinePLO per run. Run *i* starts at ``start + i · period``.
        """
        from repro.workloads.bigdata import RecurringPipeline

        def submit(run_name: str, stages: Sequence[Stage], index: int) -> BigDataJob:
            delay = start + index * period
            return self.submit_bigdata(
                run_name,
                stages=stages,
                allocation=allocation,
                executors=executors,
                deadline=None if deadline is None else delay + deadline,
                delay=delay,
                managed=managed,
                **kwargs,
            )

        return RecurringPipeline(
            submit,
            name=name,
            stages_factory=stages_factory,
            period=period,
            runs=runs,
            start=start,
        )

    def deploy_stream(
        self,
        name: str,
        *,
        trace: LoadTrace,
        operators,
        allocation: ResourceVector,
        plo: LatencyPLO | ThroughputPLO | None = None,
        workers: int = 1,
        managed: bool = True,
        **kwargs,
    ) -> "StreamJob":
        """Deploy a continuous stream pipeline, optionally PLO-managed.

        A LatencyPLO on a stream job targets the watermark delay
        (seconds of lag), which the job exports as its ``latency``
        metric.
        """
        from repro.workloads.stream import StreamJob

        kwargs.setdefault("ft", self.config.data_plane)
        app = StreamJob(
            name,
            self.engine,
            self.api,
            trace=trace,
            operators=operators,
            initial_allocation=allocation,
            initial_workers=workers,
            **kwargs,
        )
        self._register(app, plo, managed)
        return app

    def submit_hpc(
        self,
        name: str,
        *,
        ranks: int,
        duration: float,
        allocation: ResourceVector,
        delay: float = 0.0,
        **kwargs,
    ) -> HPCJob:
        """Submit a gang job after ``delay`` seconds."""
        job = HPCJob(
            name,
            self.engine,
            self.api,
            ranks=ranks,
            duration=duration,
            allocation=allocation,
            **kwargs,
        )
        self._register(job, None, managed=False, start_delay=delay)
        return job

    def _register(
        self,
        app: Application,
        plo,
        managed: bool,
        *,
        start_delay: float = 0.0,
    ) -> None:
        if app.name in self.apps:
            raise ValueError(f"application {app.name!r} already deployed")
        self.apps[app.name] = app
        app.maintain_replicas = True  # survive preemption and node failure
        self.collector.register(app)
        tel = self.telemetry
        if tel is not None and getattr(app, "ft", None) is not None:
            # FT-enabled data-plane workloads trace their recovery events
            # and feed the dp/* aggregate instruments.
            app.telemetry = tel
            if isinstance(app, BigDataJob):
                tel.attach_dataplane_job(app)
            else:
                tel.attach_stream(app)
        if plo is not None:
            app.plo = plo
            self.monitor.track(app)
        if managed:
            if plo is None and getattr(self.policy, "requires_plo", False):
                raise ValueError(
                    f"application {app.name!r}: the {self.policy_name} "
                    "policy needs a PLO"
                )
            # Every control-plane replica needs its own controller for the
            # app: standbys must be ready to decide the moment they win
            # the lease (their controller state comes from the statestore).
            for replica in self.replica_policies:
                replica.attach(app)
        if start_delay > 0:
            self.engine.schedule(start_delay, app.start)
        else:
            app.start()

    # -- run --------------------------------------------------------------------------

    def start_control_plane(self) -> None:
        """Start collector, scheduler, policy, and monitor loops."""
        if self._started:
            return
        self._started = True
        self.collector.start()
        self.scheduler.start()
        if self.repair is not None:
            self.repair.start()
        if self.control_plane is not None:
            self.control_plane.start()
        else:
            self.policy.start()
        if self.config.plo_warmup > 0:
            self.engine.schedule(self.config.plo_warmup, self.monitor.start)
        else:
            self.monitor.start()

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.start_control_plane()
        self._run_until = self.engine.now + duration
        self.engine.run_until(self._run_until)

    # -- results --------------------------------------------------------------

    def result(self) -> ExperimentResult:
        """Summarize the run so far."""
        end = self.engine.now
        # Episodes never healed before the horizon (a zone still dark, a
        # brownout still in force) get closed at the end time so the
        # recovery analysis sees real durations, not dangling opens.
        self.fault_log.close_open(end)
        start = 0.0
        util = utilization_summary(self.collector, start, max(end, 1e-9))
        makespans: dict[str, float | None] = {}
        waits: dict[str, float | None] = {}
        scale_events: dict[str, int] = {}
        for name, app in self.apps.items():
            if isinstance(app, (BigDataJob, HPCJob)):
                makespans[name] = app.makespan()
            if isinstance(app, HPCJob):
                waits[name] = app.wait_time()
        if isinstance(self.policy, AdaptiveAutoscaler) and self.policy.escape:
            # Sum across control-plane replicas: each one has its own
            # escape policy and only ever counts while it held the lease.
            scale_events["scale_outs"] = sum(
                p.escape.scale_outs for p in self.replica_policies
            )
            scale_events["scale_ins"] = sum(
                p.escape.scale_ins for p in self.replica_policies
            )
        return ExperimentResult(
            duration=end,
            trackers=dict(self.monitor.trackers),
            utilization=util,
            makespans=makespans,
            hpc_waits=waits,
            scale_events=scale_events,
        )
