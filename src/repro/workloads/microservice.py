"""Latency-sensitive microservice model.

Each replica is an M/M/1-style queueing station whose service rate is the
*minimum* over per-resource capacities — CPU, disk bandwidth, and network
bandwidth each impose their own request-rate ceiling, and insufficient
memory inflates service time (thrashing). This multi-resource coupling is
deliberately what makes single-resource (CPU-only) autoscalers fail: when
the bottleneck is I/O, adding CPU does not move latency.

The model advances in discrete ticks with explicit backlog, so transients
(load spikes before the controller reacts) produce realistic latency
excursions rather than instantaneous equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.api import ClusterAPI
from repro.cluster.pod import WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.base import Application
from repro.workloads.traces import LoadTrace


@dataclass(frozen=True)
class ServiceDemands:
    """Per-request resource demands of a service.

    Parameters
    ----------
    cpu_seconds:
        CPU-seconds consumed per request.
    disk_mb / net_mb:
        Disk and network bytes (MB) moved per request.
    mem_base:
        Fixed per-replica memory footprint (GiB).
    mem_per_inflight:
        Additional memory per in-flight request (GiB).
    base_latency:
        Service time (s) at zero load with ample resources.
    """

    cpu_seconds: float
    disk_mb: float = 0.0
    net_mb: float = 0.0
    mem_base: float = 0.25
    mem_per_inflight: float = 0.001
    base_latency: float = 0.01

    def __post_init__(self) -> None:
        if self.cpu_seconds <= 0:
            raise ValueError("cpu_seconds must be positive")
        if min(self.disk_mb, self.net_mb, self.mem_base, self.mem_per_inflight) < 0:
            raise ValueError("demands must be non-negative")
        if self.base_latency <= 0:
            raise ValueError("base_latency must be positive")

    def capacity(self, allocation: ResourceVector) -> tuple[float, str]:
        """Max sustainable request rate under ``allocation``, and which
        resource imposes it (ignoring memory, handled via pressure).

        Strict ``<`` comparisons keep first-wins tie-breaking in the
        cpu → disk_bw → net_bw order. :meth:`Microservice.tick` inlines
        this rule in its per-replica loop; the two must stay in step.
        """
        cap = allocation.cpu / self.cpu_seconds
        which = "cpu"
        if self.disk_mb > 0:
            disk_cap = allocation.disk_bw / self.disk_mb
            if disk_cap < cap:
                cap, which = disk_cap, "disk_bw"
        if self.net_mb > 0:
            net_cap = allocation.net_bw / self.net_mb
            if net_cap < cap:
                cap, which = net_cap, "net_bw"
        return cap, which


@dataclass(frozen=True)
class DemandPhase:
    """A demand profile taking effect at ``start_time`` (phase shifts)."""

    start_time: float
    demands: ServiceDemands


class _ReplicaState:
    """Mutable queueing state of one replica."""

    __slots__ = ("backlog", "last_wait")

    def __init__(self) -> None:
        self.backlog = 0.0       # queued requests
        self.last_wait = 0.0     # previous-tick response time (s)


class Microservice(Application):
    """A horizontally- and vertically-scalable user-facing service.

    Parameters
    ----------
    trace:
        Offered load over time (req/s), split evenly across running
        replicas by an ideal load balancer.
    arrivals:
        Optional open-loop arrival process
        (:class:`~repro.workloads.arrivals.ArrivalProcess`). When set,
        offered load comes from its event count over each tick window
        instead of sampling ``trace.rate`` — the discrete stream
        carries the burstiness a rate curve averages away. A
        :class:`~repro.workloads.arrivals.MarkedArrivals` process also
        scales per-request demand by the tick's mean size mark
        (normalized by the distribution mean), modelling heavy-tailed
        request sizes. ``trace`` is still required: it is what the
        forecasters and scenario specs describe, and what arrival
        processes are driven by.
    demands:
        Per-request demand profile, or a sequence of :class:`DemandPhase`
        for workloads whose bottleneck shifts over time.
    tail_factor:
        Multiplier turning mean response time into the reported latency
        sample (≈ p99/mean for the modelled service).
    max_latency:
        Reported-latency ceiling (s); stands in for client timeouts.
    queue_limit_seconds:
        Admission control: each replica sheds arrivals beyond
        ``capacity × queue_limit_seconds`` of backlog, as client timeouts
        and load shedders do — so an overloaded service recovers once
        load drops instead of draining an unbounded queue forever.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        trace: LoadTrace,
        arrivals: ArrivalProcess | None = None,
        demands: ServiceDemands | Sequence[DemandPhase],
        initial_allocation: ResourceVector,
        initial_replicas: int = 1,
        tick_interval: float = 1.0,
        tail_factor: float = 1.0,
        max_latency: float = 30.0,
        queue_limit_seconds: float = 60.0,
        priority: int = 10,
        labels: Mapping[str, str] | None = None,
        **kwargs,
    ):
        super().__init__(
            name,
            engine,
            api,
            workload_class=WorkloadClass.MICROSERVICE,
            initial_allocation=initial_allocation,
            initial_replicas=initial_replicas,
            tick_interval=tick_interval,
            priority=priority,
            labels=labels,
            **kwargs,
        )
        self.trace = trace
        self.arrivals = arrivals
        self._marked = arrivals is not None and hasattr(arrivals, "count_marked")
        self.current_size_factor = 1.0
        if isinstance(demands, ServiceDemands):
            self._phases = [DemandPhase(0.0, demands)]
        else:
            phases = sorted(demands, key=lambda p: p.start_time)
            if not phases:
                raise ValueError("need at least one demand phase")
            self._phases = phases
        if tail_factor < 1.0:
            raise ValueError("tail_factor must be ≥ 1")
        if queue_limit_seconds <= 0:
            raise ValueError("queue_limit_seconds must be positive")
        self.tail_factor = tail_factor
        self.max_latency = max_latency
        self.queue_limit_seconds = queue_limit_seconds
        # -- brownout: the degraded PLO tier -------------------------------
        # While browned out, per-request demand is multiplied by
        # ``brownout_factor`` (serving a cheaper response) and the reported
        # latency carries a fixed penalty — the price users pay for the
        # degraded tier. The control loop drives enter/exit.
        self.brownout_capable = True
        self.brownout_active = False
        self.brownout_factor = 1.0
        self.brownout_penalty = 0.0
        self.brownout_seconds = 0.0
        self.brownouts_entered = 0
        self._brownout_cache: tuple | None = None
        self.total_dropped = 0.0
        self.current_drop_rate = 0.0
        self._replica_state: dict[str, _ReplicaState] = {}
        # Last-tick aggregates, exported on scrape.
        self.current_latency = self._phases[0].demands.base_latency
        self.current_throughput = 0.0
        self.current_offered = 0.0
        self.current_backlog = 0.0
        self.current_bottleneck = "cpu"
        self.total_served = 0.0

    # -- demand schedule ------------------------------------------------------

    def demands_at(self, t: float) -> ServiceDemands:
        """Demand profile in effect at time ``t``."""
        current = self._phases[0].demands
        for phase in self._phases:
            if t >= phase.start_time:
                current = phase.demands
            else:
                break
        return current

    # -- brownout ------------------------------------------------------------

    def enter_brownout(self, *, factor: float, latency_penalty: float) -> None:
        """Enter the degraded tier: per-request demand × ``factor`` at a
        ``latency_penalty``-second cost on reported latency."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("brownout factor must be in (0, 1]")
        if latency_penalty < 0:
            raise ValueError("latency_penalty must be non-negative")
        self.brownout_active = True
        self.brownout_factor = float(factor)
        self.brownout_penalty = float(latency_penalty)
        self.brownouts_entered += 1

    def exit_brownout(self) -> None:
        """Restore the full-fidelity tier."""
        self.brownout_active = False

    def _degraded_demands(self, demands: ServiceDemands) -> ServiceDemands:
        cached = self._brownout_cache
        if (
            cached is not None
            and cached[0] is demands
            and cached[1] == self.brownout_factor
        ):
            return cached[2]
        factor = self.brownout_factor
        degraded = ServiceDemands(
            cpu_seconds=demands.cpu_seconds * factor,
            disk_mb=demands.disk_mb * factor,
            net_mb=demands.net_mb * factor,
            mem_base=demands.mem_base,
            mem_per_inflight=demands.mem_per_inflight,
            base_latency=demands.base_latency,
        )
        self._brownout_cache = (demands, factor, degraded)
        return degraded

    # -- open-loop arrivals ---------------------------------------------------

    def _offered_from_arrivals(self, dt: float, now: float) -> tuple[float, float]:
        """Offered rate and mean-size factor for the tick window.

        The tick at ``now`` covers ``[now - dt, now)``; only the event
        count there (and its size marks) matters, so the process draws
        the count without placing the events.
        """
        if self._marked:
            n, sizes = self.arrivals.count_marked(now - dt, now)
            if n == 0:
                return 0.0, 1.0
            mean = self.arrivals.mean_size()
            factor = float(np.mean(sizes)) / mean if mean > 0 else 1.0
            return n / dt, max(factor, 1e-6)
        return self.arrivals.count(now - dt, now) / dt, 1.0

    def _sized_demands(
        self, demands: ServiceDemands, factor: float
    ) -> ServiceDemands:
        return ServiceDemands(
            cpu_seconds=demands.cpu_seconds * factor,
            disk_mb=demands.disk_mb * factor,
            net_mb=demands.net_mb * factor,
            mem_base=demands.mem_base,
            mem_per_inflight=demands.mem_per_inflight,
            base_latency=demands.base_latency,
        )

    # -- dynamics -----------------------------------------------------------------

    def tick(self, dt: float, now: float) -> None:
        demands = self.demands_at(now)
        if self.brownout_active:
            demands = self._degraded_demands(demands)
            self.brownout_seconds += dt
        if self.arrivals is not None:
            offered, size_factor = self._offered_from_arrivals(dt, now)
            self.current_size_factor = size_factor
            if size_factor != 1.0:
                demands = self._sized_demands(demands, size_factor)
        else:
            offered = max(0.0, self.trace.rate(now))
        running = self._running_pods()
        self.current_offered = offered

        # Drop state of replicas that went away.
        states = self._replica_state
        live = {p.name for p in running}
        for name in list(states):
            if name not in live:
                del states[name]

        if not running:
            # Nothing serving: queue at the front door, report timeout-level
            # latency whenever there is load.
            self.current_throughput = 0.0
            self.current_latency = (
                self.max_latency if offered > 0 else demands.base_latency
            )
            self.current_backlog = 0.0
            return

        per_replica = offered / len(running)
        served_total = 0.0
        dropped_total = 0.0
        wait_sum = 0.0
        backlog_total = 0.0
        bottleneck_votes: dict[str, int] = {}

        # One M/M/1-with-backlog step per replica. This loop runs once per
        # replica per tick, so ServiceDemands.capacity and
        # Pod.record_usage are inlined, with every float operation in
        # their order; ``b if b < a else a`` is exactly ``min(a, b)`` and
        # ``b if b > a else a`` exactly ``max(a, b)``.
        cpu_seconds = demands.cpu_seconds
        disk_mb = demands.disk_mb
        net_mb = demands.net_mb
        mem_base = demands.mem_base
        mem_per_inflight = demands.mem_per_inflight
        base_latency = demands.base_latency
        max_latency = self.max_latency
        queue_limit = self.queue_limit_seconds
        arrivals = per_replica * dt
        from_fields = ResourceVector._from_fields
        for pod in running:
            state = states.get(pod.name)
            if state is None:
                state = states[pod.name] = _ReplicaState()
            alloc = pod.allocation
            mu = alloc.cpu / cpu_seconds
            bottleneck = "cpu"
            if disk_mb > 0:
                cap = alloc.disk_bw / disk_mb
                if cap < mu:
                    mu, bottleneck = cap, "disk_bw"
            if net_mb > 0:
                cap = alloc.net_bw / net_mb
                if cap < mu:
                    mu, bottleneck = cap, "net_bw"
            if mu <= 0:
                served = 0.0
                dropped = state.backlog + arrivals
                state.backlog = 0.0
                wait = state.last_wait = max_latency
                pod.usage = ResourceVector.zero()
            else:
                # Memory pressure from in-flight requests (Little's law on
                # the previous tick's wait, bounded to keep the fixed
                # point stable).
                last_wait = state.last_wait
                inflight = per_replica * (5.0 if 5.0 < last_wait else last_wait)
                required_mem = mem_base + mem_per_inflight * inflight
                alloc_mem = alloc.memory
                pressure = required_mem / (
                    1e-9 if 1e-9 > alloc_mem else alloc_mem
                )
                if pressure > 1.0:
                    bottleneck = "memory"
                else:
                    pressure = 1.0
                mu = mu / pressure

                backlog = state.backlog
                queued = backlog + arrivals
                capacity = mu * dt
                served = capacity if capacity < queued else queued
                backlog = backlog + arrivals - served
                if not backlog > 0.0:
                    backlog = 0.0
                # Shed whatever exceeds the admission-control window.
                dropped = backlog - mu * queue_limit
                if not dropped > 0.0:
                    dropped = 0.0
                backlog -= dropped
                state.backlog = backlog

                rho = per_replica / mu
                if 0.995 < rho:
                    rho = 0.995
                wait = base_latency * pressure / (1.0 - rho) + (
                    backlog / mu if mu > 0 else 0.0
                )
                if max_latency < wait:
                    wait = max_latency
                state.last_wait = wait

                # Usage, enforced at the allocation and clamped at zero.
                served_rate = served / dt
                cpu = served_rate * cpu_seconds
                if alloc.cpu < cpu:
                    cpu = alloc.cpu
                memory = alloc_mem if alloc_mem < required_mem else required_mem
                disk = served_rate * disk_mb
                if alloc.disk_bw < disk:
                    disk = alloc.disk_bw
                net = served_rate * net_mb
                if alloc.net_bw < net:
                    net = alloc.net_bw
                pod.usage = from_fields(
                    cpu if cpu > 0.0 else 0.0,
                    memory if memory > 0.0 else 0.0,
                    disk if disk > 0.0 else 0.0,
                    net if net > 0.0 else 0.0,
                )
            served_total += served
            dropped_total += dropped
            wait_sum += wait
            backlog_total += state.backlog
            bottleneck_votes[bottleneck] = bottleneck_votes.get(bottleneck, 0) + 1

        self.total_dropped += dropped_total
        self.current_drop_rate = dropped_total / dt
        self.current_throughput = served_total / dt
        self.current_latency = min(
            self.max_latency, (wait_sum / len(running)) * self.tail_factor
        )
        self.current_backlog = backlog_total
        self.current_bottleneck = max(bottleneck_votes, key=bottleneck_votes.get)
        self.total_served += served_total
        if self.brownout_active and self.brownout_penalty > 0:
            self.current_latency = min(
                self.max_latency, self.current_latency + self.brownout_penalty
            )

    # -- metrics --------------------------------------------------------------------

    def sample_metrics(self, now: float) -> Mapping[str, float]:
        metrics = dict(super().sample_metrics(now))
        metrics.update(
            {
                "latency": self.current_latency,
                "throughput": self.current_throughput,
                "offered": self.current_offered,
                "backlog": self.current_backlog,
                "served_total": self.total_served,
                "drop_rate": self.current_drop_rate,
                "dropped_total": self.total_dropped,
            }
        )
        # Brownout gauges appear only once the service has ever browned
        # out, so the exported series set — and with it the per-sample
        # fault-filter draw order — is untouched in runs with the
        # feature disabled.
        if self.brownouts_entered:
            metrics["brownout"] = 1.0 if self.brownout_active else 0.0
            metrics["brownout_seconds"] = self.brownout_seconds
        # Same series-set discipline: the size-factor gauge exists only
        # when a marked arrival process is wired in.
        if self._marked:
            metrics["size_factor"] = self.current_size_factor
        return metrics
