"""Fault injection: the cluster-side fault taxonomy.

Real-cluster evaluations survive more than clean machine loss: nodes slow
down or shed capacity without dying, metric scrapes drop or freeze, and
actuations (resizes, replica changes) transiently fail. This module holds
the cluster-facing fault domains so the control plane's recovery paths
(pod eviction → self-healing resubmit → rescheduling → controller
re-convergence, plus safe mode / retry / circuit breaking in the control
loop) can be exercised and tested:

* :class:`FailureInjector` — binary node crash/recover (the classic).
* :class:`DegradationInjector` — partial capacity loss: a node keeps
  running but loses a fraction of its allocatable, evicting the
  lowest-priority pods that no longer fit.
* :class:`ActuationFaultInjector` — transient actuation failures; wired
  into :class:`~repro.cluster.api.ClusterAPI` so resizes and pod
  submissions raise :class:`~repro.cluster.api.ActuationError`.
* :class:`PartitionInjector` — per-controller API-server unreachability;
  wired into :class:`~repro.cluster.api.ClusterAPI` so every verb of a
  partitioned controller's :class:`~repro.cluster.api.ScopedClusterAPI`
  raises :class:`~repro.cluster.api.PartitionError`.
* :class:`FaultDomain` classes — the one implementation of each
  schedulable fault (node crash, degradation, zone outage, controller
  crash and partition, executor kill, straggler, data loss), struck
  through ``candidates()`` / ``strike()`` / ``heal`` both by a
  scenario's explicit ``faults`` schedule and by the monkey.
* :class:`ChaosMonkey` — random strikes from a seeded RNG over a set of
  fault domains, for soak experiments.

Metrics-pipeline faults (dropped scrapes, frozen series, outliers) live
in :mod:`repro.metrics.faults`; every injector records its episodes into
a shared :class:`FaultLog` so :mod:`repro.analysis.recovery` can compute
per-episode MTTR and re-convergence time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine


# -- episode bookkeeping ---------------------------------------------------------


@dataclass
class FaultEpisode:
    """One injected fault, from strike to heal.

    ``end`` is None while the fault is still active. Episodes whose end is
    known at injection time (e.g. a scrape blackout window) are recorded
    closed immediately.
    """

    kind: str
    target: str
    start: float
    end: float | None = None
    detail: str = ""
    #: Name of the chaos domain that injected the episode ("" for faults
    #: not raised by a domain, e.g. brownout or actuation-retry records).
    #: The flight recorder's alert timeline attributes episodes by it.
    domain: str = ""
    #: Stable index within the owning FaultLog (-1 until logged); decision
    #: provenance references episodes by this id.
    eid: int = -1

    @property
    def active(self) -> bool:
        return self.end is None

    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start


class FaultLog:
    """Append-only record of fault episodes across all injectors.

    The recovery analysis (:mod:`repro.analysis.recovery`) joins these
    episodes against the controller's metric series to compute MTTR.
    """

    def __init__(self) -> None:
        self.episodes: list[FaultEpisode] = []

    def open(self, kind: str, target: str, start: float, *,
             detail: str = "", domain: str = "") -> FaultEpisode:
        episode = FaultEpisode(kind, target, start, detail=detail,
                               domain=domain)
        episode.eid = len(self.episodes)
        self.episodes.append(episode)
        return episode

    def close(self, episode: FaultEpisode, end: float) -> None:
        if episode.end is None:
            episode.end = end

    def record(self, kind: str, target: str, start: float, end: float, *,
               detail: str = "", domain: str = "") -> FaultEpisode:
        """Record an episode whose end is already known (window faults)."""
        episode = FaultEpisode(kind, target, start, end, detail, domain)
        episode.eid = len(self.episodes)
        self.episodes.append(episode)
        return episode

    def active(self) -> list[FaultEpisode]:
        return [e for e in self.episodes if e.active]

    def active_at(self, now: float) -> list[FaultEpisode]:
        """Episodes overlapping ``now`` (open episodes included)."""
        return [
            e for e in self.episodes
            if e.start <= now and (e.end is None or now < e.end)
        ]

    def by_kind(self, kind: str) -> list[FaultEpisode]:
        return [e for e in self.episodes if e.kind == kind]

    def close_open(self, end: float) -> int:
        """Close every still-open episode at ``end``; returns the count.

        Called when a simulation finishes so episodes that were never
        healed (a zone still dark at the horizon, a brownout still in
        force) get a definite duration instead of silently dropping out
        of — or worse, skewing — the MTTR / re-convergence statistics.
        """
        closed = 0
        for episode in self.episodes:
            if episode.end is None:
                episode.end = end
                closed += 1
        return closed


@dataclass(frozen=True)
class NodeFailure:
    """Record of one injected crash (kept for the legacy reporting path)."""

    time: float
    node_name: str
    evicted_pods: tuple[str, ...]


def _nominal_allocatable(node: Node) -> ResourceVector:
    """The node's healthy allocatable ceiling (capacity − reserved)."""
    return (node.capacity - node.system_reserved).clamp_nonnegative()


class FailureInjector:
    """Deterministic fail/recover verbs on a cluster.

    Failing a node zeroes its allocatable capacity (so schedulers'
    ``can_fit`` rejects it naturally) and evicts its pods with reason
    ``node-failure``. Recovery restores the capacity *delta* removed at
    failure time rather than blindly re-imposing a snapshot: if the
    node's capacity legitimately changed while it was down (an operator
    resize, a degradation healed elsewhere), that change survives the
    recovery, clamped to the node's nominal allocatable ceiling.
    """

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()
        self._down: dict[str, tuple[ResourceVector, FaultEpisode]] = {}
        self.failures: list[NodeFailure] = []
        self.recoveries = 0

    def is_failed(self, node_name: str) -> bool:
        return node_name in self._down

    def failed_nodes(self) -> list[str]:
        return sorted(self._down)

    def fail_node(self, node_name: str) -> NodeFailure:
        """Crash a node, evicting everything on it."""
        if self.is_failed(node_name):
            raise ClusterError(f"node {node_name!r} is already failed")
        node = self.cluster.get_node(node_name)
        evicted = tuple(sorted(node.pods))
        for pod_name in evicted:
            self.cluster.evict(pod_name, reason="node-failure")
        episode = self.log.open("node-crash", node_name, self.cluster.now)
        self._down[node_name] = (node.allocatable, episode)
        node.allocatable = ResourceVector.zero()
        node.generation += 1
        failure = NodeFailure(self.cluster.now, node_name, evicted)
        self.failures.append(failure)
        return failure

    def recover_node(self, node_name: str) -> None:
        """Bring a failed node back by restoring the removed capacity."""
        if not self.is_failed(node_name):
            raise ClusterError(f"node {node_name!r} is not failed")
        node = self.cluster.get_node(node_name)
        removed, episode = self._down.pop(node_name)
        node.allocatable = (node.allocatable + removed).elementwise_min(
            _nominal_allocatable(node)
        )
        node.generation += 1
        self.recoveries += 1
        self.log.close(episode, self.cluster.now)

    def healthy_nodes(self) -> list[Node]:
        return [
            n for n in self.cluster.nodes.values() if not self.is_failed(n.name)
        ]


class DegradationInjector:
    """Partial node degradation: capacity loss without death.

    Degrading a node by ``factor`` keeps only that fraction of its current
    allocatable. Pods that no longer fit are evicted lowest-priority-first
    with reason ``node-degraded`` — the kubelet-pressure analogue — while
    the rest keep running (and keep their metrics flowing, unlike a
    crash). Restoring adds the removed slice back, clamped to the node's
    nominal ceiling so it composes with crashes and operator resizes.
    """

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()
        self._degraded: dict[str, tuple[ResourceVector, FaultEpisode]] = {}
        self.degradations = 0
        self.restorations = 0
        self.evictions = 0

    def is_degraded(self, node_name: str) -> bool:
        return node_name in self._degraded

    def degraded_nodes(self) -> list[str]:
        return sorted(self._degraded)

    def degrade_node(self, node_name: str, factor: float) -> FaultEpisode:
        """Shrink a node's allocatable to ``factor`` of its current value."""
        if not 0.0 < factor < 1.0:
            raise ValueError("degradation factor must be in (0, 1)")
        if self.is_degraded(node_name):
            raise ClusterError(f"node {node_name!r} is already degraded")
        node = self.cluster.get_node(node_name)
        before = node.allocatable
        node.allocatable = before * factor
        node.generation += 1
        removed = before - node.allocatable
        # Shed load until the survivors fit the reduced capacity.
        while not node.allocated.fits_within(node.allocatable):
            victims = node.pods_by_priority()
            if not victims:
                break
            self.cluster.evict(victims[0].name, reason="node-degraded")
            self.evictions += 1
        episode = self.log.open(
            "node-degradation", node_name, self.cluster.now,
            detail=f"factor={factor:g}",
        )
        self._degraded[node_name] = (removed, episode)
        self.degradations += 1
        return episode

    def restore_node(self, node_name: str) -> None:
        """Return the degraded slice of capacity to the node."""
        if not self.is_degraded(node_name):
            raise ClusterError(f"node {node_name!r} is not degraded")
        node = self.cluster.get_node(node_name)
        removed, episode = self._degraded.pop(node_name)
        node.allocatable = (node.allocatable + removed).elementwise_min(
            _nominal_allocatable(node)
        )
        node.generation += 1
        self.restorations += 1
        self.log.close(episode, self.cluster.now)


class ActuationFaultInjector:
    """Transient actuation failures (resize / pod-creation verbs).

    Wired into :class:`~repro.cluster.api.ClusterAPI`; when a gated verb
    is attempted the API asks :meth:`should_fail` and raises
    :class:`~repro.cluster.api.ActuationError` on True. Two modes:

    * ``failure_probability`` — each actuation independently fails with
      this probability (flaky kubelet).
    * :meth:`outage` — every actuation inside the window fails (API-server
      brown-out). Outage episodes are recorded in the fault log.
    """

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        *,
        log: FaultLog | None = None,
    ):
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log = log if log is not None else FaultLog()
        self.failure_probability = 0.0
        self._outage_until = 0.0
        self.attempts = 0
        self.injected_failures = 0

    def outage(self, now: float, duration: float) -> FaultEpisode:
        """Fail every actuation for ``duration`` seconds from ``now``."""
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        self._outage_until = max(self._outage_until, now + duration)
        return self.log.record(
            "actuation-outage", "cluster-api", now, now + duration
        )

    def in_outage(self, now: float) -> bool:
        return now < self._outage_until

    def should_fail(self, now: float, verb: str = "") -> bool:
        """One actuation attempt; True means the API must reject it."""
        self.attempts += 1
        if self.in_outage(now):
            self.injected_failures += 1
            return True
        if (
            self.failure_probability > 0.0
            and float(self.rng.random()) < self.failure_probability
        ):
            self.injected_failures += 1
            return True
        return False


class PartitionInjector:
    """Per-controller API-server partitions.

    Wired into :class:`~repro.cluster.api.ClusterAPI` (``api.partitions``);
    a partitioned identity's :class:`~repro.cluster.api.ScopedClusterAPI`
    raises :class:`~repro.cluster.api.PartitionError` from every verb.
    Windows may be bounded (``duration``) or open-ended (healed
    explicitly by a chaos domain).
    """

    def __init__(self, *, log: FaultLog | None = None):
        self.log = log if log is not None else FaultLog()
        #: identity → (until-time or None for open-ended, episode)
        self._partitioned: dict[str, tuple[float | None, FaultEpisode]] = {}
        self.partitions_injected = 0

    def partition(
        self, identity: str, now: float, duration: float | None = None
    ) -> FaultEpisode:
        """Cut ``identity`` off from the API server.

        With ``duration`` the window closes by itself (episode recorded
        closed immediately); without, it stays open until :meth:`heal`.
        """
        if identity in self._partitioned and self.is_partitioned(identity, now):
            raise ClusterError(f"controller {identity!r} is already partitioned")
        if duration is not None:
            if duration <= 0:
                raise ValueError("partition duration must be positive")
            episode = self.log.record(
                "controller-partition", identity, now, now + duration
            )
            self._partitioned[identity] = (now + duration, episode)
        else:
            episode = self.log.open("controller-partition", identity, now)
            self._partitioned[identity] = (None, episode)
        self.partitions_injected += 1
        return episode

    def is_partitioned(self, identity: str, now: float) -> bool:
        entry = self._partitioned.get(identity)
        if entry is None:
            return False
        until, _episode = entry
        if until is not None and now >= until:
            del self._partitioned[identity]
            return False
        return True

    def heal(self, identity: str, now: float) -> None:
        """Reconnect ``identity``; closes an open-ended episode."""
        entry = self._partitioned.pop(identity, None)
        if entry is not None:
            _until, episode = entry
            self.log.close(episode, now)


# -- fault domains ----------------------------------------------------------------


class FaultDomain(Protocol):
    """One class of injectable fault, struck the same way by every caller.

    :meth:`candidates` lists the possible victims at strike time in a
    stable order. The caller picks one — the :class:`ChaosMonkey` at
    random, an explicit ``faults`` schedule by index — and :meth:`strike`
    applies the fault for ``duration`` seconds and records its
    :class:`FaultLog` episode, returning the token ``heal`` takes (None
    when the victim turned out to be unavailable). ``heal`` is None for
    faults nothing undoes: the workload or the platform repairs them.
    Heals must tolerate racing with external recovery.
    """

    name: str
    heal: Callable[[object], None] | None

    def candidates(self) -> list: ...

    def strike(self, victim, duration: float) -> object | None: ...


class NodeCrashDomain:
    """Crash a healthy node."""

    name = "crash"

    def __init__(self, injector: FailureInjector):
        self.injector = injector

    def candidates(self) -> list[str]:
        return [n.name for n in self.injector.healthy_nodes()]

    def strike(self, victim: str, duration: float) -> str:
        self.injector.fail_node(victim)
        return victim

    def heal(self, token: object) -> None:
        if self.injector.is_failed(str(token)):
            self.injector.recover_node(str(token))


class NodeDegradationDomain:
    """Halve the capacity of a healthy node that is not already degraded."""

    name = "degrade"

    def __init__(self, degrader: DegradationInjector, injector: FailureInjector):
        self.degrader = degrader
        self.injector = injector

    def candidates(self) -> list[str]:
        return [
            n.name
            for n in self.injector.healthy_nodes()
            if not self.degrader.is_degraded(n.name)
        ]

    def strike(self, victim: str, duration: float) -> str:
        self.degrader.degrade_node(victim, 0.5)
        return victim

    def heal(self, token: object) -> None:
        if self.degrader.is_degraded(str(token)):
            self.degrader.restore_node(str(token))


class ZoneOutageDomain:
    """Take out a whole availability zone at once.

    Node crashes are independent by construction; real incidents are not —
    a power feed or top-of-rack switch takes a correlated slice of the
    cluster down together. This domain fails every healthy node carrying
    the same ``zone`` label in one strike, recording a *single*
    ``zone-outage`` episode (the unit the containment accounting and MTTR
    analysis care about) with the blast radius — node and displaced-pod
    counts — in its detail. Healing recovers the nodes that are still
    down; nodes recovered externally in the meantime are skipped.
    """

    name = "zone-outage"

    def __init__(self, injector: FailureInjector):
        self.injector = injector

    def candidates(self) -> list[str]:
        """Zones that still have at least one healthy labelled node."""
        return sorted(
            {
                zone
                for node in self.injector.healthy_nodes()
                if (zone := node.labels.get("zone")) is not None
            }
        )

    def strike(self, victim: str, duration: float) -> object:
        """Fail every healthy node in zone ``victim``."""
        nodes = [
            node.name
            for node in self.injector.healthy_nodes()
            if node.labels.get("zone") == victim
        ]
        if not nodes:
            raise ClusterError(f"zone {victim!r} has no healthy nodes")
        episode = self.injector.log.open(
            "zone-outage", victim, self.injector.cluster.now
        )
        displaced = 0
        for name in nodes:
            displaced += len(self.injector.fail_node(name).evicted_pods)
        episode.detail = f"nodes={len(nodes)} pods_displaced={displaced}"
        return (victim, tuple(nodes), episode)

    def heal(self, token: object) -> None:
        _zone, nodes, episode = token
        for name in nodes:
            if self.injector.is_failed(name):
                self.injector.recover_node(name)
        self.injector.log.close(episode, self.injector.cluster.now)


class ControllerCrashDomain:
    """Kill the control plane's leader replica (any live replica while no
    leader is elected).

    ``plane`` is any object with the :class:`~repro.control.ha.ReplicatedControlPlane`
    surface (``engine``, ``leader_index()``, ``alive_indices()``,
    ``identity(i)``, ``is_alive(i)``, ``crash_replica(i)``,
    ``restart_replica(i)``), or None on a single-controller platform,
    which leaves no candidates.
    """

    name = "controller-crash"

    def __init__(self, plane, *, log: FaultLog | None = None):
        self.plane = plane
        self.log = log if log is not None else FaultLog()

    def candidates(self) -> list[int]:
        if self.plane is None:
            return []
        leader = self.plane.leader_index()
        return [leader] if leader is not None else self.plane.alive_indices()

    def strike(self, victim: int, duration: float) -> object:
        episode = self.log.open(
            "controller-crash", self.plane.identity(victim), self.plane.engine.now
        )
        self.plane.crash_replica(victim)
        return (victim, episode)

    def heal(self, token: object) -> None:
        index, episode = token
        if not self.plane.is_alive(index):
            self.plane.restart_replica(index)
        self.log.close(episode, self.plane.engine.now)


class PartitionDomain:
    """Cut a live controller replica off from the API server.

    The partition is a bounded window of the strike's ``duration``: it
    closes by itself, so there is nothing to heal. A replica that is
    already partitioned is left alone. ``plane`` is as for
    :class:`ControllerCrashDomain`.
    """

    name = "partition"
    heal = None

    def __init__(self, plane, injector: PartitionInjector):
        self.plane = plane
        self.injector = injector

    def candidates(self) -> list[int]:
        return [] if self.plane is None else self.plane.alive_indices()

    def strike(self, victim: int, duration: float) -> str | None:
        identity = self.plane.identity(victim)
        now = self.plane.engine.now
        if self.injector.is_partitioned(identity, now):
            return None
        self.injector.partition(identity, now, duration)
        return identity


class ExecutorKillDomain:
    """Kill one running executor pod of a data-parallel job.

    A much smaller blast radius than a node crash: the node stays up,
    only the pod dies. With data-plane fault tolerance enabled the job
    re-opens exactly the lost in-flight task share; without it, the
    fluid model's global progress is untouched and only the executor
    slot is lost until application self-healing resubmits it — so the
    domain has no heal.
    """

    name = "executor-kill"
    heal = None

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()

    def candidates(self) -> list[str]:
        return sorted(
            pod.name
            for pod in self.cluster.pods.values()
            if pod.phase is PodPhase.RUNNING
            and pod.spec.workload_class is WorkloadClass.BIGDATA
        )

    def strike(self, victim: str, duration: float) -> str:
        self.cluster.evict(victim, reason="executor-kill")
        now = self.cluster.now
        self.log.record("executor-kill", victim, now, now, domain=self.name)
        return victim


class StragglerDomain:
    """Slow a healthy node down without killing it.

    Models the sick-but-alive machine (failing disk, thermal throttling,
    noisy neighbour) that motivates speculative execution: pods keep
    their binds and report progress, just slowly. Sets
    :attr:`Node.speed_factor` to the strike's ``factor``; only
    fault-tolerance-aware workload models read it, so the domain is inert
    for default workloads.
    """

    name = "straggler"

    def __init__(self, cluster: Cluster, *, log: FaultLog | None = None):
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()

    def candidates(self) -> list[str]:
        return [
            node.name
            for node in self.cluster.nodes.values()
            if node.speed_factor >= 1.0 and not node.allocatable.is_zero()
        ]

    def strike(
        self, victim: str, duration: float, factor: float = 0.3
    ) -> object:
        if not 0.0 < factor < 1.0:
            raise ValueError("straggler factor must be in (0, 1)")
        self.cluster.get_node(victim).speed_factor = factor
        episode = self.log.open(
            "node-straggler",
            victim,
            self.cluster.now,
            detail=f"speed_factor={factor}",
            domain=self.name,
        )
        return (victim, episode)

    def heal(self, token: object) -> None:
        name, episode = token
        self.cluster.get_node(name).speed_factor = 1.0
        self.log.close(episode, self.cluster.now)


class DataLossDomain:
    """Wipe every object-store replica held on one data-bearing node.

    The disk dies but the node keeps computing — the failure mode that
    exercises lineage recompute (a completed stage's shuffle output
    vanishes) and the storage repair loop (objects drop below their
    replication target) without any scheduler-visible capacity change.
    Wiped data does not come back, so there is no heal: the repair loop
    re-replicates.
    """

    name = "data-loss"
    heal = None

    def __init__(self, store, cluster: Cluster, *, log: FaultLog | None = None):
        self.store = store
        self.cluster = cluster
        self.log = log if log is not None else FaultLog()

    def candidates(self) -> list[str]:
        return sorted(self.store.nodes_with_data())

    def strike(self, victim: str, duration: float) -> str:
        dropped = self.store.drop_node(victim)
        now = self.cluster.now
        self.log.record(
            "data-loss", victim, now, now,
            detail=f"replicas_dropped={dropped}", domain=self.name,
        )
        return victim


# -- random fault scheduling ----------------------------------------------------


class ChaosMonkey:
    """Random faults on a Poisson clock, with fixed repair time.

    Parameters
    ----------
    mtbf:
        Cluster-wide mean time between strikes (s).
    repair_time:
        Seconds a fault stays active before the monkey heals it.
    max_concurrent_failures:
        Never keep more than this many faults active at once (keeps soak
        runs from killing the whole cluster).
    domains:
        Fault domains to draw from; defaults to crash-only against
        ``injector`` (the legacy behaviour). Each strike picks a domain,
        then a victim among its candidates, uniformly from ``rng`` (a
        pick among one draws nothing).
    """

    def __init__(
        self,
        engine: Engine,
        injector: FailureInjector,
        rng: np.random.Generator,
        *,
        mtbf: float = 3600.0,
        repair_time: float = 300.0,
        max_concurrent_failures: int = 1,
        domains: list[FaultDomain] | None = None,
    ):
        if mtbf <= 0 or repair_time <= 0:
            raise ValueError("mtbf and repair_time must be positive")
        if max_concurrent_failures < 1:
            raise ValueError("max_concurrent_failures must be ≥ 1")
        self.engine = engine
        self.injector = injector
        self.rng = rng
        self.mtbf = mtbf
        self.repair_time = repair_time
        self.max_concurrent_failures = max_concurrent_failures
        self.domains: list[FaultDomain] = (
            list(domains) if domains else [NodeCrashDomain(injector)]
        )
        self.strikes = 0
        self._active = 0
        self._armed = False

    def start(self) -> None:
        if self._armed:
            raise RuntimeError("chaos monkey already started")
        self._armed = True
        self._arm_next()

    def stop(self) -> None:
        """Stop future strikes; already-scheduled heals still run."""
        self._armed = False

    def active_faults(self) -> int:
        return self._active

    def _arm_next(self) -> None:
        delay = float(self.rng.exponential(self.mtbf))
        self.engine.schedule(max(1.0, delay), self._strike)

    def _strike(self) -> None:
        if not self._armed:
            return
        if self._active < self.max_concurrent_failures:
            domain = self.domains[int(self.rng.integers(len(self.domains)))]
            candidates = domain.candidates()
            if candidates:
                victim = candidates[int(self.rng.integers(len(candidates)))]
                token = domain.strike(victim, self.repair_time)
                if token is not None:
                    self.strikes += 1
                    self._active += 1
                    self.engine.schedule(
                        self.repair_time, lambda: self._heal(domain, token)
                    )
        self._arm_next()

    def _heal(self, domain: FaultDomain, token: object) -> None:
        self._active -= 1
        if domain.heal is not None:
            domain.heal(token)
