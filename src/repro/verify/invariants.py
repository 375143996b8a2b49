"""Cluster-wide safety invariants, checked at engine cycle boundaries.

Every invariant is a small read-only auditor over the live simulation
state. The :class:`InvariantChecker` registers itself as an engine cycle
hook (:meth:`repro.sim.engine.Engine.add_cycle_hook`), so checks run at
*quiescent* timestamp boundaries — after every event at the current time
has executed, before the clock advances — where the platform's safety
properties must hold:

* **resource-conservation** — per node, the tracked allocation equals the
  sum of bound pod allocations, fits within allocatable capacity, and is
  never negative; every bound pod is in an active phase.
* **no-double-bind** — a pod occupies at most one node, its recorded
  ``node_name`` matches the node that holds it, pending pods hold no
  node resources, and the pending queue contains only pending pods.
* **gang-atomicity** — a gang is never *partially* scheduled by the
  scheduler: at a cycle boundary its members are all-pending, all-bound,
  or the gang was degraded by a fault (eviction) and is healing.
* **lease-discipline** — at most one control-plane replica holds leader
  duties at a time, and lease generations are strictly increasing with a
  unique holder per generation (the fencing-token contract).
* **wal-discipline** — WAL sequence numbers are strictly increasing,
  durability timestamps never precede the write, snapshots reference
  only logged WAL positions, and failover replay accounting balances
  (``deduped + reissued + failed ≤ replayed``). The strong WAL-replay
  idempotence property (a second replay deduplicates everything) is
  exercised end-to-end in ``tests/verify``.
* **heap-integrity** — simulated time is monotonic and the engine's O(1)
  pending/cancelled counters agree with an O(heap) audit of the real
  heap, which catches events pushed onto a stale heap alias (the PR 4
  compaction bug) the moment they are orphaned.
* **shed-conservation** — load-shed pods are conserved, not
  double-counted: a shed pod is terminal, holds no node resources, and
  never reappears in the pending queue under its old name; the admission
  controller's shed counters agree exactly with the ``load-shed``
  evictions the cluster actually published.

All checks are observation-only: no scheduling, no RNG draws, no state
mutation outside the checker itself — a seeded run is bit-identical with
the checker attached or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.events import LeaderElected, PodEvicted
from repro.cluster.pod import ACTIVE_PHASES, TERMINAL_PHASES, PodPhase
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine

#: Accounting tolerance for float drift, matching Node.verify_invariants.
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] t={self.time:g}: {self.detail}"


class InvariantViolation(AssertionError):
    """Raised in ``on_violation="raise"`` mode; carries the violation."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


class CheckContext:
    """What invariants are allowed to see (read-only by contract)."""

    __slots__ = (
        "engine",
        "cluster",
        "control_plane",
        "statestore",
        "scheduler",
        "apps",
        "store",
        "repair",
    )

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        *,
        control_plane=None,
        statestore=None,
        scheduler=None,
        apps=None,
        store=None,
        repair=None,
    ):
        self.engine = engine
        self.cluster = cluster
        self.control_plane = control_plane
        self.statestore = statestore
        self.scheduler = scheduler
        self.apps = apps
        self.store = store
        self.repair = repair


class Invariant:
    """Base invariant: optional event subscriptions + a per-cycle audit."""

    name = "invariant"

    def __init__(self) -> None:
        self._unsubscribe: list[Callable[[], None]] = []

    def bind(self, ctx: CheckContext) -> None:
        """Subscribe to cluster events if the invariant needs causality."""

    def unbind(self) -> None:
        for unsub in self._unsubscribe:
            unsub()
        self._unsubscribe.clear()

    def check(self, ctx: CheckContext) -> Iterable[str]:
        """Audit the current state; yield one detail string per breach."""
        return ()


class ResourceConservation(Invariant):
    """Per-node allocation accounting is exact, bounded, and non-negative."""

    name = "resource-conservation"

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out: list[str] = []
        for node in ctx.cluster.nodes.values():
            # Per-field sums from 0.0 in pod order: the same floats as
            # adding the allocation vectors to ``ResourceVector.zero()``.
            cpu = memory = disk_bw = net_bw = 0.0
            for pod in node.pods.values():
                alloc = pod.allocation
                cpu += alloc.cpu
                memory += alloc.memory
                disk_bw += alloc.disk_bw
                net_bw += alloc.net_bw
                if pod.phase not in ACTIVE_PHASES:
                    out.append(
                        f"node {node.name}: pod {pod.name} holds resources "
                        f"in phase {pod.phase.value}"
                    )
            allocated = node.allocated
            if not (
                abs(cpu - allocated.cpu) <= _TOLERANCE
                and abs(memory - allocated.memory) <= _TOLERANCE
                and abs(disk_bw - allocated.disk_bw) <= _TOLERANCE
                and abs(net_bw - allocated.net_bw) <= _TOLERANCE
            ):
                total = ResourceVector(cpu, memory, disk_bw, net_bw)
                out.append(
                    f"node {node.name}: allocation drift (tracked "
                    f"{allocated!r}, actual {total!r})"
                )
            if not allocated.fits_within(node.allocatable, tolerance=_TOLERANCE):
                out.append(
                    f"node {node.name}: over-allocated (allocated "
                    f"{allocated!r}, allocatable {node.allocatable!r})"
                )
            if allocated.any_negative():
                out.append(f"node {node.name}: negative allocation {allocated!r}")
        return out


class NoDoubleBind(Invariant):
    """Each pod is bound to at most one node, consistently recorded."""

    name = "no-double-bind"

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out: list[str] = []
        holders: dict[str, list[str]] = {}
        for node in ctx.cluster.nodes.values():
            node_name = node.name
            for pod_name in node.pods:
                holders.setdefault(pod_name, []).append(node_name)
        for pod_name, nodes in holders.items():
            if len(nodes) > 1:
                out.append(
                    f"pod {pod_name} bound to {len(nodes)} nodes: "
                    f"{sorted(nodes)}"
                )
        for name, pod in ctx.cluster.pods.items():
            held = holders.get(name, ())
            if pod.phase in ACTIVE_PHASES:
                node_name = pod.node_name
                if node_name is None:
                    out.append(f"active pod {name} has no node")
                elif len(held) != 1 or held[0] != node_name:
                    out.append(
                        f"pod {name} records node {node_name} but is "
                        f"held by {sorted(held)}"
                    )
            elif held:
                out.append(
                    f"{pod.phase.value} pod {name} still holds node "
                    f"resources on {sorted(held)}"
                )
        for pod in ctx.cluster.pending_pods():
            if pod.phase is not PodPhase.PENDING:
                out.append(
                    f"non-pending pod {pod.name} ({pod.phase.value}) in the "
                    "pending queue"
                )
        return out


class GangAtomicity(Invariant):
    """Gangs are scheduled all-or-none.

    At a cycle boundary a gang must not be split between bound and
    pending members — unless a fault degraded it (an eviction since it
    was last whole), in which case the partial state is the legal
    self-healing transient. The degraded mark clears once the gang is
    fully active again.
    """

    name = "gang-atomicity"

    def __init__(self) -> None:
        super().__init__()
        self._degraded: set[str] = set()
        #: Largest live-member count ever observed per gang — the gang's
        #: true size. The degraded mark clears only when the gang is
        #: whole *at that size* again: right after an eviction the gang
        #: looks "fully bound" (the lost rank is terminal, its
        #: replacement not yet resubmitted), and clearing then would
        #: flag the legal healing rebind as a fresh partial schedule.
        self._size: dict[str, int] = {}

    def bind(self, ctx: CheckContext) -> None:
        cluster = ctx.cluster

        def on_evicted(event: PodEvicted) -> None:
            pod = cluster.pods.get(event.pod_name)
            if pod is not None and pod.spec.gang_id is not None:
                self._degraded.add(pod.spec.gang_id)

        self._unsubscribe.append(
            cluster.events.subscribe(PodEvicted, on_evicted)
        )

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out: list[str] = []
        gangs: dict[str, list] = {}
        for pod in ctx.cluster.pods.values():
            gang_id = pod.spec.gang_id
            if gang_id is None or pod.phase in TERMINAL_PHASES:
                continue
            gangs.setdefault(gang_id, []).append(pod)
        for gang_id, members in gangs.items():
            bound = sum(1 for p in members if p.phase in ACTIVE_PHASES)
            pending = sum(1 for p in members if p.phase is PodPhase.PENDING)
            size = max(self._size.get(gang_id, 0), bound + pending)
            self._size[gang_id] = size
            if bound and pending:
                if gang_id not in self._degraded:
                    out.append(
                        f"gang {gang_id} partially scheduled: {bound} bound, "
                        f"{pending} pending, with no degrading fault"
                    )
            elif bound and not pending and bound >= size:
                self._degraded.discard(gang_id)
        # Gangs with no live members left need no bookkeeping anymore.
        self._degraded &= set(gangs)
        for gone in [g for g in self._size if g not in gangs]:
            del self._size[gone]
        return out


class LeaseDiscipline(Invariant):
    """At most one acting leader; generations fence monotonically."""

    name = "lease-discipline"

    def __init__(self) -> None:
        super().__init__()
        self._last_generation: dict[str, int] = {}
        self._holder_of: dict[tuple[str, int], str] = {}
        self._event_violations: list[str] = []

    def bind(self, ctx: CheckContext) -> None:
        def on_elected(event: LeaderElected) -> None:
            lease = event.pod_name  # ClusterEvent.pod_name carries the lease
            key = (lease, event.generation)
            last = self._last_generation.get(lease, 0)
            if event.generation <= last and key not in self._holder_of:
                self._event_violations.append(
                    f"lease {lease}: generation {event.generation} "
                    f"issued after generation {last}"
                )
            previous = self._holder_of.setdefault(key, event.holder)
            if previous != event.holder:
                self._event_violations.append(
                    f"lease {lease}: generation {event.generation} "
                    f"granted to both {previous} and {event.holder}"
                )
            self._last_generation[lease] = max(last, event.generation)

        self._unsubscribe.append(
            ctx.cluster.events.subscribe(LeaderElected, on_elected)
        )

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out = self._event_violations
        self._event_violations = []
        plane = ctx.control_plane
        if plane is not None:
            acting = [
                plane.identity(i)
                for i, replica in enumerate(plane.replicas)
                if replica.manager.actuation_sink is not None
            ]
            if len(acting) > 1:
                out.append(
                    f"{len(acting)} replicas hold leader duties at once: "
                    f"{acting}"
                )
            leader = plane.leader_index()
            if leader is not None and not plane.is_alive(leader):
                out.append(
                    f"dead replica {plane.identity(leader)} is still leader"
                )
        return out


class WalDiscipline(Invariant):
    """WAL/snapshot ordering and failover replay accounting."""

    name = "wal-discipline"

    def __init__(self) -> None:
        super().__init__()
        self._wal_scanned = 0
        self._last_seq = 0
        self._snapshots_scanned = 0
        self._last_snapshot_time = 0.0
        self._failovers_scanned = 0

    def check(self, ctx: CheckContext) -> Iterable[str]:
        store = ctx.statestore
        if store is None:
            return ()
        out: list[str] = []
        wal = store.wal
        for i in range(self._wal_scanned, len(wal)):
            record = wal[i]
            if record.seq <= self._last_seq:
                out.append(
                    f"WAL seq {record.seq} not after previous "
                    f"{self._last_seq}"
                )
            if record.durable_at < record.time:
                out.append(
                    f"WAL seq {record.seq} durable at {record.durable_at:g} "
                    f"before its write at {record.time:g}"
                )
            self._last_seq = max(self._last_seq, record.seq)
        self._wal_scanned = len(wal)
        snapshots = store.snapshots
        for i in range(self._snapshots_scanned, len(snapshots)):
            snap = snapshots[i]
            if snap.time < self._last_snapshot_time:
                out.append(
                    f"snapshot seq {snap.seq} taken at {snap.time:g}, before "
                    f"the previous one at {self._last_snapshot_time:g}"
                )
            if snap.wal_seq > self._last_seq:
                out.append(
                    f"snapshot seq {snap.seq} claims WAL position "
                    f"{snap.wal_seq}, beyond the log at {self._last_seq}"
                )
            self._last_snapshot_time = max(self._last_snapshot_time, snap.time)
        self._snapshots_scanned = len(snapshots)
        plane = ctx.control_plane
        if plane is not None:
            failovers = plane.failovers
            for i in range(self._failovers_scanned, len(failovers)):
                event = failovers[i]
                accounted = (
                    event.wal_deduped + event.wal_reissued + event.wal_failed
                )
                if accounted > event.wal_replayed:
                    out.append(
                        f"failover at {event.time:g}: {accounted} records "
                        f"accounted from {event.wal_replayed} replayed"
                    )
                if event.gap is not None and event.gap < 0:
                    out.append(
                        f"failover at {event.time:g}: negative leader gap "
                        f"{event.gap:g}"
                    )
            self._failovers_scanned = len(failovers)
        return out


class HeapIntegrity(Invariant):
    """Engine clock monotonicity and heap bookkeeping agreement."""

    name = "heap-integrity"

    def __init__(self) -> None:
        super().__init__()
        self._last_now = float("-inf")

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out: list[str] = []
        engine = ctx.engine
        if engine.now < self._last_now:
            out.append(
                f"clock moved backwards: {engine.now:g} after "
                f"{self._last_now:g}"
            )
        self._last_now = engine.now
        live, cancelled = engine.audit_heap()
        if live != engine.pending_count():
            out.append(
                f"live counter says {engine.pending_count()} pending events "
                f"but the heap holds {live} (orphaned push onto a stale "
                "heap alias?)"
            )
        if cancelled != engine.cancelled_in_heap:
            out.append(
                f"cancellation counter says {engine.cancelled_in_heap} "
                f"cancelled entries but the heap holds {cancelled}"
            )
        return out


class ShedConservation(Invariant):
    """Load-shed pods are conserved — shed exactly once, gone for good.

    Every ``load-shed`` eviction the cluster publishes is cross-checked
    against live state (the shed pod must be terminal, hold no node
    resources, and never reappear in the pending queue — replacement
    replicas get fresh names) and against the admission controller's own
    ledger: ``shed_total`` equals the observed eviction count, the
    per-class tallies sum to it, and the pending-rejection /
    running-eviction split accounts for every shed. A mismatch means a
    shed pod was double-counted (or lost) somewhere between the
    scheduler, the cluster, and the stats the benchmarks report.
    """

    name = "shed-conservation"

    def __init__(self) -> None:
        super().__init__()
        self._shed: set[str] = set()
        self._observed = 0

    def bind(self, ctx: CheckContext) -> None:
        def on_evicted(event: PodEvicted) -> None:
            if event.reason == "load-shed":
                self._observed += 1
                self._shed.add(event.pod_name)

        self._unsubscribe.append(
            ctx.cluster.events.subscribe(PodEvicted, on_evicted)
        )

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out: list[str] = []
        shed = self._shed
        # Each walk can only report a name in ``_shed``; with no load-shed
        # eviction observed yet there is nothing for them to find.
        if shed:
            for name in shed:
                pod = ctx.cluster.pods.get(name)
                if pod is not None and pod.phase not in TERMINAL_PHASES:
                    out.append(
                        f"shed pod {name} resurrected in phase {pod.phase.value}"
                    )
            for pod in ctx.cluster.pending_pods():
                if pod.name in shed:
                    out.append(f"shed pod {pod.name} back in the pending queue")
            for node in ctx.cluster.nodes.values():
                for pod_name in node.pods:
                    if pod_name in shed:
                        out.append(
                            f"shed pod {pod_name} still holds resources on "
                            f"node {node.name}"
                        )
        admission = getattr(ctx.scheduler, "admission", None)
        if admission is not None:
            if admission.shed_total != self._observed:
                out.append(
                    f"admission ledger counts {admission.shed_total} sheds "
                    f"but the cluster published {self._observed} load-shed "
                    "evictions"
                )
            by_class = sum(admission.shed_by_class.values())
            if by_class != admission.shed_total:
                out.append(
                    f"per-class shed tallies sum to {by_class}, not "
                    f"shed_total {admission.shed_total}"
                )
            split = admission.rejected_pending + admission.evicted_running
            if split != admission.shed_total:
                out.append(
                    f"shed split {admission.rejected_pending} rejected + "
                    f"{admission.evicted_running} evicted != shed_total "
                    f"{admission.shed_total}"
                )
        elif self._observed:
            out.append(
                f"{self._observed} load-shed evictions published with no "
                "admission controller attached"
            )
        return out


class DataPlaneConservation(Invariant):
    """Data-plane work is conserved across faults and recoveries.

    For every fault-tolerant :class:`~repro.workloads.bigdata.BigDataJob`,
    each cpu-second an executor retired must land in exactly one bucket
    of the ledger: useful (tasks done or in flight), speculative
    in-flight, wasted (losing duplicate copies), or reopened (lost to an
    executor death or lineage recompute) —
    ``retired = useful + spec_inflight + wasted + reopened``. Stage
    attempt counters must respect the quarantine budget, and the fluid
    stage counters must mirror the task state they are derived from.

    For every :class:`~repro.workloads.stream.StreamJob` (fault-tolerant
    or not), arrivals are conserved across checkpoint rollbacks:
    ``total_arrived = total_processed + lag_events``.

    The storage repair ledger must be self-consistent: bytes repaired
    equal the repair traffic charged against the repair bandwidth.
    """

    name = "data-plane-conservation"

    def check(self, ctx: CheckContext) -> Iterable[str]:
        out: list[str] = []
        apps = ctx.apps or {}
        for app in apps.values():
            accounting = getattr(app, "ft_accounting", None)
            ledger = accounting() if callable(accounting) else None
            if ledger is not None:
                balance = (
                    ledger["useful"]
                    + ledger["spec_inflight"]
                    + ledger["wasted"]
                    + ledger["reopened"]
                )
                tol = _TOLERANCE * max(1.0, ledger["retired"])
                if abs(ledger["retired"] - balance) > tol:
                    out.append(
                        f"job {app.name}: retired {ledger['retired']:.6f} != "
                        f"useful {ledger['useful']:.6f} + spec "
                        f"{ledger['spec_inflight']:.6f} + wasted "
                        f"{ledger['wasted']:.6f} + reopened "
                        f"{ledger['reopened']:.6f}"
                    )
                total_work = sum(s.work_cpu_seconds for s in app.stages)
                if ledger["useful"] > total_work * (1 + _TOLERANCE) + _TOLERANCE:
                    out.append(
                        f"job {app.name}: useful work {ledger['useful']:.6f} "
                        f"exceeds total stage work {total_work:.6f}"
                    )
                for stage in app.stages:
                    rt = app._runtime[stage.name]
                    if rt.attempts > app.ft.stage_max_attempts and not app.failed:
                        out.append(
                            f"job {app.name}: stage {stage.name} at "
                            f"{rt.attempts} attempts (budget "
                            f"{app.ft.stage_max_attempts}) without quarantine"
                        )
                    mirrored = sum(t.work_left for t in rt.tasks if not t.done)
                    if abs(stage.remaining_work - mirrored) > _TOLERANCE * max(
                        1.0, stage.work_cpu_seconds
                    ):
                        out.append(
                            f"job {app.name}: stage {stage.name} fluid counter "
                            f"{stage.remaining_work:.6f} != task-state sum "
                            f"{mirrored:.6f}"
                        )
            arrived = getattr(app, "total_arrived", None)
            if arrived is not None:
                processed = app.total_processed
                lag = app.lag_events
                tol = _TOLERANCE * max(1.0, arrived)
                if abs(arrived - (processed + lag)) > tol:
                    out.append(
                        f"stream {app.name}: arrived {arrived:.6f} != "
                        f"processed {processed:.6f} + lag {lag:.6f}"
                    )
        repair = ctx.repair
        if repair is not None:
            if abs(repair.repaired_mb - repair.repair_traffic_mb) > _TOLERANCE:
                out.append(
                    f"repair ledger: repaired {repair.repaired_mb:.6f} MB != "
                    f"traffic charged {repair.repair_traffic_mb:.6f} MB"
                )
        return out


def default_invariants() -> list[Invariant]:
    """Fresh instances of the full registry (order = check order)."""
    return [
        ResourceConservation(),
        NoDoubleBind(),
        GangAtomicity(),
        LeaseDiscipline(),
        WalDiscipline(),
        HeapIntegrity(),
        ShedConservation(),
        DataPlaneConservation(),
    ]


class InvariantChecker:
    """Runs the invariant registry at engine cycle boundaries.

    Parameters
    ----------
    every:
        Check every N-th timestamp boundary. 1 audits every cycle (what
        the fuzzer uses on its short episodes); larger strides bound the
        overhead on long runs — violations the registry detects are
        persistent states (a double-bind or allocation drift stays wrong
        until someone releases it), so a strided audit still catches
        them, just a few cycles later.
    on_violation:
        ``"record"`` appends to :attr:`violations`; ``"raise"`` raises
        :class:`InvariantViolation` at the offending boundary.
    stop_on_violation:
        In record mode, stop the engine run at the first violation (the
        fuzzer's episode-abort knob).
    """

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        *,
        control_plane=None,
        statestore=None,
        scheduler=None,
        apps=None,
        store=None,
        repair=None,
        invariants: Sequence[Invariant] | None = None,
        every: int = 1,
        on_violation: str = "record",
        stop_on_violation: bool = False,
        max_violations: int = 1000,
    ):
        if every < 1:
            raise ValueError("every must be ≥ 1")
        if on_violation not in ("record", "raise"):
            raise ValueError("on_violation must be 'record' or 'raise'")
        self.ctx = CheckContext(
            engine,
            cluster,
            control_plane=control_plane,
            statestore=statestore,
            scheduler=scheduler,
            apps=apps,
            store=store,
            repair=repair,
        )
        self.invariants = (
            list(invariants) if invariants is not None else default_invariants()
        )
        self.every = every
        self.on_violation = on_violation
        self.stop_on_violation = stop_on_violation
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        #: Duplicate (invariant, detail) observations after the first.
        self.suppressed = 0
        self.cycles_seen = 0
        self.checks_run = 0
        self._seen: set[tuple[str, str]] = set()
        self._installed = False

    @classmethod
    def attach(cls, platform, *, every: int | None = None, **kwargs):
        """Build a checker over a built platform and install its hook."""
        if every is None:
            every = getattr(platform.config, "verify_every", 1)
        checker = cls(
            platform.engine,
            platform.cluster,
            control_plane=platform.control_plane,
            statestore=platform.statestore,
            scheduler=platform.scheduler,
            apps=platform.apps,
            store=getattr(platform, "store", None),
            repair=getattr(platform, "repair", None),
            every=every,
            **kwargs,
        )
        checker.install()
        return checker

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("checker already installed")
        self._installed = True
        for invariant in self.invariants:
            invariant.bind(self.ctx)
        self.ctx.engine.add_cycle_hook(self._on_cycle)

    def detach(self) -> None:
        if not self._installed:
            return
        self._installed = False
        self.ctx.engine.remove_cycle_hook(self._on_cycle)
        for invariant in self.invariants:
            invariant.unbind()

    # -- checking ------------------------------------------------------------

    def _on_cycle(self) -> None:
        self.cycles_seen += 1
        if (self.cycles_seen - 1) % self.every:
            return
        self.check_now()

    def check_now(self) -> list[Violation]:
        """Run every invariant once; returns the *new* violations."""
        self.checks_run += 1
        ctx = self.ctx
        now = ctx.engine.now
        fresh: list[Violation] = []
        for invariant in self.invariants:
            for detail in invariant.check(ctx):
                violation = Violation(invariant.name, now, detail)
                if self.on_violation == "raise":
                    raise InvariantViolation(violation)
                key = (violation.invariant, violation.detail)
                if key in self._seen:
                    self.suppressed += 1
                    continue
                self._seen.add(key)
                if len(self.violations) < self.max_violations:
                    self.violations.append(violation)
                fresh.append(violation)
        if fresh and self.stop_on_violation:
            self.ctx.engine.stop()
        return fresh

    def final_check(self) -> list[Violation]:
        """One last audit at end of run (cycle hooks fire *between*
        timestamps, so the final batch of events needs an explicit pass)."""
        return self.check_now()

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.ok:
            return (
                f"ok: {self.checks_run} checks over {self.cycles_seen} cycles"
            )
        lines = [
            f"{len(self.violations)} violation(s) "
            f"({self.suppressed} duplicate observations suppressed):"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)
