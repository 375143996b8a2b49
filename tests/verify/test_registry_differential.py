"""Differential test: the invariant registry against reference bodies.

The registry's ``check`` methods are written for few interpreter
operations per cycle boundary: per-field float sums instead of vector
arithmetic, phase-set membership instead of pod properties, and no shed
walks while nothing was shed. This module keeps plain reference copies of
all eight ``check`` bodies (vector sums from ``ResourceVector.zero()``,
``all()`` over ``getattr`` for closeness, ``pod.active`` / a terminal
tuple, ``_Task.spec_progress`` for the speculative ledger leg) and
requires both to report the same detail strings, in the same order, on
planted corruptions of every message kind and at every boundary of three
fuzz episodes.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.events import LeaderElected, PodEvicted
from repro.cluster.node import Node
from repro.cluster.pod import PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.statestore import StateSnapshot, WalRecord
from repro.sim.engine import Engine
from repro.verify.fuzzer import generate_scenario, run_episode
from repro.verify.invariants import (
    CheckContext,
    DataPlaneConservation,
    GangAtomicity,
    HeapIntegrity,
    Invariant,
    LeaseDiscipline,
    NoDoubleBind,
    ResourceConservation,
    ShedConservation,
    WalDiscipline,
)

_TOLERANCE = 1e-6
_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED, PodPhase.EVICTED)


def _approx_equal(a, b, tolerance):
    return all(abs(getattr(a, n) - getattr(b, n)) <= tolerance for n in RESOURCES)


# -- reference bodies ------------------------------------------------------------


class RefResourceConservation(ResourceConservation):
    def check(self, ctx):
        out = []
        for node in ctx.cluster.nodes.values():
            total = ResourceVector.zero()
            for pod in node.pods.values():
                total = total + pod.allocation
                if not pod.active:
                    out.append(
                        f"node {node.name}: pod {pod.name} holds resources "
                        f"in phase {pod.phase.value}"
                    )
            if not _approx_equal(total, node.allocated, _TOLERANCE):
                out.append(
                    f"node {node.name}: allocation drift (tracked "
                    f"{node.allocated!r}, actual {total!r})"
                )
            if not node.allocated.fits_within(node.allocatable, tolerance=_TOLERANCE):
                out.append(
                    f"node {node.name}: over-allocated (allocated "
                    f"{node.allocated!r}, allocatable {node.allocatable!r})"
                )
            if node.allocated.any_negative():
                out.append(f"node {node.name}: negative allocation {node.allocated!r}")
        return out


class RefNoDoubleBind(NoDoubleBind):
    def check(self, ctx):
        out = []
        holders = {}
        for node in ctx.cluster.nodes.values():
            for pod_name in node.pods:
                holders.setdefault(pod_name, []).append(node.name)
        for pod_name, nodes in holders.items():
            if len(nodes) > 1:
                out.append(
                    f"pod {pod_name} bound to {len(nodes)} nodes: {sorted(nodes)}"
                )
        for pod in ctx.cluster.pods.values():
            held = holders.get(pod.name, ())
            if pod.active:
                if pod.node_name is None:
                    out.append(f"active pod {pod.name} has no node")
                elif list(held) != [pod.node_name]:
                    out.append(
                        f"pod {pod.name} records node {pod.node_name} but is "
                        f"held by {sorted(held)}"
                    )
            elif held:
                out.append(
                    f"{pod.phase.value} pod {pod.name} still holds node "
                    f"resources on {sorted(held)}"
                )
        for pod in ctx.cluster.pending_pods():
            if pod.phase is not PodPhase.PENDING:
                out.append(
                    f"non-pending pod {pod.name} ({pod.phase.value}) in the "
                    "pending queue"
                )
        return out


class RefGangAtomicity(GangAtomicity):
    def check(self, ctx):
        out = []
        gangs = {}
        for pod in ctx.cluster.pods.values():
            gang_id = pod.spec.gang_id
            if gang_id is None or pod.phase in _TERMINAL:
                continue
            gangs.setdefault(gang_id, []).append(pod)
        for gang_id, members in gangs.items():
            bound = sum(1 for p in members if p.active)
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
        self._degraded &= set(gangs)
        for gone in [g for g in self._size if g not in gangs]:
            del self._size[gone]
        return out


class RefLeaseDiscipline(LeaseDiscipline):
    def check(self, ctx):
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
                    f"{len(acting)} replicas hold leader duties at once: {acting}"
                )
            leader = plane.leader_index()
            if leader is not None and not plane.is_alive(leader):
                out.append(f"dead replica {plane.identity(leader)} is still leader")
        return out


class RefWalDiscipline(WalDiscipline):
    def check(self, ctx):
        store = ctx.statestore
        if store is None:
            return ()
        out = []
        wal = store.wal
        for i in range(self._wal_scanned, len(wal)):
            record = wal[i]
            if record.seq <= self._last_seq:
                out.append(f"WAL seq {record.seq} not after previous {self._last_seq}")
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
                accounted = event.wal_deduped + event.wal_reissued + event.wal_failed
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


class RefHeapIntegrity(HeapIntegrity):
    def check(self, ctx):
        out = []
        engine = ctx.engine
        if engine.now < self._last_now:
            out.append(
                f"clock moved backwards: {engine.now:g} after {self._last_now:g}"
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


class RefShedConservation(ShedConservation):
    def check(self, ctx):
        out = []
        for name in self._shed:
            pod = ctx.cluster.pods.get(name)
            if pod is not None and pod.phase not in _TERMINAL:
                out.append(f"shed pod {name} resurrected in phase {pod.phase.value}")
        for pod in ctx.cluster.pending_pods():
            if pod.name in self._shed:
                out.append(f"shed pod {pod.name} back in the pending queue")
        for node in ctx.cluster.nodes.values():
            for pod_name in node.pods:
                if pod_name in self._shed:
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


def _ref_ledger(app):
    """``BigDataJob.ft_accounting`` with the speculative leg summed
    through ``_Task.spec_progress``."""
    if app.ft is None:
        return None
    runtimes = app._runtime.values()
    return {
        "retired": app.ft_retired_work,
        "useful": sum(rt.useful_work() for rt in runtimes),
        "spec_inflight": sum(
            sum(t.spec_progress() for t in rt.tasks if not t.done)
            for rt in runtimes
        ),
        "wasted": app.ft_wasted_work,
        "reopened": app.ft_reopened_work,
    }


class RefDataPlaneConservation(DataPlaneConservation):
    def check(self, ctx):
        out = []
        apps = ctx.apps or {}
        for app in apps.values():
            accounting = getattr(app, "ft_accounting", None)
            ledger = _ref_ledger(app) if callable(accounting) else None
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


PAIRS = (
    (ResourceConservation, RefResourceConservation),
    (NoDoubleBind, RefNoDoubleBind),
    (GangAtomicity, RefGangAtomicity),
    (LeaseDiscipline, RefLeaseDiscipline),
    (WalDiscipline, RefWalDiscipline),
    (HeapIntegrity, RefHeapIntegrity),
    (ShedConservation, RefShedConservation),
    (DataPlaneConservation, RefDataPlaneConservation),
)


class _Pair(Invariant):
    """Runs a registry invariant and its reference side by side; reports
    the registry's details and records every boundary where they differ."""

    def __init__(self, new: Invariant, ref: Invariant):
        super().__init__()
        self.new = new
        self.ref = ref
        self.name = new.name
        self.compared = 0
        self.mismatches: list = []

    def bind(self, ctx):
        self.new.bind(ctx)
        self.ref.bind(ctx)

    def unbind(self):
        self.new.unbind()
        self.ref.unbind()

    def check(self, ctx):
        got = list(self.new.check(ctx))
        want = list(self.ref.check(ctx))
        self.compared += 1
        if got != want:
            self.mismatches.append((ctx.engine.now, got, want))
        return got


def _pairs() -> list[_Pair]:
    return [_Pair(new(), ref()) for new, ref in PAIRS]


def _details(pairs, ctx) -> list[str]:
    """One boundary: every pair's details, asserting they agree."""
    out = []
    for pair in pairs:
        got = pair.check(ctx)
        assert pair.mismatches == [], (pair.name, pair.mismatches)
        out.extend(got)
    return out


# -- planted corruptions -----------------------------------------------------------


def _vec(cpu=1.0, memory=1.0):
    return ResourceVector(cpu=cpu, memory=memory, disk_bw=10, net_bw=10)


def _cluster(node_count=4):
    engine = Engine()
    nodes = [
        Node(f"node-{i}", ResourceVector(cpu=8, memory=16, disk_bw=200, net_bw=200))
        for i in range(node_count)
    ]
    return engine, Cluster(engine, nodes)


def _spec(name, *, gang_id=None):
    return PodSpec(
        name=name,
        app=gang_id or name,
        workload_class=WorkloadClass.MICROSERVICE,
        requests=_vec(),
        gang_id=gang_id,
    )


def _bound(cluster, name, node, **kwargs):
    cluster.submit(_spec(name, **kwargs))
    cluster.bind(name, node)
    return cluster.get_pod(name)


def _ctx_and_pairs(engine, cluster, **kwargs):
    ctx = CheckContext(engine, cluster, **kwargs)
    pairs = _pairs()
    for pair in pairs:
        pair.bind(ctx)
    return ctx, pairs


def _corrupt_drift(engine, cluster):
    # One drifted field per node, so each field comparison is exercised.
    for i, field in enumerate(RESOURCES):
        _bound(cluster, f"p{i}", f"node-{i}")
        node = cluster.get_node(f"node-{i}")
        node._allocated = node._allocated + ResourceVector(**{field: 0.5})


def _corrupt_over_allocation(engine, cluster):
    _bound(cluster, "a", "node-0")
    node = cluster.get_node("node-1")
    node._allocated = node.allocatable + _vec()


def _corrupt_negative(engine, cluster):
    cluster.get_node("node-2")._allocated = ResourceVector(cpu=-1)


def _corrupt_nan_pod(engine, cluster):
    _bound(cluster, "a", "node-0")
    _bound(cluster, "b", "node-0")
    cluster.get_pod("b").allocation = ResourceVector(cpu=math.nan, memory=1.0)


def _corrupt_nan_node(engine, cluster):
    _bound(cluster, "a", "node-1")
    cluster.get_node("node-1")._allocated = ResourceVector(
        cpu=1.0, memory=math.nan, disk_bw=10, net_bw=10
    )


def _corrupt_terminal_on_node(engine, cluster):
    _bound(cluster, "a", "node-0")
    _bound(cluster, "b", "node-1")
    cluster.get_pod("a").phase = PodPhase.SUCCEEDED
    cluster.get_pod("b").phase = PodPhase.EVICTED


def _corrupt_double_bind(engine, cluster):
    _bound(cluster, "a", "node-0")
    _bound(cluster, "b", "node-1")
    cluster.get_node("node-2").bind(cluster.get_pod("b"))
    cluster.get_node("node-1").bind(cluster.get_pod("a"))


def _corrupt_node_name(engine, cluster):
    _bound(cluster, "a", "node-0")
    cluster.get_pod("a").node_name = "node-1"


def _corrupt_unheld(engine, cluster):
    _bound(cluster, "a", "node-0")
    del cluster.get_node("node-0").pods["a"]  # bound, but no node holds it


def _corrupt_pending_pods(engine, cluster):
    cluster.submit(_spec("a"))
    cluster.submit(_spec("b"))
    cluster.get_pod("a").phase = PodPhase.RUNNING  # active, no node, queued
    cluster.get_node("node-0").bind(cluster.get_pod("b"))  # pending, holds


def _corrupt_partial_gang(engine, cluster):
    for i in range(3):
        cluster.submit(_spec(f"rank-{i}", gang_id="job"))
    cluster.bind("rank-0", "node-0")
    cluster.bind("rank-1", "node-1")
    cluster.submit(_spec("other-0", gang_id="other"))
    cluster.submit(_spec("other-1", gang_id="other"))
    cluster.bind("other-1", "node-2")


def _corrupt_shed(engine, cluster):
    _bound(cluster, "a", "node-0")
    _bound(cluster, "b", "node-1")
    cluster.evict("a", reason="load-shed")
    cluster.evict("b", reason="load-shed")
    # Resurrect both behind the cluster's back: one requeued, one rebound.
    pod_a, pod_b = cluster.get_pod("a"), cluster.get_pod("b")
    pod_a.phase = PodPhase.PENDING
    cluster._pending["a"] = pod_a
    pod_b.phase = PodPhase.RUNNING
    cluster.get_node("node-2").bind(pod_b)
    pod_b.node_name = "node-2"


PLANTED = {
    "drift": (
        _corrupt_drift,
        [f"node node-{i}: allocation drift" for i in range(4)],
    ),
    "over-allocation": (_corrupt_over_allocation, ["over-allocated"]),
    "negative": (_corrupt_negative, ["negative allocation"]),
    "nan-pod": (_corrupt_nan_pod, ["allocation drift", "cpu=nan"]),
    "nan-node": (_corrupt_nan_node, ["over-allocated", "memory=nan"]),
    "terminal-on-node": (
        _corrupt_terminal_on_node,
        ["holds resources in phase succeeded", "evicted pod b still holds"],
    ),
    "double-bind": (
        _corrupt_double_bind,
        ["pod b bound to 2 nodes", "pod a records node node-0 but is held by"],
    ),
    "node-name": (_corrupt_node_name, ["records node node-1"]),
    "unheld": (_corrupt_unheld, ["pod a records node node-0 but is held by []"]),
    "pending": (
        _corrupt_pending_pods,
        ["active pod a has no node", "pending pod b still holds", "non-pending"],
    ),
    "partial-gang": (_corrupt_partial_gang, ["gang job partially", "gang other"]),
    "shed": (
        _corrupt_shed,
        [
            "shed pod a resurrected",
            "shed pod b resurrected",
            "back in the pending queue",
            "still holds resources on node node-2",
            "2 load-shed evictions published with no admission",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_corruptions_report_identically(case):
    corrupt, expected = PLANTED[case]
    engine, cluster = _cluster()
    ctx, pairs = _ctx_and_pairs(engine, cluster)
    assert _details(pairs, ctx) == []
    corrupt(engine, cluster)
    details = _details(pairs, ctx)
    for fragment in expected:
        assert any(fragment in d for d in details), (fragment, details)
    # A second boundary over the same state: stateful checks agree too.
    assert _details(pairs, ctx) == details


class _Admission:
    shed_total = 3
    shed_by_class = {"best-effort": 1, "batch": 1}
    rejected_pending = 1
    evicted_running = 1


class _Scheduler:
    admission = _Admission()


def test_shed_ledger_imbalance_reports_identically():
    engine, cluster = _cluster()
    _bound(cluster, "a", "node-0")
    ctx, pairs = _ctx_and_pairs(engine, cluster, scheduler=_Scheduler())
    cluster.evict("a", reason="load-shed")
    details = _details(pairs, ctx)
    assert [d for d in details if "shed" in d] == [
        "admission ledger counts 3 sheds but the cluster published 1 "
        "load-shed evictions",
        "per-class shed tallies sum to 2, not shed_total 3",
        "shed split 1 rejected + 1 evicted != shed_total 3",
    ]


class _Manager:
    def __init__(self, sink):
        self.actuation_sink = sink


class _Replica:
    def __init__(self, sink):
        self.manager = _Manager(sink)


class _Failover:
    def __init__(self, time, replayed, deduped, gap):
        self.time = time
        self.wal_replayed = replayed
        self.wal_deduped = deduped
        self.wal_reissued = 1
        self.wal_failed = 0
        self.gap = gap


class _Plane:
    def __init__(self):
        self.replicas = [_Replica(object()), _Replica(None), _Replica(object())]
        self.failovers = [_Failover(5.0, 2, 4, -1.5), _Failover(9.0, 9, 1, 2.0)]

    def identity(self, i):
        return f"control-plane-{i}"

    def leader_index(self):
        return 2

    def is_alive(self, i):
        return i != 2


class _Store:
    def __init__(self):
        self.wal = [
            WalRecord(2, 1.0, 1.005, "web", "resize", _vec()),
            WalRecord(2, 2.0, 1.5, "web", "scale", 2),
        ]
        self.snapshots = [
            StateSnapshot(1, 3.0, 3.005, 2, {}),
            StateSnapshot(2, 2.5, 2.505, 7, {}),
        ]


def test_control_plane_breaches_report_identically():
    engine, cluster = _cluster()
    ctx, pairs = _ctx_and_pairs(
        engine, cluster, control_plane=_Plane(), statestore=_Store()
    )
    cluster.events.publish(LeaderElected(0.0, "lease", "ctrl-0", 2))
    cluster.events.publish(LeaderElected(1.0, "lease", "ctrl-1", 1))
    cluster.events.publish(LeaderElected(1.0, "lease", "ctrl-2", 2))
    details = _details(pairs, ctx)
    for fragment in (
        "generation 1 issued after generation 2",
        "granted to both ctrl-0 and ctrl-2",
        "2 replicas hold leader duties at once",
        "dead replica control-plane-2 is still leader",
        "WAL seq 2 not after previous 2",
        "durable at 1.5 before its write at 2",
        "taken at 2.5, before the previous one at 3",
        "claims WAL position 7",
        "5 records accounted from 2 replayed",
        "negative leader gap -1.5",
    ):
        assert any(fragment in d for d in details), (fragment, details)


def test_heap_breaches_report_identically():
    import heapq

    engine, cluster = _cluster(1)
    ctx, pairs = _ctx_and_pairs(engine, cluster)
    heap = next(pair for pair in pairs if pair.name == "heap-integrity")
    heap.new._last_now = heap.ref._last_now = 50.0  # as if t=50 was seen
    stale = engine._heap
    handle = engine.schedule_at(2.0, lambda: None)
    engine._heap = []
    heapq.heappush(stale, (3.0, 0, 999, handle))
    engine._cancelled_in_heap += 1
    details = _details(pairs, ctx)
    for fragment in ("clock moved backwards", "stale", "cancellation counter"):
        assert any(fragment in d for d in details), (fragment, details)


def _ft_job(engine, api):
    from repro.dataplane import DataPlaneConfig
    from repro.workloads.bigdata import BigDataJob, Stage

    job = BigDataJob(
        "job", engine, api,
        stages=[
            Stage("map", 200.0, max_parallelism=4),
            Stage("red", 50.0, deps=("map",)),
        ],
        initial_allocation=ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50),
        initial_executors=2,
        ft=DataPlaneConfig(enabled=True),
    )
    job.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(20.0)
    return job


def _stream(engine, api):
    from repro.workloads.stream import Operator, StreamJob
    from repro.workloads.traces import ConstantTrace

    job = StreamJob(
        "stream", engine, api,
        trace=ConstantTrace(100.0),
        operators=[Operator("parse", 0.004)],
        initial_allocation=ResourceVector(cpu=2, memory=4, disk_bw=50, net_bw=50),
        initial_workers=1,
    )
    job.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-1")
    return job


def test_data_plane_imbalances_report_identically(engine, cluster, api):
    from repro.storage.objectstore import ObjectStore
    from repro.storage.repair import StorageRepairService

    stream = _stream(engine, api)
    job = _ft_job(engine, api)
    repair = StorageRepairService(engine, ObjectStore(), api)
    apps = {"job": job, "stream": stream}
    ctx, pairs = _ctx_and_pairs(engine, cluster, apps=apps, repair=repair)
    assert _details(pairs, ctx) == []
    # A speculative copy in flight makes the spec leg non-zero.
    task = next(t for t in job._runtime["map"].tasks if not t.done)
    task.spec_runner = task.runner or "exec-x"
    task.spec_work_left = task.work / 3
    job.ft_retired_work += task.work - task.spec_work_left
    assert job.ft_accounting()["spec_inflight"] > 0
    assert _details(pairs, ctx) == []
    job.ft_retired_work += 7.0
    job._runtime["map"].attempts = job.ft.stage_max_attempts + 1
    job.stages[0].remaining_work += 5.0
    stream.lag_events += 5.0
    repair.repaired_mb += 4.0
    details = _details(pairs, ctx)
    for fragment in (
        "job job: retired",
        "without quarantine",
        "fluid counter",
        "stream stream: arrived",
        "repair ledger",
    ):
        assert any(fragment in d for d in details), (fragment, details)
    for rt in job._runtime.values():
        for t in rt.tasks:
            t.work_left = 0.0
            t.done = True
    job.stages[1].work_cpu_seconds = 1.0  # total stage work below useful
    details = _details(pairs, ctx)
    assert any("exceeds total stage work" in d for d in details), details


# -- fuzz episodes -------------------------------------------------------------------

#: (run seed, index): an overload episode with three controller replicas
#: and every workload kind; a data-plane fault-tolerance episode with
#: executor kills and stragglers (speculative copies in flight at some
#: boundaries); fault tolerance plus overload with an executor kill and
#: an MPI gang.
EPISODES = ((7, 0), (78, 14), (23, 0))


@pytest.mark.parametrize("run_seed,index", EPISODES)
def test_every_fuzz_boundary_reports_identically(run_seed, index):
    spec = generate_scenario(run_seed, index)
    pairs = _pairs()
    result = run_episode(spec, every=1, invariants=pairs)
    assert result.ok, result.violations
    for pair in pairs:
        assert pair.mismatches == [], (pair.name, pair.mismatches[:3])
        assert pair.compared == result.checks_run
    assert result.checks_run > 300


def test_shed_walks_run_once_a_shed_is_observed():
    """The shed walks are skipped only while nothing was shed: a pod shed
    and then resurrected is reported at the next boundary."""
    engine, cluster = _cluster()
    _bound(cluster, "a", "node-0")
    ctx = CheckContext(engine, cluster)
    inv = ShedConservation()
    inv.bind(ctx)
    assert list(inv.check(ctx)) == []
    cluster.events.publish(PodEvicted(0.0, "a", "load-shed"))
    details = list(inv.check(ctx))
    assert details[:2] == [
        "shed pod a resurrected in phase scheduled",
        "shed pod a still holds resources on node node-0",
    ]
