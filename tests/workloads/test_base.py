"""Unit tests for the Application driver base."""

import pytest

from repro.cluster.pod import PodPhase, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.workloads.base import Application


ALLOC = ResourceVector(cpu=1, memory=1, disk_bw=10, net_bw=10)


class TickCounter(Application):
    """Minimal concrete app recording its ticks."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("workload_class", WorkloadClass.MICROSERVICE)
        kwargs.setdefault("initial_allocation", ALLOC)
        super().__init__(*args, **kwargs)
        self.ticks = []

    def tick(self, dt, now):
        self.ticks.append((dt, now))


def bind_all(api, engine):
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    engine.run_until(engine.now + 6.0)


def test_start_submits_initial_replicas(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=3)
    app.start()
    assert len(api.pending_pods()) == 3
    assert app.replica_count == 3
    assert [p.name for p in app.pods()] == ["svc-0", "svc-1", "svc-2"]


def test_double_start_rejected(engine, api):
    app = TickCounter("svc", engine, api)
    app.start()
    with pytest.raises(RuntimeError):
        app.start()


def test_tick_cadence_and_dt(engine, api):
    app = TickCounter("svc", engine, api, tick_interval=2.0)
    app.start()
    engine.run_until(6.0)
    assert len(app.ticks) == 3
    assert all(dt == 2.0 for dt, _now in app.ticks)


def test_scale_up_and_down(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=1)
    app.start()
    app.scale_to(3)
    assert app.replica_count == 3
    app.scale_to(1)
    assert app.replica_count == 1
    # Newest pods were deleted.
    assert api.get_pod("svc-2").phase == PodPhase.EVICTED
    assert api.get_pod("svc-0").phase == PodPhase.PENDING


def test_scale_to_negative_rejected(engine, api):
    app = TickCounter("svc", engine, api)
    app.start()
    with pytest.raises(ValueError):
        app.scale_to(-1)


def test_running_pods_after_bind(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    assert len(app.running_pods()) == 2


def test_set_target_allocation_resizes_running(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    new_alloc = ALLOC.replace(cpu=2)
    accepted = app.set_target_allocation(new_alloc)
    assert accepted == 2
    engine.run_until(engine.now + 2.0)
    assert all(p.allocation.cpu == 2 for p in app.running_pods())
    assert app.current_allocation().cpu == 2


def test_new_replicas_use_target_allocation(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=1)
    app.start()
    app.set_target_allocation(ALLOC.replace(cpu=4))
    app.scale_to(2)
    assert api.get_pod("svc-1").allocation.cpu == 4


def test_current_allocation_falls_back_to_target(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=0)
    app.start()
    assert app.current_allocation() == ALLOC


def test_prune_externally_evicted_pods(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    api.delete_pod("svc-0", reason="preempted")
    engine.run_until(2.0)  # a tick prunes
    assert app.replica_count == 1


def test_stop_deletes_pods(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    engine.run_until(3.0)
    ticks_before = len(app.ticks)
    app.stop()
    engine.run_until(10.0)
    assert len(app.ticks) == ticks_before
    assert app.finished
    assert all(p.phase == PodPhase.EVICTED for p in api.list_pods(app="svc"))


def test_sample_metrics_aggregates(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    for pod in app.running_pods():
        pod.record_usage(ResourceVector(cpu=0.5))
    metrics = app.sample_metrics(engine.now)
    assert metrics["running_replicas"] == 2.0
    assert metrics["alloc/cpu"] == 2.0
    assert metrics["usage/cpu"] == pytest.approx(1.0)


def test_metric_prefix(engine, api):
    assert TickCounter("svc", engine, api).metric_prefix() == "app/svc"


# -- tick groups -----------------------------------------------------------------


class OrderedTicker(TickCounter):
    """Ticker appending ``(now, name)`` to a log shared by several apps."""

    def __init__(self, name, engine, api, log, **kwargs):
        super().__init__(name, engine, api, initial_replicas=0, **kwargs)
        self.log = log

    def tick(self, dt, now):
        super().tick(dt, now)
        self.log.append((now, self.name))


def started(engine, api, log, *names):
    apps = [OrderedTicker(name, engine, api, log) for name in names]
    for app in apps:
        app.start()
    return apps


def test_app_started_at_priority_zero_ticks_after_members(engine, api):
    log = []
    started(engine, api, log, "a", "b")
    late = OrderedTicker("c", engine, api, log)
    engine.schedule_at(2.0, late.start)
    engine.run_until(4.0)
    assert log == [
        (1.0, "a"), (1.0, "b"),
        (2.0, "a"), (2.0, "b"),
        (3.0, "a"), (3.0, "b"), (3.0, "c"),
        (4.0, "a"), (4.0, "b"), (4.0, "c"),
    ]


def test_joining_app_adds_no_engine_event(engine, api):
    log = []
    started(engine, api, log, "a")
    before = engine.pending_count()
    started(engine, api, log, "b", "c")
    assert engine.pending_count() == before


def test_app_started_below_tick_priority_ticks_before_members(engine, api):
    log = []
    started(engine, api, log, "a", "b")
    early = OrderedTicker("c", engine, api, log)
    engine.schedule_at(2.0, early.start, priority=-10)
    engine.run_until(4.0)
    assert log == [
        (1.0, "a"), (1.0, "b"),
        (2.0, "a"), (2.0, "b"),
        (3.0, "c"), (3.0, "a"), (3.0, "b"),
        (4.0, "c"), (4.0, "a"), (4.0, "b"),
    ]


def test_app_started_off_the_grid_opens_its_own_group(engine, api):
    log = []
    started(engine, api, log, "a", "b")
    engine.run_until(0.5)
    before = engine.pending_count()
    started(engine, api, log, "c")
    assert engine.pending_count() == before + 1
    engine.run_until(3.0)
    assert log == [
        (1.0, "a"), (1.0, "b"),
        (1.5, "c"),
        (2.0, "a"), (2.0, "b"),
        (2.5, "c"),
        (3.0, "a"), (3.0, "b"),
    ]


def test_member_stopped_by_earlier_member_does_not_tick(engine, api):
    log = []
    a, b = started(engine, api, log, "a", "b")

    def stop_b_at_two(dt, now, tick=a.tick):
        tick(dt, now)
        if now == 2.0:
            b.stop()

    a.tick = stop_b_at_two
    engine.run_until(3.0)
    assert log == [(1.0, "a"), (1.0, "b"), (2.0, "a"), (3.0, "a")]


def test_last_member_leaving_cancels_the_group_event(engine, api):
    log = []
    a, b = started(engine, api, log, "a", "b")
    before = engine.pending_count()
    a.stop()
    assert engine.pending_count() == before
    b.stop()
    assert engine.pending_count() == before - 1
    engine.run_until(3.0)
    assert log == []


# -- cached running pods -----------------------------------------------------------


def uncached_running(app, api):
    return [
        api.get_pod(name)
        for name in app._pod_names
        if api.get_pod(name).phase == PodPhase.RUNNING
    ]


def assert_cache_fresh(app, api):
    assert app.running_pods() == uncached_running(app, api)


def test_running_pods_cache_follows_every_transition(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=4)
    app.start()
    assert_cache_fresh(app, api)
    for pod in api.pending_pods():
        api.bind_pod(pod.name, "node-0")
    assert_cache_fresh(app, api)  # bound, still starting
    assert app.running_pods() == []
    engine.run_until(engine.now + 6.0)  # past startup_delay
    assert_cache_fresh(app, api)
    assert len(app.running_pods()) == 4

    api.delete_pod("svc-0", reason="preempted")  # external evict
    assert_cache_fresh(app, api)
    api.mark_finished("svc-1")  # finish
    assert_cache_fresh(app, api)
    assert [p.name for p in app.running_pods()] == ["svc-2", "svc-3"]

    api.delete_pod("svc-3", reason="preempted")
    app.scale_to(1)  # shrink whose newest victim is already terminal
    assert_cache_fresh(app, api)
    assert [p.name for p in app.running_pods()] == ["svc-2"]

    app.scale_to(2)  # a new pending replica
    assert_cache_fresh(app, api)
    engine.run_until(engine.now + 2.0)  # a tick on the cached lists
    assert_cache_fresh(app, api)

    # Dropping the replica list with no pod transition (job completion
    # clears it) must still invalidate the cache.
    app._clear_pod_names()
    assert_cache_fresh(app, api)
    assert app.running_pods() == []


def test_running_pods_returns_a_fresh_list(engine, api):
    app = TickCounter("svc", engine, api, initial_replicas=2)
    app.start()
    bind_all(api, engine)
    running = app.running_pods()
    running.clear()
    assert len(app.running_pods()) == 2


def test_running_pods_cache_cleared_on_job_completion(engine, api):
    from repro.workloads.hpc import HPCJob

    job = HPCJob("mpi", engine, api, ranks=2, duration=5.0, allocation=ALLOC)
    job.start()
    for i, pod in enumerate(api.pending_pods()):
        api.bind_pod(pod.name, f"node-{i}")
    engine.run_until(engine.now + 6.0)
    assert_cache_fresh(job, api)
    assert len(job.running_pods()) == 2
    engine.run_until(engine.now + 20.0)  # completes: _pod_names cleared
    assert job.completed_at is not None
    assert_cache_fresh(job, api)
    assert job.running_pods() == []
