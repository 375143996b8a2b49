"""Application driver base: replica management + periodic dynamics tick.

An :class:`Application` owns a set of replica pods, advances its
performance model on a fixed tick, writes measured usage into its pods,
and exposes metrics to the collector. Autoscalers actuate applications
through two verbs only — :meth:`Application.scale_to` (horizontal) and
:meth:`Application.set_target_allocation` (vertical) — mirroring the
Deployment-replicas / pod-resize surface of the real system.

Applications tick through shared *tick groups* (:class:`_TickGroup`):
one periodic engine event per group steps every member in join order,
instead of one event per application.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.cluster.api import ActuationError, ClusterAPI
from repro.cluster.pod import Pod, PodPhase, PodSpec, WorkloadClass
from repro.cluster.resources import ResourceVector
from repro.sim.engine import Engine

_RUNNING = PodPhase.RUNNING


class _TickGroup:
    """Applications whose ticks fall at the same interval and times.

    The group owns one periodic engine event (priority −5, the priority
    every application tick has always used) and calls each live member's
    ``_on_tick`` in join order. An application joins the group that most
    recently pushed its next firing, and only if that firing is exactly
    ``now + interval`` — the time and heap position its own periodic
    event would have had. Otherwise it opens a new group, whose event is
    pushed now, i.e. exactly where its own event would have gone. So an
    application started before the run, by a priority-0 event, or by an
    event at a priority below −5 ticks in the order per-application
    events produced.
    """

    __slots__ = ("interval", "members", "next_fire", "_handle", "_latest")

    def __init__(self, engine: Engine, interval: float):
        self.interval = interval
        self.members: list[Application] = []
        # Mirrors the engine's reschedule arithmetic: each firing pushes
        # the next one at (its own time) + interval.
        self.next_fire = engine.now + interval
        self._latest = engine.tick_groups
        self._handle = engine.every(interval, self._fire, priority=-5)
        self._latest[interval] = self

    @classmethod
    def join(cls, app: "Application") -> "_TickGroup":
        engine, interval = app.engine, app.tick_interval
        group = engine.tick_groups.get(interval)
        if (
            group is None
            or not group.members
            or group.next_fire != engine.now + interval
        ):
            group = cls(engine, interval)
        group.members.append(app)
        return group

    def leave(self, app: "Application") -> None:
        self.members.remove(app)
        if not self.members:
            self._handle.cancel()

    def _fire(self) -> None:
        for app in tuple(self.members):
            # A member stopped by an earlier member's tick is skipped.
            if app._tick_group is self:
                app._on_tick()
        self.next_fire += self.interval
        if self.members:
            self._latest[self.interval] = self


class Application:
    """Base class for all workload drivers.

    Parameters
    ----------
    name:
        Application name; pod names are ``{name}-{index}``.
    engine, api:
        Simulation engine and cluster API.
    workload_class:
        Which world the app belongs to (drives scheduler policy).
    initial_allocation:
        Per-replica resource grant at submission.
    initial_replicas:
        Pods submitted by :meth:`start`.
    tick_interval:
        Seconds between model updates.
    priority:
        Pod priority for preemption ordering.
    maintain_replicas:
        Self-healing: when pods are lost to preemption or node failure,
        resubmit replacements on the next tick until the desired count is
        restored. Off by default so unit tests observe raw lifecycle;
        the platform enables it for all deployments.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        api: ClusterAPI,
        *,
        workload_class: WorkloadClass,
        initial_allocation: ResourceVector,
        initial_replicas: int = 1,
        tick_interval: float = 1.0,
        priority: int = 0,
        labels: Mapping[str, str] | None = None,
        node_selector: Mapping[str, str] | None = None,
        node_preference: Mapping[str, str] | None = None,
        maintain_replicas: bool = False,
    ):
        if initial_replicas < 0:
            raise ValueError("initial_replicas must be ≥ 0")
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        self.name = name
        self.engine = engine
        self.api = api
        self.workload_class = workload_class
        self.target_allocation = initial_allocation
        self.initial_replicas = initial_replicas
        self.tick_interval = tick_interval
        self.priority = priority
        self.labels = dict(labels or {})
        self.node_selector = dict(node_selector or {})
        self.node_preference = dict(node_preference or {})
        self.plo = None  # set by callers that attach an objective
        self.gang_id: str | None = None  # set by gang workloads (HPC)
        self.maintain_replicas = maintain_replicas
        self._desired_replicas = initial_replicas
        self.replacements = 0
        # Crash-loop backoff for self-healing: repeated replacement rounds
        # within `restart_window` delay the next round exponentially
        # instead of resubmitting hot (CrashLoopBackOff analogue).
        self.restart_backoff_base = 5.0
        self.restart_backoff_cap = 300.0
        self.restart_window = 600.0
        self.restart_round_threshold = 3
        self.crash_loop_backoffs = 0
        self._replacement_rounds: deque[float] = deque(maxlen=32)
        self._resubmit_backoff_until = 0.0
        self._next_index = 0
        self._pod_names: list[str] = []
        # Running-pod and prune caches, valid while both the cluster's
        # pod-transition counter and this version of _pod_names (bumped
        # on every mutation of the list) are unchanged.
        self._names_version = 0
        self._pruned_key: tuple[int, int] | None = None
        self._running_key: tuple[int, int] | None = None
        self._running: tuple[Pod, ...] = ()
        self._tick_group: _TickGroup | None = None
        self._last_tick: float | None = None
        self.started = False
        self.finished = False

    # -- MetricsSource protocol ------------------------------------------------

    def metric_prefix(self) -> str:
        return f"app/{self.name}"

    def sample_metrics(self, now: float) -> Mapping[str, float]:
        """Default gauges every app exports; subclasses extend.

        Allocation totals accumulate per-dimension scalars in the same
        left-to-right order the vector sum used, so seeded metric streams
        are unchanged while skipping per-pod vector allocations.
        """
        running = self._running_pods()
        a_cpu = a_mem = a_disk = a_net = 0.0
        u_cpu = u_mem = u_disk = u_net = 0.0
        for pod in running:
            alloc = pod.allocation
            a_cpu += alloc.cpu
            a_mem += alloc.memory
            a_disk += alloc.disk_bw
            a_net += alloc.net_bw
            usage = pod.usage
            u_cpu += usage.cpu
            u_mem += usage.memory
            u_disk += usage.disk_bw
            u_net += usage.net_bw
        return {
            "replicas": float(len(self._pod_names)),
            "running_replicas": float(len(running)),
            "alloc/cpu": a_cpu,
            "alloc/memory": a_mem,
            "alloc/disk_bw": a_disk,
            "alloc/net_bw": a_net,
            "usage/cpu": u_cpu,
            "usage/memory": u_mem,
            "usage/disk_bw": u_disk,
            "usage/net_bw": u_net,
        }

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Submit initial replicas and begin ticking."""
        if self.started:
            raise RuntimeError(f"application {self.name!r} already started")
        self.started = True
        self._last_tick = self.engine.now
        for _ in range(self.initial_replicas):
            self._submit_replica()
        self._tick_group = _TickGroup.join(self)

    def stop(self) -> None:
        """Stop ticking and delete all non-terminal pods."""
        self._stop_ticking()
        for name in list(self._pod_names):
            pod = self.api.get_pod(name)
            if not pod.terminal:
                self.api.delete_pod(name, reason="app-stopped")
        self._clear_pod_names()
        self.finished = True

    def _finish_pods(self, *, succeeded: bool) -> None:
        """Mark every live pod finished, then stop ticking for good."""
        for pod in self.pods():
            if not pod.terminal:
                self.api.mark_finished(pod.name, succeeded=succeeded)
        self._clear_pod_names()
        self._stop_ticking()
        self.finished = True

    def _stop_ticking(self) -> None:
        group = self._tick_group
        if group is not None:
            self._tick_group = None
            group.leave(self)

    def _clear_pod_names(self) -> None:
        self._pod_names.clear()
        self._names_version += 1

    def _on_tick(self) -> None:
        now = self.engine.now
        dt = now - (self._last_tick if self._last_tick is not None else now)
        self._last_tick = now
        self._prune_terminal_pods()
        if self.maintain_replicas and not self.finished:
            self._heal_replicas(now)
        if dt > 0:
            self.tick(dt, now)

    def _heal_replicas(self, now: float) -> None:
        """Resubmit lost replicas, with crash-loop backoff.

        One tick that resubmits (however many pods) counts as one
        *replacement round*. Once ``restart_round_threshold`` rounds land
        inside ``restart_window`` — pods dying as fast as they are
        replaced — the next round is delayed exponentially up to
        ``restart_backoff_cap`` instead of resubmitting immediately.
        Transient actuation faults on the resubmit path are absorbed and
        retried on a later tick.
        """
        if len(self._pod_names) >= self._desired_replicas:
            return
        if now < self._resubmit_backoff_until:
            return
        resubmitted = 0
        try:
            while len(self._pod_names) < self._desired_replicas:
                self._submit_replica()
                self.replacements += 1
                resubmitted += 1
        except ActuationError:
            pass  # the next tick (or backoff expiry) retries
        if resubmitted == 0:
            return
        self._replacement_rounds.append(now)
        recent = [
            t for t in self._replacement_rounds if now - t <= self.restart_window
        ]
        excess = len(recent) - self.restart_round_threshold
        if excess >= 0:
            backoff = min(
                self.restart_backoff_cap,
                self.restart_backoff_base * (2.0 ** excess),
            )
            self._resubmit_backoff_until = now + backoff
            self.crash_loop_backoffs += 1

    def tick(self, dt: float, now: float) -> None:
        """Advance the performance model by ``dt`` seconds. Override."""
        raise NotImplementedError

    def _prune_terminal_pods(self) -> None:
        """Drop externally-evicted/finished pods from the replica list."""
        key = (self.api.pod_transitions, self._names_version)
        if key == self._pruned_key:
            return
        get_pod = self.api.get_pod
        kept = [name for name in self._pod_names if not get_pod(name).terminal]
        if len(kept) != len(self._pod_names):
            self._pod_names = kept
            self._names_version += 1
        self._pruned_key = (key[0], self._names_version)

    # -- replica management ----------------------------------------------------------

    def _submit_replica(self) -> Pod:
        spec = PodSpec(
            name=f"{self.name}-{self._next_index}",
            app=self.name,
            workload_class=self.workload_class,
            requests=self.target_allocation,
            gang_id=self.gang_id,
            priority=self.priority,
            labels=self.labels,
            node_selector=self.node_selector,
            node_preference=self.node_preference,
        )
        self._next_index += 1
        pod = self.api.create_pod(spec)
        self._pod_names.append(pod.name)
        self._names_version += 1
        return pod

    def pods(self) -> list[Pod]:
        """All live (non-terminal) pods of this app, oldest first."""
        return [self.api.get_pod(name) for name in self._pod_names]

    def running_pods(self) -> list[Pod]:
        """Running pods of this app, oldest first (a fresh list)."""
        return list(self._running_pods())

    def _running_pods(self) -> tuple[Pod, ...]:
        """Cached :meth:`running_pods`, recomputed only after a pod of the
        cluster changed phase or ``_pod_names`` changed."""
        key = (self.api.pod_transitions, self._names_version)
        if key != self._running_key:
            get_pod = self.api.get_pod
            self._running = tuple(
                pod
                for pod in map(get_pod, self._pod_names)
                if pod.phase is _RUNNING
            )
            self._running_key = key
        return self._running

    @property
    def replica_count(self) -> int:
        """Desired replica count (live pods, running or pending)."""
        return len(self._pod_names)

    def scale_to(self, replicas: int) -> None:
        """Horizontal scaling verb: grow by submitting, shrink newest-first."""
        if replicas < 0:
            raise ValueError("replicas must be ≥ 0")
        self._desired_replicas = replicas
        self._prune_terminal_pods()
        while len(self._pod_names) < replicas:
            self._submit_replica()
        while len(self._pod_names) > replicas:
            victim = self._pod_names.pop()
            self._names_version += 1
            pod = self.api.get_pod(victim)
            if not pod.terminal:
                self.api.delete_pod(victim, reason="scaled-down")

    def set_target_allocation(self, allocation: ResourceVector) -> int:
        """Vertical scaling verb: resize every live pod toward ``allocation``.

        New replicas will be submitted with this allocation. Returns the
        number of pods whose resize was accepted by the cluster.
        """
        if allocation.any_negative():
            raise ValueError("allocation must be non-negative")
        self.target_allocation = allocation
        accepted = 0
        for pod in self.pods():
            if pod.active and self.api.patch_pod_allocation(pod.name, allocation):
                accepted += 1
        return accepted

    def current_allocation(self) -> ResourceVector:
        """Allocation of one running replica (they converge to the target).

        Falls back to the target when nothing is running yet.
        """
        running = self._running_pods()
        if not running:
            return self.target_allocation
        return running[0].allocation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}({self.name!r}, replicas={self.replica_count}, "
            f"class={self.workload_class.value})"
        )
