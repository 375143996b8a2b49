"""Pod objects: the unit of scheduling and resource allocation.

A :class:`PodSpec` is what a workload submits (immutable intent); a
:class:`Pod` is the live object the cluster tracks (phase, node binding,
current allocation and usage). Pods follow Guaranteed-QoS semantics: the
allocation granted by the control plane is both the request and the limit,
so an application can only obtain more of a resource through an explicit
vertical resize or by adding replicas — exactly the actuation surface the
autoscaler controls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.cluster.resources import ResourceVector


class WorkloadClass(enum.Enum):
    """The three converging worlds, plus system daemons."""

    MICROSERVICE = "microservice"
    BIGDATA = "bigdata"
    HPC = "hpc"
    SYSTEM = "system"


class PodPhase(enum.Enum):
    """Lifecycle phases, a simplified kube pod phase machine."""

    PENDING = "pending"        # submitted, awaiting scheduling
    SCHEDULED = "scheduled"    # bound to a node, container starting
    RUNNING = "running"        # started, consuming resources
    SUCCEEDED = "succeeded"    # finished normally
    FAILED = "failed"          # crashed / gang aborted
    EVICTED = "evicted"        # preempted or vertically resized via restart


#: Phases in which a pod occupies node resources.
ACTIVE_PHASES = frozenset({PodPhase.SCHEDULED, PodPhase.RUNNING})

#: Phases a pod never leaves: it finished, crashed or was evicted.
TERMINAL_PHASES = frozenset({PodPhase.SUCCEEDED, PodPhase.FAILED, PodPhase.EVICTED})


@dataclass(frozen=True)
class PodSpec:
    """Immutable submission intent for one pod.

    Parameters
    ----------
    name:
        Unique pod name within the cluster.
    app:
        Application (deployment/job) this pod belongs to; the controller
        operates per-app.
    workload_class:
        Which world the pod belongs to; drives scheduler policy.
    requests:
        Initial resource request (also the limit; Guaranteed QoS).
    gang_id:
        HPC jobs set this: all pods sharing a gang_id must be co-scheduled
        atomically.
    priority:
        Larger values are more important; used for preemption ordering.
    labels:
        Free-form metadata (zone affinity, dataset hints, ...).
    node_selector:
        Hard placement constraint: the pod may only run on nodes whose
        labels include every entry (kube nodeSelector semantics).
    node_preference:
        Soft constraint: schedulers award a scoring bonus on nodes whose
        labels match (used e.g. to steer accelerable executors toward
        FPGA nodes without making them unschedulable elsewhere).
    """

    name: str
    app: str
    workload_class: WorkloadClass
    requests: ResourceVector
    gang_id: str | None = None
    priority: int = 0
    labels: Mapping[str, str] = field(default_factory=dict)
    node_selector: Mapping[str, str] = field(default_factory=dict)
    node_preference: Mapping[str, str] = field(default_factory=dict)

    def selector_matches(self, node_labels: Mapping[str, str]) -> bool:
        """Whether a node's labels satisfy the hard selector."""
        return all(node_labels.get(k) == v for k, v in self.node_selector.items())

    def preference_matches(self, node_labels: Mapping[str, str]) -> bool:
        """Whether a node's labels satisfy the soft preference."""
        if not self.node_preference:
            return False
        return all(
            node_labels.get(k) == v for k, v in self.node_preference.items()
        )

    def __post_init__(self) -> None:
        if self.requests.any_negative():
            raise ValueError(f"pod {self.name!r}: negative resource request")


class Pod:
    """Live pod object tracked by the cluster.

    Attributes
    ----------
    allocation:
        Resources currently granted (request == limit). Changed only by
        :meth:`repro.cluster.cluster.Cluster.resize_pod`.
    usage:
        Most recent measured consumption, written by the workload model
        each metrics tick; always ≤ allocation (enforcement).
    """

    __slots__ = (
        "spec",
        "phase",
        "node_name",
        "allocation",
        "usage",
        "created_at",
        "scheduled_at",
        "started_at",
        "finished_at",
        "restarts",
    )

    def __init__(self, spec: PodSpec, created_at: float):
        self.spec = spec
        self.phase = PodPhase.PENDING
        self.node_name: str | None = None
        self.allocation: ResourceVector = spec.requests
        self.usage: ResourceVector = ResourceVector.zero()
        self.created_at = created_at
        self.scheduled_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.restarts = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def app(self) -> str:
        return self.spec.app

    @property
    def active(self) -> bool:
        """True while the pod holds resources on a node."""
        return self.phase in ACTIVE_PHASES

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES

    def record_usage(self, usage: ResourceVector) -> None:
        """Record measured usage, enforced at the current allocation.

        Fused elementwise ``min`` + nonnegative clamp: this runs once per
        replica per model tick, making it one of the hottest call sites
        in long simulations.
        """
        alloc = self.allocation
        self.usage = ResourceVector._from_fields(
            max(0.0, min(usage.cpu, alloc.cpu)),
            max(0.0, min(usage.memory, alloc.memory)),
            max(0.0, min(usage.disk_bw, alloc.disk_bw)),
            max(0.0, min(usage.net_bw, alloc.net_bw)),
        )

    def scheduling_latency(self) -> float | None:
        """Seconds from submission to binding, if scheduled."""
        if self.scheduled_at is None:
            return None
        return self.scheduled_at - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Pod({self.name!r}, app={self.app!r}, phase={self.phase.value}, "
            f"node={self.node_name!r})"
        )
