"""Event-heap discrete-event simulation engine.

The engine keeps a priority queue of timestamped callbacks. Components
schedule work with :meth:`Engine.schedule` (relative delay) or
:meth:`Engine.schedule_at` (absolute time) and the engine executes
callbacks in time order. Ties are broken first by an explicit integer
priority (lower runs first) and then by insertion order, which makes runs
fully deterministic.

Simulated time is a float in **seconds**. There is no wall-clock coupling:
a 24-hour experiment runs as fast as its callbacks allow.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Cancellation is lazy: the heap entry stays in place but is skipped when
    popped. ``cancelled`` and ``executed`` let callers inspect state. The
    owning engine keeps a live-event counter and a cancelled-entry counter
    so :meth:`Engine.pending_count` is O(1) and heavy cancellation churn
    (watchdog feeds, retry backoff) triggers heap compaction instead of
    unbounded growth.
    """

    __slots__ = ("time", "priority", "callback", "cancelled", "executed",
                 "_engine")

    def __init__(
        self,
        time: float,
        priority: int,
        callback: Callable[[], None],
        engine: "Engine | None" = None,
    ):
        self.time = time
        self.priority = priority
        self.callback = callback
        self.cancelled = False
        self.executed = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from running. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.executed and self._engine is not None:
            self._engine._note_cancellation()

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled to run."""
        return not self.cancelled and not self.executed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "cancelled"
            if self.cancelled
            else ("done" if self.executed else "pending")
        )
        return f"EventHandle(t={self.time:.6g}, prio={self.priority}, {state})"


class PeriodicHandle:
    """Handle to a repeating event; cancelling stops future firings."""

    __slots__ = ("interval", "_engine", "_current", "cancelled", "fired")

    def __init__(self, engine: "Engine", interval: float):
        self.interval = interval
        self._engine = engine
        self._current: EventHandle | None = None
        self.cancelled = False
        self.fired = 0

    def cancel(self) -> None:
        """Stop the periodic event after any currently-executing firing."""
        self.cancelled = True
        if self._current is not None:
            self._current.cancel()


class Watchdog:
    """A feedable deadline timer: fires unless fed before the timeout.

    The lease-timer primitive of the replicated control plane: a leader
    arms a watchdog with its lease TTL and feeds it on every successful
    renewal; if renewals stop (crash, partition), the watchdog fires at
    exactly the moment the lease becomes stealable and the callback can
    self-fence *before* a rival leader can acquire it. Also usable for
    any "expected heartbeat" pattern.

    The callback fires at most once per arm; :meth:`feed` re-arms it.
    """

    __slots__ = ("timeout", "callback", "_engine", "_handle", "expirations")

    def __init__(self, engine: "Engine", timeout: float, callback: Callable[[], None]):
        if timeout <= 0:
            raise SimulationError(f"watchdog timeout must be positive, got {timeout!r}")
        self.timeout = timeout
        self.callback = callback
        self._engine = engine
        self._handle: EventHandle | None = None
        self.expirations = 0

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    def start(self) -> None:
        """Arm the watchdog (equivalent to an initial feed)."""
        self.feed()

    def feed(self) -> None:
        """Push the deadline out to ``now + timeout``."""
        if self._handle is not None:
            self._handle.cancel()
        # Priority -1: at an exact deadline tie, the expiry (and its
        # self-fencing side effects) runs before same-tick consumers.
        self._handle = self._engine.schedule(
            self.timeout, self._expire, priority=-1
        )

    def cancel(self) -> None:
        """Disarm without firing."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _expire(self) -> None:
        self._handle = None
        self.expirations += 1
        self.callback()


class Engine:
    """Discrete-event engine with deterministic execution order.

    Parameters
    ----------
    start_time:
        Initial simulated time (seconds). Defaults to 0.
    """

    #: Lazy-cancel compaction thresholds: rebuild the heap once at least
    #: ``_COMPACT_MIN`` cancelled entries linger AND they outnumber the
    #: live ones. Amortized O(1) per cancellation, bounds the heap at
    #: ~2× the live event count.
    _COMPACT_MIN = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._counter = itertools.count()
        self._running = False
        self.events_executed = 0
        # Live (scheduled, neither executed nor cancelled) events, kept
        # exact so pending_count() is O(1).
        self._live = 0
        # Cancelled entries still sitting in the heap (lazy cancellation).
        self._cancelled_in_heap = 0
        #: Number of lazy-cancel heap compactions performed (observability).
        self.heap_compactions = 0
        # Observer hooks invoked at every timestamp boundary (see
        # add_cycle_hook). Empty-list truthiness is the only cost on the
        # hot path when nobody is watching.
        self._cycle_hooks: list[Callable[[], None]] = []
        #: Tick interval -> the application tick group that most recently
        #: pushed its next firing (owned by :mod:`repro.workloads.base`;
        #: kept here so it lives and dies with the run).
        self.tick_groups: dict[float, object] = {}

    def _note_cancellation(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`."""
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= self._COMPACT_MIN
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Safe for determinism: heap entries are totally ordered by their
        unique ``(time, priority, seq)`` key, so any valid heap over the
        surviving entries pops in the identical order. The rebuild is done
        in place (slice assignment, not rebinding) so outstanding
        references to the heap list stay valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.heap_compactions += 1

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative. Returns a cancellable handle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, which is before now={self._now!r}"
            )
        handle = EventHandle(time, priority, callback, self)
        heapq.heappush(self._heap, (time, priority, next(self._counter), handle))
        self._live += 1
        return handle

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start: float | None = None,
        priority: int = 0,
    ) -> PeriodicHandle:
        """Run ``callback`` every ``interval`` seconds.

        The first firing happens at ``start`` (absolute time, default
        ``now + interval``). Returns a handle whose :meth:`~PeriodicHandle.cancel`
        stops future firings.
        """
        if interval <= 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval!r}"
            )
        periodic = PeriodicHandle(self, interval)
        first = self._now + interval if start is None else start
        # Rescheduling is inlined (no schedule_at frame or validity check
        # per firing): the next deadline is always now + interval ≥ now.
        # Push onto self._heap — never a captured alias — so the closure
        # survives any heap rebuild done by _compact().
        counter = self._counter

        def fire() -> None:
            if periodic.cancelled:
                return
            periodic.fired += 1
            callback()
            if not periodic.cancelled:
                handle = EventHandle(self._now + interval, priority, fire, self)
                heapq.heappush(
                    self._heap, (handle.time, priority, next(counter), handle)
                )
                self._live += 1
                periodic._current = handle

        periodic._current = self.schedule_at(first, fire, priority=priority)
        return periodic

    def peek(self) -> float | None:
        """Time of the next pending event, or None if the heap is empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return entry[0]
        return None

    def add_cycle_hook(self, hook: Callable[[], None]) -> None:
        """Register an observer called at every timestamp boundary.

        Hooks run just before the engine advances ``now`` to a strictly
        later timestamp — i.e. when every event at the current time has
        executed and the cluster is quiescent. They are the checkpoint
        used by the invariant checker (:mod:`repro.verify`).

        Hooks MUST be read-only with respect to the simulation: no
        scheduling, no cancellation, no RNG draws. A hook that mutates
        the heap mid-step has undefined behaviour; observation-only
        hooks keep seeded runs bit-identical with hooks on or off.
        """
        self._cycle_hooks.append(hook)

    def remove_cycle_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a cycle hook; unknown hooks are ignored."""
        try:
            self._cycle_hooks.remove(hook)
        except ValueError:
            pass

    def audit_heap(self) -> tuple[int, int]:
        """Count (live, cancelled) entries actually present in the heap.

        O(heap) introspection for integrity checks: the live count must
        equal :meth:`pending_count` and the cancelled count must equal
        the lazy-cancellation counter. A mismatch means an event was
        pushed onto a stale heap alias (lost across a compaction) or the
        bookkeeping drifted.
        """
        live = 0
        cancelled = 0
        for entry in self._heap:
            if entry[3].cancelled:
                cancelled += 1
            else:
                live += 1
        return live, cancelled

    @property
    def cancelled_in_heap(self) -> int:
        """Cancelled entries the heap still carries (lazy cancellation)."""
        return self._cancelled_in_heap

    def step(self) -> bool:
        """Execute the next pending event. Returns False if none remain."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            handle = entry[3]
            if handle.cancelled:
                pop(heap)
                self._cancelled_in_heap -= 1
                continue
            if self._cycle_hooks and entry[0] > self._now:
                # Quiescent boundary: everything at the current timestamp
                # has run and the clock is about to advance.
                for hook in tuple(self._cycle_hooks):
                    hook()
            pop(heap)
            self._now = entry[0]
            handle.executed = True
            self._live -= 1
            handle.callback()
            self.events_executed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until simulated time reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are executed. The clock is
        left at ``end_time`` even if the heap drains early, so periodic
        consumers observe a consistent horizon.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time!r} is before current time {self._now!r}"
            )
        self._running = True
        try:
            while self._running:
                nxt = self.peek()
                if nxt is None or nxt > end_time:
                    break
                self.step()
        finally:
            self._running = False
        self._now = max(self._now, end_time)

    def run(self, max_events: int | None = None) -> int:
        """Run until the event heap drains (or ``max_events`` executed).

        Returns the number of events executed by this call.
        """
        executed = 0
        self._running = True
        try:
            while self._running:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
        return executed

    def stop(self) -> None:
        """Stop a run in progress after the current event completes."""
        self._running = False

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the heap. O(1)."""
        return self._live

    def heap_size(self) -> int:
        """Raw heap length including lazily-cancelled entries (testing)."""
        return len(self._heap)
