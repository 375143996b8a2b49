"""The control loop: evaluate PLOs, decide, actuate — and degrade gracefully.

One :class:`ControlLoopManager` runs per experiment. Every control period
it, for each registered application:

1. evaluates the application's PLO against the metrics pipeline and
   checks the signal is *fresh* (recent samples, not a stalled scrape),
2. builds the saturation snapshot from scraped usage/allocation,
3. asks the application's :class:`~repro.control.multiresource.MultiResourceController`
   for a decision,
4. actuates vertically (in-place pod resizes) and, through an optional
   horizontal policy, by adding/removing replicas when vertical scaling
   rails out,
5. records the loop's internals as metrics series for the evaluation
   harness (error, output, gain scale, decisions, safe mode, breaker).

The loop is hardened against the fault taxonomy in
:mod:`repro.cluster.chaos` / :mod:`repro.metrics.faults`:

* **Stale-signal holddown + safe mode** — a missing or stale PLO signal
  never reaches the PID. After ``safe_mode_after`` consecutive stale
  periods the app enters *safe mode*: the loop freezes it at the
  last-known-good allocation and stops actuating until the signal
  returns, at which point the controller state is reset (stale integral
  discarded) and normal operation resumes.
* **Retry with exponential backoff + jitter** — actuations that raise
  :class:`~repro.cluster.api.ActuationError` are retried on a capped
  exponential schedule instead of hot-looped.
* **Circuit breaker** — an app whose actuations keep failing, or whose
  decisions flap between grow and reclaim, has scaling suppressed for
  ``breaker_open_duration`` seconds. When the window elapses the breaker
  goes *half-open*: the next actuation is a probe — success closes the
  breaker, failure re-opens it immediately for another full window.
* **Backpressure** (opt-in via
  :class:`~repro.scheduler.admission.OverloadConfig`) — while any loop is
  distressed (pending retries, open/probing breakers, safe mode), grow
  decisions are queued and coalesced in a
  :class:`~repro.control.backpressure.BackpressureState` instead of
  issued, preventing retry storms; they drain on the first calm period.
* **Brownout** (opt-in) — apps exposing the brownout surface
  (``enter_brownout`` / ``exit_brownout``) are hysteretically degraded
  to a cheaper PLO tier under sustained violation and restored once the
  error clears.

All retry/breaker knobs live in :class:`ResilienceConfig`; overload
features live in :class:`~repro.scheduler.admission.OverloadConfig`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.cluster.api import ActuationError
from repro.cluster.resources import RESOURCES, ResourceVector
from repro.control.backpressure import BackpressureState
from repro.control.estimator import SaturationSnapshot
from repro.control.multiresource import ControlDecision, MultiResourceController
from repro.metrics.collector import MetricsCollector
from repro.obs.tracing import DecisionProvenance
from repro.sim.engine import Engine, EventHandle, PeriodicHandle
from repro.workloads.base import Application


class HorizontalPolicy(Protocol):
    """Hook deciding replica-count changes after the vertical decision."""

    def adjust(
        self,
        app: Application,
        decision: ControlDecision,
        controller: MultiResourceController,
    ) -> int:
        """Return the desired replica count (may equal the current one)."""
        ...


@dataclass(frozen=True)
class ResilienceConfig:
    """Degradation/retry knobs of the control loop.

    Parameters
    ----------
    safe_mode_after:
        Consecutive stale control periods before an app enters safe mode.
    freshness_timeout:
        Max age (s) of the newest PLO-metric sample before the signal
        counts as stale; None derives ``2.5 × interval``.
    retry_base_delay / retry_max_delay / retry_jitter / max_retries:
        Exponential-backoff schedule for failed actuations: attempt *n*
        waits ``base · 2ⁿ`` seconds (capped at ``retry_max_delay``),
        multiplied by a uniform ``1 ± retry_jitter`` factor so synchronized
        retries de-correlate. At most ``max_retries`` retries per decision.
    breaker_failure_threshold:
        Consecutive actuation failures that trip the circuit breaker.
    breaker_flap_window / breaker_flap_threshold:
        Trip the breaker when the last ``flap_window`` non-hold decisions
        contain at least ``flap_threshold`` grow↔reclaim direction flips.
    breaker_open_duration:
        Seconds scaling stays suppressed once the breaker opens.
    """

    safe_mode_after: int = 3
    freshness_timeout: float | None = None
    retry_base_delay: float = 2.0
    retry_max_delay: float = 60.0
    retry_jitter: float = 0.25
    max_retries: int = 4
    breaker_failure_threshold: int = 3
    breaker_flap_window: int = 6
    breaker_flap_threshold: int = 4
    breaker_open_duration: float = 120.0

    def __post_init__(self) -> None:
        if self.safe_mode_after < 1:
            raise ValueError("safe_mode_after must be ≥ 1")
        if self.retry_base_delay <= 0 or self.retry_max_delay <= 0:
            raise ValueError("retry delays must be positive")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be ≥ 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be ≥ 1")
        if self.breaker_open_duration <= 0:
            raise ValueError("breaker_open_duration must be positive")


@dataclass
class _Entry:
    app: Application
    controller: MultiResourceController
    horizontal: HorizontalPolicy | None
    feedforward: object | None = None  # optional FeedforwardScaler
    last_decision: ControlDecision | None = None
    skipped: int = 0
    stats: dict[str, int] = field(
        default_factory=lambda: {"grow": 0, "reclaim": 0, "hold": 0}
    )
    # -- resilience state ----------------------------------------------------
    stale_periods: int = 0
    last_signal_time: float | None = None
    safe_mode: bool = False
    safe_mode_entries: int = 0
    safe_mode_exits: int = 0
    last_good_allocation: ResourceVector | None = None
    actuation_failures: int = 0
    consecutive_failures: int = 0
    retries: int = 0
    retry_attempts: int = 0
    retry_action: Callable[[], None] | None = None
    retry_handle: EventHandle | None = None
    breaker_open_until: float = 0.0
    breaker_trips: int = 0
    breaker_skips: int = 0
    # Half-open: the open window elapsed and the next actuation is a
    # probe — success closes the breaker, failure re-opens it.
    breaker_half_open: bool = False
    breaker_probes: int = 0
    breaker_reopens: int = 0
    directions: deque = field(default_factory=lambda: deque(maxlen=6))
    # -- brownout hysteresis (only advanced when brownout is enabled) --------
    brownout_high_periods: int = 0
    brownout_low_periods: int = 0
    brownout_entries: int = 0
    brownout_exits: int = 0
    brownout_episode: object | None = None
    # Span id of the current period's decide span (telemetry only), so
    # actuations — including delayed retries — parent to their decision.
    decision_span_id: int | None = None


class ControlLoopManager:
    """Periodic controller executor over registered applications.

    Parameters
    ----------
    interval:
        Control period in seconds (the dt fed to each PID).
    usage_window:
        Trailing window for usage averaging when building saturation
        snapshots; defaults to the control period.
    resilience:
        Safe-mode / retry / breaker knobs; defaults to
        :class:`ResilienceConfig` (hardening always on).
    rng:
        Source of retry jitter; seeded default keeps runs deterministic.
    overload:
        Optional :class:`~repro.scheduler.admission.OverloadConfig`.
        Its ``backpressure`` flag arms the deferred scale-up ledger and
        ``brownout`` arms hysteretic degradation; both default off, and a
        ``None`` (or all-off) config leaves the loop byte-identical.
    """

    def __init__(
        self,
        engine: Engine,
        collector: MetricsCollector,
        *,
        interval: float = 10.0,
        usage_window: float | None = None,
        resilience: ResilienceConfig | None = None,
        rng: np.random.Generator | None = None,
        fault_log=None,
        overload=None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.collector = collector
        self.interval = interval
        self.usage_window = usage_window or interval
        self.resilience = resilience or ResilienceConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.fault_log = fault_log
        self.backpressure: BackpressureState | None = (
            BackpressureState()
            if overload is not None and overload.backpressure
            else None
        )
        self.brownout_cfg = (
            overload if overload is not None and overload.brownout else None
        )
        # Aggregate brownout counters across all entries, maintained at
        # the enter/exit sites so telemetry can sync ``sched/brownout/*``
        # with plain attribute reads per scrape.
        self.brownout_entries_total = 0
        self.brownout_exits_total = 0
        self.brownout_active_total = 0
        # HA hooks (see repro.control.ha). ``partition_guard`` runs at the
        # top of every actuation and may raise ActuationError (a partitioned
        # leader cannot reach the API, so its writes fail like any other
        # transient fault). ``actuation_sink`` is the write-ahead hook: it
        # sees (app, kind, target) *before* the action is issued, so a crash
        # mid-actuation still leaves a WAL record for the successor.
        self.partition_guard: Callable[[], None] | None = None
        self.actuation_sink: Callable[[str, str, object], None] | None = None
        #: Optional :class:`~repro.obs.telemetry.Telemetry` bundle.
        self.telemetry = None
        #: Fencing epoch of the lease this manager acts under (set by the
        #: HA control plane on promotion; None when not replicated).
        self.lease_generation: int | None = None
        self._entries: dict[str, _Entry] = {}
        self._handle: PeriodicHandle | None = None
        self.loops = 0

    @property
    def freshness_timeout(self) -> float:
        timeout = self.resilience.freshness_timeout
        return timeout if timeout is not None else 2.5 * self.interval

    # -- registration ------------------------------------------------------------

    def register(
        self,
        app: Application,
        controller: MultiResourceController,
        *,
        horizontal: HorizontalPolicy | None = None,
        feedforward=None,
    ) -> None:
        """Manage ``app`` (which must carry a ``plo``) with ``controller``."""
        if app.plo is None:
            raise ValueError(f"application {app.name!r} has no PLO attached")
        if app.name in self._entries:
            raise ValueError(f"application {app.name!r} already registered")
        entry = _Entry(app, controller, horizontal, feedforward)
        entry.directions = deque(maxlen=max(2, self.resilience.breaker_flap_window))
        self._entries[app.name] = entry

    def unregister(self, app_name: str) -> None:
        entry = self._entries.pop(app_name, None)
        if entry is not None:
            self._cancel_retry(entry)

    def applications(self) -> dict[str, Application]:
        """Registered applications by name (HA replay needs the objects)."""
        return {name: entry.app for name, entry in self._entries.items()}

    def entry_stats(self, app_name: str) -> dict[str, int]:
        """Decision counts for one application (for tests/reports)."""
        return dict(self._entries[app_name].stats)

    def entry_resilience(self, app_name: str) -> dict[str, int | bool]:
        """Resilience counters for one application (for tests/reports)."""
        entry = self._entries[app_name]
        return {
            "safe_mode": entry.safe_mode,
            "safe_mode_entries": entry.safe_mode_entries,
            "safe_mode_exits": entry.safe_mode_exits,
            "stale_periods": entry.stale_periods,
            "actuation_failures": entry.actuation_failures,
            "retries": entry.retries,
            "breaker_trips": entry.breaker_trips,
            "breaker_skips": entry.breaker_skips,
            "breaker_probes": entry.breaker_probes,
            "breaker_reopens": entry.breaker_reopens,
            "brownout_entries": entry.brownout_entries,
            "brownout_exits": entry.brownout_exits,
        }

    def resilience_stats(self) -> dict[str, int]:
        """Aggregate resilience counters over all registered applications."""
        totals = {
            "safe_mode_entries": 0,
            "safe_mode_exits": 0,
            "actuation_failures": 0,
            "retries": 0,
            "breaker_trips": 0,
            "breaker_skips": 0,
            "breaker_probes": 0,
            "breaker_reopens": 0,
            "brownout_entries": 0,
            "brownout_exits": 0,
        }
        for entry in self._entries.values():
            totals["safe_mode_entries"] += entry.safe_mode_entries
            totals["safe_mode_exits"] += entry.safe_mode_exits
            totals["actuation_failures"] += entry.actuation_failures
            totals["retries"] += entry.retries
            totals["breaker_trips"] += entry.breaker_trips
            totals["breaker_skips"] += entry.breaker_skips
            totals["breaker_probes"] += entry.breaker_probes
            totals["breaker_reopens"] += entry.breaker_reopens
            totals["brownout_entries"] += entry.brownout_entries
            totals["brownout_exits"] += entry.brownout_exits
        return totals

    def backpressure_stats(self) -> dict[str, int]:
        """Deferred scale-up ledger counters (zeros when disabled)."""
        if self.backpressure is None:
            return {
                "queued": 0,
                "deferrals": 0,
                "coalesced": 0,
                "releases": 0,
                "dropped": 0,
            }
        return self.backpressure.stats()

    # -- state export / restore (control-plane HA) ----------------------------------

    def export_state(self) -> dict[str, dict]:
        """Per-application control state for a durable snapshot.

        Captures everything a standby replica needs to resume each loop
        mid-transient: controller internals (PID integrator, adaptive gain
        scale), safe-mode and breaker latches, and the last-known-good
        allocation. In-flight retry closures are deliberately *not*
        exported — they die with the process; the WAL covers re-issuing
        whatever was lost.
        """
        state: dict[str, dict] = {}
        for name, entry in self._entries.items():
            state[name] = {
                "stats": dict(entry.stats),
                "skipped": entry.skipped,
                "stale_periods": entry.stale_periods,
                "last_signal_time": entry.last_signal_time,
                "safe_mode": entry.safe_mode,
                "safe_mode_entries": entry.safe_mode_entries,
                "safe_mode_exits": entry.safe_mode_exits,
                "last_good_allocation": (
                    entry.last_good_allocation.as_dict()
                    if entry.last_good_allocation is not None
                    else None
                ),
                "breaker_open_until": entry.breaker_open_until,
                "breaker_trips": entry.breaker_trips,
                "breaker_skips": entry.breaker_skips,
                "breaker_half_open": entry.breaker_half_open,
                "directions": list(entry.directions),
                "controller": entry.controller.export_state(),
            }
        return state

    def restore_state(self, state: dict[str, dict]) -> None:
        """Load a snapshot produced by :meth:`export_state`.

        Unknown application names are ignored (the snapshot may predate an
        unregister); registered apps absent from the snapshot keep their
        current (freshly reset) state.
        """
        for name, app_state in state.items():
            entry = self._entries.get(name)
            if entry is None:
                continue
            entry.stats = dict(app_state["stats"])
            entry.skipped = int(app_state["skipped"])
            entry.stale_periods = int(app_state["stale_periods"])
            entry.last_signal_time = app_state["last_signal_time"]
            entry.safe_mode = bool(app_state["safe_mode"])
            entry.safe_mode_entries = int(app_state["safe_mode_entries"])
            entry.safe_mode_exits = int(app_state["safe_mode_exits"])
            good = app_state["last_good_allocation"]
            entry.last_good_allocation = (
                ResourceVector.from_dict(good) if good is not None else None
            )
            entry.breaker_open_until = float(app_state["breaker_open_until"])
            entry.breaker_trips = int(app_state["breaker_trips"])
            entry.breaker_skips = int(app_state["breaker_skips"])
            entry.breaker_half_open = bool(
                app_state.get("breaker_half_open", False)
            )
            entry.directions.clear()
            entry.directions.extend(app_state["directions"])
            entry.controller.restore_state(app_state["controller"])

    def reset_entries(self) -> None:
        """Discard all in-memory control state (simulated process restart).

        A crashed controller loses its integrators, latches, and pending
        retries; a successor starts from here and then applies whatever the
        statestore preserved via :meth:`restore_state`.
        """
        for entry in self._entries.values():
            self._cancel_retry(entry)
            entry.controller.reset()
            entry.last_decision = None
            entry.stale_periods = 0
            entry.last_signal_time = None
            entry.safe_mode = False
            entry.last_good_allocation = None
            entry.consecutive_failures = 0
            entry.breaker_open_until = 0.0
            entry.breaker_half_open = False
            entry.brownout_high_periods = 0
            entry.brownout_low_periods = 0
            entry.directions.clear()
        if self.backpressure is not None:
            self.backpressure.clear()

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("manager already started")
        self._handle = self.engine.every(self.interval, self.run_once, priority=5)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        for entry in self._entries.values():
            self._cancel_retry(entry)

    # -- signal freshness / safe mode ---------------------------------------------

    def _signal_fresh(self, entry: _Entry, error: float | None, now: float) -> bool:
        """Whether the PLO signal is present *and* recently scraped."""
        if error is None:
            return False
        app = entry.app
        last_t = self.collector.latest_time(app.plo.metric_name(app.name))
        return last_t is not None and now - last_t <= self.freshness_timeout

    def _enter_safe_mode(self, entry: _Entry, now: float) -> None:
        entry.safe_mode = True
        entry.safe_mode_entries += 1
        if self.telemetry is not None:
            self.telemetry.safe_mode_entries.inc()
            self.telemetry.tracer.instant(
                "safe_mode_enter", "control", app=entry.app.name,
                stale_periods=entry.stale_periods,
            )
        self._cancel_retry(entry)
        # Freeze at the last-known-good allocation: if a decision taken on
        # data that later proved stale moved the target, pull it back.
        good = entry.last_good_allocation
        if good is not None and not good.approx_equal(
            entry.app.target_allocation, tolerance=1e-9
        ):
            try:
                entry.app.set_target_allocation(good)
            except ActuationError:
                pass  # stay frozen wherever we are; retried on exit

    def _exit_safe_mode(self, entry: _Entry) -> None:
        entry.safe_mode = False
        entry.safe_mode_exits += 1
        # The PID integrated against a signal that then went dark; start
        # the loop clean rather than acting on pre-outage momentum.
        entry.controller.reset()

    # -- actuation: retries and circuit breaking ------------------------------------

    def _cancel_retry(self, entry: _Entry) -> None:
        if entry.retry_handle is not None:
            entry.retry_handle.cancel()
        entry.retry_handle = None
        entry.retry_action = None
        entry.retry_attempts = 0

    def _trip_breaker(self, entry: _Entry, now: float) -> None:
        entry.breaker_open_until = now + self.resilience.breaker_open_duration
        entry.breaker_trips += 1
        entry.breaker_half_open = False
        if self.telemetry is not None:
            self.telemetry.breaker_trips.inc()
            self.telemetry.tracer.instant(
                "breaker_trip", "control", app=entry.app.name,
                open_until=entry.breaker_open_until,
            )
        entry.directions.clear()
        entry.consecutive_failures = 0
        self._cancel_retry(entry)

    def _record_direction(self, entry: _Entry, decision: ControlDecision) -> bool:
        """Track grow/reclaim flapping; True when the breaker just tripped."""
        if decision.action == "hold":
            return False
        entry.directions.append(1 if decision.action == "grow" else -1)
        flips = sum(
            1
            for a, b in zip(entry.directions, list(entry.directions)[1:])
            if a != b
        )
        if (
            len(entry.directions) >= 2
            and flips >= self.resilience.breaker_flap_threshold
        ):
            self._trip_breaker(entry, self.engine.now)
            return True
        return False

    def _actuate(
        self,
        entry: _Entry,
        action: Callable[[], None],
        *,
        on_success: Callable[[], None] | None = None,
        kind: str = "actuation",
    ) -> bool:
        """Run one actuation, absorbing injected transient failures.

        On failure the actuation is rescheduled with exponential backoff
        and jitter (up to ``max_retries``); repeated failures trip the
        circuit breaker instead of retrying forever.
        """
        tel = self.telemetry
        sp = None
        if tel is not None:
            # Parent to the decide span that ordered this actuation — an
            # explicit link, so delayed retries stay causally attached.
            sp = tel.tracer.begin(
                "actuate", "actuation", parent=entry.decision_span_id,
                app=entry.app.name, kind=kind,
            )
        try:
            try:
                if self.partition_guard is not None:
                    self.partition_guard()
                action()
            except ActuationError:
                if sp is not None:
                    sp.args["outcome"] = "failed"
                self._on_actuation_failure(entry, action, on_success)
                return False
            if entry.breaker_half_open:
                # Successful probe: the breaker is fully closed again.
                entry.breaker_half_open = False
                if tel is not None:
                    tel.tracer.instant(
                        "breaker_close", "control", app=entry.app.name,
                    )
            entry.consecutive_failures = 0
            self._cancel_retry(entry)
            if sp is not None:
                sp.args["outcome"] = "applied"
                tel.actuations.inc()
            if on_success is not None:
                on_success()
            return True
        finally:
            if sp is not None:
                tel.tracer.end(sp)

    def _on_actuation_failure(
        self,
        entry: _Entry,
        action: Callable[[], None],
        on_success: Callable[[], None] | None,
    ) -> None:
        cfg = self.resilience
        entry.actuation_failures += 1
        if self.telemetry is not None:
            self.telemetry.actuation_failures.inc()
        if entry.breaker_half_open:
            # Failed probe: re-open immediately for another full window
            # rather than counting toward the failure threshold.
            entry.breaker_reopens += 1
            self._trip_breaker(entry, self.engine.now)
            return
        entry.consecutive_failures += 1
        if entry.consecutive_failures >= cfg.breaker_failure_threshold:
            self._trip_breaker(entry, self.engine.now)
            return
        if entry.retry_attempts >= cfg.max_retries:
            # Give up on this decision; the next period re-decides.
            self._cancel_retry(entry)
            return
        delay = min(
            cfg.retry_max_delay,
            cfg.retry_base_delay * (2.0 ** entry.retry_attempts),
        )
        if cfg.retry_jitter > 0:
            delay *= 1.0 + cfg.retry_jitter * (2.0 * float(self.rng.random()) - 1.0)
        entry.retry_attempts += 1
        entry.retries += 1
        if self.telemetry is not None:
            self.telemetry.actuation_retries.inc()
        entry.retry_action = action
        if entry.retry_handle is not None:
            entry.retry_handle.cancel()
        entry.retry_handle = self.engine.schedule(
            delay, lambda: self._run_retry(entry, action, on_success)
        )
        if self.fault_log is not None:
            # Structured episode per retry window so MTTR attribution in
            # analysis.recovery can separate retry latency from the outage.
            now = self.engine.now
            self.fault_log.record(
                "actuation-retry", entry.app.name, now, now + delay,
                detail=f"attempt={entry.retry_attempts}",
            )

    def _run_retry(
        self,
        entry: _Entry,
        action: Callable[[], None],
        on_success: Callable[[], None] | None,
    ) -> None:
        if entry.retry_action is not action:
            return  # superseded by a newer decision
        entry.retry_handle = None
        if (
            entry.app.finished
            or entry.safe_mode
            or self.engine.now < entry.breaker_open_until
        ):
            entry.retry_action = None
            return
        self._actuate(entry, action, on_success=on_success, kind="retry")

    # -- backpressure and brownout ---------------------------------------------------

    def _distressed(self, now: float) -> bool:
        """Whether any registered loop shows distress right now: a retry
        pending, a breaker open or probing, safe mode, or unresolved
        actuation failures."""
        for entry in self._entries.values():
            if (
                entry.retry_handle is not None
                or entry.safe_mode
                or entry.breaker_half_open
                or now < entry.breaker_open_until
                or entry.consecutive_failures > 0
            ):
                return True
        return False

    def _apply_backpressure(
        self, entry: _Entry, desired: int, current: int, now: float
    ) -> int:
        """Queue/coalesce grows under distress; drain queued grows when calm.

        Returns the replica target to actually pursue this period.
        """
        bp = self.backpressure
        app_name = entry.app.name
        if self._distressed(now):
            if desired > current:
                bp.defer(app_name, desired)
                desired = current
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "backpressure_defer", "control", app=app_name,
                    )
            elif desired < current:
                # A reclaim supersedes any queued grow.
                bp.drop(app_name)
        else:
            held = bp.release(app_name)
            if held is not None and desired >= current:
                desired = max(desired, held)
        self.collector.record(
            f"control/{app_name}/backpressure",
            1.0 if bp.pending(app_name) else 0.0,
        )
        return desired

    def _update_brownout(self, entry: _Entry, error: float | None, now: float) -> None:
        """Hysteretic brownout: enter after ``brownout_enter_periods``
        consecutive periods above the enter error, exit after
        ``brownout_exit_periods`` below the (penalty-compensated) exit
        error. The application object is the source of truth for the
        active flag, so it survives controller failover.
        """
        cfg = self.brownout_cfg
        app = entry.app
        if not getattr(app, "brownout_capable", False):
            return
        if not app.brownout_active:
            if error is not None and error >= cfg.brownout_enter_error:
                entry.brownout_high_periods += 1
            else:
                entry.brownout_high_periods = 0
            if entry.brownout_high_periods >= cfg.brownout_enter_periods:
                entry.brownout_high_periods = 0
                app.enter_brownout(
                    factor=cfg.brownout_demand_factor,
                    latency_penalty=cfg.brownout_latency_penalty,
                )
                entry.brownout_entries += 1
                self.brownout_entries_total += 1
                self.brownout_active_total += 1
                if self.fault_log is not None:
                    entry.brownout_episode = self.fault_log.open(
                        "brownout", app.name, now,
                        detail=f"factor={cfg.brownout_demand_factor}",
                    )
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "brownout_enter", "control", app=app.name,
                    )
        else:
            # The latency penalty keeps the measured error from ever
            # reaching zero; compensate the exit threshold so a service
            # that would be healthy un-degraded can actually leave.
            threshold = cfg.brownout_exit_error
            plo = app.plo
            if getattr(plo, "kind", None) == "latency" and plo.target > 0:
                threshold += cfg.brownout_latency_penalty / plo.target
            if error is not None and error <= threshold:
                entry.brownout_low_periods += 1
            else:
                entry.brownout_low_periods = 0
            if entry.brownout_low_periods >= cfg.brownout_exit_periods:
                entry.brownout_low_periods = 0
                app.exit_brownout()
                entry.brownout_exits += 1
                self.brownout_exits_total += 1
                self.brownout_active_total -= 1
                if self.fault_log is not None and entry.brownout_episode is not None:
                    self.fault_log.close(entry.brownout_episode, now)
                    entry.brownout_episode = None
                if self.telemetry is not None:
                    self.telemetry.tracer.instant(
                        "brownout_exit", "control", app=app.name,
                    )
        self.collector.record(
            f"control/{app.name}/brownout",
            1.0 if app.brownout_active else 0.0,
        )

    # -- the loop ----------------------------------------------------------------------

    def _saturation(self, app: Application) -> SaturationSnapshot:
        """Saturation from scraped series, falling back to live pods."""
        prefix = app.metric_prefix()
        usage = {}
        alloc = {}
        for name in RESOURCES:
            usage[name] = self.collector.window_mean(
                f"{prefix}/usage/{name}", self.usage_window
            )
            alloc[name] = self.collector.latest(f"{prefix}/alloc/{name}")
        if any(v is None for v in usage.values()) or any(
            v is None or v <= 0 for v in alloc.values()
        ):
            total_usage = ResourceVector.zero()
            total_alloc = ResourceVector.zero()
            for pod in app.running_pods():
                total_usage = total_usage + pod.usage
                total_alloc = total_alloc + pod.allocation
            return SaturationSnapshot.from_vectors(total_usage, total_alloc)
        fractions = {
            name: (usage[name] / alloc[name] if alloc[name] else 0.0)
            for name in RESOURCES
        }
        return SaturationSnapshot(fractions)

    def run_once(self) -> None:
        """Execute one control period over all registered applications."""
        now = self.engine.now
        self.loops += 1
        for entry in list(self._entries.values()):
            if entry.app.finished:
                continue
            self._run_entry(entry, now)

    def _run_entry(self, entry: _Entry, now: float) -> None:
        tel = self.telemetry
        if tel is None:
            entry.decision_span_id = None
            self._run_entry_inner(entry, now, None)
            return
        sp = tel.tracer.begin("decide", "control", app=entry.app.name)
        entry.decision_span_id = sp.id
        try:
            self._run_entry_inner(entry, now, sp)
        finally:
            tel.tracer.end(sp)

    def _emit_provenance(
        self,
        entry: _Entry,
        now: float,
        verdict: str,
        *,
        decision: ControlDecision | None = None,
        action: str | None = None,
        target: ResourceVector | None = None,
        sp=None,
    ) -> None:
        """Append one decision-provenance record (telemetry only).

        Links the decide span back to the scrape that stored the newest
        PLO sample this evaluation read, and snapshots controller
        internals at decision time.
        """
        tel = self.telemetry
        if tel is None:
            return
        app = entry.app
        metric = app.plo.metric_name(app.name)
        signal = self.collector.latest_sample(metric)
        signal_time = signal[0] if signal is not None else None
        signal_age = now - signal_time if signal_time is not None else None
        scrape_span = (
            self.collector.scrape_span_at(signal_time)
            if signal_time is not None
            else None
        )
        if sp is not None and scrape_span is not None:
            sp.parent_id = scrape_span
        # Plain attribute reads and inline tests below, not getattr or
        # properties: this runs once per decision and the overhead gate
        # counts every function call the enabled path makes.
        controller = entry.controller
        if action is None:
            action = decision.action if decision is not None else "none"
        if (
            target is None
            and decision is not None
            and decision.action != "hold"
        ):
            target = decision.new_allocation
        active: tuple[int, ...] = ()
        log = self.fault_log
        if log is not None and log.episodes:
            active = tuple(ep.eid for ep in log.active_at(now))
        tel.tracer.trace.provenance.append(DecisionProvenance(
            app=app.name,
            time=now,
            verdict=verdict,
            action=action,
            error=decision.error if decision is not None else None,
            output=decision.output if decision is not None else None,
            gain_scale=decision.gain_scale if decision is not None else None,
            terms=controller.pid.last_terms if decision is not None else None,
            inputs={metric: signal[1] if signal is not None else None},
            signal_age=signal_age,
            stale_periods=entry.stale_periods,
            safe_mode=entry.safe_mode,
            deadband=controller.deadband,
            clamped=decision.clamped if decision is not None else False,
            weights=dict(decision.weights) if decision is not None else {},
            target=target.as_dict() if target is not None else None,
            replicas=app.replica_count,
            lease_generation=self.lease_generation,
            scrape_span_id=scrape_span,
            span_id=sp.id if sp is not None else None,
            active_faults=active,
            tuner_event=(
                controller.tuner.last_event if decision is not None else None
            ),
        ))
        if sp is not None:
            sp.args["verdict"] = verdict
            sp.args["action"] = action
        if verdict == "actuated" and signal_age is not None:
            tel.reaction_latency.observe(signal_age)

    def _run_entry_inner(self, entry: _Entry, now: float, sp) -> None:
        app = entry.app
        prefix = f"control/{app.name}"
        status = app.plo.evaluate(self.collector, app.name, now)

        if not self._signal_fresh(entry, status.error, now):
            entry.skipped += 1
            entered = False
            # Before the first signal ever arrives there is no last-known-
            # good state to protect; stay in the plain skip path.
            if entry.last_signal_time is not None:
                entry.stale_periods += 1
                if (
                    not entry.safe_mode
                    and entry.stale_periods >= self.resilience.safe_mode_after
                ):
                    self._enter_safe_mode(entry, now)
                    entered = True
            self.collector.record(
                f"{prefix}/safe_mode", 1.0 if entry.safe_mode else 0.0
            )
            if self.telemetry is not None:
                if entered:
                    self._emit_provenance(
                        entry, now, "safe-mode-entry", action="freeze",
                        target=entry.last_good_allocation, sp=sp,
                    )
                elif entry.safe_mode:
                    self._emit_provenance(entry, now, "safe-mode-hold", sp=sp)
                else:
                    self._emit_provenance(entry, now, "stale-skip", sp=sp)
            return

        entry.stale_periods = 0
        entry.last_signal_time = now
        if entry.safe_mode:
            self._exit_safe_mode(entry)
        self.collector.record(f"{prefix}/safe_mode", 0.0)

        breaker_open = now < entry.breaker_open_until
        if (
            not breaker_open
            and entry.breaker_open_until > 0.0
            and not entry.breaker_half_open
        ):
            # The open window elapsed: go half-open instead of silently
            # closing — the next actuation is a probe (success closes the
            # breaker, failure re-opens it for another full window).
            entry.breaker_half_open = True
            entry.breaker_probes += 1
            entry.breaker_open_until = 0.0
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "breaker_half_open", "control", app=app.name,
                )
        self.collector.record(
            f"{prefix}/breaker_open", 1.0 if breaker_open else 0.0
        )
        if breaker_open:
            entry.breaker_skips += 1
            self._emit_provenance(entry, now, "breaker-skip", sp=sp)
            return

        saturation = self._saturation(app)
        ff = 0.0
        if entry.feedforward is not None:
            ff = entry.feedforward.signal(app, now)
        decision = entry.controller.decide(
            status.error, saturation, app.current_allocation(),
            self.interval, feedforward=ff,
        )
        if self.telemetry is not None:
            self.telemetry.decisions.inc()
        suppressed = False
        if (
            decision.action == "reclaim"
            and entry.feedforward is not None
            and entry.feedforward.reclaim_suppressed(app.name, now)
        ):
            suppressed = True
            decision = ControlDecision(
                "hold", app.current_allocation(), decision.error,
                decision.output, decision.gain_scale, decision.weights,
                reason="reclaim-suppressed",
            )
        entry.last_decision = decision
        entry.stats[decision.action] += 1

        if self._record_direction(entry, decision):
            # Flapping tripped the breaker: suppress this actuation too.
            self.collector.record(f"{prefix}/breaker_open", 1.0)
            self._emit_provenance(entry, now, "flap-breaker",
                                  decision=decision, sp=sp)
            return

        if decision.changed:
            target = decision.new_allocation

            def apply_vertical(app=app, target=target) -> None:
                app.set_target_allocation(target)

            def mark_good(entry=entry, target=target) -> None:
                entry.last_good_allocation = target

            if self.actuation_sink is not None:
                self.actuation_sink(app.name, "resize", target)
            self._actuate(
                entry, apply_vertical, on_success=mark_good, kind="resize"
            )
        elif entry.last_good_allocation is None:
            entry.last_good_allocation = app.current_allocation()

        if entry.horizontal is not None and now >= entry.breaker_open_until:
            desired = entry.horizontal.adjust(app, decision, entry.controller)
            bp = self.backpressure
            if bp is not None:
                desired = self._apply_backpressure(
                    entry, desired, app.replica_count, now
                )
            if desired != app.replica_count:

                def apply_horizontal(app=app, desired=desired) -> None:
                    app.scale_to(desired)

                if self.actuation_sink is not None:
                    self.actuation_sink(app.name, "scale", desired)
                self._actuate(entry, apply_horizontal, kind="scale")

        if self.brownout_cfg is not None:
            self._update_brownout(entry, decision.error, now)

        self.collector.record(f"{prefix}/error", decision.error)
        self.collector.record(f"{prefix}/output", decision.output)
        self.collector.record(f"{prefix}/gain_scale", decision.gain_scale)
        self.collector.record(
            f"{prefix}/action",
            {"hold": 0.0, "grow": 1.0, "reclaim": -1.0}[decision.action],
        )
        self.collector.record(f"{prefix}/replicas", float(app.replica_count))

        if self.telemetry is not None:
            if decision.action != "hold":
                verdict = "actuated"
            elif suppressed:
                verdict = "reclaim-suppressed"
            elif decision.reason == "deadband":
                verdict = "deadband"
            else:
                verdict = "hold"
            self._emit_provenance(entry, now, verdict, decision=decision, sp=sp)
