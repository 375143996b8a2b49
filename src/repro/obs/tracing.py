"""Causal tracing for the simulated control plane.

A :class:`Trace` is the per-run record of *why* the control plane did
what it did: lightweight :class:`Span` objects with parent/child links
covering the scrape → evaluate → decide → actuate pipeline, plus one
:class:`DecisionProvenance` record per control-loop evaluation.

Spans are timestamped in **simulated seconds** (the engine clock), not
wall time: most spans are instantaneous in sim time (a decision executes
at one engine tick) and the interesting durations live *between* spans —
the scrape that produced a sample happened seconds before the decision
that consumed it. Causality is therefore carried by the parent links,
not by span nesting alone:

* an ``actuate`` span's parent is the ``decide`` span that ordered it
  (even for retries issued many seconds later), and
* a ``decide`` span's parent is the ``scrape`` span that stored the
  newest PLO sample the decision read.

Walking ``actuate → decide → scrape`` parents therefore reconstructs the
end-to-end reaction path of every allocation change; see
:mod:`repro.analysis.traces` for the analysis built on top.

The tracer is **observation-only**: it never schedules engine events and
never draws from an RNG, so enabling it cannot perturb a seeded run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class Span:
    """One traced operation, with a causal parent link.

    ``start``/``end`` are simulated seconds; most spans are zero-length
    (one engine tick) and carry their payload in ``args``.
    """

    __slots__ = ("id", "parent_id", "name", "cat", "start", "end", "args")

    def __init__(
        self,
        id: int,
        name: str,
        cat: str,
        start: float,
        *,
        parent_id: int | None = None,
        args: dict | None = None,
    ):
        self.id = id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start = start
        self.end = start
        self.args = args if args is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-friendly view (the JSONL exporter writes exactly this)."""
        return {
            "id": self.id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "end": self.end,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span(#{self.id} {self.name!r} t={self.start:.6g}"
            f" parent={self.parent_id})"
        )


@dataclass(frozen=True)
class DecisionProvenance:
    """Why one control-loop evaluation did what it did.

    One record is emitted per managed application per control period when
    telemetry is enabled — including periods that did *not* actuate, so
    suppressed decisions (deadband, safe mode, open breaker) are just as
    auditable as applied ones.

    ``verdict`` is the pipeline outcome: ``actuated``, ``hold``,
    ``deadband``, ``reclaim-suppressed``, ``stale-skip``,
    ``safe-mode-entry``, ``safe-mode-hold``, ``breaker-skip``, or
    ``flap-breaker``. ``terms`` are the PID's (P, I, D) output
    contributions at this decision. ``scrape_span_id`` / ``span_id`` link
    back into the :class:`Trace`; ``active_faults`` holds the ``eid`` of
    every FaultLog episode active at decision time; ``lease_generation``
    is the HA fencing epoch under which the decision was taken (None for
    a non-replicated control plane).
    """

    app: str
    time: float
    verdict: str
    action: str
    error: float | None
    output: float | None
    gain_scale: float | None
    terms: tuple[float, float, float] | None
    inputs: Mapping[str, float]
    signal_age: float | None
    stale_periods: int
    safe_mode: bool
    deadband: float
    clamped: bool
    weights: Mapping[str, float]
    target: Mapping[str, float] | None
    replicas: int | None
    lease_generation: int | None
    scrape_span_id: int | None
    span_id: int | None
    active_faults: tuple[int, ...]
    tuner_event: str | None

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "time": self.time,
            "verdict": self.verdict,
            "action": self.action,
            "error": self.error,
            "output": self.output,
            "gain_scale": self.gain_scale,
            "terms": list(self.terms) if self.terms is not None else None,
            "inputs": dict(self.inputs),
            "signal_age": self.signal_age,
            "stale_periods": self.stale_periods,
            "safe_mode": self.safe_mode,
            "deadband": self.deadband,
            "clamped": self.clamped,
            "weights": dict(self.weights),
            "target": dict(self.target) if self.target is not None else None,
            "replicas": self.replicas,
            "lease_generation": self.lease_generation,
            "scrape_span_id": self.scrape_span_id,
            "span_id": self.span_id,
            "active_faults": list(self.active_faults),
            "tuner_event": self.tuner_event,
        }


@dataclass
class Trace:
    """The per-run span store with causal-graph queries."""

    spans: list[Span] = field(default_factory=list)
    provenance: list[DecisionProvenance] = field(default_factory=list)
    _by_id: dict[int, Span] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.spans)

    def add(self, span: Span) -> None:
        self.spans.append(span)
        self._by_id[span.id] = span

    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def parent_chain(self, span: Span) -> list[Span]:
        """``span`` and its ancestors, innermost first, root last."""
        chain = [span]
        seen = {span.id}
        current = span
        while current.parent_id is not None:
            parent = self._by_id.get(current.parent_id)
            if parent is None or parent.id in seen:
                break
            chain.append(parent)
            seen.add(parent.id)
            current = parent
        return chain

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def provenance_for(self, app: str) -> list[DecisionProvenance]:
        return [p for p in self.provenance if p.app == app]


class Tracer:
    """Span factory bound to an engine clock, with a context stack.

    The simulation is single-threaded, so a plain stack gives automatic
    parenting: a span begun while another is open becomes its child
    unless an explicit ``parent`` is passed (the cross-event causal links
    — decide→scrape, retry-actuate→decide — are always explicit).
    """

    def __init__(self, engine):
        self.engine = engine
        self.trace = Trace()
        self._stack: list[Span] = []
        self._next_id = 1

    def current_id(self) -> int | None:
        """Id of the innermost open span, or None outside any span."""
        return self._stack[-1].id if self._stack else None

    # begin/instant inline parent resolution, span registration, and the
    # engine-clock read (``_now`` is the attribute behind ``Engine.now``):
    # span creation sits on the telemetry-enabled hot path and the
    # overhead gate counts every function call these methods make.

    def begin(self, name: str, cat: str = "", parent=None, **args) -> Span:
        """Open a span; pair with :meth:`end` (or use :meth:`span`)."""
        if parent is not None:
            parent_id = parent.id if isinstance(parent, Span) else int(parent)
        else:
            stack = self._stack
            parent_id = stack[-1].id if stack else None
        span = Span(
            self._next_id,
            name,
            cat,
            self.engine._now,
            parent_id=parent_id,
            args=args,
        )
        self._next_id += 1
        trace = self.trace
        trace.spans.append(span)
        trace._by_id[span.id] = span
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.engine._now
        stack = self._stack
        if stack and stack[-1] is span:
            del stack[-1]  # bytecode, not a profiled pop() call
        elif span in stack:  # pragma: no cover - defensive
            stack.remove(span)

    @contextmanager
    def span(self, name: str, cat: str = "", parent=None, **args) -> Iterator[Span]:
        sp = self.begin(name, cat, parent, **args)
        try:
            yield sp
        finally:
            self.end(sp)

    def instant(self, name: str, cat: str = "", parent=None, **args) -> Span:
        """Record a zero-length marker span (elections, fences, drops)."""
        if parent is not None:
            parent_id = parent.id if isinstance(parent, Span) else int(parent)
        else:
            stack = self._stack
            parent_id = stack[-1].id if stack else None
        span = Span(
            self._next_id,
            name,
            cat,
            self.engine._now,
            parent_id=parent_id,
            args=args,
        )
        self._next_id += 1
        trace = self.trace
        trace.spans.append(span)
        trace._by_id[span.id] = span
        return span
