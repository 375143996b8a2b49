"""Versioned trace files and the event-level replayer.

The drop-in path for real cluster traces: export ``(time, rate)``
samples from any monitoring system into the schema below, then replay
them — as a :class:`~repro.workloads.traces.ReplayTrace` rate curve,
or as a discrete event stream through :class:`TraceReplayer`.

## File schema (``repro.trace/v1``)

JSON::

    {
      "schema": "repro.trace/v1",
      "name": "frontend-week",
      "unit": "rps",
      "description": "optional free text",
      "samples": [[0.0, 120.0], [60.0, 180.5], ...]
    }

CSV: a ``time,rate`` header row followed by numeric rows (the header is
required — it is the version marker for CSV files). Samples must be
sorted by time, finite, and non-negative; violations are load errors,
never silent clamps. ``SCHEMA_VERSIONS`` lists the formats this build
reads; bump :data:`SCHEMA` when the layout changes incompatibly.

## Replay modes

``TraceReplayer`` turns the rate curve into arrival events two ways:

* ``deterministic`` — inverts the cumulative rate integral Λ(t): one
  event each time Λ crosses an integer. No RNG, so a given file always
  produces byte-identical events; the golden-replay test pins a
  fingerprint of exactly this stream to catch silent schema or
  integration drift.
* ``poisson`` — a non-homogeneous Poisson draw
  (:class:`~repro.workloads.arrivals.PoissonArrivals`) driven by the
  replayed curve, for statistically-realistic jitter.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.traces import LoadTrace, ReplayTrace

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSIONS",
    "TraceSchemaError",
    "LoadedTrace",
    "load_trace",
    "TraceReplayer",
    "event_fingerprint",
]

#: Current trace-file schema identifier.
SCHEMA = "repro.trace/v1"
#: Schemas this build reads.
SCHEMA_VERSIONS = (SCHEMA,)


class TraceSchemaError(ValueError):
    """A trace file that does not conform to a supported schema."""


def _validate_samples(
    samples: Sequence[Sequence[float]], origin: str
) -> tuple[tuple[float, float], ...]:
    cleaned: list[tuple[float, float]] = []
    last_t = -math.inf
    for i, row in enumerate(samples):
        if len(row) != 2:
            raise TraceSchemaError(
                f"{origin}: sample {i} has {len(row)} fields, expected 2"
            )
        t, r = float(row[0]), float(row[1])
        if not (math.isfinite(t) and math.isfinite(r)):
            raise TraceSchemaError(
                f"{origin}: sample {i} is not finite ({t}, {r})"
            )
        if r < 0:
            raise TraceSchemaError(f"{origin}: sample {i} rate is negative")
        if t < last_t:
            raise TraceSchemaError(
                f"{origin}: samples not sorted by time at index {i}"
            )
        last_t = t
        cleaned.append((t, r))
    if not cleaned:
        raise TraceSchemaError(f"{origin}: no samples")
    return tuple(cleaned)


@dataclass(frozen=True)
class LoadedTrace:
    """A parsed trace file: metadata plus the validated samples."""

    name: str
    samples: tuple[tuple[float, float], ...]
    unit: str = "rps"
    description: str = ""
    schema: str = SCHEMA
    meta: dict = field(default_factory=dict)

    def trace(
        self, *, time_scale: float = 1.0, rate_scale: float = 1.0
    ) -> ReplayTrace:
        """The samples as a step-interpolated rate curve."""
        return ReplayTrace(
            list(self.samples), time_scale=time_scale, rate_scale=rate_scale
        )

    @property
    def duration(self) -> float:
        return self.samples[-1][0] - self.samples[0][0]


def load_trace(path: str | Path) -> LoadedTrace:
    """Load a versioned trace file (``.json`` or ``.csv``).

    Raises :class:`TraceSchemaError` for unknown schemas, malformed
    rows, unsorted times, or negative/non-finite values.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise TraceSchemaError(f"{path.name}: invalid JSON: {err}")
        schema = data.get("schema")
        if schema not in SCHEMA_VERSIONS:
            raise TraceSchemaError(
                f"{path.name}: schema {schema!r} not supported "
                f"(this build reads {SCHEMA_VERSIONS})"
            )
        samples = _validate_samples(data.get("samples", ()), path.name)
        meta = {
            k: v
            for k, v in data.items()
            if k not in ("schema", "name", "unit", "description", "samples")
        }
        return LoadedTrace(
            name=str(data.get("name", path.stem)),
            samples=samples,
            unit=str(data.get("unit", "rps")),
            description=str(data.get("description", "")),
            schema=schema,
            meta=meta,
        )
    if path.suffix.lower() == ".csv":
        rows: list[tuple[float, float]] = []
        with open(path) as handle:
            header = handle.readline().strip().lower().replace(" ", "")
            if header != "time,rate":
                raise TraceSchemaError(
                    f"{path.name}: CSV traces need a 'time,rate' header "
                    f"(got {header!r})"
                )
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                if len(fields) != 2:
                    raise TraceSchemaError(
                        f"{path.name}: malformed row {line!r}"
                    )
                rows.append((float(fields[0]), float(fields[1])))
        samples = _validate_samples(rows, path.name)
        return LoadedTrace(name=path.stem, samples=samples)
    raise TraceSchemaError(
        f"{path.name}: unknown trace extension (want .json or .csv)"
    )


def event_fingerprint(times: Sequence[float], *, digits: int = 6) -> str:
    """Stable fingerprint of an event stream.

    Times are rounded to ``digits`` decimals and hashed, so the value
    is independent of container type and float formatting quirks; the
    golden-replay test pins one of these.
    """
    canon = ",".join(f"{round(float(t), digits):.{digits}f}" for t in times)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class TraceReplayer:
    """Replay a rate curve as discrete arrival events.

    Parameters
    ----------
    source:
        A :class:`LoadedTrace` (file contents) or any
        :class:`~repro.workloads.traces.LoadTrace`.
    time_scale / rate_scale:
        Stretch the recording and rescale its amplitude (only applied
        when ``source`` is a :class:`LoadedTrace`; a raw trace is
        replayed as-is).
    mode:
        ``"deterministic"`` (integral inversion, no RNG) or
        ``"poisson"`` (NHPP thinning; requires ``rng``).
    step:
        Integration resolution for the deterministic mode when the
        driving curve is not piecewise-constant.
    """

    def __init__(
        self,
        source: "LoadedTrace | LoadTrace",
        *,
        time_scale: float = 1.0,
        rate_scale: float = 1.0,
        mode: str = "deterministic",
        rng: np.random.Generator | None = None,
        step: float = 1.0,
    ):
        if mode not in ("deterministic", "poisson"):
            raise ValueError("mode must be 'deterministic' or 'poisson'")
        if mode == "poisson" and rng is None:
            raise ValueError("poisson mode needs an rng")
        if step <= 0:
            raise ValueError("step must be positive")
        if isinstance(source, LoadedTrace):
            self.trace: LoadTrace = source.trace(
                time_scale=time_scale, rate_scale=rate_scale
            )
        else:
            self.trace = source
        self.mode = mode
        self.step = float(step)
        self._poisson = (
            PoissonArrivals(self.trace, rng) if mode == "poisson" else None
        )
        # Deterministic mode carries the integral's fractional phase
        # across windows so contiguous windows stitch into one stream.
        self._det_t: float | None = None
        self._det_phase = 0.0

    # -- segment walk ----------------------------------------------------------

    def _segments(self, t0: float, t1: float):
        """Yield ``(a, b, rate)`` pieces covering ``[t0, t1)``.

        Exact for :class:`ReplayTrace` step curves; a ``step``-grid
        left-constant approximation otherwise. The rate within each
        yielded piece is constant.
        """
        trace = self.trace
        if isinstance(trace, ReplayTrace):
            times = trace._times
            cuts = [t for t in times if t0 < t < t1]
            bounds = [t0, *cuts, t1]
            for a, b in zip(bounds, bounds[1:]):
                yield a, b, max(0.0, trace.rate(a))
            return
        a = t0
        while a < t1:
            b = min(a + self.step, t1)
            yield a, b, max(0.0, trace.rate(a))
            a = b

    def window(self, t0: float, t1: float) -> np.ndarray:
        """Sorted event times in ``[t0, t1)``.

        In deterministic mode, calling with contiguous windows yields
        the same stream as one big window (the integral phase carries
        over); a non-contiguous call resets the phase at ``t0``.
        """
        if t1 <= t0:
            return np.empty(0)
        if self._poisson is not None:
            return self._poisson.window(t0, t1)
        if self._det_t is None or not math.isclose(
            self._det_t, t0, rel_tol=0.0, abs_tol=1e-9
        ):
            self._det_phase = 0.0
        events: list[float] = []
        phase = self._det_phase
        for a, b, rate in self._segments(t0, t1):
            if rate <= 0:
                continue
            # Λ grows by rate·(b−a) across the piece; one event per
            # integer crossing, then carry the fractional remainder.
            grown = phase + rate * (b - a)
            k = 1
            t = a + (k - phase) / rate
            while t < b - 1e-12:
                events.append(t)
                k += 1
                t = a + (k - phase) / rate
            phase = grown - (k - 1)
        self._det_phase = phase
        self._det_t = t1
        return np.asarray(events)

    def count(self, t0: float, t1: float) -> int:
        """Number of events :meth:`window` replays in ``[t0, t1)``."""
        return len(self.window(t0, t1))

    def events(self, t0: float, t1: float) -> np.ndarray:
        """One-shot replay of ``[t0, t1)`` from a fresh phase."""
        self._det_t = None
        self._det_phase = 0.0
        return self.window(t0, t1)

    def fingerprint(self, t0: float, t1: float, *, digits: int = 6) -> str:
        """Fingerprint of the one-shot event stream over ``[t0, t1)``."""
        return event_fingerprint(self.events(t0, t1), digits=digits)
