"""Append-only time series with windowed aggregation.

Samples are ``(time, value)`` pairs appended in non-decreasing time order.
Retention is bounded (FIFO) so day-long simulations stay memory-flat.

Storage is a pair of plain lists with a start offset instead of deques:
lists are directly bisectable, so point and window queries are
O(log n + window) without copying the whole buffer — ``value_at`` used to
materialize every retained sample per call, which put an O(n) term in
every controller tick and every CSV export row. Eviction advances the
offset and compacts lazily (amortized O(1) per append, ≤2× ``maxlen``
transient memory).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

import numpy as np

#: Window size beyond which extrema / rank queries switch to numpy.
#: Below it, list built-ins win (no array materialization); above it,
#: vectorized partition/extrema are several times faster. Both paths
#: return identical values (selection and comparison only — no
#: re-ordered floating-point accumulation), so the cutover is invisible
#: to seeded experiments.
_VECTORIZE_MIN = 64


class TimeSeries:
    """Bounded time-ordered series of float samples.

    Parameters
    ----------
    maxlen:
        Maximum retained samples; older samples are dropped FIFO.
    """

    __slots__ = ("_times", "_values", "_maxlen", "_start")

    def __init__(self, *, maxlen: int = 100_000):
        if maxlen < 1:
            raise ValueError("maxlen must be ≥ 1")
        self._maxlen = maxlen
        self._times: list[float] = []
        self._values: list[float] = []
        self._start = 0  # index of the oldest retained sample

    def __len__(self) -> int:
        return len(self._times) - self._start

    def append(self, time: float, value: float) -> None:
        """Append a sample; time must be ≥ the last appended time."""
        append_column((self,), time, (value,))

    # -- point queries -------------------------------------------------------

    def last(self) -> float | None:
        """Most recent value, or None when empty."""
        values = self._values
        return values[-1] if len(values) > self._start else None

    def last_time(self) -> float | None:
        times = self._times
        return times[-1] if len(times) > self._start else None

    def last_sample(self) -> tuple[float, float] | None:
        """Most recent ``(time, value)``, or None when empty."""
        times = self._times
        if len(times) > self._start:
            return times[-1], self._values[-1]
        return None

    def value_at(self, time: float) -> float | None:
        """Last value at or before ``time`` (step interpolation)."""
        idx = bisect.bisect_right(self._times, time, self._start) - 1
        if idx < self._start:
            return None
        return self._values[idx]

    # -- window queries ------------------------------------------------------

    def _window_bounds(self, start: float, end: float) -> tuple[int, int]:
        """Index range [lo, hi) of samples with ``start < t ≤ end``."""
        lo = bisect.bisect_right(self._times, start, self._start)
        hi = bisect.bisect_right(self._times, end, self._start)
        return lo, hi

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Samples with ``start < t ≤ end`` (Prometheus-style range)."""
        lo, hi = self._window_bounds(start, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def _window_values(self, now: float, span: float) -> list[float]:
        lo, hi = self._window_bounds(now - span, now)
        return self._values[lo:hi]

    def mean_over(self, now: float, span: float) -> float | None:
        """Arithmetic mean of samples in the trailing window."""
        values = self._window_values(now, span)
        return sum(values) / len(values) if values else None

    def max_over(self, now: float, span: float) -> float | None:
        values = self._window_values(now, span)
        if not values:
            return None
        if len(values) >= _VECTORIZE_MIN:
            return float(np.max(np.asarray(values)))
        return max(values)

    def min_over(self, now: float, span: float) -> float | None:
        values = self._window_values(now, span)
        if not values:
            return None
        if len(values) >= _VECTORIZE_MIN:
            return float(np.min(np.asarray(values)))
        return min(values)

    def percentile_over(self, now: float, span: float, q: float) -> float | None:
        """q-th percentile (0–100, nearest-rank) over the trailing window."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        values = self._window_values(now, span)
        if not values:
            return None
        rank = max(0, math.ceil(q / 100 * len(values)) - 1)
        if len(values) >= _VECTORIZE_MIN:
            # np.partition selects the k-th smallest — the same value
            # sorted()[rank] yields — without a full sort.
            return float(np.partition(np.asarray(values), rank)[rank])
        return sorted(values)[rank]

    def sum_over(self, now: float, span: float) -> float:
        return sum(self._window_values(now, span))

    def count_over(self, now: float, span: float) -> int:
        lo, hi = self._window_bounds(now - span, now)
        return hi - lo

    def rate_over(self, now: float, span: float) -> float | None:
        """Per-second increase of a monotonically-growing counter.

        Uses first/last samples in the window; None with <2 samples.
        """
        lo, hi = self._window_bounds(now - span, now)
        if hi - lo < 2:
            return None
        t0, v0 = self._times[lo], self._values[lo]
        t1, v1 = self._times[hi - 1], self._values[hi - 1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def ewma(self, alpha: float, *, count: int | None = None) -> float | None:
        """Exponentially-weighted mean of the most recent ``count`` samples.

        ``alpha`` is the smoothing factor in (0, 1]; larger weights recent
        samples more heavily.
        """
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        lo = self._start
        if count is not None:
            lo = max(lo, len(self._values) - count)
        result: float | None = None
        for i in range(lo, len(self._values)):
            v = self._values[i]
            result = v if result is None else alpha * v + (1 - alpha) * result
        return result

    def integrate(self, start: float, end: float) -> float:
        """Left-step time integral of the series over ``[start, end]``.

        The value at each sample holds until the next sample; the last
        value extends to ``end``. Returns 0 with no samples before ``end``.
        """
        if end <= start:
            return 0.0
        hi = bisect.bisect_right(self._times, end, self._start)
        if hi <= self._start:
            return 0.0
        total = 0.0
        for i in range(self._start, hi):
            seg_start = max(self._times[i], start)
            seg_end = self._times[i + 1] if i + 1 < hi else end
            seg_end = min(seg_end, end)
            if seg_end > seg_start:
                total += self._values[i] * (seg_end - seg_start)
        return total

    def to_lists(self) -> tuple[list[float], list[float]]:
        """Copies of (times, values), e.g. for plotting or export."""
        return self._times[self._start:], self._values[self._start:]


def append_column(series: Sequence[TimeSeries], time: float,
                  values: Iterable[float]) -> None:
    """Append ``(time, v)`` to each series, pairing them in order.

    The one store path behind :meth:`TimeSeries.append`: a whole scrape
    round costs one call instead of one per sample. Raises ``ValueError``
    on a sample older than its series' last one (series before it keep
    their new sample), coerces to float, and evicts FIFO past ``maxlen``.
    """
    # Skip the float() coercion for exact floats (the hot path); the type
    # check keeps ints/bools normalized.
    stamp = time if type(time) is float else float(time)
    for ts, value in zip(series, values):
        times = ts._times
        if times and time < times[-1]:
            raise ValueError(
                f"out-of-order sample: t={time} after t={times[-1]}"
            )
        times.append(stamp)
        ts._values.append(value if type(value) is float else float(value))
        if len(times) - ts._start > ts._maxlen:
            ts._start += 1
            if ts._start >= ts._maxlen:
                del times[: ts._start]
                del ts._values[: ts._start]
                ts._start = 0


class ChangePointQueryError(TypeError):
    """A windowed aggregate was read from a change-point-encoded series."""


class ChangePointSeries(TimeSeries):
    """A series whose samples are change points, not uniform ticks.

    Telemetry ``ctrl/*`` series are delta-suppressed at scrape time (see
    :meth:`repro.obs.telemetry.Telemetry.sample_metrics`): a sample is
    appended only when the value moved. Step reads (``last``,
    ``value_at``, ``window``, ``integrate``) stay exact because step
    interpolation carries the last value forward — but windowed
    aggregates would weight change points instead of uniform scrape
    ticks and silently return garbage. This subclass turns that
    contract violation into an immediate :class:`ChangePointQueryError`.
    """

    _FORBIDDEN = (
        "mean_over", "max_over", "min_over", "percentile_over",
        "sum_over", "count_over", "rate_over", "ewma",
    )

    def _refuse(self, name: str):
        raise ChangePointQueryError(
            f"{name}() is not meaningful on a change-point-encoded series: "
            "samples mark value *changes*, not uniform scrape ticks, so "
            "windowed aggregates would be weighted by change frequency. "
            "Use last()/value_at()/window()/integrate() instead "
            "(see docs/performance.md)."
        )

    def mean_over(self, now: float, span: float) -> float | None:
        self._refuse("mean_over")

    def max_over(self, now: float, span: float) -> float | None:
        self._refuse("max_over")

    def min_over(self, now: float, span: float) -> float | None:
        self._refuse("min_over")

    def percentile_over(self, now: float, span: float, q: float) -> float | None:
        self._refuse("percentile_over")

    def sum_over(self, now: float, span: float) -> float:
        self._refuse("sum_over")

    def count_over(self, now: float, span: float) -> int:
        self._refuse("count_over")

    def rate_over(self, now: float, span: float) -> float | None:
        self._refuse("rate_over")

    def ewma(self, alpha: float, *, count: int | None = None) -> float | None:
        self._refuse("ewma")
