"""Open-loop arrival processes and load modulators.

:mod:`repro.workloads.traces` models *offered rate* as a function of
time; this module models the **arrival process** itself — the discrete,
randomly-timed request stream a web-scale service actually sees. The
distinction matters for realism: an open-loop process keeps arriving
regardless of how the service performs (no accidental back-pressure
from the load model), and its short-window statistics (burstiness,
inter-arrival variability, heavy-tailed request sizes) are what make
autoscalers earn their keep.

The pieces compose:

* :class:`PoissonArrivals` — a non-homogeneous Poisson process (NHPP)
  driven by any :class:`~repro.workloads.traces.LoadTrace`: event times
  via Lewis & Shedler thinning, per-window counts as ``Poisson(∫rate)``.
* :class:`MMPPArrivals` — a Markov-modulated Poisson process: a hidden
  continuous-time Markov chain multiplies the driving trace's rate by a
  per-state factor, producing the over-dispersed (CV > 1) arrival
  streams real front-ends exhibit.
* :class:`ParetoSizes` / :class:`LognormalSizes` — heavy-tailed
  request-size marks; :class:`MarkedArrivals` staples them onto any
  arrival process.
* :class:`DiurnalModulator` / :class:`SpikeModulator` — multiplicative
  rate modulators (day/night cycles, flash-crowd spikes) that wrap an
  existing trace instead of replacing it.
* :class:`CorrelatedSurge` — a coordinator that couples surge windows
  across *many* apps: one shared, seeded surge schedule, per-app lags
  and factors, so a "front page links everything" event hits the whole
  fleet at once.

Every stochastic object takes an explicit numpy ``Generator``. Use the
platform registry's named streams (``workload/<app>/arrivals``,
``workload/<app>/sizes``, ``workload/surge``) so experiments stay
deterministic under one seed — see docs/workloads.md for the naming
scheme.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

import numpy as np

from repro.workloads.traces import LoadTrace

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "SizeDistribution",
    "ParetoSizes",
    "LognormalSizes",
    "MarkedArrivals",
    "DiurnalModulator",
    "SpikeModulator",
    "CorrelatedSurge",
    "trace_integral",
]


def trace_integral(
    trace: LoadTrace, t0: float, t1: float, *, step: float = 1.0
) -> float:
    """Numerically integrate ``trace.rate`` over ``[t0, t1)``.

    Left-Riemann at ``step`` resolution — exact for the piecewise-
    constant traces (Step/Replay) when ``step`` divides their segment
    boundaries, and the reference the statistical-validation tests
    compare empirical arrival counts against.
    """
    if t1 <= t0:
        return 0.0
    n = int(math.ceil((t1 - t0) / step))
    total = 0.0
    for i in range(n):
        a = t0 + i * step
        b = min(t0 + (i + 1) * step, t1)
        total += trace.rate(a) * (b - a)
    return total


class ArrivalProcess(Protocol):
    """Open-loop request arrivals.

    ``window(t0, t1)`` returns the sorted event times in ``[t0, t1)``:
    the event-level reference the statistical suite checks.
    ``count(t0, t1)`` returns only how many events fall there, drawn
    from ``Poisson(∫rate)`` at a cost that does not grow with the
    rate; the simulation calls it with contiguous, non-overlapping
    windows (one per model tick). Either way the draw sequence is a
    pure function of the generator's seed and the sequence of windows
    requested.
    """

    def window(self, t0: float, t1: float) -> np.ndarray: ...

    def count(self, t0: float, t1: float) -> int: ...


#: Composite-midpoint sub-intervals per ``count`` window. Fixed, so a
#: window costs the same number of ``rate`` calls at any offered load;
#: midpoints never touch the window edges, so a step trace whose jumps
#: fall on window boundaries integrates exactly.
COUNT_POINTS = 8


def _midpoint_integral(rate, t0: float, t1: float) -> float:
    """``∫ rate`` over ``[t0, t1)`` by the composite midpoint rule."""
    h = (t1 - t0) / COUNT_POINTS
    return h * sum(rate(t0 + (i + 0.5) * h) for i in range(COUNT_POINTS))


def _poisson_count(rng: np.random.Generator, lam: float) -> int:
    """One ``Poisson(lam)`` draw; no draw at all when ``lam ≤ 0``."""
    return int(rng.poisson(lam)) if lam > 0 else 0


def _estimate_bound(
    trace: LoadTrace, t0: float, t1: float, *, samples: int, margin: float
) -> float:
    """Upper bound on ``trace.rate`` over ``[t0, t1]`` from a grid scan."""
    if samples < 2:
        samples = 2
    grid = np.linspace(t0, t1, samples)
    peak = max(trace.rate(float(t)) for t in grid)
    return peak * margin


class PoissonArrivals:
    """Non-homogeneous Poisson arrivals driven by a :class:`LoadTrace`.

    :meth:`count` draws ``Poisson(Λ)`` with ``Λ = ∫rate`` over the
    window (composite midpoint rule, :data:`COUNT_POINTS` rate calls).

    :meth:`window` draws the event times by thinning: candidates
    arrive homogeneously at an upper bound ``rate_bound`` and are
    accepted with probability ``rate(t) / rate_bound``. When
    ``rate_bound`` is ``None`` the bound is estimated per window from a
    grid scan with a safety margin — exact for traces whose
    within-window peak the grid sees (constant, monotone, or
    slowly-varying over a tick); pass an explicit bound for spiky
    traces.

    Parameters
    ----------
    trace:
        Driving rate function (req/s).
    rng:
        Named numpy generator (``workload/<app>/arrivals``).
    rate_bound:
        Known global upper bound on the rate, or ``None`` to estimate
        per window.
    """

    def __init__(
        self,
        trace: LoadTrace,
        rng: np.random.Generator,
        *,
        rate_bound: float | None = None,
        bound_samples: int = 9,
        bound_margin: float = 1.25,
    ):
        if rate_bound is not None and not (
            math.isfinite(rate_bound) and rate_bound > 0
        ):
            raise ValueError("rate_bound must be positive and finite")
        if not (math.isfinite(bound_margin) and bound_margin >= 1.0):
            raise ValueError("bound_margin must be finite and ≥ 1")
        self.trace = trace
        self.rng = rng
        self.rate_bound = rate_bound
        self.bound_samples = int(bound_samples)
        self.bound_margin = float(bound_margin)

    def _bound(self, t0: float, t1: float) -> float:
        if self.rate_bound is not None:
            return self.rate_bound
        return _estimate_bound(
            self.trace, t0, t1,
            samples=self.bound_samples, margin=self.bound_margin,
        )

    def _rate(self, t: float) -> float:
        return max(0.0, self.trace.rate(t))

    def window(self, t0: float, t1: float) -> np.ndarray:
        if t1 <= t0:
            return np.empty(0)
        bound = self._bound(t0, t1)
        if bound <= 0:
            return np.empty(0)
        n = int(self.rng.poisson(bound * (t1 - t0)))
        if n == 0:
            return np.empty(0)
        times = np.sort(self.rng.uniform(t0, t1, size=n))
        accept_u = self.rng.uniform(0.0, 1.0, size=n)
        rates = np.fromiter(
            (self._rate(float(t)) for t in times), dtype=float, count=n
        )
        return times[accept_u * bound < rates]

    def count(self, t0: float, t1: float) -> int:
        if t1 <= t0:
            return 0
        return _poisson_count(
            self.rng, _midpoint_integral(self._rate, t0, t1)
        )


class MMPPArrivals:
    """Markov-modulated Poisson arrivals.

    A hidden continuous-time Markov chain with exponentially-distributed
    dwell times multiplies the driving trace's rate by the current
    state's ``factor``. With factors above and below 1 the resulting
    stream is over-dispersed (inter-arrival CV > 1): calm stretches and
    bursts, which is what production request logs look like and what
    plain Poisson cannot express.

    The state path is pre-drawn over ``horizon`` at construction, so
    the modulation is a pure function of time and the process stays
    deterministic under any window query pattern.
    """

    def __init__(
        self,
        trace: LoadTrace,
        rng: np.random.Generator,
        *,
        factors: Sequence[float] = (0.4, 1.0, 2.4),
        mean_dwell: float = 60.0,
        horizon: float = 86_400.0,
        rate_bound: float | None = None,
    ):
        if len(factors) < 2:
            raise ValueError("need at least two MMPP states")
        if not all(math.isfinite(f) and f >= 0 for f in factors):
            raise ValueError("state factors must be finite and non-negative")
        if not all(
            math.isfinite(v) and v > 0 for v in (mean_dwell, horizon)
        ):
            raise ValueError("mean_dwell and horizon must be positive and finite")
        self.trace = trace
        self.rng = rng
        self.factors = tuple(float(f) for f in factors)
        self.mean_dwell = float(mean_dwell)
        self.horizon = float(horizon)
        # Pre-draw the state path: (switch_times, state_index_after).
        switch_times = [0.0]
        states = [int(rng.integers(len(self.factors)))]
        t = 0.0
        while t < horizon:
            t += float(rng.exponential(mean_dwell))
            # Jump to a uniformly-chosen *other* state.
            step = 1 + int(rng.integers(len(self.factors) - 1))
            states.append((states[-1] + step) % len(self.factors))
            switch_times.append(t)
        self._switch_times = switch_times
        self._states = states
        self._thin = PoissonArrivals(
            self, rng, rate_bound=rate_bound, bound_samples=17
        )

    def factor_at(self, t: float) -> float:
        """State multiplier in effect at time ``t`` (last state holds
        beyond the pre-drawn horizon)."""
        idx = bisect.bisect_right(self._switch_times, t) - 1
        if idx < 0:
            idx = 0
        return self.factors[self._states[idx]]

    def _base_rate(self, t: float) -> float:
        return max(0.0, self.trace.rate(t))

    def rate(self, t: float) -> float:
        """Effective (modulated) arrival rate at ``t``."""
        return self._base_rate(t) * self.factor_at(t)

    def window(self, t0: float, t1: float) -> np.ndarray:
        return self._thin.window(t0, t1)

    def count(self, t0: float, t1: float) -> int:
        """``Poisson(Λ)``, ``Λ`` summed over the window's pieces between
        pre-drawn state switches, so the modulation integrates exactly."""
        if t1 <= t0:
            return 0
        lo = bisect.bisect_right(self._switch_times, t0)
        hi = bisect.bisect_left(self._switch_times, t1, lo)
        cuts = [t0, *self._switch_times[lo:hi], t1]
        base = self._base_rate
        lam = sum(
            self.factor_at(a) * _midpoint_integral(base, a, b)
            for a, b in zip(cuts, cuts[1:])
        )
        return _poisson_count(self.rng, lam)


# -- request-size marks ---------------------------------------------------------


class SizeDistribution(Protocol):
    """Per-request size marks (work multipliers, mean-normalizable)."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray: ...

    def mean(self) -> float: ...


class ParetoSizes:
    """Pareto(α, x_min) request sizes — the heavy tail of the web.

    ``alpha`` is the tail index (smaller = heavier; α ≤ 1 has infinite
    mean and is rejected). ``x_min`` is the scale. The statistical
    suite recovers ``alpha`` from samples with a Hill estimator.
    """

    def __init__(self, alpha: float = 1.6, x_min: float = 1.0):
        if not (math.isfinite(alpha) and alpha > 1.0):
            raise ValueError("alpha must be finite and exceed 1 (finite mean)")
        if not (math.isfinite(x_min) and x_min > 0):
            raise ValueError("x_min must be positive and finite")
        self.alpha = float(alpha)
        self.x_min = float(x_min)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.x_min * (1.0 + rng.pareto(self.alpha, size=n))

    def mean(self) -> float:
        return self.alpha * self.x_min / (self.alpha - 1.0)


class LognormalSizes:
    """Lognormal request sizes parametrized by mean and coefficient of
    variation — the moderate-tail alternative to Pareto."""

    def __init__(self, mean: float = 1.0, cv: float = 1.0):
        if mean <= 0 or cv <= 0:
            raise ValueError("mean and cv must be positive")
        self._mean = float(mean)
        self.cv = float(cv)
        self.sigma = math.sqrt(math.log(1.0 + cv * cv))
        self.mu = math.log(mean) - self.sigma**2 / 2.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=n)

    def mean(self) -> float:
        return self._mean


class MarkedArrivals:
    """An arrival process with a size mark stapled to every event.

    ``window_marked`` returns ``(times, sizes)`` and ``count_marked``
    returns ``(n, sizes)``, the ``n`` marks drawn in one call;
    ``window`` and ``count`` delegate to the underlying process so a
    marked process still satisfies the plain :class:`ArrivalProcess`
    protocol. Sizes draw from their own generator
    (``workload/<app>/sizes``) so arming marks never shifts the arrival
    stream.
    """

    def __init__(
        self,
        process: ArrivalProcess,
        sizes: SizeDistribution,
        rng: np.random.Generator,
    ):
        self.process = process
        self.sizes = sizes
        self.rng = rng

    def window(self, t0: float, t1: float) -> np.ndarray:
        return self.process.window(t0, t1)

    def window_marked(
        self, t0: float, t1: float
    ) -> tuple[np.ndarray, np.ndarray]:
        times = self.process.window(t0, t1)
        return times, self.sizes.sample(self.rng, len(times))

    def count(self, t0: float, t1: float) -> int:
        return self.process.count(t0, t1)

    def count_marked(self, t0: float, t1: float) -> tuple[int, np.ndarray]:
        n = self.process.count(t0, t1)
        return n, self.sizes.sample(self.rng, n)

    def mean_size(self) -> float:
        return self.sizes.mean()


# -- compositional modulators ---------------------------------------------------


class DiurnalModulator:
    """Multiplicative day/night cycle over another trace.

    ``rate(t) = base.rate(t) · max(0, 1 + amplitude·sin(2π(t−phase)/period))``

    Unlike :class:`~repro.workloads.traces.DiurnalTrace` (an *additive*
    standalone shape), this modulates an arbitrary base — a replayed
    production trace keeps its fine structure while gaining a cycle.
    """

    def __init__(
        self,
        base: LoadTrace,
        *,
        amplitude: float = 0.5,
        period: float = 86_400.0,
        phase: float = 0.0,
    ):
        if not 0.0 <= amplitude:
            raise ValueError("amplitude must be non-negative")
        if period <= 0:
            raise ValueError("period must be positive")
        self.base = base
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def rate(self, t: float) -> float:
        cycle = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / self.period
        )
        return max(0.0, self.base.rate(t) * max(0.0, cycle))


class SpikeModulator:
    """Flash-crowd spikes layered multiplicatively on another trace.

    Each spike is ``(start, peak_factor, rise, decay)``: the base rate
    is multiplied by ``1 + (peak_factor − 1)·shape(t)`` with the same
    fast-rise / slow-decay shape as
    :class:`~repro.workloads.traces.FlashCrowdTrace`. Spikes sum, so
    overlapping crowds compound.
    """

    def __init__(
        self,
        base: LoadTrace,
        spikes: Sequence[tuple[float, float, float, float]],
    ):
        for start, factor, rise, decay in spikes:
            if factor < 1.0 or rise <= 0 or decay <= 0:
                raise ValueError(
                    "spikes need peak_factor ≥ 1 and rise/decay > 0"
                )
        self.base = base
        self.spikes = [tuple(map(float, s)) for s in spikes]

    def multiplier(self, t: float) -> float:
        m = 1.0
        for start, factor, rise, decay in self.spikes:
            if t < start:
                continue
            dt = t - start
            shape = (1.0 - math.exp(-dt / rise)) * math.exp(-dt / decay)
            m += (factor - 1.0) * shape
        return m

    def rate(self, t: float) -> float:
        return max(0.0, self.base.rate(t) * self.multiplier(t))


# -- correlated multi-app surges ------------------------------------------------


class CorrelatedSurge:
    """Couples surge windows across many applications.

    One shared schedule of surge windows is drawn at construction
    (Poisson starts over ``horizon``, fixed ``duration``); every trace
    attached via :meth:`attach` is multiplied by its ``factor`` during
    those windows, optionally shifted by a per-app ``lag`` (drawn
    uniformly from ``[0, max_lag]`` when not given). Because all apps
    share the schedule, surges are *correlated* — the cluster-level
    demand spike an autoscaler cannot absorb by borrowing from idle
    neighbours, which is exactly what per-app rate curves fail to model.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        horizon: float,
        mean_interval: float = 600.0,
        duration: float = 90.0,
        factor: float = 3.0,
        max_lag: float = 0.0,
    ):
        if horizon <= 0 or mean_interval <= 0 or duration <= 0:
            raise ValueError("horizon/mean_interval/duration must be positive")
        if factor < 1.0:
            raise ValueError("surge factor must be ≥ 1")
        if max_lag < 0:
            raise ValueError("max_lag must be non-negative")
        self.rng = rng
        self.duration = float(duration)
        self.factor = float(factor)
        self.max_lag = float(max_lag)
        starts: list[float] = []
        t = float(rng.exponential(mean_interval))
        while t < horizon:
            starts.append(t)
            t += float(rng.exponential(mean_interval))
        self.starts = starts
        self.attached: list[str] = []

    def windows(self) -> list[tuple[float, float]]:
        """The shared surge windows ``[(start, end), ...]``."""
        return [(s, s + self.duration) for s in self.starts]

    def active(self, t: float, *, lag: float = 0.0) -> bool:
        idx = bisect.bisect_right(self.starts, t - lag) - 1
        if idx < 0:
            return False
        return t - lag < self.starts[idx] + self.duration

    def attach(
        self,
        trace: LoadTrace,
        *,
        name: str = "",
        factor: float | None = None,
        lag: float | None = None,
    ) -> "LoadTrace":
        """Wrap ``trace`` so it surges on the shared schedule.

        ``lag`` defaults to a uniform draw from ``[0, max_lag]`` (one
        draw per attach, in attach order — attach apps in a stable
        order for reproducibility).
        """
        if lag is None:
            lag = (
                float(self.rng.uniform(0.0, self.max_lag))
                if self.max_lag > 0
                else 0.0
            )
        self.attached.append(name)
        return _SurgedTrace(
            trace,
            self,
            factor=self.factor if factor is None else float(factor),
            lag=float(lag),
        )


class _SurgedTrace:
    """A trace multiplied by the coordinator's factor during surges."""

    def __init__(
        self,
        base: LoadTrace,
        surge: CorrelatedSurge,
        *,
        factor: float,
        lag: float,
    ):
        self.base = base
        self.surge = surge
        self.factor = factor
        self.lag = lag

    def rate(self, t: float) -> float:
        value = self.base.rate(t)
        if self.surge.active(t, lag=self.lag):
            value *= self.factor
        return value
