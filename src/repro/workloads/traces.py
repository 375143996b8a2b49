"""Synthetic load traces.

Stand-ins for the production request traces the original evaluation used.
A trace maps simulated time to an offered request rate (requests/second).
All stochastic traces draw from named RNG streams so experiments are
deterministic given the experiment seed.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence

import numpy as np


class LoadTrace(Protocol):
    """Offered load as a function of time."""

    def rate(self, t: float) -> float:
        """Request rate (req/s) at time ``t``; never negative."""
        ...


class ConstantTrace:
    """Fixed request rate."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("rate must be non-negative")
        self.value = float(value)

    def rate(self, t: float) -> float:
        return self.value


class StepTrace:
    """Piecewise-constant rate defined by ``(start_time, rate)`` steps.

    Before the first step the rate is ``initial``. Steps must be sorted by
    time.
    """

    def __init__(self, steps: Sequence[tuple[float, float]], *, initial: float = 0.0):
        times = [s[0] for s in steps]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("step times must be finite")
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("steps must be sorted by time")
        if any(not math.isfinite(r) or r < 0 for _t, r in steps) or initial < 0:
            raise ValueError("rates must be non-negative")
        self.steps = list(steps)
        self.initial = float(initial)
        self._times = [float(t) for t in times]
        # Duplicate step times: the last one wins, matching the linear
        # scan this replaced.
        self._rates = [float(r) for _t, r in steps]

    def rate(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return self.initial
        return self._rates[idx]


class RampTrace:
    """Linear ramp from ``start_rate`` to ``end_rate`` over a window."""

    def __init__(
        self, start_time: float, end_time: float, start_rate: float, end_rate: float
    ):
        if end_time <= start_time:
            raise ValueError("end_time must be after start_time")
        self.start_time = start_time
        self.end_time = end_time
        self.start_rate = float(start_rate)
        self.end_rate = float(end_rate)

    def rate(self, t: float) -> float:
        if t <= self.start_time:
            return self.start_rate
        if t >= self.end_time:
            return self.end_rate
        frac = (t - self.start_time) / (self.end_time - self.start_time)
        return self.start_rate + frac * (self.end_rate - self.start_rate)


class DiurnalTrace:
    """Sinusoidal day/night pattern.

    ``rate(t) = base + amplitude * sin(2π (t - phase) / period)``, clipped
    at zero. Default period is 24 simulated hours.
    """

    def __init__(
        self,
        base: float,
        amplitude: float,
        *,
        period: float = 86_400.0,
        phase: float = 0.0,
    ):
        if base < 0 or amplitude < 0 or period <= 0:
            raise ValueError("base/amplitude must be ≥ 0 and period > 0")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def rate(self, t: float) -> float:
        value = self.base + self.amplitude * math.sin(
            2 * math.pi * (t - self.phase) / self.period
        )
        return max(0.0, value)


class FlashCrowdTrace:
    """A sudden spike: fast exponential rise, slower exponential decay.

    Models flash-crowd events (news link, sale start) layered on zero
    baseline; combine with :class:`CompositeTrace` for a realistic mix.
    """

    def __init__(
        self,
        start_time: float,
        peak_rate: float,
        *,
        rise: float = 30.0,
        decay: float = 600.0,
    ):
        if peak_rate < 0 or rise <= 0 or decay <= 0:
            raise ValueError("peak_rate ≥ 0 and rise/decay > 0 required")
        self.start_time = start_time
        self.peak_rate = float(peak_rate)
        self.rise = float(rise)
        self.decay = float(decay)

    def rate(self, t: float) -> float:
        if t < self.start_time:
            return 0.0
        dt = t - self.start_time
        return self.peak_rate * (1 - math.exp(-dt / self.rise)) * math.exp(
            -dt / self.decay
        )


class BurstyTrace:
    """Base rate with random bursts.

    Bursts arrive as a Poisson process (``burst_rate`` per second), each
    multiplying load by ``burst_factor`` for ``burst_duration`` seconds.
    Burst times are pre-drawn over ``horizon`` so rate() is a pure function
    of time.
    """

    def __init__(
        self,
        base: float,
        *,
        burst_factor: float = 3.0,
        burst_rate: float = 1 / 1800.0,
        burst_duration: float = 120.0,
        horizon: float = 86_400.0,
        rng: np.random.Generator | None = None,
    ):
        if base < 0 or burst_factor < 1 or burst_rate <= 0 or burst_duration <= 0:
            raise ValueError("invalid burst parameters")
        self.base = float(base)
        self.burst_factor = float(burst_factor)
        self.burst_duration = float(burst_duration)
        rng = rng or np.random.default_rng(0)
        expected = max(1, int(burst_rate * horizon * 3))
        gaps = rng.exponential(1 / burst_rate, size=expected)
        times = np.cumsum(gaps)
        self.burst_times: list[float] = [float(t) for t in times if t < horizon]

    def rate(self, t: float) -> float:
        in_burst = any(
            start <= t < start + self.burst_duration for start in self.burst_times
        )
        return self.base * (self.burst_factor if in_burst else 1.0)


class NoisyTrace:
    """Multiplicative lognormal noise over another trace.

    Noise is drawn per fixed-width time bucket at construction, so the
    trace stays a deterministic function of time.
    """

    def __init__(
        self,
        base: LoadTrace,
        *,
        rel_std: float = 0.1,
        bucket: float = 60.0,
        horizon: float = 86_400.0,
        rng: np.random.Generator | None = None,
    ):
        if rel_std < 0 or bucket <= 0 or horizon <= 0:
            raise ValueError("invalid noise parameters")
        self.base = base
        self.bucket = float(bucket)
        rng = rng or np.random.default_rng(0)
        n = int(math.ceil(horizon / bucket)) + 1
        sigma = math.sqrt(math.log(1 + rel_std**2))
        self._noise = rng.lognormal(mean=-sigma**2 / 2, sigma=sigma, size=n)

    def rate(self, t: float) -> float:
        idx = int(t // self.bucket)
        noise = self._noise[idx] if 0 <= idx < len(self._noise) else 1.0
        return max(0.0, self.base.rate(t) * float(noise))


class CompositeTrace:
    """Sum of component traces."""

    def __init__(self, components: Sequence[LoadTrace]):
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)

    def rate(self, t: float) -> float:
        return sum(c.rate(t) for c in self.components)


class ScaledTrace:
    """A trace multiplied by a constant factor."""

    def __init__(self, base: LoadTrace, factor: float):
        if factor < 0:
            raise ValueError("factor must be non-negative")
        self.base = base
        self.factor = float(factor)

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.factor


class OUTrace:
    """Mean-reverting (Ornstein–Uhlenbeck) load.

    Real request traces are autocorrelated: load drifts rather than
    jumping independently per interval. The OU process gives exactly
    that — a mean level, a relaxation time, and a volatility — and is the
    standard synthetic stand-in when production traces are unavailable.

    The path is pre-simulated at ``step`` resolution over ``horizon`` so
    ``rate()`` stays a pure function of time.

    Parameters
    ----------
    mean:
        Long-run request rate the process reverts to.
    relaxation:
        Time constant (s) of mean reversion; larger = slower drift.
    volatility:
        Instantaneous standard deviation of the noise (req/s per √s).
    """

    def __init__(
        self,
        mean: float,
        *,
        relaxation: float = 600.0,
        volatility: float = 2.0,
        step: float = 10.0,
        horizon: float = 86_400.0,
        rng: np.random.Generator | None = None,
    ):
        if mean < 0 or relaxation <= 0 or volatility < 0 or step <= 0:
            raise ValueError("invalid OU parameters")
        self.mean = float(mean)
        self.step = float(step)
        rng = rng or np.random.default_rng(0)
        n = int(math.ceil(horizon / step)) + 1
        theta = 1.0 / relaxation
        path = np.empty(n)
        path[0] = mean
        noise = rng.normal(size=n - 1)
        sqrt_dt = math.sqrt(step)
        for i in range(1, n):
            drift = theta * (mean - path[i - 1]) * step
            path[i] = path[i - 1] + drift + volatility * sqrt_dt * noise[i - 1]
        self._path = np.maximum(path, 0.0)

    def rate(self, t: float) -> float:
        idx = int(t // self.step)
        if idx < 0:
            return self._path[0]
        if idx >= len(self._path):
            return float(self._path[-1])
        return float(self._path[idx])


class ReplayTrace:
    """Replay a recorded trace of ``(time, rate)`` samples.

    The substitute for production traces: export request rates from any
    monitoring system as rows and replay them with step interpolation.
    Times must be sorted; before the first sample the first rate holds,
    after the last the last rate holds. ``time_scale`` stretches the
    recording (e.g. replay a day in an hour) and ``rate_scale`` rescales
    amplitude to the simulated service's capacity range.
    """

    def __init__(
        self,
        samples: Sequence[tuple[float, float]],
        *,
        time_scale: float = 1.0,
        rate_scale: float = 1.0,
    ):
        if not samples:
            raise ValueError("need at least one sample")
        times = [s[0] for s in samples]
        if not all(math.isfinite(t) for t in times):
            raise ValueError("sample times must be finite")
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("samples must be sorted by time")
        if any(not math.isfinite(r) or r < 0 for _t, r in samples):
            raise ValueError("rates must be non-negative")
        if time_scale <= 0 or rate_scale < 0:
            raise ValueError("invalid scales")
        self._times = [t * time_scale for t in times]
        self._rates = [r * rate_scale for _t, r in samples]

    def rate(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            return self._rates[0]
        return self._rates[idx]
