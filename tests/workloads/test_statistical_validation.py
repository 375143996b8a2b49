"""Statistical validation of the arrival library.

Every stochastic claim the generators make is tested against its
theoretical target: delivered event mass vs the rate curve's integral,
exponential-gap CV for Poisson, over-dispersion for MMPP, tail-index
recovery for Pareto marks, spectral period/phase recovery for diurnal
load, cross-seed independence, and byte-identical same-seed replay for
every generator. All statistical assertions run on **fixed seeds** with
tolerances sized for the sample mass, so they are deterministic —
re-running the suite cannot flake (see docs/testing.md). The
hypothesis-driven properties only assert deterministic facts (exact
counts, exact replays), never distributional ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.arrivals import (
    LognormalSizes,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
    trace_integral,
)
from repro.workloads.traceio import TraceReplayer
from repro.workloads.traces import (
    ConstantTrace,
    DiurnalTrace,
    ReplayTrace,
    StepTrace,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _hill_alpha(samples: np.ndarray, top_frac: float = 0.1) -> float:
    order = np.sort(samples)[::-1]
    k = max(10, int(len(order) * top_frac))
    tail = order[: k + 1]
    return float(1.0 / np.mean(np.log(tail[:-1] / tail[-1])))


_MEAN_RATE_TRACES = pytest.mark.parametrize(
    "trace",
    [
        ConstantTrace(30.0),
        DiurnalTrace(base=40.0, amplitude=25.0, period=1200.0),
        StepTrace([(900.0, 60.0), (1800.0, 15.0)], initial=30.0),
    ],
    ids=["constant", "diurnal", "step"],
)


def _tick_counts(proc, horizon: float) -> np.ndarray:
    """``count()`` over contiguous 1 s windows, as the simulation asks."""
    return np.array([proc.count(t, t + 1.0) for t in np.arange(0.0, horizon)])


class TestMeanRate:
    """Delivered events ≈ ∫rate dt for every generator."""

    @_MEAN_RATE_TRACES
    def test_poisson_delivers_the_integral(self, trace):
        horizon = 3600.0
        events = PoissonArrivals(trace, _rng(21)).window(0.0, horizon)
        expected = trace_integral(trace, 0.0, horizon)
        # ±4σ Poisson band around the integral.
        assert abs(len(events) - expected) < 4.0 * np.sqrt(expected)

    def test_deterministic_replayer_is_exact(self):
        trace = DiurnalTrace(base=40.0, amplitude=25.0, period=1200.0)
        events = TraceReplayer(trace, step=0.5).events(0.0, 3600.0)
        expected = trace_integral(trace, 0.0, 3600.0, step=0.5)
        assert abs(len(events) - expected) <= 1.5

    def test_mmpp_delivers_the_modulated_integral(self):
        trace = ConstantTrace(30.0)
        proc = MMPPArrivals(trace, _rng(22), horizon=3600.0)
        events = proc.window(0.0, 3600.0)
        expected = trace_integral(proc, 0.0, 3600.0)
        assert abs(len(events) - expected) < 4.0 * np.sqrt(expected)

    @_MEAN_RATE_TRACES
    def test_poisson_count_delivers_the_integral(self, trace):
        counts = _tick_counts(PoissonArrivals(trace, _rng(21)), 3600.0)
        expected = trace_integral(trace, 0.0, 3600.0)
        assert abs(counts.sum() - expected) < 4.0 * np.sqrt(expected)

    def test_poisson_count_is_poisson_dispersed(self):
        counts = _tick_counts(PoissonArrivals(ConstantTrace(30.0), _rng(21)),
                              3600.0)
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.1)

    def test_mmpp_count_delivers_the_modulated_integral(self):
        proc = MMPPArrivals(ConstantTrace(30.0), _rng(22), horizon=3600.0)
        counts = _tick_counts(proc, 3600.0)
        expected = trace_integral(proc, 0.0, 3600.0)
        assert abs(counts.sum() - expected) < 4.0 * np.sqrt(expected)


class TestDispersion:
    """Inter-arrival gap structure: Poisson is CV=1, MMPP exceeds it."""

    def test_poisson_cv_is_one(self):
        events = PoissonArrivals(ConstantTrace(50.0), _rng(23)).window(
            0.0, 3600.0
        )
        gaps = np.diff(events)
        cv = np.std(gaps) / np.mean(gaps)
        assert cv == pytest.approx(1.0, abs=0.05)

    def test_mmpp_over_disperses_the_same_mean_load(self):
        flat = ConstantTrace(50.0)
        proc = MMPPArrivals(flat, _rng(24), horizon=3600.0)
        gaps = np.diff(proc.window(0.0, 3600.0))
        cv = np.std(gaps) / np.mean(gaps)
        assert cv > 1.15

    def test_mmpp_bursts_follow_the_state_path(self):
        flat = ConstantTrace(50.0)
        proc = MMPPArrivals(
            flat, _rng(25), factors=(0.25, 4.0), mean_dwell=120.0,
            horizon=3600.0,
        )
        events = proc.window(0.0, 3600.0)
        # Per-100s bins: counts in high-factor bins dominate low ones.
        bins = np.arange(0.0, 3700.0, 100.0)
        counts, _ = np.histogram(events, bins)
        factor = np.array([proc.factor_at(t + 50.0) for t in bins[:-1]])
        high = counts[factor > 1.0].mean()
        low = counts[factor < 1.0].mean()
        assert high > 4.0 * low


class TestTailRecovery:
    """Size marks have the tails they were built with."""

    def test_hill_recovers_pareto_alpha(self):
        for alpha in (1.4, 1.8, 2.5):
            draws = ParetoSizes(alpha=alpha).sample(_rng(26), 20_000)
            assert _hill_alpha(draws) == pytest.approx(alpha, rel=0.12)

    def test_lognormal_tail_is_lighter_than_pareto(self):
        heavy = ParetoSizes(alpha=1.5).sample(_rng(27), 20_000)
        light = LognormalSizes(
            mean=ParetoSizes(alpha=1.5).mean(), cv=1.0
        ).sample(_rng(27), 20_000)
        # Identical means, wildly different extremes.
        assert np.mean(heavy) == pytest.approx(np.mean(light), rel=0.15)
        assert np.max(heavy) > 5.0 * np.max(light)

    def test_marked_arrivals_preserve_the_mark_distribution(self):
        marked = MarkedArrivals(
            PoissonArrivals(ConstantTrace(40.0), _rng(28)),
            ParetoSizes(alpha=1.6),
            _rng(29),
        )
        _times, sizes = marked.window_marked(0.0, 2000.0)
        assert np.mean(sizes) == pytest.approx(marked.mean_size(), rel=0.2)


class TestSpectralRecovery:
    """FFT over binned counts recovers the diurnal period and phase."""

    def test_period_detection(self):
        period = 900.0
        horizon = 7200.0
        trace = DiurnalTrace(base=60.0, amplitude=40.0, period=period)
        events = PoissonArrivals(trace, _rng(30)).window(0.0, horizon)
        dt = 10.0
        counts, _ = np.histogram(events, np.arange(0.0, horizon + dt, dt))
        spectrum = np.fft.rfft(counts - counts.mean())
        freqs = np.fft.rfftfreq(len(counts), d=dt)
        peak = freqs[np.argmax(np.abs(spectrum))]
        assert 1.0 / peak == pytest.approx(period, rel=0.05)

    def test_phase_detection(self):
        period = 900.0
        phase = 300.0
        horizon = 7200.0
        trace = DiurnalTrace(
            base=60.0, amplitude=40.0, period=period, phase=phase
        )
        events = PoissonArrivals(trace, _rng(31)).window(0.0, horizon)
        dt = 10.0
        centers = np.arange(0.0, horizon, dt) + dt / 2.0
        counts, _ = np.histogram(events, np.arange(0.0, horizon + dt, dt))
        # Project onto the known carrier to read the phase offset. The
        # rate is base + A·sin(2π(t−phase)/P), and projecting a sine on
        # e^{-iθ} lands at angle −φ0 − π/2, so undo the π/2 too.
        angle = 2.0 * np.pi * centers / period
        z = np.sum((counts - counts.mean()) * np.exp(-1j * angle))
        recovered = (
            (-np.angle(z) - np.pi / 2.0) * period / (2.0 * np.pi)
        ) % period
        shift = min(
            abs(recovered - phase % period),
            period - abs(recovered - phase % period),
        )
        assert shift < 0.05 * period


class TestIndependence:
    """Different seeds give statistically independent streams."""

    def test_cross_seed_counts_uncorrelated(self):
        flat = ConstantTrace(40.0)
        bins = np.arange(0.0, 3600.0 + 60.0, 60.0)
        a, _ = np.histogram(
            PoissonArrivals(flat, _rng(32)).window(0.0, 3600.0), bins
        )
        b, _ = np.histogram(
            PoissonArrivals(flat, _rng(33)).window(0.0, 3600.0), bins
        )
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.15

    def test_cross_seed_streams_differ(self):
        flat = ConstantTrace(40.0)
        a = PoissonArrivals(flat, _rng(34)).window(0.0, 600.0)
        b = PoissonArrivals(flat, _rng(35)).window(0.0, 600.0)
        assert len(a) != len(b) or not np.allclose(a, b)


class TestSameSeedDeterminism:
    """Every generator is a pure function of (spec, seed): two runs are
    byte-identical, including across windowed vs one-shot access."""

    def test_poisson(self):
        trace = DiurnalTrace(base=40.0, amplitude=25.0, period=600.0)
        a = PoissonArrivals(trace, _rng(36)).window(0.0, 1200.0)
        b = PoissonArrivals(trace, _rng(36)).window(0.0, 1200.0)
        assert a.tobytes() == b.tobytes()

    def test_mmpp(self):
        trace = ConstantTrace(30.0)
        a = MMPPArrivals(trace, _rng(37), horizon=1200.0).window(0.0, 1200.0)
        b = MMPPArrivals(trace, _rng(37), horizon=1200.0).window(0.0, 1200.0)
        assert a.tobytes() == b.tobytes()

    def test_marked(self):
        def build():
            return MarkedArrivals(
                PoissonArrivals(ConstantTrace(30.0), _rng(38)),
                ParetoSizes(alpha=1.6),
                _rng(39),
            )

        t1, s1 = build().window_marked(0.0, 600.0)
        t2, s2 = build().window_marked(0.0, 600.0)
        assert t1.tobytes() == t2.tobytes()
        assert s1.tobytes() == s2.tobytes()

    def test_replayer_deterministic_mode(self):
        trace = StepTrace([(100.0, 20.0)], initial=5.0)
        a = TraceReplayer(trace).events(0.0, 400.0)
        b = TraceReplayer(trace).events(0.0, 400.0)
        assert a.tobytes() == b.tobytes()

    def test_replayer_poisson_mode(self):
        trace = StepTrace([(100.0, 20.0)], initial=5.0)
        a = TraceReplayer(trace, mode="poisson", rng=_rng(40)).window(
            0.0, 400.0
        )
        b = TraceReplayer(trace, mode="poisson", rng=_rng(40)).window(
            0.0, 400.0
        )
        assert a.tobytes() == b.tobytes()


# -- hypothesis properties (deterministic facts only) ---------------------------

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(
    initial=rates,
    steps=st.lists(rates, min_size=1, max_size=5),
    seed=seeds,
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_poisson_same_seed_property(initial, steps, seed):
    trace = StepTrace(
        [(100.0 * (i + 1), r) for i, r in enumerate(steps)], initial=initial
    )
    a = PoissonArrivals(trace, _rng(seed)).window(0.0, 700.0)
    b = PoissonArrivals(trace, _rng(seed)).window(0.0, 700.0)
    assert a.tobytes() == b.tobytes()
    assert np.all(a >= 0.0) and np.all(a < 700.0)


@given(
    initial=rates,
    steps=st.lists(rates, min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_replayer_count_tracks_integral_property(initial, steps):
    samples = [(0.0, initial)] + [
        (100.0 * (i + 1), r) for i, r in enumerate(steps)
    ]
    trace = ReplayTrace(samples)
    events = TraceReplayer(trace).events(0.0, 700.0)
    expected = trace_integral(trace, 0.0, 700.0)
    assert abs(len(events) - expected) <= 1.5


@given(
    initial=rates,
    steps=st.lists(rates, min_size=1, max_size=4),
    split=st.floats(min_value=1.0, max_value=699.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_replayer_windows_stitch_property(initial, steps, split):
    samples = [(0.0, initial)] + [
        (100.0 * (i + 1), r) for i, r in enumerate(steps)
    ]
    trace = ReplayTrace(samples)
    one_shot = TraceReplayer(trace).events(0.0, 700.0)
    windowed = TraceReplayer(trace)
    stitched = np.concatenate(
        [windowed.window(0.0, split), windowed.window(split, 700.0)]
    )
    np.testing.assert_allclose(stitched, one_shot, atol=1e-9)
