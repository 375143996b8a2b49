"""Unit tests for the open-loop arrival library."""

import numpy as np
import pytest

from repro.workloads.arrivals import (
    COUNT_POINTS,
    CorrelatedSurge,
    DiurnalModulator,
    LognormalSizes,
    MarkedArrivals,
    MMPPArrivals,
    ParetoSizes,
    PoissonArrivals,
    SpikeModulator,
    trace_integral,
)
from repro.workloads.traces import ConstantTrace, DiurnalTrace, StepTrace


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class _LambdaRecorder:
    """Stands in for a generator's ``poisson``: records each Λ asked for."""

    def __init__(self):
        self.lams: list[float] = []

    def poisson(self, lam):
        self.lams.append(lam)
        return 0


class _CountingTrace:
    """A load trace that counts its ``rate`` calls."""

    def __init__(self, base):
        self.base = base
        self.calls = 0

    def rate(self, t: float) -> float:
        self.calls += 1
        return self.base.rate(t)


class TestTraceIntegral:
    def test_constant(self):
        assert trace_integral(ConstantTrace(5.0), 0.0, 100.0) == pytest.approx(
            500.0
        )

    def test_step(self):
        trace = StepTrace([(50.0, 10.0)], initial=2.0)
        assert trace_integral(trace, 0.0, 100.0) == pytest.approx(
            600.0, rel=0.02
        )

    def test_empty_window(self):
        assert trace_integral(ConstantTrace(5.0), 10.0, 10.0) == 0.0


class TestPoissonArrivals:
    def test_events_sorted_within_window(self):
        proc = PoissonArrivals(ConstantTrace(20.0), _rng(1))
        events = proc.window(100.0, 200.0)
        assert len(events) > 0
        assert np.all(np.diff(events) >= 0)
        assert events[0] >= 100.0
        assert events[-1] < 200.0

    def test_zero_rate_yields_no_events(self):
        proc = PoissonArrivals(ConstantTrace(0.0), _rng(1))
        assert len(proc.window(0.0, 1000.0)) == 0

    def test_empty_window(self):
        proc = PoissonArrivals(ConstantTrace(5.0), _rng(1))
        assert len(proc.window(10.0, 10.0)) == 0
        assert len(proc.window(10.0, 5.0)) == 0

    def test_thinning_tracks_nonhomogeneous_rate(self):
        # Twice as many events land in the high-rate half of a step.
        trace = StepTrace([(500.0, 40.0)], initial=20.0)
        proc = PoissonArrivals(trace, _rng(2))
        events = proc.window(0.0, 1000.0)
        low = np.sum(events < 500.0)
        high = np.sum(events >= 500.0)
        assert high / low == pytest.approx(2.0, rel=0.15)

    def test_explicit_rate_bound(self):
        proc = PoissonArrivals(ConstantTrace(10.0), _rng(3), rate_bound=10.0)
        events = proc.window(0.0, 500.0)
        assert len(events) == pytest.approx(5000, rel=0.1)

    def test_count_of_empty_or_zero_rate_window_draws_nothing(self):
        rng = _rng(1)
        state = rng.bit_generator.state
        assert PoissonArrivals(ConstantTrace(5.0), rng).count(10.0, 10.0) == 0
        assert PoissonArrivals(ConstantTrace(5.0), rng).count(10.0, 5.0) == 0
        assert PoissonArrivals(ConstantTrace(0.0), rng).count(0.0, 1.0) == 0
        assert rng.bit_generator.state == state

    def test_count_integrates_step_jumps_on_window_edges_exactly(self):
        proc = PoissonArrivals(StepTrace([(10.0, 50.0)], initial=20.0), _rng())
        proc.rng = _LambdaRecorder()
        proc.count(9.0, 10.0)
        proc.count(10.0, 11.0)
        proc.count(9.5, 10.5)
        assert proc.rng.lams == [20.0, 50.0, 35.0]

    @pytest.mark.parametrize("make", ["poisson", "mmpp"])
    def test_count_cost_is_flat_in_offered_load(self, make):
        # Same number of rate() calls at 10 and 1000 req/s; only the
        # counts scale.
        calls, totals = [], []
        for level in (10.0, 1000.0):
            trace = _CountingTrace(ConstantTrace(level))
            if make == "poisson":
                proc = PoissonArrivals(trace, _rng(4))
            else:
                proc = MMPPArrivals(trace, _rng(4), horizon=100.0)
            totals.append(sum(proc.count(t, t + 1.0) for t in range(100)))
            calls.append(trace.calls)
        assert calls[0] == calls[1]
        if make == "poisson":
            assert calls[0] == 100 * COUNT_POINTS
        assert 80.0 < totals[1] / totals[0] < 125.0


class TestMMPPArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPArrivals(ConstantTrace(1.0), _rng(), factors=(1.0,))
        with pytest.raises(ValueError):
            MMPPArrivals(ConstantTrace(1.0), _rng(), factors=(-1.0, 1.0))
        with pytest.raises(ValueError):
            MMPPArrivals(ConstantTrace(1.0), _rng(), mean_dwell=0.0)

    def test_count_sums_factor_times_integral_over_state_pieces(self):
        trace = _CountingTrace(DiurnalTrace(base=40.0, amplitude=25.0,
                                            period=300.0))
        proc = MMPPArrivals(trace, _rng(6), mean_dwell=20.0, horizon=600.0)
        proc.rng = _LambdaRecorder()
        proc.count(100.0, 200.0)
        switches = sum(100.0 < t < 200.0 for t in proc._switch_times)
        assert switches > 0
        assert trace.calls == COUNT_POINTS * (switches + 1)
        reference = trace_integral(proc, 100.0, 200.0, step=1e-3)
        assert proc.rng.lams[0] == pytest.approx(reference, rel=1e-3)

    def test_factor_path_piecewise_constant(self):
        proc = MMPPArrivals(
            ConstantTrace(10.0), _rng(4), factors=(0.5, 2.0), horizon=1000.0
        )
        factors = {proc.factor_at(t) for t in np.arange(0.0, 1000.0, 1.0)}
        assert factors <= {0.5, 2.0}
        assert len(factors) == 2

    def test_rate_is_modulated_trace(self):
        proc = MMPPArrivals(ConstantTrace(10.0), _rng(5), horizon=500.0)
        t = 123.0
        assert proc.rate(t) == pytest.approx(10.0 * proc.factor_at(t))

    def test_last_state_holds_beyond_horizon(self):
        proc = MMPPArrivals(ConstantTrace(10.0), _rng(6), horizon=100.0)
        assert proc.factor_at(1e9) == proc.factor_at(200.0)


class TestSizeDistributions:
    def test_pareto_validation(self):
        with pytest.raises(ValueError):
            ParetoSizes(alpha=1.0)
        with pytest.raises(ValueError):
            ParetoSizes(x_min=0.0)

    def test_pareto_support_and_mean(self):
        sizes = ParetoSizes(alpha=2.5, x_min=2.0)
        draws = sizes.sample(_rng(7), 5000)
        assert np.all(draws >= 2.0)
        assert np.mean(draws) == pytest.approx(sizes.mean(), rel=0.1)
        assert sizes.mean() == pytest.approx(2.5 * 2.0 / 1.5)

    def test_lognormal_mean_and_cv(self):
        sizes = LognormalSizes(mean=4.0, cv=0.5)
        draws = sizes.sample(_rng(8), 20000)
        assert sizes.mean() == 4.0
        assert np.mean(draws) == pytest.approx(4.0, rel=0.05)
        assert np.std(draws) / np.mean(draws) == pytest.approx(0.5, rel=0.1)


class TestMarkedArrivals:
    def test_marks_align_with_events(self):
        marked = MarkedArrivals(
            PoissonArrivals(ConstantTrace(10.0), _rng(9)),
            ParetoSizes(alpha=1.6),
            _rng(10),
        )
        times, sizes = marked.window_marked(0.0, 100.0)
        assert len(times) == len(sizes)
        assert len(times) > 0
        assert np.all(sizes >= 1.0)
        assert marked.mean_size() == ParetoSizes(alpha=1.6).mean()

    def test_unmarked_window_passthrough(self):
        proc = PoissonArrivals(ConstantTrace(10.0), _rng(11))
        twin = PoissonArrivals(ConstantTrace(10.0), _rng(11))
        marked = MarkedArrivals(proc, ParetoSizes(), _rng(12))
        np.testing.assert_array_equal(
            marked.window(0.0, 50.0), twin.window(0.0, 50.0)
        )

    def test_count_marked_draws_n_marks_in_one_call(self):
        marked = MarkedArrivals(
            PoissonArrivals(ConstantTrace(10.0), _rng(9)),
            ParetoSizes(alpha=1.6),
            _rng(10),
        )
        twin = PoissonArrivals(ConstantTrace(10.0), _rng(9))
        n, sizes = marked.count_marked(0.0, 100.0)
        assert n == twin.count(0.0, 100.0) > 0
        np.testing.assert_array_equal(
            sizes, ParetoSizes(alpha=1.6).sample(_rng(10), n)
        )
        assert marked.count(100.0, 200.0) == twin.count(100.0, 200.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: PoissonArrivals(ConstantTrace(1.0), _rng(), rate_bound=_NAN),
        lambda: PoissonArrivals(ConstantTrace(1.0), _rng(), rate_bound=_INF),
        lambda: PoissonArrivals(ConstantTrace(1.0), _rng(), bound_margin=_NAN),
        lambda: MMPPArrivals(ConstantTrace(1.0), _rng(), factors=(_NAN, 1.0)),
        lambda: MMPPArrivals(ConstantTrace(1.0), _rng(), factors=(_INF, 1.0)),
        lambda: MMPPArrivals(ConstantTrace(1.0), _rng(), mean_dwell=_NAN),
        lambda: MMPPArrivals(ConstantTrace(1.0), _rng(), horizon=_NAN),
        lambda: MMPPArrivals(ConstantTrace(1.0), _rng(), horizon=_INF),
        lambda: ParetoSizes(alpha=_NAN),
        lambda: ParetoSizes(x_min=_INF),
    ],
    ids=[
        "rate_bound-nan", "rate_bound-inf", "bound_margin-nan",
        "factors-nan", "factors-inf", "mean_dwell-nan", "horizon-nan",
        "horizon-inf", "alpha-nan", "x_min-inf",
    ],
)
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


class TestModulators:
    def test_diurnal_modulator_scales_base_trace(self):
        mod = DiurnalModulator(
            ConstantTrace(100.0), amplitude=0.5, period=1000.0
        )
        rates = [mod.rate(t) for t in np.arange(0.0, 1000.0, 10.0)]
        assert max(rates) == pytest.approx(150.0, rel=0.05)
        assert min(rates) == pytest.approx(50.0, rel=0.05)

    def test_spike_modulator_rises_and_decays(self):
        mod = SpikeModulator(
            ConstantTrace(10.0), [(100.0, 5.0, 10.0, 50.0)]
        )
        assert mod.rate(50.0) == pytest.approx(10.0)
        assert mod.rate(115.0) > 30.0  # deep inside the spike
        assert mod.rate(1000.0) == pytest.approx(10.0, rel=0.05)

    def test_spike_modulator_validation(self):
        with pytest.raises(ValueError):
            SpikeModulator(ConstantTrace(1.0), [(0.0, 0.5, 10.0, 50.0)])


class TestCorrelatedSurge:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedSurge(_rng(), horizon=0.0)
        with pytest.raises(ValueError):
            CorrelatedSurge(_rng(), horizon=100.0, factor=0.5)
        with pytest.raises(ValueError):
            CorrelatedSurge(_rng(), horizon=100.0, max_lag=-1.0)

    def test_windows_inside_horizon(self):
        surge = CorrelatedSurge(
            _rng(13), horizon=5000.0, mean_interval=400.0, duration=60.0
        )
        windows = surge.windows()
        assert len(windows) >= 2
        for start, end in windows:
            assert 0.0 < start < 5000.0
            assert end == start + 60.0

    def test_active_matches_windows(self):
        surge = CorrelatedSurge(
            _rng(14), horizon=2000.0, mean_interval=300.0, duration=45.0
        )
        start, end = surge.windows()[0]
        assert surge.active((start + end) / 2)
        assert not surge.active(start - 1.0)

    def test_attached_traces_surge_together(self):
        surge = CorrelatedSurge(
            _rng(15), horizon=2000.0, mean_interval=300.0, duration=45.0
        )
        a = surge.attach(ConstantTrace(10.0), name="a")
        b = surge.attach(ConstantTrace(20.0), name="b", factor=2.0)
        start, end = surge.windows()[0]
        mid = (start + end) / 2
        assert a.rate(mid) == pytest.approx(30.0)  # default factor 3
        assert b.rate(mid) == pytest.approx(40.0)
        assert a.rate(start - 1.0) == pytest.approx(10.0)
        assert surge.attached == ["a", "b"]

    def test_lag_shifts_the_window(self):
        surge = CorrelatedSurge(
            _rng(16), horizon=2000.0, mean_interval=300.0, duration=45.0
        )
        lagged = surge.attach(ConstantTrace(10.0), name="lag", lag=30.0)
        start, _end = surge.windows()[0]
        assert lagged.rate(start + 1.0) == pytest.approx(10.0)
        assert lagged.rate(start + 31.0) == pytest.approx(30.0)
