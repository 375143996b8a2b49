"""Trace-file schema, loader, and replayer tests — including the
golden-replay fingerprint pinned against a committed miniature trace."""

from pathlib import Path

import numpy as np
import pytest

from repro.workloads.arrivals import trace_integral
from repro.workloads.traceio import (
    SCHEMA,
    LoadedTrace,
    TraceReplayer,
    TraceSchemaError,
    event_fingerprint,
    load_trace,
)
from repro.workloads.traces import ConstantTrace, DiurnalTrace

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_trace.json"

#: Pinned fingerprint of the deterministic replay of the committed
#: golden trace over [0, 120). Any change to the schema parser, the
#: ReplayTrace step interpolation, or the replayer's integral inversion
#: shifts at least one event and breaks this hash — that is the point.
GOLDEN_FINGERPRINT = (
    "70243ebedf84602d4a641060cc09736db95d57a95b3b337c55be7cc4c928f727"
)
GOLDEN_EVENTS = 678


def _write_json(tmp_path, body: str) -> Path:
    path = tmp_path / "trace.json"
    path.write_text(body)
    return path


class TestLoadJson:
    def test_loads_schema_and_metadata(self):
        loaded = load_trace(GOLDEN)
        assert loaded.schema == SCHEMA
        assert loaded.name == "golden-mini"
        assert loaded.unit == "rps"
        assert loaded.meta == {"source": "synthetic"}
        assert loaded.duration == 110.0
        assert loaded.samples[0] == (0.0, 2.0)

    def test_unknown_schema_rejected(self, tmp_path):
        path = _write_json(
            tmp_path, '{"schema": "repro.trace/v9", "samples": [[0, 1]]}'
        )
        with pytest.raises(TraceSchemaError, match="v9"):
            load_trace(path)

    def test_missing_schema_rejected(self, tmp_path):
        path = _write_json(tmp_path, '{"samples": [[0, 1]]}')
        with pytest.raises(TraceSchemaError):
            load_trace(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = _write_json(tmp_path, "{nope")
        with pytest.raises(TraceSchemaError, match="invalid JSON"):
            load_trace(path)

    @pytest.mark.parametrize(
        "samples",
        [
            "[]",
            "[[0, 1, 2]]",
            "[[0, -1]]",
            "[[10, 1], [0, 2]]",
            '[[0, "NaN"]]',
            '[[0, "Infinity"]]',
        ],
    )
    def test_bad_samples_rejected(self, tmp_path, samples):
        path = _write_json(
            tmp_path,
            f'{{"schema": "{SCHEMA}", "samples": {samples}}}',
        )
        with pytest.raises(TraceSchemaError):
            load_trace(path)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("whatever")
        with pytest.raises(TraceSchemaError, match="extension"):
            load_trace(path)


class TestLoadCsv:
    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,rate\n0,5\n30,10\n\n60,2.5\n")
        loaded = load_trace(path)
        assert loaded.samples == ((0.0, 5.0), (30.0, 10.0), (60.0, 2.5))
        assert loaded.name == "trace"

    def test_header_required(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,5\n30,10\n")
        with pytest.raises(TraceSchemaError, match="header"):
            load_trace(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,rate\n0,5,9\n")
        with pytest.raises(TraceSchemaError, match="malformed"):
            load_trace(path)


class TestLoadedTrace:
    def test_trace_scaling(self):
        loaded = LoadedTrace("x", ((0.0, 10.0), (100.0, 20.0)))
        trace = loaded.trace(time_scale=2.0, rate_scale=0.5)
        assert trace.rate(0.0) == 5.0
        # Step interpolation: the first rate holds until the second
        # sample, which lands at 200s after stretching.
        assert trace.rate(199.0) == 5.0
        assert trace.rate(200.0) == 10.0


class TestGoldenReplay:
    def test_pinned_fingerprint(self):
        replayer = TraceReplayer(load_trace(GOLDEN))
        events = replayer.events(0.0, 120.0)
        assert len(events) == GOLDEN_EVENTS
        assert replayer.fingerprint(0.0, 120.0) == GOLDEN_FINGERPRINT

    def test_count_matches_integral(self):
        loaded = load_trace(GOLDEN)
        expected = trace_integral(loaded.trace(), 0.0, 120.0)
        events = TraceReplayer(loaded).events(0.0, 120.0)
        assert abs(len(events) - expected) <= 1.0

    def test_no_events_in_zero_rate_gap(self):
        # Samples pin the rate to zero over [50, 70).
        events = TraceReplayer(load_trace(GOLDEN)).events(0.0, 120.0)
        assert not [t for t in events if 50.5 < t < 69.5]


class TestTraceReplayer:
    def test_contiguous_windows_stitch(self):
        loaded = load_trace(GOLDEN)
        one_shot = TraceReplayer(loaded).events(0.0, 120.0)
        windowed = TraceReplayer(loaded)
        chunks = [windowed.window(a, a + 15.0) for a in np.arange(0, 120, 15)]
        stitched = np.concatenate(chunks)
        np.testing.assert_allclose(stitched, one_shot)

    def test_contiguous_counts_sum_to_the_one_shot_stream(self):
        loaded = load_trace(GOLDEN)
        windowed = TraceReplayer(loaded)
        counts = [windowed.count(a, a + 15.0) for a in np.arange(0, 120, 15)]
        assert sum(counts) == GOLDEN_EVENTS

    def test_non_contiguous_window_resets_phase(self):
        replayer = TraceReplayer(ConstantTrace(1.0))
        first = replayer.window(0.0, 10.0)
        jumped = replayer.window(100.0, 110.0)
        np.testing.assert_allclose(jumped - 100.0, first)

    def test_arbitrary_load_trace_source(self):
        trace = DiurnalTrace(base=5.0, amplitude=3.0, period=600.0)
        events = TraceReplayer(trace, step=0.5).events(0.0, 600.0)
        expected = trace_integral(trace, 0.0, 600.0, step=0.5)
        assert abs(len(events) - expected) <= 1.5

    def test_poisson_mode_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            TraceReplayer(ConstantTrace(1.0), mode="poisson")

    def test_poisson_mode_seeded(self):
        loaded = load_trace(GOLDEN)
        a = TraceReplayer(
            loaded, mode="poisson", rng=np.random.default_rng(3)
        ).window(0.0, 120.0)
        b = TraceReplayer(
            loaded, mode="poisson", rng=np.random.default_rng(3)
        ).window(0.0, 120.0)
        np.testing.assert_array_equal(a, b)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            TraceReplayer(ConstantTrace(1.0), mode="exact")

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            TraceReplayer(ConstantTrace(1.0), step=0.0)


class TestEventFingerprint:
    def test_stable_across_containers(self):
        assert event_fingerprint([1.0, 2.5]) == event_fingerprint(
            np.array([1.0, 2.5])
        )

    def test_rounding_bounds_float_noise(self):
        assert event_fingerprint([1.0]) == event_fingerprint([1.0 + 1e-9])
        assert event_fingerprint([1.0]) != event_fingerprint([1.0 + 1e-5])
