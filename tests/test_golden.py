"""Seeded outputs pinned in tests/data/golden_bench.json (see tests/golden.py).

Reruns the fast subset: the R-T7/R-T9/R-T10/R-T11/R-T12/R-F2/R-F3/R-F11/
R-F12 smoke metrics blocks and event counts, the adaptive column of the arena (one cell per pack scenario) and
fuzz episodes 0-6 at run seed 7. Any difference is a behaviour change; if it
is intended, re-pin in the same change (docs/testing.md).
"""

from __future__ import annotations

import pytest

from tests import golden

pytest.importorskip(
    "benchmarks.runner",
    reason="benchmarks/ is a repo-level package; run pytest from the "
    "repository root",
)

PINS = golden.load()


def _assert_pinned(got, want, label: str) -> None:
    diffs = golden.differences(got, want)
    assert not diffs, f"{label} moved from its pin:\n" + "\n".join(diffs)


def test_every_registry_experiment_is_pinned():
    assert set(PINS["metrics"]) == set(golden.bench_names())
    assert set(PINS["events_executed"]) == set(golden.bench_names())


@pytest.mark.parametrize(
    "name", ("t7", "t9", "t10", "t11", "t12", "f2", "f3", "f11", "f12")
)
def test_bench_smoke_metrics_match_pin(name):
    metrics, events = golden.bench_pin(name)
    _assert_pinned(metrics, PINS["metrics"][name], name)
    assert events == PINS["events_executed"][name], name


@pytest.mark.parametrize(
    "cell",
    sorted(c for c in PINS["metrics"]["arena"]["cells"] if c.startswith("adaptive/")),
)
def test_adaptive_arena_cell_matches_pin(cell):
    from repro.arena import run_cell
    from repro.scenarios import load_scenario

    _, scenario = cell.split("/")
    card = run_cell("adaptive", load_scenario(scenario)).to_dict()
    _assert_pinned(card, PINS["metrics"]["arena"]["cells"][cell], cell)


@pytest.mark.parametrize("index", golden.FUZZ_EPISODES)
def test_fuzz_episode_matches_pin(index):
    assert PINS["fuzz"]["run_seed"] == golden.FUZZ_RUN_SEED
    _assert_pinned(
        golden.fuzz_digest(index),
        PINS["fuzz"]["episodes"][index],
        f"fuzz episode {index}",
    )
