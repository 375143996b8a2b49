"""Seeded outputs pinned in tests/data/golden_bench.json (see tests/golden.py).

Reruns the fast subset: the R-T7/R-T10/R-T11/R-T12/R-F11 smoke metrics
blocks, the adaptive column of the arena (one cell per pack scenario) and
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


@pytest.mark.parametrize("name", ("t7", "t10", "t11", "t12", "f11"))
def test_bench_smoke_metrics_match_pin(name):
    _assert_pinned(golden.bench_metrics(name), PINS["metrics"][name], name)


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
