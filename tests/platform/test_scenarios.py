"""Scenario-pack tests: every entry loads, validates, and replays.

The pack contract is append-only: entries introduced at an earlier
``pack_version`` must never change (their canonical spec hashes are
pinned below), new versions may only add entries. Pack v2 appended the
trace-realism trio (``diurnal-replay``, ``heavy-tail``,
``correlated-surge``) in the fuzzer's ScenarioSpec v4 format.
"""

import hashlib
import json

import pytest

from repro.arena import run_cell
from repro.platform.evolve import FAULT_DOMAINS
from repro.scenarios import (
    PACK_VERSION,
    UnknownScenarioError,
    load_scenario,
    scenario_names,
)
from repro.verify.fuzzer import (
    MIN_HORIZON,
    SUPPORTED_FORMATS,
    WORKLOAD_KINDS,
    build_platform,
    run_episode,
)

V1_ENTRIES = (
    "calm",
    "data-fault",
    "diurnal",
    "flash-crowd",
    "overload-surge",
    "zone-outage",
)
V2_ENTRIES = (
    "correlated-surge",
    "diurnal-replay",
    "heavy-tail",
)
EXPECTED = tuple(sorted(V1_ENTRIES + V2_ENTRIES))

#: Append-only enforcement: sha256 (truncated) of each v1 entry's
#: canonical spec dict. Editing a v1 entry silently reshuffles every
#: policy's historical scorecard, so it must fail loudly here instead.
V1_SPEC_HASHES = {
    "calm": "2247ddf36e196de2",
    "data-fault": "284b634be132b82a",
    "diurnal": "43b69581074ca000",
    "flash-crowd": "994644fad27a7919",
    "overload-surge": "df37875f3395cdac",
    "zone-outage": "295b632274a17828",
}


def _spec_hash(name: str) -> str:
    spec = load_scenario(name).spec
    canon = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_pack_contains_the_curated_scenarios():
    assert scenario_names() == EXPECTED
    assert len(scenario_names()) >= 9


def test_unknown_scenario_lists_pack():
    with pytest.raises(UnknownScenarioError) as info:
        load_scenario("mystery")
    for name in EXPECTED:
        assert repr(name) in str(info.value)


@pytest.mark.parametrize("name", EXPECTED)
def test_entry_is_a_valid_replayable_spec(name):
    entry = load_scenario(name)
    assert entry.name == name
    assert entry.description
    spec = entry.spec
    assert spec.horizon >= MIN_HORIZON
    assert spec.nodes >= 3
    assert spec.controller_replicas == 1  # policy-portable across the arena
    for workload in spec.workloads:
        assert workload.kind in WORKLOAD_KINDS
    for event in spec.chaos:
        assert event.domain in FAULT_DOMAINS
        assert 0 <= event.at < spec.horizon
    # Round-trips through the repro-file format unchanged.
    assert type(spec).from_json(spec.to_json()) == spec
    # Pack metadata is carried alongside: the version stamp records the
    # pack version the entry was introduced at, never newer than the
    # pack itself, and the spec format is one the fuzzer replays.
    data = json.loads(entry.path.read_text())
    assert 1 <= data["pack_version"] <= PACK_VERSION
    assert data["format"] in SUPPORTED_FORMATS


@pytest.mark.parametrize("name", EXPECTED)
def test_entry_builds_a_platform(name):
    spec = load_scenario(name).spec
    platform = build_platform(spec)
    assert len(platform.apps) == len(spec.workloads)


def test_calm_replays_clean_under_invariants():
    spec = load_scenario("calm").spec
    result = run_episode(spec, every=5)
    assert result.ok, result.violations
    assert result.events_executed > 0


class TestPackV2Contract:
    """The append-only contract and the v2 trace-realism entries."""

    def test_pack_version_is_2(self):
        assert PACK_VERSION == 2

    @pytest.mark.parametrize("name", V1_ENTRIES)
    def test_v1_entries_are_untouched(self, name):
        assert _spec_hash(name) == V1_SPEC_HASHES[name], (
            f"v1 pack entry {name!r} changed — the pack contract is "
            "append-only; add a new entry and bump PACK_VERSION instead"
        )

    @pytest.mark.parametrize("name", V2_ENTRIES)
    def test_v2_entries_are_v4_specs(self, name):
        entry = load_scenario(name)
        data = json.loads(entry.path.read_text())
        assert data["pack_version"] == 2
        assert data["format"] == 4
        spec = entry.spec
        # Each v2 entry arms at least one trace-realism model.
        assert (
            spec.arrival_model != "rate"
            or spec.heavy_tail
            or spec.surge
        )

    @pytest.mark.parametrize("name", V2_ENTRIES)
    def test_v2_entries_replay_clean_under_invariants(self, name):
        result = run_episode(load_scenario(name).spec, every=8)
        assert result.ok, result.violations
        assert result.events_executed > 0

    def test_v2_cell_scores_byte_identical_same_seed(self):
        entry = load_scenario("heavy-tail")
        first = run_cell("adaptive", entry, horizon=240.0)
        second = run_cell("adaptive", entry, horizon=240.0)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
