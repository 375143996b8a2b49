"""Arena harness tests: scorecard determinism, leaderboard, rendering."""

import dataclasses
import json

import pytest

from repro.arena import (
    METRICS,
    Scorecard,
    _ActuationLedger,
    _leaderboard,
    derive_slos,
    leaderboard_markdown,
    leaderboard_text,
    run_arena,
    run_cell,
)
from repro.platform.loader import platform_from_dict
from repro.scenarios import load_scenario, scenario_names

#: A deliberately small sweep so the determinism test stays CI-cheap:
#: two policies x two scenarios, shortened horizon.
SMALL = dict(
    policies=("static", "adaptive"),
    scenarios=("calm", "flash-crowd"),
    seed=17,
    horizon=240.0,
)


@pytest.fixture(scope="module")
def payload():
    return run_arena(**SMALL)


class TestScorecard:
    def test_cell_scores_every_metric(self):
        card = run_cell(
            "adaptive", load_scenario("calm"), seed=9, horizon=240.0
        )
        assert isinstance(card, Scorecard)
        data = card.to_dict()
        assert tuple(data) == METRICS
        assert 0.0 <= data["plo_violation_rate"] <= 1.0
        assert 0.0 <= data["slo_attainment"] <= 1.0
        assert data["cost_dollars"] > 0
        assert data["events_executed"] > 0
        assert data["mttr_s"] is None  # calm has no chaos

    def test_metrics_are_byte_identical_across_runs(self, payload):
        again = run_arena(**SMALL)
        assert json.dumps(payload["metrics"], sort_keys=True) == json.dumps(
            again["metrics"], sort_keys=True
        )

    def test_runner_contract_shape(self, payload):
        assert payload["seed"] == SMALL["seed"]
        assert payload["events_executed"] == sum(
            cell["events_executed"]
            for cell in payload["metrics"]["cells"].values()
        )
        assert set(payload["metrics"]["cells"]) == {
            "static/calm",
            "static/flash-crowd",
            "adaptive/calm",
            "adaptive/flash-crowd",
        }
        # Wall-clock stays out of metrics, one timing entry per cell.
        assert len(payload["timing"]) == 4
        assert all(k.startswith("wall_s/") for k in payload["timing"])


class TestLeaderboard:
    def test_ranked_by_violation_then_cost(self, payload):
        board = payload["metrics"]["leaderboard"]
        assert [row["rank"] for row in board] == [1, 2]
        keys = [
            (row["mean_violation_rate"], row["total_cost_dollars"])
            for row in board
        ]
        assert keys == sorted(keys)

    def test_wins_require_strict_best(self):
        def card(policy, scenario, viol):
            return Scorecard(
                policy=policy,
                scenario=scenario,
                plo_violation_rate=viol,
                slo_attainment=1.0,
                cost_dollars=1.0,
                slack_frac=0.5,
                convergence_s=0.0,
                flap_count=0,
                mttr_s=None,
                events_executed=10,
            )

        board = _leaderboard(
            [
                card("a", "s1", 0.1),
                card("b", "s1", 0.2),
                card("a", "s2", 0.3),  # tie: nobody wins s2
                card("b", "s2", 0.3),
            ]
        )
        by_policy = {row["policy"]: row for row in board}
        assert by_policy["a"]["wins"] == 1
        assert by_policy["b"]["wins"] == 0
        assert by_policy["a"]["rank"] == 1

    def test_rendering(self, payload):
        text = leaderboard_text(payload)
        markdown = leaderboard_markdown(payload)
        for out in (text, markdown):
            assert "policy" in out
            assert "adaptive" in out
            assert "static" in out
        assert markdown.count("|") > 10
        assert f"seed {SMALL['seed']}" in markdown


class TestDeriveSLOs:
    def test_micro_and_stream_get_slos_with_margin(self):
        spec = load_scenario("data-fault").spec
        slos = derive_slos(spec)
        covered = {
            w.name for w in spec.workloads if w.kind in ("micro", "stream")
        }
        assert {s.series.split("/")[1] for s in slos} == covered
        for slo in slos:
            workload = next(
                w for w in spec.workloads if w.name in slo.series
            )
            assert slo.objective == pytest.approx(
                float(workload.params["plo"]) * 1.4
            )


class TestActuationLedger:
    def test_counts_direction_reversals_per_stream(self):
        ledger = _ActuationLedger()
        # app1 replicas: up, down, up -> 2 flaps.
        for direction in (1, -1, 1):
            ledger._push("app1", "replicas", direction)
        # app1 resize: monotone growth -> 0 flaps.
        for direction in (1, 1, 1):
            ledger._push("app1", "resize", direction)
        # app2 replicas: one reversal -> 1 flap; zero deltas ignored.
        for direction in (1, 0, -1, 0):
            ledger._push("app2", "replicas", direction)
        assert ledger.flap_count() == 3


@pytest.mark.parametrize("name", scenario_names())
def test_pack_scenario_is_plain_loader_data(name, monkeypatch):
    """Building a pack entry from the JSON text of ``spec.to_config()``
    scores exactly like ``build_platform(spec)``: a scenario is plain
    data that ``repro run`` can take."""
    import repro.arena as arena

    entry = load_scenario(name)
    direct = run_cell("adaptive", entry, horizon=240.0).to_dict()

    def from_json(spec, *, telemetry, policy, slos, policy_kwargs=None):
        config = spec.to_config()
        config.update(
            telemetry=telemetry, policy=policy,
            slos=[dataclasses.asdict(slo) for slo in slos],
        )
        platform, _ = platform_from_dict(json.loads(json.dumps(config)))
        return platform

    monkeypatch.setattr(arena, "build_platform", from_json)
    assert run_cell("adaptive", entry, horizon=240.0).to_dict() == direct
