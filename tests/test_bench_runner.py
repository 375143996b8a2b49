"""Tests for the unified benchmark runner (``benchmarks.runner``).

These tests exercise the registry/budget/artifact machinery, not the
experiments themselves — the experiments are run by
``python -m benchmarks.runner --smoke`` (the CI ``bench`` job). Only the
determinism, seed-override and table tests execute a real experiment
(R-T9, whose smoke run takes a fraction of a second).
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

runner = pytest.importorskip(
    "benchmarks.runner",
    reason="benchmarks/ is a repo-level package; run pytest from the "
           "repository root",
)

BENCH_DIR = Path(runner.__file__).resolve().parent


def _stub_module(check=lambda case: None):
    return SimpleNamespace(
        __name__="benchmarks.stub",
        run_case=lambda mode, seed=None: {
            "seed": 7 if seed is None else seed,
            "events_executed": 100,
            "metrics": {"applied": 40, "nested": {"deep": 5}},
            "timing": {"wall_thing": 0.5},
        },
        check_case=check,
        format_case=lambda case: ["stub table"],
    )


def _stub_experiment(**budgets):
    return runner.Experiment(
        "stub", _stub_module(), "stub experiment", budgets=budgets
    )


class TestRegistry:
    def test_every_bench_module_registered_exactly_once(self):
        # The registry is the single entry point for CI: a bench_*.py
        # file that is not registered silently falls out of the perf
        # trajectory.
        on_disk = {
            f"benchmarks.{path.stem}"
            for path in BENCH_DIR.glob("bench_*.py")
        }
        registered = [e.module.__name__ for e in runner.EXPERIMENTS]
        assert sorted(registered) == sorted(set(registered)), (
            "a module is registered twice"
        )
        assert set(registered) == on_disk

    def test_every_bench_module_is_one_definition_and_no_entry_point(self):
        # run_case/check_case/format_case are the whole interface; a
        # per-module CLI or pytest wrapper would be a second copy of the
        # grid that can drift from the registry's.
        for exp in runner.EXPERIMENTS:
            names = vars(exp.module)
            for verb in ("run_case", "check_case", "format_case"):
                assert callable(names.get(verb)), f"{exp.name}: no {verb}"
            extra = [n for n in names if n == "main" or n.startswith("test_")]
            assert not extra, f"{exp.name}: second entry point {extra}"

    def test_registry_names_are_unique_and_match_experiments(self):
        assert set(runner.REGISTRY) == {e.name for e in runner.EXPERIMENTS}
        assert len(runner.REGISTRY) == len(runner.EXPERIMENTS)

    def test_budget_paths_resolve_to_known_payload_fields(self):
        for exp in runner.EXPERIMENTS:
            for path in exp.budgets:
                head = path.split(".")[0]
                assert head in ("events_executed", "metrics"), (
                    f"{exp.name}: budget path {path!r} does not target a "
                    "deterministic payload field"
                )


class TestBudgets:
    def test_within_budget_ok(self):
        exp = _stub_experiment(**{"events_executed": 120,
                                  "metrics.applied": 50})
        verdicts = runner.check_budgets(exp, exp.module.run_case("smoke"))
        assert verdicts["events_executed"] == {
            "value": 100, "budget": 120, "ok": True,
        }
        assert verdicts["metrics.applied"]["ok"]

    def test_over_budget_flags_regression(self):
        exp = _stub_experiment(**{"metrics.applied": 39})
        verdicts = runner.check_budgets(exp, exp.module.run_case("smoke"))
        assert not verdicts["metrics.applied"]["ok"]

    def test_missing_path_is_a_failure_not_a_pass(self):
        exp = _stub_experiment(**{"metrics.no_such_metric": 10})
        verdicts = runner.check_budgets(exp, exp.module.run_case("smoke"))
        assert not verdicts["metrics.no_such_metric"]["ok"]
        assert verdicts["metrics.no_such_metric"]["value"] is None

    def test_dotted_lookup_descends_nested_dicts(self):
        exp = _stub_experiment(**{"metrics.nested.deep": 5})
        verdicts = runner.check_budgets(exp, exp.module.run_case("smoke"))
        assert verdicts["metrics.nested.deep"]["ok"]


class TestPayload:
    def test_smoke_payload_schema(self):
        exp = _stub_experiment(**{"events_executed": 120})
        payload = runner.run_experiment(exp, "smoke")
        assert set(payload) == {
            "experiment", "module", "title", "mode", "seed",
            "wall_seconds", "events_executed", "events_per_sec",
            "metrics", "timing", "budgets", "ok",
        }
        assert payload["mode"] == "smoke"
        assert payload["seed"] == 7
        assert payload["ok"] is True
        assert payload["budgets"]["events_executed"]["ok"]

    def test_full_mode_skips_budgets(self):
        # Full-mode counts legitimately dwarf the smoke bounds; gating
        # them would make --full unusable.
        exp = _stub_experiment(**{"events_executed": 1})
        payload = runner.run_experiment(exp, "full")
        assert payload["budgets"] == {}
        assert payload["ok"] is True

    def test_shape_check_runs_at_default_seed_only(self):
        def fail(case):
            raise AssertionError("shape broken")

        exp = runner.Experiment("stub", _stub_module(fail), "stub experiment")
        with pytest.raises(AssertionError, match="shape broken"):
            runner.run_experiment(exp, "full")
        # Like budgets, checks are calibrated at the default seeds.
        payload = runner.run_experiment(exp, "smoke", seed=3)
        assert payload["ok"] is True
        assert payload["seed"] == payload["seed_override"] == 3

    def test_budget_breach_marks_payload_not_ok(self):
        exp = _stub_experiment(**{"events_executed": 99})
        payload = runner.run_experiment(exp, "smoke")
        assert payload["ok"] is False

    def test_write_result_emits_bench_json(self, tmp_path):
        exp = _stub_experiment()
        payload = runner.run_experiment(exp, "smoke")
        path = runner.write_result(payload, tmp_path)
        assert path == tmp_path / "BENCH_stub.json"
        on_disk = json.loads(path.read_text())
        assert on_disk == payload


class TestDeterminism:
    def test_smoke_metrics_identical_across_runs(self):
        # The contract the CI budgets rest on: everything outside the
        # ``timing``/``wall_seconds`` fields is bit-identical run to run.
        exp = runner.REGISTRY["t9"]
        first = runner.run_experiment(exp, "smoke")
        second = runner.run_experiment(exp, "smoke")
        assert first["metrics"] == second["metrics"]
        assert first["events_executed"] == second["events_executed"]
        assert first["seed"] == second["seed"]
        assert first["budgets"] == second["budgets"]
        assert first["ok"] and second["ok"]


class TestSeedOverride:
    def test_seed_reaches_the_platform_and_the_payload(self, monkeypatch):
        # The payload's seed is the seed the experiment actually ran.
        bench = runner.REGISTRY["t9"].module
        built = []

        def build(*args, **kwargs):
            built.append(kwargs["seed"])
            return build_platform(*args, **kwargs)

        build_platform = bench.build_platform
        monkeypatch.setattr(bench, "build_platform", build)
        default = runner.run_experiment(runner.REGISTRY["t9"], "smoke")
        override = runner.run_experiment(runner.REGISTRY["t9"], "smoke", seed=5)
        assert built == [11, 5]
        assert default["seed"] == 11 and "seed_override" not in default
        assert override["seed"] == override["seed_override"] == 5
        assert override["budgets"] == {}

    def test_seed_moves_a_seeded_trajectory(self):
        # R-T9's step scenario draws nothing random; R-T7's service mix
        # does (the bursty media trace), so its counts move.
        exp = runner.REGISTRY["t7"]
        default = runner.run_experiment(exp, "smoke")
        override = runner.run_experiment(exp, "smoke", seed=5)
        assert override["seed"] == 5
        assert override["events_executed"] != default["events_executed"]


class TestMain:
    def test_prints_each_experiments_table_after_its_summary(self, capsys):
        assert runner.main(["--smoke", "--only", "t9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = next(i for i, line in enumerate(lines) if "t9 " in line)
        assert lines[summary].rstrip().endswith("ok")
        assert lines[summary + 1].startswith("T9 reaction latency")
        assert lines[-1] == "OK: 1 experiments (smoke)"
