"""Tests for the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracer_mod
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def _patch_targets():
    """(owner, name) of everything a full tracer may replace."""
    targets = []
    for module_name, cls_name, methods, _layer, _key in tracer_mod.SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        targets += [(cls, m) for m in methods if m in cls.__dict__]
    for module_name, name in tracer_mod.BUILDERS:
        targets.append((importlib.import_module(module_name), name))
    evolve = importlib.import_module("repro.platform.evolve")
    engine = importlib.import_module("repro.sim.engine")
    timeseries = importlib.import_module("repro.metrics.timeseries")
    arena = importlib.import_module("repro.arena")
    targets += [
        (evolve.EvolvePlatform, "run"),
        (engine.EventHandle, "cancel"),
        (timeseries.TimeSeries, "append"),
        (arena, "run_cell"),
    ]
    for module_name in tracer_mod.RATE_MODULES:
        module = importlib.import_module(module_name)
        targets += [
            (obj, "rate")
            for obj in vars(module).values()
            if isinstance(obj, type) and "rate" in obj.__dict__
        ]
    return targets


def test_wrappers_restore_the_original_functions():
    targets = _patch_targets()
    before = {(id(o), n): o.__dict__[n] for o, n in targets}
    tracer = Tracer(full=True)
    tracer.install()
    try:
        changed = [
            (o, n) for o, n in targets if o.__dict__[n] is not before[id(o), n]
        ]
        # Everything but the Protocol classes' ``rate`` is wrapped.
        assert len(changed) >= len(targets) - 2
        with tracer.suspended():
            assert all(
                o.__dict__[n] is before[id(o), n] for o, n in targets
            )
        assert all(
            o.__dict__[n] is not before[id(o), n] for o, n in changed
        )
    finally:
        tracer.remove()
    assert all(o.__dict__[n] is before[id(o), n] for o, n in targets)


def _digests(units):
    return [(u.name, u.digest, u.error) for u in units]


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("converged-scale", {"horizon": 300.0, "services": 6}),
        ("fuzz-audit", {"per_seed": 1}),
        ("arena-sweep", {"scenarios": ("calm",)}),
    ],
)
def test_traced_digest_equals_untraced_digest(name, kwargs):
    runs = {}
    for full in (False, True):
        tracer = Tracer(full=full)
        tracer.install()
        try:
            runs[full] = _digests(workloads.WORKLOADS[name](5, tracer, **kwargs))
        finally:
            tracer.remove()
        if full:
            assert tracer.counts["sim.events"] > 0
            assert tracer.self_s["sim"] > 0
    assert all(error is None for _n, _d, error in runs[False])
    assert runs[True] == runs[False]


def _plant_double_bind_once():
    """An ``inject`` hook planting one double-bind, in the first episode
    only (the corruption the fuzzer's own tests plant at t=50)."""
    planted = []

    def inject(platform):
        if planted:
            return
        planted.append(platform)

        def corrupt():
            cluster = platform.cluster
            for pod in cluster.pods.values():
                if pod.active and pod.node_name is not None:
                    for node in cluster.nodes.values():
                        if node.name != pod.node_name and node.can_fit(
                            pod.allocation
                        ):
                            node.bind(pod)
                            return

        platform.engine.schedule_at(50.0, corrupt)

    return inject


def test_planted_double_bind_is_one_failed_unit():
    tracer = Tracer(full=False)
    tracer.install()
    try:
        units = workloads.fuzz_audit(
            5, tracer, per_seed=1, inject=_plant_double_bind_once()
        )
    finally:
        tracer.remove()
    result = {"units": [[u.name, u.digest, u.error] for u in units]}
    attempted, failed, messages = run.tally([result])
    assert (attempted, failed) == (len(workloads.FUZZ_RUN_SEEDS), 1)
    assert "no-double-bind" in messages[0]


def test_digest_mismatch_between_runs_fails_the_unit():
    first = {"units": [["a", "d1", None], ["b", "d2", None]]}
    second = {"units": [["a", "d1", None], ["b", "XX", None]]}
    assert run.tally([first, second])[:2] == (4, 1)


def test_scorecard_range_check():
    card = {
        "plo_violation_rate": 0.1, "slo_attainment": 0.9, "slack_frac": 0.5,
        "cost_dollars": 1.0, "events_executed": 10,
    }
    assert workloads.check_scorecard(card) is None
    assert workloads.check_scorecard({**card, "slo_attainment": 1.5})
    assert workloads.check_scorecard({**card, "cost_dollars": float("nan")})
    assert workloads.check_scorecard({**card, "events_executed": 0})


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-audit",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_layer_table_matches_the_declared_per_layer_metrics():
    import unit

    tracer = Tracer(full=True)
    measured = set(unit.layer_metrics(tracer))
    measured |= {"sim.host_us_per_event", "tracing.overhead_frac"}
    assert measured == set(run.declared_units(True))
    assert set(run.end_to_end([{
        "wall_s": 1.0, "setup_s": 1.0, "sim_seconds": 1.0, "run_s": 1.0,
        "peak_rss_mb": 1.0,
    }])) == set(run.declared_units(False))
