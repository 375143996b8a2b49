"""Unit tests for the declarative config loader."""

import json

import numpy as np
import pytest

from repro.platform.loader import (
    ConfigError,
    cluster_spec_from_dict,
    demands_from_dict,
    platform_from_dict,
    platform_from_json,
    plo_from_dict,
    trace_from_dict,
)
from repro.workloads.microservice import DemandPhase, ServiceDemands
from repro.workloads.plo import LatencyPLO, ThroughputPLO


RNG = np.random.default_rng(0)


class TestTraceFromDict:
    def test_constant(self):
        assert trace_from_dict({"kind": "constant", "value": 5}, RNG).rate(0) == 5

    def test_step(self):
        trace = trace_from_dict(
            {"kind": "step", "steps": [[10, 5]], "initial": 1}, RNG
        )
        assert trace.rate(0) == 1 and trace.rate(20) == 5

    def test_diurnal(self):
        trace = trace_from_dict(
            {"kind": "diurnal", "base": 100, "amplitude": 50, "period": 100}, RNG
        )
        assert trace.rate(25) == pytest.approx(150)

    def test_composite_nested(self):
        trace = trace_from_dict(
            {
                "kind": "composite",
                "components": [
                    {"kind": "constant", "value": 1},
                    {"kind": "constant", "value": 2},
                ],
            },
            RNG,
        )
        assert trace.rate(0) == 3

    def test_noisy_wraps_base(self):
        trace = trace_from_dict(
            {"kind": "noisy", "base": {"kind": "constant", "value": 100},
             "rel_std": 0.0, "horizon": 100},
            RNG,
        )
        assert trace.rate(0) == pytest.approx(100)

    def test_replay_inline(self):
        trace = trace_from_dict(
            {"kind": "replay", "samples": [[0, 10], [50, 20]]}, RNG
        )
        assert trace.rate(60) == 20

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown trace kind"):
            trace_from_dict({"kind": "wavelet"}, RNG)

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="missing required key"):
            trace_from_dict({}, RNG)

    def test_bad_params_reported(self):
        with pytest.raises(ConfigError, match="constant"):
            trace_from_dict({"kind": "constant", "value": -1}, RNG)


class TestOtherBuilders:
    def test_plo_latency(self):
        plo = plo_from_dict({"kind": "latency", "target": 0.05})
        assert isinstance(plo, LatencyPLO)

    def test_plo_throughput(self):
        plo = plo_from_dict({"kind": "throughput", "target": 100})
        assert isinstance(plo, ThroughputPLO)

    def test_plo_unknown(self):
        with pytest.raises(ConfigError):
            plo_from_dict({"kind": "deadline2"})

    def test_demands_single(self):
        demands = demands_from_dict({"cpu_seconds": 0.01})
        assert isinstance(demands, ServiceDemands)

    def test_demands_phased(self):
        phases = demands_from_dict([
            {"start_time": 0, "cpu_seconds": 0.01},
            {"start_time": 100, "cpu_seconds": 0.02},
        ])
        assert all(isinstance(p, DemandPhase) for p in phases)

    def test_cluster_spec_homogeneous(self):
        spec = cluster_spec_from_dict({"nodes": 4, "capacity": {"cpu": 8}})
        assert spec.node_count == 4
        assert spec.node_capacity.cpu == 8

    def test_cluster_spec_groups(self):
        spec = cluster_spec_from_dict({
            "groups": [
                {"name": "w", "count": 2, "capacity": {"cpu": 8}},
                {"name": "f", "count": 1, "capacity": {"cpu": 4},
                 "labels": {"accelerator": "fpga"}},
            ]
        })
        assert spec.total_nodes == 3

    def test_bad_resource_key(self):
        with pytest.raises(ConfigError):
            cluster_spec_from_dict({"capacity": {"gpu": 1}})

    def test_zones(self):
        spec = cluster_spec_from_dict({"nodes": 4, "zones": 2})
        assert spec.zones == 2

    def test_hpc_resilience_knobs(self):
        config = {
            "duration": 60,
            "cluster": {"nodes": 2},
            "workloads": [{
                "kind": "hpc", "name": "sim", "ranks": 1, "job_duration": 30,
                "allocation": {"cpu": 2, "memory": 2},
                "zone_penalty": 0.5, "checkpoint_interval": 10,
            }],
        }
        platform, _d = platform_from_dict(config)
        job = platform.apps["sim"]
        assert job.zone_penalty == 0.5
        assert job.checkpoint_interval == 10


FULL_CONFIG = {
    "seed": 11,
    "duration": 900,
    "cluster": {"nodes": 4},
    "scheduler": "converged",
    "policy": "adaptive",
    "workloads": [
        {
            "kind": "micro",
            "name": "web",
            "trace": {"kind": "constant", "value": 80},
            "demands": {"cpu_seconds": 0.01, "base_latency": 0.01},
            "allocation": {"cpu": 1, "memory": 1, "disk_bw": 20, "net_bw": 20},
            "plo": {"kind": "latency", "target": 0.05},
        },
        {
            "kind": "bigdata",
            "name": "etl",
            "stages": [{"name": "map", "work": 200}],
            "allocation": {"cpu": 2, "memory": 4, "disk_bw": 50, "net_bw": 50},
            "executors": 2,
        },
        {
            "kind": "hpc",
            "name": "sim",
            "ranks": 2,
            "job_duration": 120,
            "allocation": {"cpu": 4, "memory": 4, "disk_bw": 5, "net_bw": 50},
        }
    ],
}


class TestPlatformFromDict:
    def test_full_config_runs(self):
        platform, duration = platform_from_dict(FULL_CONFIG)
        assert duration == 900
        assert set(platform.apps) == {"web", "etl", "sim"}
        platform.run(duration)
        result = platform.result()
        assert result.makespans["etl"] is not None
        assert result.makespans["sim"] is not None
        assert result.violation_fraction("web") < 0.2

    def test_chaos_section(self):
        config = dict(FULL_CONFIG, chaos={"mtbf": 100, "repair_time": 50})
        platform, _d = platform_from_dict(config)
        assert platform.chaos is not None

    def test_invalid_duration(self):
        with pytest.raises(ConfigError):
            platform_from_dict({"duration": 0})

    def test_missing_service_name(self):
        with pytest.raises(ConfigError, match="name"):
            platform_from_dict({"workloads": [{"kind": "micro"}]})

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(FULL_CONFIG))
        platform, duration = platform_from_json(str(path))
        assert duration == 900

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            platform_from_json(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            platform_from_json(str(path))


def _micro(name="web", **extra):
    return {
        "kind": "micro",
        "name": name,
        "trace": {"kind": "constant", "value": 50},
        "demands": {"cpu_seconds": 0.01},
        "allocation": {"cpu": 1, "memory": 1, "disk_bw": 10, "net_bw": 10},
        "plo": {"kind": "latency", "target": 0.05},
        **extra,
    }


_HPC = {"kind": "hpc", "name": "sim", "job_duration": 60,
        "allocation": {"cpu": 1, "memory": 1}}
_ETL = {"kind": "bigdata", "name": "etl", "allocation": {"cpu": 1}}


class TestConfigBoundaries:
    """Malformed input raises ConfigError naming the offending entry, so
    ``repro run`` prints ``error:`` and exits 2 instead of a traceback."""

    @pytest.mark.parametrize(
        "config, match",
        [
            ({"cluster": {"groups": [{"name": "w", "count": 0,
                                      "capacity": {"cpu": 8}}]}},
             r"cluster\.groups\[0\].*count"),
            ({"workloads": [{**_HPC, "ranks": 0}]}, r"workloads\[0\] \('sim'\)"),
            ({"workloads": [{**_ETL, "stages": [{"name": "s", "work": -1}]}]},
             r"workloads\[0\] \('etl'\)"),
            ({"chaos": {"mtbf": 0}}, r"chaos"),
            ({"chaos": {"mtbf": -5}}, r"chaos"),
            ({"workloads": [3]}, r"workloads\[0\]: expected an object"),
            ({"services": [3]}, r"unknown key\(s\) 'services'"),
            ({"duration": float("nan")}, r"duration must be a finite"),
            ({"duration": float("inf")}, r"duration must be a finite"),
            ({"workloads": [_micro(service="typo")]},
             r"workloads\[0\]: unknown key\(s\) 'service'"),
            ({"workloads": [{"kind": "lambda", "name": "f"}]},
             r"workloads\[0\]: unknown workload kind 'lambda'"),
            ({"cluster": {"node": 3}}, r"cluster: unknown key"),
            ({"faults": [{"domain": "meteor", "at": 1, "duration": 1,
                          "target": 0}]}, r"faults\[0\]: unknown fault domain"),
            ({"faults": [{"domain": "crash", "at": 1, "duration": 1,
                          "target": 0, "factor": 0.5}]},
             r"faults\[0\]: domain 'crash' takes no factor"),
            ({"faults": [{"domain": "crash", "at": 1, "duration": 1,
                          "target": 1.5}]}, r"faults\[0\]\.target"),
            ({"slos": [{"name": "Bad Name", "series": "x", "objective": 1}]},
             r"slos\[0\]"),
            ({"overload": {"admission": True, "low_watermark": 2.0}},
             r"overload"),
            ({"workloads": [_micro(arrivals={"model": "hawkes"})]},
             r"workloads\[0\] \('web'\): unknown arrival model"),
            ({"faults": [{"domain": "crash", "at": -5, "duration": 30,
                          "target": 0}]}, r"faults\[0\]\.at must be non-neg"),
            ({"faults": [{"domain": "crash", "at": 10, "duration": -30,
                          "target": 0}]}, r"faults\[0\]\.duration must be pos"),
            ({"faults": [{"domain": "crash", "at": 10, "duration": 0,
                          "target": 0}]}, r"faults\[0\]\.duration must be pos"),
            *(
                ({"faults": [{"domain": "straggler", "at": 10, "duration": 30,
                              "target": 0, "factor": factor}]},
                 r"faults\[0\]\.factor must be in \(0, 1\)")
                for factor in (0, 2.5, -1)
            ),
            *(
                ({"workloads": [_micro(arrivals={"model": "mmpp", **bad})]},
                 r"workloads\[0\] \('web'\): .*must be .*finite")
                for bad in (
                    {"factors": [float("nan"), 1.0]},
                    {"factors": [float("inf"), 1.0]},
                    {"mean_dwell": float("nan")},
                    {"horizon": float("nan")},
                    {"sizes": {"kind": "pareto", "alpha": float("nan")}},
                    {"sizes": {"kind": "pareto", "x_min": float("inf")}},
                )
            ),
            *(
                ({"workloads": [_micro(arrivals=arrivals)]},
                 r"workloads\[0\] \('web'\): arrivals: unknown key\(s\) "
                 + repr(key))
                for arrivals, key in (
                    ({"model": "mmpp", "bogus": 1}, "bogus"),
                    ({"model": "poisson", "rate_bound": 100.0}, "rate_bound"),
                    ({"model": "poisson", "bound_margin": 1.5}, "bound_margin"),
                    ({"model": "mmpp", "bound_samples": 9}, "bound_samples"),
                    ({"model": "poisson", "factors": [1, 2]}, "factors"),
                )
            ),
            ({"workloads": [_micro(arrivals=["mmpp"])]},
             r"workloads\[0\] \('web'\): arrivals: expected an object"),
            ({"workloads": [_micro(arrivals={
                "model": "poisson", "sizes": {"kind": "pareto", "beta": 2}})]},
             r"workloads\[0\] \('web'\): arrivals\.sizes: unknown key"),
        ],
    )
    def test_rejected_with_config_error(self, config, match):
        with pytest.raises(ConfigError, match=match):
            platform_from_dict(config)


class TestScenarioSchema:
    def test_workloads_deploy_in_list_order(self):
        config = {"duration": 60, "cluster": {"nodes": 3},
                  "workloads": [_micro("b"), {**_HPC, "ranks": 1},
                                _micro("a")]}
        platform, _ = platform_from_dict(config)
        assert list(platform.apps) == ["b", "sim", "a"]

    def test_platform_features(self):
        config = {
            "duration": 60,
            "cluster": {"nodes": 3, "zones": 3},
            "telemetry": True,
            "controller_replicas": 3,
            "max_allocation": {"cpu": 4, "memory": 16, "disk_bw": 200,
                               "net_bw": 500},
            "slos": [{"name": "web_latency", "series": "app/web/latency",
                      "objective": 0.05, "kind": "latency"}],
            "overload": {"admission": True, "brownout": True},
            "data_plane": {"enabled": True},
            "workloads": [_micro()],
        }
        platform, _ = platform_from_dict(config)
        assert platform.telemetry is not None
        assert platform.slo_engine.specs[0].name == "web_latency"
        assert platform.control_plane is not None
        assert platform.admission is not None
        assert platform.config.data_plane.enabled
        assert platform.config.max_allocation.cpu == 4

    def test_scaled_trace(self):
        trace = trace_from_dict(
            {"kind": "scaled", "base": {"kind": "constant", "value": 10},
             "factor": 2.5}, RNG)
        assert trace.rate(0) == 25

    def test_arrivals_and_surge(self):
        from repro.workloads.arrivals import MarkedArrivals

        config = {
            "duration": 600,
            "surge": {"mean_interval": 200, "duration": 60, "factor": 4.0},
            "workloads": [_micro(arrivals={
                "model": "mmpp", "factors": [0.3, 1.0, 3.0],
                "sizes": {"kind": "pareto", "alpha": 1.6}})],
        }
        platform, _ = platform_from_dict(config)
        app = platform.apps["web"]
        assert isinstance(app.arrivals, MarkedArrivals)
        assert app.arrivals.process.horizon == 600
        assert app.trace is not None

    def test_dataset_spread_over_first_nodes(self):
        config = {
            "duration": 60,
            "cluster": {"nodes": 4},
            "workloads": [{
                **_ETL, "stages": [{"name": "scan", "work": 10,
                                    "input_mb": 400}],
                "dataset": {"name": "d", "total_mb": 400, "block_mb": 100,
                            "nodes": 2},
            }],
        }
        platform, _ = platform_from_dict(config)
        assert sorted(platform.store.nodes_with_data()) == ["node-00",
                                                            "node-01"]

    def test_explicit_faults_strike_and_heal(self):
        config = {
            "duration": 200,
            "cluster": {"nodes": 3},
            "workloads": [_micro()],
            "faults": [
                {"domain": "crash", "at": 50, "duration": 60, "target": 1},
                {"domain": "straggler", "at": 20, "duration": 100,
                 "target": 0, "factor": 0.5},
            ],
        }
        platform, _ = platform_from_dict(config)
        platform.run(60)
        assert platform.injector.is_failed("node-01")
        assert platform.cluster.get_node("node-00").speed_factor == 0.5
        platform.run(100)
        assert not platform.injector.is_failed("node-01")
        assert platform.cluster.get_node("node-00").speed_factor == 1.0


class TestReplayFromFile:
    def test_replay_path_csv(self, tmp_path):
        csv = tmp_path / "trace.csv"
        csv.write_text("time,rate\n0,100\n60,150\n\n120,80\n")
        trace = trace_from_dict(
            {"kind": "replay", "path": str(csv), "rate_scale": 2.0}, RNG
        )
        assert trace.rate(30) == 200
        assert trace.rate(61) == 300
        assert trace.rate(500) == 160

    def test_replay_path_json(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({
            "schema": "repro.trace/v1", "samples": [[0, 10], [60, 20]]}))
        trace = trace_from_dict({"kind": "replay", "path": str(path)}, RNG)
        assert trace.rate(61) == 20

    @pytest.mark.parametrize("content, match", [
        ("time,rate\n10,1\n5,2\n", "replay"),  # unsorted
        ("t,r\n0,1\n", "replay"),  # bad header
    ])
    def test_bad_trace_file_is_config_error(self, tmp_path, content, match):
        csv = tmp_path / "trace.csv"
        csv.write_text(content)
        with pytest.raises(ConfigError, match=match):
            trace_from_dict({"kind": "replay", "path": str(csv)}, RNG)

    def test_missing_trace_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="replay"):
            trace_from_dict(
                {"kind": "replay", "path": str(tmp_path / "nope.csv")}, RNG
            )
