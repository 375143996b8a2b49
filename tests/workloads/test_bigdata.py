"""Unit tests for the big-data DAG job model."""

import random

import pytest

from repro.cluster.pod import PodPhase
from repro.cluster.resources import ResourceVector
from repro.storage.objectstore import ObjectStore
from repro.storage.placement import spread_blocks
from repro.workloads.bigdata import BigDataJob, Stage, _validate_dag


ALLOC = ResourceVector(cpu=2, memory=4, disk_bw=100, net_bw=100)


def submit(engine, api, *, stages, executors=2, node="node-0", **kw):
    job = BigDataJob(
        "job", engine, api,
        stages=stages, initial_allocation=ALLOC, initial_executors=executors, **kw,
    )
    job.start()
    for pod in api.pending_pods():
        api.bind_pod(pod.name, node)
    engine.run_until(engine.now + 6.0)
    return job


class TestDagValidation:
    def test_topo_order(self):
        stages = [
            Stage("c", 1, deps=("a", "b")),
            Stage("a", 1),
            Stage("b", 1, deps=("a",)),
        ]
        assert [s.name for s in _validate_dag(stages)] == ["a", "b", "c"]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            _validate_dag([Stage("a", 1, deps=("b",)), Stage("b", 1, deps=("a",))])

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            _validate_dag([Stage("a", 1, deps=("ghost",))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _validate_dag([Stage("a", 1), Stage("a", 2)])

    def test_self_dependency_is_a_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            _validate_dag([Stage("a", 1), Stage("b", 1, deps=("a", "b"))])

    def test_cycle_behind_placeable_stages_rejected(self):
        stages = [
            Stage("src", 1),
            Stage("x", 1, deps=("src", "z")),
            Stage("y", 1, deps=("x",)),
            Stage("z", 1, deps=("y",)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            _validate_dag(stages)

    def test_repeated_dep_counts_once(self):
        stages = [Stage("b", 1, deps=("a", "a")), Stage("a", 1)]
        assert [s.name for s in _validate_dag(stages)] == ["a", "b"]

    def test_error_precedence(self):
        # Duplicate names are reported before unknown deps, unknown deps
        # (first in stage then dep order) before cycles.
        with pytest.raises(ValueError, match="duplicate"):
            _validate_dag([Stage("a", 1, deps=("ghost",)), Stage("a", 1)])
        with pytest.raises(ValueError, match="'b' depends on unknown 'ghost'"):
            _validate_dag([
                Stage("a", 1, deps=("b",)),
                Stage("b", 1, deps=("a", "ghost", "phantom")),
            ])

    def test_returns_the_stage_objects(self):
        stages = [Stage("b", 1, deps=("a",)), Stage("a", 1)]
        assert [id(s) for s in _validate_dag(stages)] == [id(stages[1]), id(stages[0])]

    def test_matches_networkx_lexicographical_order(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20261018)
        for _ in range(1500):
            n = rng.randint(1, 12)
            names = [f"s{i}" for i in range(n)]
            rng.shuffle(names)  # names[i] may depend only on names[:i]
            deps = {
                name: tuple(
                    rng.choice(names[:i]) for _ in range(rng.randint(0, min(i, 4)))
                )
                for i, name in enumerate(names)
            }
            submitted = names[:]
            rng.shuffle(submitted)
            stages = [Stage(name, 1, deps=deps[name]) for name in submitted]
            graph = nx.DiGraph()
            graph.add_nodes_from(submitted)
            for name in submitted:
                graph.add_edges_from((dep, name) for dep in deps[name])
            expected = list(
                nx.lexicographical_topological_sort(graph, key=submitted.index)
            )
            assert [s.name for s in _validate_dag(stages)] == expected

    def test_invalid_stage_params(self):
        with pytest.raises(ValueError):
            Stage("s", 0)
        with pytest.raises(ValueError):
            Stage("s", 1, input_mb=-1)
        with pytest.raises(ValueError):
            Stage("s", 1, max_parallelism=0)


class TestExecution:
    def test_cpu_only_job_completes_on_schedule(self, engine, api):
        # 200 cpu-seconds over 2 executors × 2 cores = 50s of work.
        job = submit(engine, api, stages=[Stage("map", 200.0)])
        engine.run_until(500.0)
        assert job.done
        assert job.makespan() == pytest.approx(6 + 50, abs=5)

    def test_progress_monotone(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 400.0)])
        values = []
        for t in range(10, 200, 20):
            engine.run_until(float(t))
            values.append(job.progress())
        assert values == sorted(values)
        assert 0.0 <= values[0] and values[-1] <= 1.0

    def test_stages_execute_in_dependency_order(self, engine, api):
        # Each stage: 200 cpu-seconds / (2 executors × 2 cores) = 50 s.
        stages = [Stage("map", 200.0), Stage("reduce", 200.0, deps=("map",))]
        job = submit(engine, api, stages=stages)
        engine.run_until(30.0)
        assert job.current_stage().name == "map"
        engine.run_until(80.0)
        assert job.current_stage().name == "reduce"
        engine.run_until(300.0)
        assert job.done

    def test_io_bound_stage_slower(self, engine, api):
        # 100 cpu-seconds but 10 GB input over 100 MB/s/executor ⇒ io-bound.
        fast = submit(engine, api, stages=[Stage("s", 100.0)])
        engine.run_until(1000.0)
        fast_makespan = fast.makespan()

        engine2 = type(engine)()
        from tests.conftest import make_cluster
        from repro.cluster.api import ClusterAPI
        cluster2 = make_cluster(engine2)
        api2 = ClusterAPI(cluster2)
        slow = submit(engine2, api2, stages=[Stage("s", 100.0, input_mb=10_000)])
        engine2.run_until(5000.0)
        assert slow.done
        assert slow.makespan() > fast_makespan * 1.5

    def test_more_executors_finish_faster(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 400.0)], executors=4)
        engine.run_until(500.0)
        assert job.done
        assert job.makespan() == pytest.approx(6 + 50, abs=5)

    def test_max_parallelism_caps_speedup(self, engine, api):
        job = submit(
            engine, api,
            stages=[Stage("map", 200.0, max_parallelism=1)], executors=4,
        )
        engine.run_until(500.0)
        assert job.done
        # Only one executor works: 200 / 2 cores = 100s.
        assert job.makespan() == pytest.approx(6 + 100, abs=10)

    def test_pods_finished_on_completion(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 20.0)])
        engine.run_until(100.0)
        assert job.done
        pods = api.list_pods(app="job")
        assert pods and all(p.phase == PodPhase.SUCCEEDED for p in pods)

    def test_metrics_exported(self, engine, api):
        job = submit(engine, api, stages=[Stage("map", 100.0)])
        engine.run_until(20.0)
        metrics = job.sample_metrics(engine.now)
        assert 0 < metrics["progress"] < 1
        assert metrics["throughput"] > 0
        assert metrics["stages_done"] == 0.0


class TestLocality:
    def _stores(self):
        store = ObjectStore(remote_penalty=0.5)
        spread_blocks(
            store, "data", total_mb=2000, block_mb=100,
            nodes=["node-0"], replication=1,
        )
        return store

    def test_local_reads_use_disk(self, engine, api):
        store = self._stores()
        job = submit(
            engine, api,
            stages=[Stage("scan", 500.0, input_mb=20_000)],
            store=store, dataset="data", node="node-0",
        )
        engine.run_until(30.0)
        pod = job.running_pods()[0]
        assert pod.usage.disk_bw > 0
        assert pod.usage.net_bw == pytest.approx(0.0, abs=1e-6)

    def test_remote_reads_use_network_and_run_slower(self, engine, api):
        store = self._stores()
        job = submit(
            engine, api,
            stages=[Stage("scan", 500.0, input_mb=20_000)],
            store=store, dataset="data", node="node-1",  # data is on node-0
        )
        engine.run_until(30.0)
        pod = job.running_pods()[0]
        assert pod.usage.net_bw > 0
        assert pod.usage.disk_bw == pytest.approx(0.0, abs=1e-6)

    def test_dataset_requires_store(self, engine, api):
        with pytest.raises(ValueError):
            BigDataJob(
                "j", engine, api, stages=[Stage("s", 1.0)],
                initial_allocation=ALLOC, dataset="data",
            )

    def test_dataset_label_set(self, engine, api):
        store = self._stores()
        job = BigDataJob(
            "j", engine, api, stages=[Stage("s", 1.0)],
            initial_allocation=ALLOC, store=store, dataset="data",
        )
        job.start()
        assert api.get_pod("j-0").spec.labels["dataset"] == "data"
