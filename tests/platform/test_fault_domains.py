"""One implementation per fault domain: an explicit ``faults`` entry and
the chaos monkey strike through the same domain object, so they hit the
same victim and record the same episode."""

import pytest

from repro.cluster.chaos import ChaosMonkey
from repro.platform.evolve import FAULT_DOMAINS
from repro.platform.loader import platform_from_dict
from repro.workloads.traces import ScaledTrace

AT, DURATION, TARGET = 150.3, 60.0, 7

#: Episode kind each domain records (overload-surge records none).
EPISODE_KIND = {
    "crash": "node-crash",
    "degrade": "node-degradation",
    "controller-crash": "controller-crash",
    "partition": "controller-partition",
    "zone-outage": "zone-outage",
    "overload-surge": None,
    "executor-kill": "executor-kill",
    "straggler": "node-straggler",
    "data-loss": "data-loss",
}


def _micro(name: str) -> dict:
    return {
        "kind": "micro",
        "name": name,
        "trace": {"kind": "constant", "value": 40},
        "demands": {"cpu_seconds": 0.01, "base_latency": 0.01},
        "allocation": {"cpu": 1, "memory": 1, "disk_bw": 10, "net_bw": 10},
        "plo": {"kind": "latency", "target": 0.05},
    }


def _config(faults: list) -> dict:
    """Every domain has candidates at ``AT``: six nodes in three zones,
    three controller replicas, two services, and a running bigdata job
    whose dataset spans the nodes."""
    return {
        "seed": 5,
        "duration": 400,
        "cluster": {"nodes": 6, "zones": 3},
        "controller_replicas": 3,
        "workloads": [
            _micro("web-a"),
            _micro("web-b"),
            {
                "kind": "bigdata",
                "name": "etl",
                "stages": [{"name": "scan", "work": 1e5}],
                "allocation": {"cpu": 1, "memory": 1},
                "executors": 3,
                "dataset": {"name": "logs", "total_mb": 1024,
                            "block_mb": 128, "replication": 2},
            },
        ],
        "faults": faults,
    }


class _Draws:
    """Stands in for the monkey's RNG: one strike, one second after the
    monkey starts, whose every pick draws ``TARGET`` modulo the list size."""

    def __init__(self):
        self.delays = iter([1.0])

    def exponential(self, scale: float) -> float:
        return next(self.delays, 1e9)

    def integers(self, n: int) -> int:
        return TARGET % n


def _struck(platform, name: str) -> list:
    """What the strike at ``AT`` hit: the targets of its episodes, or the
    surged services for overload-surge (which must log nothing)."""
    kind = EPISODE_KIND[name]
    if kind is None:
        assert [e for e in platform.fault_log.episodes if e.start == AT] == []
        return [
            app_name
            for app_name, app in platform.apps.items()
            if isinstance(getattr(app, "trace", None), ScaledTrace)
        ]
    return [e.target for e in platform.fault_log.by_kind(kind) if e.start == AT]


def _target(platform, name: str, victim) -> str:
    if name in ("controller-crash", "partition"):
        return platform.control_plane.identity(victim)
    if name == "overload-surge":
        return victim.name
    return victim


def test_every_domain_is_covered():
    assert set(EPISODE_KIND) == set(FAULT_DOMAINS)
    platform, _ = platform_from_dict(_config([]))
    for name, domain in platform.fault_domains.items():
        assert domain.name == name


@pytest.mark.parametrize("name", sorted(FAULT_DOMAINS))
def test_schedule_and_monkey_strike_the_same_victim(name):
    fault = {"domain": name, "at": AT, "duration": DURATION, "target": TARGET}
    scheduled, _ = platform_from_dict(_config([fault]))
    armed, _ = platform_from_dict(_config([]))
    scheduled.run(AT - 1.0)
    armed.run(AT - 1.0)
    ChaosMonkey(
        armed.engine,
        armed.injector,
        _Draws(),
        repair_time=DURATION,
        domains=[armed.fault_domains[name]],
    ).start()
    scheduled.run(0.999)
    candidates = scheduled.fault_domains[name].candidates()
    assert candidates
    expected = _target(scheduled, name, candidates[TARGET % len(candidates)])
    scheduled.run(1.0)
    armed.run(2.0)
    assert _struck(scheduled, name) == [expected]
    assert _struck(armed, name) == [expected]
