"""Golden behaviour pins: seeded outputs that must not move silently.

``tests/data/golden_bench.json`` holds the smoke ``metrics`` block and
``events_executed`` count of every runner experiment, digests of fuzz
episodes 0-6 at run seed 7, and the Python/numpy versions they were
generated with.
``tests/test_golden.py`` reruns the fast subset on every test run; the
CI bench job compares every pinned block of its ``BENCH_*.json``
artifacts (the full 36-cell arena included)::

    python -m tests.golden --check bench-results

Comparison is exact: values are compared as canonical JSON, so floats
must agree to the last bit. An intentional behaviour change re-pins in
the same change (``python -m tests.golden --write``, run from the
repository root) with a CHANGES.md line saying why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_bench.json"
FUZZ_RUN_SEED = 7
FUZZ_EPISODES = tuple(range(7))


def canonical(value) -> str:
    """Exact, order-independent text form of a JSON value."""
    return json.dumps(value, sort_keys=True)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def differences(got, want, path: str = "") -> list[str]:
    """Paths at which two JSON values differ (for failure messages)."""
    if isinstance(got, dict) and isinstance(want, dict):
        out = []
        for key in sorted(set(got) | set(want), key=str):
            out += differences(got.get(key), want.get(key), f"{path}/{key}")
        return out
    if canonical(got) == canonical(want):
        return []
    return [f"{path or '/'}: got {got!r}, pinned {want!r}"]


def bench_names() -> tuple[str, ...]:
    """Every runner experiment; each one's smoke run is pinned."""
    from benchmarks.runner import REGISTRY

    return tuple(REGISTRY)


def bench_pin(name: str) -> tuple[dict, int | None]:
    """The smoke ``metrics`` block and ``events_executed`` of ``name``."""
    from benchmarks.runner import REGISTRY, run_experiment

    payload = run_experiment(REGISTRY[name], "smoke")
    return json.loads(json.dumps(payload["metrics"])), payload["events_executed"]


def _sha(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def fuzz_digest(index: int) -> dict:
    """Events, checks, violations and placement digests of one episode."""
    from repro.verify.fuzzer import generate_scenario, run_episode

    built = []
    result = run_episode(
        generate_scenario(FUZZ_RUN_SEED, index),
        collect_fingerprint=True,
        inject=built.append,
    )
    final = sorted(
        (pod.name, pod.node_name)
        for pod in built[0].cluster.pods.values()
        if pod.node_name is not None
    )
    return {
        "events": result.events_executed,
        "checks": result.checks_run,
        "violations": [str(v) for v in result.violations],
        "binds": _sha(result.fingerprint),
        "final_placements": _sha(final),
    }


def generate() -> dict:
    pins = {name: bench_pin(name) for name in bench_names()}
    return {
        "versions": versions(),
        "metrics": {name: metrics for name, (metrics, _) in pins.items()},
        "events_executed": {name: events for name, (_, events) in pins.items()},
        "fuzz": {
            "run_seed": FUZZ_RUN_SEED,
            "episodes": [fuzz_digest(i) for i in FUZZ_EPISODES],
        },
    }


def check_artifacts(directory: Path) -> list[str]:
    """Compare the pinned blocks of ``BENCH_*.json`` files in ``directory``."""
    golden = load()
    problems = []
    for name in golden["metrics"]:
        path = directory / f"BENCH_{name}.json"
        if not path.is_file():
            problems.append(f"{name}: {path} missing")
            continue
        got = json.loads(path.read_text())
        problems += [
            f"{name}{d}"
            for d in differences(got["metrics"], golden["metrics"][name])
        ]
        problems += [
            f"{name}{d}"
            for d in differences(
                got["events_executed"],
                golden["events_executed"][name],
                "/events_executed",
            )
        ]
    if problems and golden["versions"] != versions():
        problems.append(
            f"note: pins were generated with {golden['versions']}, this "
            f"run used {versions()}; if only the versions explain the "
            "difference, record per-version pins rather than loosen the "
            "comparison"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--check", metavar="DIR", help="compare BENCH_*.json files in DIR"
    )
    group.add_argument(
        "--write", action="store_true", help="regenerate the pin file"
    )
    args = parser.parse_args(argv)
    if args.write:
        GOLDEN.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    problems = check_artifacts(Path(args.check))
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"golden pins match ({len(load()['metrics'])} experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
