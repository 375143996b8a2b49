"""The repository benchmark: host cost of the simulator on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload arena-sweep [--seed N]
        [--seconds S] [--trace 0|1]

The command starts one fresh process per run of the workload
(``perfbench/unit.py``) until ``--seconds`` have passed, and at least
two. With ``--trace 0`` every run is timed and the end-to-end metrics are
medians over the runs. With ``--trace 1`` timed and traced runs alternate;
the per-layer metrics are medians over the traced runs and the tracing
overhead compares the two kinds.

Every run's units (arena cells, fuzz episodes, the converged run) are
checked and digested; a unit fails when it raises, fails its check, or
its outcome digest differs from another run's at the same seed. The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
(unit counts over all runs) and ``metrics``. The runs' spans and layer
tables are written to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Seed used when ``--seed`` is omitted, and the seed held out for
#: confirming a claimed gain (see README.md).
DEFAULT_SEED = 11
HELD_OUT_SEED = 29

#: The command must end within 180 s; stop starting runs before this.
TIME_LIMIT_S = 150.0

#: Counts that repeat exactly at one seed; printed beside the times so a
#: change can cite them.
EXACT_COUNTS = (
    "sim.events", "workloads.trace.rate_calls", "metrics.appends",
    "cluster.writes", "verify.checks",
)


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


class SetupError(RuntimeError):
    """The program could not be imported or started at all."""


def run_once(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One fresh process running the workload once; its JSON output."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, str(HERE / "unit.py"), workload, str(seed),
        "1" if traced else "0",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"run exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def tally(runs: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every unit of every run.

    The reference digest of a unit is the first one a run produced for
    it; any other run reporting a different digest fails that unit.
    """
    reference: dict[str, str] = {}
    attempted = failed = 0
    messages = []
    width = max((len(r["units"]) for r in runs if "units" in r), default=1)
    for index, run in enumerate(runs):
        if "units" not in run:
            attempted += width
            failed += width
            messages.append(f"run {index}: {run['error']}")
            continue
        for name, digest, error in run["units"]:
            attempted += 1
            if error is None and digest is not None:
                expected = reference.setdefault(name, digest)
                if digest != expected:
                    error = f"digest {digest} != {expected} of an earlier run"
            if error is not None:
                failed += 1
                messages.append(f"run {index} unit {name}: {error}")
    return attempted, failed, messages


def outcome_digest(run: dict) -> str:
    """One digest over a run's unit digests, for the printed summary."""
    text = ";".join(f"{n}={d}" for n, d, _ in run["units"])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(timed: list) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "sim_speed": statistics.median(
            r["sim_seconds"] / r["run_s"] for r in timed
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def per_layer(runs: list) -> dict:
    timed = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    layers["sim.host_us_per_event"] = statistics.median(
        r["run_s"] / r["events"] * 1e6 for r in timed
    )
    layers["tracing.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in timed)
        - 1.0
    )
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Start runs until ``seconds`` pass (and each needed kind has run)."""
    runs: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(runs) % 2 == 1
        left = TIME_LIMIT_S - (time.perf_counter() - start)
        began = time.perf_counter()
        try:
            run = run_once(workload, seed, traced, left)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            if not runs:
                raise SetupError(str(exc)) from exc
            run = {"traced": traced, "error": str(exc).splitlines()[-1]}
        runs.append(run)
        took = time.perf_counter() - began
        longest = max(longest, took)
        elapsed = time.perf_counter() - start
        print(summary_line(len(runs), run, took), flush=True)
        if len(runs) >= 2 and elapsed >= seconds:
            break
        if elapsed + longest > TIME_LIMIT_S:
            break
    return runs


def summary_line(index: int, run: dict, took: float) -> str:
    kind = "traced" if run.get("traced") else "timed"
    if "units" not in run:
        return f"run {index} [{kind}] failed: {run['error']}"
    return (
        f"run {index} [{kind}] wall {run['wall_s']:.3f} s, "
        f"setup {run['setup_s']:.3f} s, import {run['import_s']:.3f} s, "
        f"in-engine {run['run_s']:.3f} s, {run['events']} events, "
        f"sim_speed {run['sim_seconds'] / run['run_s']:.1f} sim-s/s, "
        f"rss {run['peak_rss_mb']:.1f} MB, "
        f"digest {outcome_digest(run)} ({took:.1f} s)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: the workload could not run: {exc}", file=sys.stderr)
        return 2
    attempted, failed, messages = tally(runs)
    for message in messages[:20]:
        print(f"FAILED {message}")
    ok = [r for r in runs if "units" in r]
    if args.trace and len({r["traced"] for r in ok}) < 2:
        print("error: no traced or no timed run completed", file=sys.stderr)
        return 2
    measured = per_layer(ok) if args.trace else end_to_end(ok)
    units = declared_units(bool(args.trace))
    metrics = {name: measured[name] for name in units}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "runs": runs,
        "metrics": metrics,
    }))
    print(f"outcome digest {outcome_digest(ok[0])}; "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} units)")
    if args.trace:
        print("exact counts: " + ", ".join(
            f"{name}={metrics[name]:.0f}" for name in EXACT_COUNTS
        ))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.12g} {units[name]}")
    print(f"trace written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
