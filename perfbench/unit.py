"""Run one workload once in this (fresh) process; print one JSON line.

Usage: PYTHONPATH=src python3 perfbench/unit.py WORKLOAD SEED TRACE

``TRACE`` is 0 for a timed run (only the wrappers the end-to-end metrics
need) or 1 for a traced run (every layer wrapper). ``run.py`` starts one
process per run so that each pays the import cost a ``repro`` invocation
pays and owns its peak memory alone.
"""

import time

T0 = time.perf_counter()
import repro  # noqa: E402,F401
import repro.arena  # noqa: E402,F401
import repro.verify.fuzzer  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run (see perfbench/README.md)."""
    c = tracer.counts
    s = tracer.self_s
    incl = tracer.incl_s
    score = 0.0
    if c["arena.cells"]:
        score = (
            incl["arena.cells"] - incl["platform.setups"] - incl["sim.runs"]
        )
    return {
        "sim.events": c["sim.events"],
        "sim.useful_frac": ratio(
            c["sim.events"], c["sim.events"] + c["sim.cancels"]
        ),
        "sim.heap_compactions": c["sim.heap_compactions"],
        "sim.self_s": s["sim"],
        "workloads.arrivals.windows": c["workloads.arrivals.windows"],
        "workloads.arrivals.self_s": s["workloads.arrivals"],
        "workloads.arrivals.requests": c["workloads.arrivals.requests"],
        "workloads.trace.rate_calls": c["workloads.trace.rate_calls"],
        "workloads.arrivals.accept_frac": ratio(
            c["workloads.arrivals.requests"], c["workloads.trace.rate_calls"]
        ),
        "workloads.micro.ticks": c["workloads.micro.ticks"],
        "workloads.micro.self_s": s["workloads.micro"],
        "workloads.bigdata.self_s": s["workloads.bigdata"],
        "workloads.stream.self_s": s["workloads.stream"],
        "workloads.hpc.self_s": s["workloads.hpc"],
        "cluster.reads": c["cluster.reads"],
        "cluster.writes": c["cluster.writes"],
        "cluster.write_ok_frac": ratio(
            c["cluster.writes_ok"], c["cluster.writes"]
        ),
        "cluster.self_s": s["cluster"],
        "metrics.scrapes": c["metrics.scrapes"],
        "metrics.scrape_self_s": s["metrics.scrape"],
        "metrics.appends": c["metrics.appends"],
        "metrics.queries": c["metrics.queries"],
        "metrics.query_self_s": s["metrics.query"],
        "metrics.series": c["metrics.series"],
        "verify.checks": c["verify.checks"],
        "verify.self_s": s["verify"],
        "verify.violations": c["verify.violations"],
        "platform.builds": c["platform.builds"],
        "platform.setup_self_s": s["platform"],
        "platform.import_s": IMPORT_S,
        "obs.slo_evals": c["obs.slo_evals"],
        "obs.self_s": s["obs"],
        "control.ticks": c["control.ticks"],
        "control.self_s": s["control"],
        "control.decisions": c["control.decisions"],
        "autoscaler.reconciles": c["autoscaler.reconciles"],
        "autoscaler.self_s": s["autoscaler"],
        "scheduler.cycles": c["scheduler.cycles"],
        "scheduler.self_s": s["scheduler"],
        "scheduler.binds": c["scheduler.binds"],
        "scheduler.bind_frac": ratio(
            c["scheduler.binds"], c["scheduler.binds"] + c["scheduler.failures"]
        ),
        "analysis.plo_evals": c["analysis.plo_evals"],
        "analysis.self_s": s["analysis"],
        "storage.self_s": s["storage"],
        "arena.score_s": score,
    }


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    tracer = Tracer(full=traced)
    tracer.install()
    try:
        units = WORKLOADS[workload](seed, tracer)
    finally:
        tracer.remove()
    wall_s = time.perf_counter() - T0
    out = {
        "traced": traced,
        "import_s": IMPORT_S,
        "wall_s": wall_s,
        "setup_s": IMPORT_S + tracer.incl_s["platform.setups"],
        "run_s": tracer.incl_s["sim.runs"],
        "sim_seconds": tracer.counts["sim.sim_seconds"],
        "events": tracer.counts["sim.events"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": [[u.name, u.digest, u.error] for u in units],
        "spans": tracer.spans,
    }
    if traced:
        out["layers"] = layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
