"""The repository benchmark: one workload, both clocks, checked outputs.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload twt-paper --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` (``twt-paper``,
``rmat-analytics``, ``serve-mutate``).  The run repeats the workload --
set-up from the seed, timed part, output checks -- until ``--seconds``
of wall time have passed, then reports medians over the repetitions.
Two clocks are reported: *host* seconds are time of this Python process,
*sim* seconds are simulated time of the modeled cluster.  Host seconds
are wall seconds put on a reference clock by ``speed.py``, which takes
the drift of a shared core's speed out of them; the lines before the
last show the wall seconds of every repetition as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced repetitions with traced ones (``tracer.py`` wraps the engine's
layer functions) and prints the per-layer metrics, the tracing overhead
(traced minus untraced ``host_s``), and writes the last traced
repetition's spans to ``perfbench/out/<workload>.spans.npz``.

Every simulated quantity must be identical across all repetitions of an
invocation, traced or not; a mismatch is reported as an error.  Lines
before the last describe every metric with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``), the same on every workload.
END_TO_END = {"setup_s": "s", "host_s": "s", "sim_s": "s",
              "peak_rss_mb": "MiB"}

#: Metrics of one workload only: reported on every run, and with the
#: per-layer metrics (zero where the workload does not have them).
WORKLOAD_METRICS = {
    "error_rate": "fraction", "table3_err": "log2",
    "read_p50_ms": "ms", "read_p99_ms": "ms", "read_samples": "count",
    "read_sim_p50_us": "us", "read_sim_p99_us": "us",
    "update_p50_ms": "ms", "update_p75_ms": "ms", "update_samples": "count",
    "update_sim_p50_ms": "ms",
}

#: Per-layer metrics (``--trace 1``).  ``sim.*``, ``net.*`` and ``job.*``
#: are simulated; ``*_s`` of the other layers are host self time.
PER_LAYER = {
    "sim.task_s": "s", "sim.comm_s": "s", "sim.network_s": "s",
    "sim.ghost_s": "s", "sim.barrier_s": "s", "sim.imbalance_inter_s": "s",
    "sim.imbalance_intra_s": "s",
    "net.messages": "count", "net.bytes.read_req": "B",
    "net.bytes.read_resp": "B", "net.bytes.write_req": "B",
    "net.bytes.ghost_sync": "B",
    "job.remote_reads": "count", "job.remote_writes": "count",
    "job.atomic_ops": "count", "job.edges": "count",
    "simulator.self_s": "s", "simulator.events": "count",
    "simulator.pool_hits": "count", "simulator.pool_hit_ratio": "ratio",
    "task_manager.self_s": "s", "task_manager.chunks": "count",
    "task_manager.flushes": "count",
    "comm.self_s": "s", "comm.requests": "count", "comm.responses": "count",
    "network.send_s": "s", "network.sends": "count",
    "obs.emit_s": "s", "obs.emits": "count",
    "kernels.self_s": "s", "kernels.calls": "count", "kernels.edges": "count",
    "plan.hit_ratio": "ratio", "plan.hits": "count", "plan.lookups": "count",
    "plan.lookup_s": "s", "stage.apply_s": "s", "stage.rows": "count",
    "jobrunner.jobs": "count", "jobrunner.start_s": "s", "ghost.sync_s": "s",
    "setup.generate_s": "s", "setup.load_s": "s",
    "scheduler.inline_s": "s", "scheduler.dispatched": "count",
    "scheduler.rejected": "count",
    "cache.hit_ratio": "ratio", "cache.hits": "count",
    "cache.lookups": "count", "cache.evictions": "count",
    "cache.lookup_s": "s",
    "query.priced_s": "s", "query.misses": "count",
    "epoch.build_s": "s", "epoch.sim_s": "s",
    "epoch.machines_reused_ratio": "ratio", "epoch.machines_reused": "count",
    "epoch.machines_total": "count",
    "incremental.recompute_s": "s",
    "incremental.recomputed_vertices": "count",
    "incremental.fallbacks": "count",
    "dynamic.snapshot_s": "s",
    "trace.host_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    **WORKLOAD_METRICS,
}

#: ratio metric -> (numerator, denominator)
RATIOS = {
    "simulator.pool_hit_ratio": ("simulator.pool_hits", "simulator.events"),
    "plan.hit_ratio": ("plan.hits", "plan.lookups"),
    "cache.hit_ratio": ("cache.hits", "cache.lookups"),
    "epoch.machines_reused_ratio": ("epoch.machines_reused",
                                    "epoch.machines_total"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def sim_mismatches(reference, rep) -> list[str]:
    """Simulated quantities of ``rep`` that differ from ``reference``."""
    ref = dict(reference.sim, sim_s=reference.sim_s)
    got = dict(rep.sim, sim_s=rep.sim_s)
    return sorted(k for k in ref.keys() | got.keys()
                  if ref.get(k) != got.get(k))


def workload_metrics(plain, attempted: int, failed: int) -> dict[str, float]:
    """Error rate, Table 3 error and exact-sample latency quantiles;
    None where the workload has no such metric."""
    from quantiles import quantile

    out = dict.fromkeys(WORKLOAD_METRICS)
    out["error_rate"] = failed / attempted
    out["table3_err"] = plain[0].sim.get("table3_err")
    # Host samples pool over the untraced repetitions; simulated samples
    # are identical in every repetition, so one repetition's suffice.
    pooled = {}
    for rep in plain:
        for key, values in rep.samples.items():
            pooled.setdefault(key, []).extend(values)
    sim = plain[0].samples
    if pooled.get("read_ms"):
        out.update(read_p50_ms=quantile(pooled["read_ms"], 0.50),
                   read_p99_ms=quantile(pooled["read_ms"], 0.99),
                   read_samples=len(pooled["read_ms"]),
                   read_sim_p50_us=quantile(sim["read_sim_us"], 0.50),
                   read_sim_p99_us=quantile(sim["read_sim_us"], 0.99))
    if pooled.get("update_ms"):
        out.update(update_p50_ms=quantile(pooled["update_ms"], 0.50),
                   update_p75_ms=quantile(pooled["update_ms"], 0.75),
                   update_samples=len(pooled["update_ms"]),
                   update_sim_p50_ms=quantile(sim["update_sim_ms"], 0.50))
    return out


def layer_metrics(plain, traced) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({k: v for k, v in plain[0].sim.items() if k in PER_LAYER})
    for key in traced[0].layers:
        out[key] = statistics.median([r.layers[key] for r in traced])
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    out["trace.host_s"] = statistics.median([r.host_s for r in traced])
    out["trace.overhead_s"] = (
        out["trace.host_s"] - statistics.median([r.host_s for r in plain]))
    return out


def run_reps(workload, tracer, seconds: float):
    """Warm up, then repeat the workload until ``seconds`` have passed;
    with a tracer, untraced and traced repetitions alternate.  Returns
    the untraced and the traced repetitions."""
    workload.warmup()
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while True:
        # The previous repetition's clusters hold reference cycles; free
        # them before the next one so repetitions start from the same heap.
        gc.collect()
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            with tracer:
                rep = workload.rep(tracer)
            rep.layers = tracer.metrics()
            traced.append(rep)
        else:
            plain.append(workload.rep())
        if (time.perf_counter() >= t_end
                and (tracer is None or len(traced) == len(plain))):
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from speed import SPEED
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None

    with SPEED:
        plain, traced = run_reps(workload, tracer, args.seconds)

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for i, rep in enumerate(reps[1:], start=1):
        diff = sim_mismatches(plain[0], rep)
        if diff:
            failed += 1
            print(f"perfbench: repetition {i} simulated results differ from "
                  f"repetition 0 in {', '.join(diff)}", file=sys.stderr)

    metrics = {
        "setup_s": statistics.median([r.setup_s for r in plain]),
        "host_s": statistics.median([r.host_s for r in plain]),
        "sim_s": plain[0].sim_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = workload_metrics(plain, attempted, failed)
    units = {**END_TO_END, **PER_LAYER}
    print(f"# {args.workload} seed={args.seed} repetitions: "
          f"{len(plain)} untraced, {len(traced)} traced")
    for kind, group in (("untraced", plain), ("traced", traced)):
        for rep in group:
            print(f"# {kind:8s} setup_s={rep.setup_s!r} host_s={rep.host_s!r}"
                  f" wall: setup_s={rep.setup_wall_s!r} "
                  f"host_s={rep.host_wall_s!r}")
    for name, value in {**metrics, **extra}.items():
        shown = "n/a" if value is None else repr(value)
        print(f"{name:24s} {shown:>24} {units[name]}")
    if tracer is not None:
        layers = layer_metrics(plain, traced)
        layers.update({k: 0.0 if v is None else v for k, v in extra.items()})
        tracer.write(HERE / "out" / f"{args.workload}.spans.npz")
        reported = {k: layers[k] for k in PER_LAYER}
    else:
        reported = metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
