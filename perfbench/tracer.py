"""Span tracer for the traced benchmark run.

The tracer wraps the engine's layer functions from outside the program:
each wrapper is installed wherever a caller looks the function up (the
class for a method; every loaded ``repro`` module that imported a
module-level function by name), so no file of the program changes.  A
wrapper records one span per call -- name, start, end, parent span and
operation id -- into in-memory arrays, and the spans are written out
when the benchmark ends.

A span's self time is its duration minus the time its child spans
cover.  Each layer's ``*_s`` metric is the summed self time of its
spans; its counts are call counts or tallies taken from arguments and
results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _edges(tallies, args, result):
    tallies["kernels.edges"] += result.edges


def _plan_hit(tallies, args, result):
    tallies["plan.hits"] += bool(result[1])


def _stage_rows(tallies, args, result):
    tallies["stage.rows"] += len(args[2])


#: (defining module, qualified name, self-time metric, call-count metric,
#: tally) -- one row per wrapped function.
SPANS = (
    ("repro.runtime.simulator", "Simulator.run", "simulator.self_s", None,
     None),
    ("repro.runtime.simulator", "Simulator.step_while", "simulator.self_s",
     None, None),
    ("repro.core.task_manager", "worker_loop", "task_manager.self_s",
     "task_manager.chunks", None),
    ("repro.core.task_manager", "WorkerState.flush_all", "task_manager.self_s",
     "task_manager.flushes", None),
    ("repro.core.task_manager", "WorkerState.response_arrived",
     "task_manager.self_s", None, None),
    ("repro.core.comm_manager", "deliver_request", "comm.self_s",
     "comm.requests", None),
    ("repro.core.comm_manager", "deliver_response", "comm.self_s",
     "comm.responses", None),
    ("repro.core.comm_manager", "copier_loop", "comm.self_s", None, None),
    ("repro.runtime.network", "Network.send", "network.send_s",
     "network.sends", None),
    ("repro.obs.hooks", "HookBus.emit", "obs.emit_s", "obs.emits", None),
    ("repro.obs.hooks", "ScopedHookBus.emit", "obs.emit_s", "obs.emits", None),
    ("repro.core.vector_kernels", "execute_edge_map_chunk", "kernels.self_s",
     "kernels.calls", _edges),
    ("repro.core.vector_kernels", "execute_node_kernel_chunk",
     "kernels.self_s", "kernels.calls", _edges),
    ("repro.core.routing_plan", "RoutingPlanCache.lookup", "plan.lookup_s",
     "plan.lookups", _plan_hit),
    ("repro.core.routing_plan", "canonical_apply", "stage.apply_s", None,
     _stage_rows),
    ("repro.core.jobrunner", "make_execution", "jobrunner.start_s",
     "jobrunner.jobs", None),
    ("repro.core.jobrunner", "JobExecution.start", "jobrunner.start_s",
     None, None),
    ("repro.core.jobrunner", "JobExecution.check_sync_done", "ghost.sync_s",
     None, None),
    ("repro.graph.generators", "rmat", "setup.generate_s", None, None),
    ("repro.graph.generators", "with_uniform_weights", "setup.generate_s",
     None, None),
    ("repro.core.engine", "PgxdCluster.load_graph", "setup.load_s", None,
     None),
    ("repro.core.scheduler", "JobScheduler.run_inline", "scheduler.inline_s",
     None, None),
    ("repro.core.scheduler", "JobScheduler.admit_read", "scheduler.inline_s",
     None, None),
    ("repro.core.result_cache", "ResultCache.lookup", "cache.lookup_s", None,
     None),
    ("repro.core.result_cache", "ResultCache.peek", "cache.lookup_s", None,
     None),
    ("repro.core.result_cache", "ResultCache.put", "cache.lookup_s", None,
     None),
    # Served reads call the priced computations directly, not ``priced``.
    ("repro.query", "PropertyQuery.priced", "query.priced_s", None, None),
    ("repro.query", "PropertyQuery._execute_priced", "query.priced_s", None,
     None),
    ("repro.query", "PropertyQuery._count_priced", "query.priced_s", None,
     None),
    ("repro.query", "PropertyQuery._aggregate_priced", "query.priced_s", None,
     None),
    ("repro.core.incremental", "IncrementalEngine.mutate", "epoch.build_s",
     None, None),
    ("repro.core.incremental", "IncrementalEngine._build_epoch",
     "epoch.build_s", None, None),
    ("repro.core.incremental", "IncrementalEngine.sssp",
     "incremental.recompute_s", None, None),
    ("repro.core.incremental", "IncrementalEngine.wcc",
     "incremental.recompute_s", None, None),
    ("repro.core.incremental", "IncrementalEngine.pagerank",
     "incremental.recompute_s", None, None),
    ("repro.dynamic", "DynamicGraph.apply_updates", "dynamic.snapshot_s",
     None, None),
    ("repro.dynamic", "DynamicGraph.edge_list", "dynamic.snapshot_s", None,
     None),
)

#: Every metric the tracer produces (zero when a layer did not run).
METRICS = tuple(dict.fromkeys(
    [row[2] for row in SPANS] + [row[3] for row in SPANS if row[3]]
    + ["kernels.edges", "plan.hits", "stage.rows"]))


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{mod}.{qual}" for mod, qual, *_ in SPANS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        #: operation id stamped on new spans; the workload advances it
        self.op = 0
        self.tallies: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and tallies (keeps wrappers installed)."""
        for arr in (self.name_id, self.start, self.end, self.parent,
                    self.op_id):
            del arr[:]
        self._stack.clear()
        self.op = 0
        self.tallies.clear()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        op, self.op = self.op, -1
        try:
            yield
        finally:
            self.op = op

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, nid: int, tally):
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, stack = self.parent, self.op_id, self._stack
        tallies = self.tallies
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tally is not None:
                tally(tallies, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for nid, (mod_name, qual, _metric, _count, tally) in enumerate(SPANS):
            module = importlib.import_module(mod_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                owners = [owner]
            else:
                attr = qual
                original = getattr(module, attr)
                # Every loaded module that imported the function by name
                # looks it up in its own namespace.
                owners = [m for name, m in list(sys.modules.items())
                          if (name == "repro" or name.startswith("repro."))
                          and m is not None
                          and m.__dict__.get(attr) is original]
            wrapper = self._wrap(original, nid, tally)
            for owner in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus child-span durations (spans
        of one thread nest, so children cover disjoint intervals)."""
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def metrics(self) -> dict[str, float]:
        """Layer self times, call counts and tallies of the recorded spans."""
        out = dict.fromkeys(METRICS, 0.0)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        self_s = np.bincount(ids, weights=self.self_times(),
                             minlength=len(SPANS))
        calls = np.bincount(ids, minlength=len(SPANS))
        for nid, (_mod, _qual, metric, count, _tally) in enumerate(SPANS):
            out[metric] += float(self_s[nid])
            if count:
                out[count] += int(calls[nid])
        out.update(self.tallies)
        out["trace.spans"] = len(ids)
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans (one row each) as a ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op_id, dtype=np.int32))
