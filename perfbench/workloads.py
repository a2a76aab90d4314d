"""The benchmark's three workloads.

Each workload is a closed loop driven from one process and one thread:
a single client issues an operation (an algorithm run, a read or a mutation
batch) and waits for its reply before issuing the next.  One call of
``rep()`` sets the workload up from its seed, runs its timed part once,
and checks every output against an oracle computed outside the timed
part.  Inputs depend only on the seed, so every repetition of one
invocation must produce identical simulated results.

Why these three: each one puts most of its host time in a different set
of layers.

* ``twt-paper`` -- a scaled stand-in of the paper's Twitter graph on 8
  machines with every fixed cost scaled alike.  Scaled buffers make host
  time bound by messages and simulator events, and its simulated seconds
  map onto the paper's Table 3 cells.  Pull exercises remote reads, push
  remote writes.
* ``rmat-analytics`` -- a 3M-edge RMAT graph on 4 machines with default
  64k-edge chunks.  Host time goes to the vector kernels, staged apply
  and CSR build; SSSP adds MIN writes on frontier-filtered chunks.
* ``serve-mutate`` -- Zipf-skewed cached reads interleaved with small
  mutation batches and incremental recomputes.  It bypasses the heavy
  kernels and exercises scheduler, result cache, query, incremental
  engine and dynamic graph; range-local batches exercise the path that
  patches only the machines whose edges changed.
"""

from __future__ import annotations

import copy
import gc
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

import repro.graph.generators as generators
from repro import ClusterConfig, PgxdCluster
from repro.algorithms import pagerank, sssp
from repro.bench.calibration import scaled_cluster_config
from repro.core.incremental import (IncrementalConfig, IncrementalEngine,
                                    hash_weights)
from repro.core.result_cache import zipf_weights
from repro.dynamic import DynamicGraph
from repro.obs.report import (incremental_summary, overhead_breakdown,
                              scheduler_summary)
from repro.query import PropertyQuery, apply_spec, pool_specs
from repro.server import PgxdServer

from paper import SCALE as TWT_SCALE, table3_err
from speed import SPEED

TRAFFIC_KINDS = ("read_req", "read_resp", "write_req", "ghost_sync")

#: L1 tolerance of serve-mutate's incremental PageRank against a full rerun
#: after the last batch.  The docs/incremental.md bound, E * n * threshold
#: * d / (1 - d) ~ 453, cannot fail at this size (two probability vectors
#: differ by at most 2 in L1).  The gate is twice the largest drift
#: measured over seeds 1-20 (0.0026, at 20k and at 2k nodes alike).
PR_L1_TOLERANCE = 0.005


@dataclass
class Rep:
    """Outcome of one repetition of a workload.  Host seconds are on the
    reference clock of ``speed.py``; ``*_wall_s`` are the wall seconds."""

    setup_s: float = 0.0
    host_s: float = 0.0
    setup_wall_s: float = 0.0
    host_wall_s: float = 0.0
    sim_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: simulated (deterministic) quantities: per-layer split, counts
    sim: dict = field(default_factory=dict)
    #: exact per-operation samples, e.g. ``read_ms`` / ``read_sim_us``
    samples: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: per-layer host metrics of a traced repetition
    layers: dict = field(default_factory=dict)

    def op(self, tracer, fn: Callable):
        """Run one operation inside the timed part; returns its result,
        or None when it raised (counted as failed)."""
        self.attempted += 1
        if tracer is not None:
            tracer.op += 1
        mark = SPEED.start()
        try:
            result = fn()
        except Exception:
            self.add_host(mark)
            self.fail(traceback.format_exc())
            return None
        self.add_host(mark)
        return result

    def add_host(self, mark) -> None:
        """Count the interval since ``mark`` as timed part."""
        wall, ref = SPEED.stop(mark)
        self.host_wall_s += wall
        self.host_s += ref

    def add_setup(self, mark) -> None:
        """Count the interval since ``mark`` as set-up."""
        wall, ref = SPEED.stop(mark)
        self.setup_wall_s += wall
        self.setup_s += ref

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(message, file=sys.stderr)


def untraced(tracer):
    """Context for the benchmark's own work inside a traced repetition."""
    return nullcontext() if tracer is None else tracer.paused()


def engine_counts(cluster) -> dict[str, float]:
    """Simulated per-layer split and traffic of one cluster so far."""
    ob = overhead_breakdown(cluster.metrics)
    sched = scheduler_summary(cluster.metrics)
    stats = cluster.network.stats
    out = {
        "sim.task_s": ob.task, "sim.comm_s": ob.comm,
        "sim.network_s": ob.network, "sim.ghost_s": ob.ghost,
        "sim.barrier_s": ob.barrier,
        "net.messages": stats.messages,
        "simulator.events": cluster.sim.events_executed,
        "simulator.pool_hits": cluster.sim.event_pool_hits,
        "scheduler.dispatched": sched["dispatched"],
        "scheduler.rejected": sched["rejected"],
    }
    for kind in TRAFFIC_KINDS:
        out[f"net.bytes.{kind}"] = stats.bytes_by_kind.get(kind, 0.0)
    return out


def job_counts(cluster, stats) -> dict[str, float]:
    """Traffic and imbalance counts of one algorithm's merged JobStats."""
    bd = stats.breakdown(cluster.config.engine.num_workers)
    return {"job.remote_reads": stats.remote_reads,
            "job.remote_writes": stats.remote_writes,
            "job.atomic_ops": stats.atomic_ops,
            "job.edges": stats.edges_processed,
            "sim.imbalance_inter_s": bd.inter_machine,
            "sim.imbalance_intra_s": bd.intra_machine}


def accumulate(into: dict, counts: dict, sign: float = 1.0) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0.0) + sign * value


def transposed_adjacency(graph):
    """``A^T`` as a scipy.sparse matrix; duplicate entries sum, so parallel
    edges count with multiplicity."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n), np.diff(graph.out_starts))
    return sp.csr_matrix((np.ones(len(src)), (graph.out_nbrs, src)),
                         shape=(n, n))


def pagerank_oracle(graph, iterations: int):
    """Power iteration with scipy.sparse, damping 0.85, dangling mass
    spread uniformly (the definition ``repro.algorithms.pagerank``
    implements)."""
    n = graph.num_nodes
    outdeg = np.diff(graph.out_starts).astype(np.float64)
    at = transposed_adjacency(graph)
    pr = np.full(n, 1.0 / n)
    dangling = outdeg == 0
    for _ in range(iterations):
        contrib = np.where(dangling, 0.0, pr / np.maximum(outdeg, 1.0))
        base = 0.15 / n + 0.85 * pr[dangling].sum() / n
        pr = base + 0.85 * (at @ contrib)
    return pr


def delta_pagerank_oracle(graph, cfg: IncrementalConfig):
    """Delta-propagation PageRank from a cold start with scipy.sparse: the
    paper's approximate listing, which ``IncrementalEngine.pagerank`` runs
    in full mode.  Active vertices push ``d * delta / outdeg``; a vertex
    stays active while its incoming ``|delta|`` is at least the threshold."""
    n = graph.num_nodes
    d = cfg.pr_damping
    outdeg = np.diff(graph.out_starts).astype(np.float64)
    at = transposed_adjacency(graph)
    apr = np.full(n, (1.0 - d) / n)
    delta = apr.copy()
    active = np.ones(n, dtype=bool)
    for _ in range(cfg.pr_max_iterations):
        if not active.any():
            break
        extra = d * delta[active & (outdeg == 0)].sum() / n
        push = np.where(active & (outdeg > 0),
                        d * delta / np.maximum(outdeg, 1.0), 0.0)
        delta = at @ push + extra
        apr += delta
        active = np.abs(delta) >= cfg.pr_threshold
    return apr


def sssp_oracle(graph, root: int) -> np.ndarray:
    """Dijkstra with scipy.sparse.csgraph over the lightest parallel edge."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n), np.diff(graph.out_starts))
    dst = graph.out_nbrs
    w = graph.edge_weights
    order = np.lexsort((w, dst, src))
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    mat = sp.csr_matrix((w[first], (src[first], dst[first])), shape=(n, n))
    return csgraph.dijkstra(mat, directed=True, indices=root)


def wcc_oracle(graph) -> np.ndarray:
    """Smallest node id of each node's weak component, from
    scipy.sparse.csgraph.connected_components."""
    n = graph.num_nodes
    src = np.repeat(np.arange(n), np.diff(graph.out_starts))
    mat = sp.csr_matrix((np.ones(len(src)), (src, graph.out_nbrs)),
                        shape=(n, n))
    _, labels = csgraph.connected_components(mat, directed=True,
                                             connection="weak")
    smallest = np.full(labels.max() + 1, n, dtype=np.int64)
    np.minimum.at(smallest, labels, np.arange(n))
    return smallest[labels]


def pr_close(a, b) -> bool:
    return np.allclose(a, b, rtol=1e-9, atol=0.0)


class Workload:
    name = ""
    #: attribute overrides that shrink the workload for ``warmup()``
    WARMUP: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def rep(self, tracer=None) -> Rep:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run the same code paths once on a small input, so lazy imports
        and first-call costs land before the measured repetitions."""
        small = copy.copy(self)
        small.__dict__.update(self.WARMUP)
        small.rep()


class TwtPaper(Workload):
    """TWT' PageRank, pull then push on a freshly loaded copy, 8 machines."""

    name = "twt-paper"
    MACHINES = 8
    ITERATIONS = 1
    WARMUP = {"nodes": 1000, "edges": 20_000}

    def __init__(self, seed: int):
        super().__init__(seed)
        # Same generator and skew as ``paper_graph("TWT", SCALE)``; only
        # the generator seed comes from the benchmark seed.
        spec = generators.PAPER_GRAPHS["TWT"]
        self.nodes = max(16, int(round(spec.paper_nodes * TWT_SCALE)))
        self.edges = max(32, int(round(spec.paper_edges * TWT_SCALE)))
        self.a = spec.skew_a
        self.bc = (1.0 - spec.skew_a) / 2.0 * 0.85
        self._oracle = None

    def rep(self, tracer=None) -> Rep:
        rep = Rep()
        mark = SPEED.start()
        graph = generators.rmat(self.nodes, self.edges, a=self.a, b=self.bc,
                                c=self.bc, seed=self.seed)
        rep.add_setup(mark)
        values, per_iter = {}, {}
        for variant in ("pull", "push"):
            mark = SPEED.start()
            cluster = PgxdCluster(scaled_cluster_config(self.MACHINES,
                                                        TWT_SCALE))
            dg = cluster.load_graph(graph)
            rep.add_setup(mark)
            res = rep.op(tracer, lambda: pagerank(
                cluster, dg, variant=variant,
                max_iterations=self.ITERATIONS))
            accumulate(rep.sim, engine_counts(cluster))
            if res is None:
                continue
            rep.sim_s += res.total_time
            per_iter[variant] = res.time_per_iteration
            values[variant] = res.values["pr"]
            accumulate(rep.sim, job_counts(cluster, res.stats))
        if self._oracle is None:
            self._oracle = pagerank_oracle(graph, self.ITERATIONS)
        for variant in ("pull", "push"):
            if variant in values and not pr_close(values[variant],
                                                  self._oracle):
                rep.fail(f"pagerank {variant}: differs from the scipy oracle")
        if ("pull" in values and "push" in values
                and not pr_close(values["pull"], values["push"])):
            rep.fail("pagerank: pull and push disagree")
        if len(per_iter) == 2:
            rep.sim["table3_err"] = table3_err(per_iter)
        return rep


class RmatAnalytics(Workload):
    """RMAT 200k/3M, PageRank pull then SSSP on a fresh copy, 4 machines."""

    name = "rmat-analytics"
    NODES = 200_000
    EDGES = 3_000_000
    MACHINES = 4
    PR_ITERATIONS = 10
    ROOT = 0
    WARMUP = {"NODES": 2000, "EDGES": 30_000}

    def __init__(self, seed: int):
        super().__init__(seed)
        self._oracle = None

    def rep(self, tracer=None) -> Rep:
        rep = Rep()
        mark = SPEED.start()
        graph = generators.with_uniform_weights(
            generators.rmat(self.NODES, self.EDGES, seed=self.seed),
            seed=self.seed + 1)
        rep.add_setup(mark)
        outputs = {}
        runs = (("pagerank", lambda c, dg: pagerank(
                    c, dg, variant="pull", max_iterations=self.PR_ITERATIONS)),
                ("sssp", lambda c, dg: sssp(c, dg, root=self.ROOT)))
        for algo, run in runs:
            mark = SPEED.start()
            cluster = PgxdCluster(ClusterConfig(num_machines=self.MACHINES))
            dg = cluster.load_graph(graph)
            rep.add_setup(mark)
            res = rep.op(tracer, lambda: run(cluster, dg))
            accumulate(rep.sim, engine_counts(cluster))
            if res is not None:
                rep.sim_s += res.total_time
                outputs[algo] = res.values["pr" if algo == "pagerank"
                                           else "dist"]
                accumulate(rep.sim, job_counts(cluster, res.stats))
            # Free this copy (the cluster holds reference cycles) before
            # the next one is loaded.
            del cluster, dg
            gc.collect()
        if self._oracle is None:
            self._oracle = {
                "pagerank": pagerank_oracle(graph, self.PR_ITERATIONS),
                "sssp": sssp_oracle(graph, self.ROOT)}
        if "pagerank" in outputs and not pr_close(outputs["pagerank"],
                                                  self._oracle["pagerank"]):
            rep.fail("pagerank: differs from the scipy oracle")
        if "sssp" in outputs and not np.array_equal(outputs["sssp"],
                                                    self._oracle["sssp"]):
            rep.fail("sssp: differs from the scipy Dijkstra oracle")
        return rep


def same_result(a, b) -> bool:
    """Exact equality of two read results (count, aggregate or rows)."""
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)):
            return False
        return all(ia == ib and row_a.keys() == row_b.keys()
                   and all(float(row_a[k]) == float(row_b[k]) for k in row_a)
                   for (ia, row_a), (ib, row_b) in zip(a, b))
    return a is not None and b is not None and float(a) == float(b)


@dataclass
class ServePlan:
    """The seeded trace, generated before any timing starts."""

    specs: list
    #: per batch: the pool indices of the reads that precede it
    reads: list
    #: per batch: (range_local, removed edges, inserted edges, machines
    #: the epoch build must reuse: those owning no endpoint of the batch)
    batches: list
    #: the edge multiset after the last batch
    final_edges: list


class ServeMutate(Workload):
    """Cached reads through ``Session.query`` interleaved with mutation
    batches and incremental SSSP / WCC / PageRank, 4 machines."""

    name = "serve-mutate"
    NODES = 20_000
    EDGES = 160_000
    MACHINES = 4
    POOL = 32
    ZIPF_S = 1.1
    BATCHES = 40
    READS_PER_BATCH = 50
    BATCH_EDGES = 16
    ROOT = 0
    WARMUP = {"NODES": 2000, "EDGES": 16_000, "BATCHES": 2}

    def __init__(self, seed: int):
        super().__init__(seed)
        self._plan: Optional[ServePlan] = None
        self._final = None

    def _plan_trace(self, edges: list, starts: np.ndarray) -> ServePlan:
        """Zipf read choices and mutation batches from the seed.  Removal
        candidates come from the benchmark's own copy of the edge list;
        even batches are range-local (both endpoints owned by one
        machine), odd batches cross machines."""
        rng = np.random.default_rng([self.seed, 1])
        specs = pool_specs(self.POOL, seed=self.seed)
        per = self.READS_PER_BATCH
        choices = rng.choice(self.POOL, size=self.BATCHES * per,
                             p=zipf_weights(self.POOL, self.ZIPF_S))
        reads = [choices[i * per:(i + 1) * per].tolist()
                 for i in range(self.BATCHES)]
        model = list(edges)
        half = self.BATCH_EDGES // 2
        batches = []
        for b in range(self.BATCHES):
            arr = np.array(model, dtype=np.int64)
            own_u = np.searchsorted(starts, arr[:, 0], side="right") - 1
            own_v = np.searchsorted(starts, arr[:, 1], side="right") - 1
            local = b % 2 == 0
            if local:
                counts = np.bincount(own_u[own_u == own_v],
                                     minlength=self.MACHINES)
                machine = int(rng.choice(np.flatnonzero(counts >= half)))
                cand = np.flatnonzero((own_u == machine) & (own_v == machine))
            else:
                cand = np.flatnonzero(own_u != own_v)
            picked = sorted(rng.choice(cand, size=half,
                                       replace=False).tolist(), reverse=True)
            removed = [model[i] for i in picked]
            for i in picked:
                model[i] = model[-1]
                model.pop()
            inserted = []
            while len(inserted) < half:
                if local:
                    lo, hi = int(starts[machine]), int(starts[machine + 1])
                    u, v = rng.integers(lo, hi, size=2).tolist()
                else:
                    u, v = rng.integers(0, self.NODES, size=2).tolist()
                    if (np.searchsorted(starts, u, side="right")
                            == np.searchsorted(starts, v, side="right")):
                        continue
                inserted.append((u, v))
            model.extend(inserted)
            ends = np.array(removed + inserted, dtype=np.int64).ravel()
            owners = np.unique(np.searchsorted(starts, ends, side="right"))
            batches.append((local, removed, inserted,
                            self.MACHINES - len(owners)))
        return ServePlan(specs=specs, reads=reads, batches=batches,
                         final_edges=model)

    def _final_oracle(self, rep: Rep, edges: list) -> dict:
        """Full rerun on the final epoch's snapshot on a fresh cluster;
        its SSSP and WCC are checked against scipy.sparse.csgraph, its
        PageRank against the scipy delta-propagation oracle."""
        cluster = PgxdCluster(ClusterConfig(num_machines=self.MACHINES))
        engine = IncrementalEngine(cluster, DynamicGraph(self.NODES, edges),
                                   weight_fn=hash_weights(seed=self.seed))
        full = {"sssp": engine.sssp(self.ROOT).values["dist"],
                "wcc": engine.wcc().values["component"],
                "pagerank": engine.pagerank().values["pr"]}
        graph = engine.dg.graph
        if not np.array_equal(full["sssp"], sssp_oracle(graph, self.ROOT)):
            rep.fail("full sssp rerun: differs from the scipy Dijkstra oracle")
        if not np.array_equal(full["wcc"], wcc_oracle(graph)):
            rep.fail("full wcc rerun: differs from scipy connected components")
        if not pr_close(full["pagerank"],
                        delta_pagerank_oracle(graph, engine.config)):
            rep.fail("full pagerank rerun: differs from the scipy "
                     "delta-propagation oracle")
        return full

    def rep(self, tracer=None) -> Rep:
        rep = Rep()
        mark = SPEED.start()
        graph = generators.rmat(self.NODES, self.EDGES, seed=self.seed)
        src = np.repeat(np.arange(self.NODES), np.diff(graph.out_starts))
        edges = list(zip(src.tolist(), graph.out_nbrs.tolist()))
        dynamic = DynamicGraph(self.NODES, edges)
        cluster = PgxdCluster(ClusterConfig(num_machines=self.MACHINES))
        server = PgxdServer(cluster)
        cache = server.enable_cache()
        engine = IncrementalEngine(cluster, dynamic,
                                   weight_fn=hash_weights(seed=self.seed))
        session = server.create_session("reader")
        session.attach_graph("g", engine.pin())
        engine.sssp(self.ROOT)
        engine.wcc()
        engine.pagerank()
        rep.add_setup(mark)

        with untraced(tracer):
            if self._plan is None:
                self._plan = self._plan_trace(edges,
                                              engine.dg.partitioning.starts)
            oracle_cluster = PgxdCluster(
                ClusterConfig(num_machines=self.MACHINES))
        plan = self._plan
        base = engine_counts(cluster)
        sim_start = cluster.now
        samples = {"read_ms": [], "read_sim_us": [], "update_ms": [],
                   "update_sim_ms": []}
        epoch_sim = reused = recomputed = fallbacks = 0.0
        final = None
        for b, (local, removed, inserted, want_reused) in enumerate(
                plan.batches):
            pinned = engine.pin()
            served = []
            for qi in plan.reads[b]:
                spec = plan.specs[qi]
                host0, sim0 = rep.host_s, cluster.now
                result = rep.op(tracer, lambda: apply_spec(
                    session.query("g"), spec))
                samples["read_ms"].append((rep.host_s - host0) * 1e3)
                samples["read_sim_us"].append((cluster.now - sim0) * 1e6)
                served.append((qi, result))
            with untraced(tracer):
                expected = {qi: apply_spec(PropertyQuery(oracle_cluster,
                                                         pinned),
                                           plan.specs[qi])
                            for qi in {qi for qi, _ in served}}
            for qi, result in served:
                if result is not None and not same_result(result,
                                                          expected[qi]):
                    rep.fail(f"read {plan.specs[qi]} at batch {b}: "
                             "differs from the uncached query")

            before = incremental_summary(cluster.metrics)
            host0, sim0 = rep.host_s, cluster.now

            def update():
                for e in removed:
                    dynamic.remove_edge(*e)
                for e in inserted:
                    dynamic.add_edge(*e)
                _batch, stats = engine.mutate(session="mutator")
                results = (engine.sssp(self.ROOT), engine.wcc(),
                           engine.pagerank())
                session.attach_graph("g", engine.pin())
                return stats, results

            out = rep.op(tracer, update)
            samples["update_ms"].append((rep.host_s - host0) * 1e3)
            samples["update_sim_ms"].append((cluster.now - sim0) * 1e3)
            if out is None:
                final = None
                continue
            stats, final = out
            after = incremental_summary(cluster.metrics)
            batch_reused = after["machines_reused"] - before["machines_reused"]
            if batch_reused != want_reused:
                kind = "range-local" if local else "cross-machine"
                rep.fail(f"batch {b}: {kind} batch reused {batch_reused} "
                         f"machines, expected {want_reused}")
            epoch_sim += stats.elapsed
            reused += batch_reused
            recomputed += sum(r.recomputed_vertices for r in final)
            fallbacks += sum(bool(r.fallback) for r in final)

        rep.sim_s = cluster.now - sim_start
        accumulate(rep.sim, engine_counts(cluster))
        accumulate(rep.sim, base, sign=-1.0)
        rep.sim.update({
            "cache.hits": cache.hits,
            "cache.lookups": cache.hits + cache.misses,
            "cache.evictions": cache.evictions, "query.misses": cache.misses,
            "epoch.sim_s": epoch_sim, "epoch.machines_reused": reused,
            "epoch.machines_total": self.BATCHES * self.MACHINES,
            "incremental.recomputed_vertices": recomputed,
            "incremental.fallbacks": fallbacks,
            "read_sim_sum_us": sum(samples["read_sim_us"]),
            "update_sim_sum_ms": sum(samples["update_sim_ms"]),
        })
        rep.samples = samples

        if final is not None:
            if self._final is None:
                with untraced(tracer):
                    self._final = self._final_oracle(rep, plan.final_edges)
            self._check_final(rep, final)
        return rep

    def _check_final(self, rep: Rep, final) -> None:
        sssp_res, wcc_res, pr_res = final
        want = self._final
        if not np.array_equal(sssp_res.values["dist"], want["sssp"]):
            rep.fail("incremental sssp after the final batch: differs from "
                     "a full rerun")
        if not np.array_equal(wcc_res.values["component"], want["wcc"]):
            rep.fail("incremental wcc after the final batch: differs from "
                     "a full rerun")
        drift = np.abs(pr_res.values["pr"] - want["pagerank"]).sum()
        if not drift <= PR_L1_TOLERANCE:
            rep.fail(f"incremental pagerank after the final batch: L1 "
                     f"distance {drift!r} to a full rerun exceeds "
                     f"{PR_L1_TOLERANCE}")


WORKLOADS = {w.name: w for w in (TwtPaper, RmatAnalytics, ServeMutate)}
