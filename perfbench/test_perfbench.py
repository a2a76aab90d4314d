"""Tests of the benchmark's own pieces (run: python3 -m pytest perfbench)."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from paper import SCALE, TABLE3_PGX8_TWT, paper_scale, table3_err  # noqa: E402
from quantiles import quantile  # noqa: E402
from speed import PERIOD, REF_PROBE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


class TestQuantile:
    def test_hand_computed_nearest_rank(self):
        samples = [4.0, 1.0, 3.0, 2.0, 5.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        # ceil(q * 10)-th smallest sample
        assert quantile(samples, 0.50) == 5.0
        assert quantile(samples, 0.75) == 8.0
        assert quantile(samples, 0.99) == 10.0
        assert quantile(samples, 0.10) == 1.0
        assert quantile(samples, 0.11) == 2.0
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_constant_hit_cost_reads_exactly(self):
        # Every hit costs 2e-7 s: a histogram bucket edge would read 5e-7.
        hits = [2e-7] * 1500
        assert quantile(hits, 0.50) == 2e-7
        assert quantile(hits, 0.99) == 2e-7

    def test_returns_a_sample(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(size=2000).tolist()
        for q in (0.5, 0.75, 0.99):
            assert quantile(samples, q) in samples

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 0.0)


class TestSpeedProbe:
    def test_without_probes_ref_is_wall(self):
        sp = SpeedProbe()
        wall, ref = sp.stop(sp.start())
        assert wall == ref >= 0.0

    def test_ref_scales_wall_by_mean_probe_speed(self):
        sp = SpeedProbe()
        sp.took.append(REF_PROBE_S)
        mark = sp.start()
        # Probes inside the interval: the core ran at 2x and 4x.
        sp.took.extend([REF_PROBE_S / 2, REF_PROBE_S / 4])
        wall, ref = sp.stop(mark)
        assert ref == pytest.approx(3.0 * wall)
        # No probe inside: the one just before the interval counts.
        wall, ref = sp.stop(sp.start())
        assert ref == pytest.approx(4.0 * wall)

    def test_handler_time_is_not_wall_time(self):
        sp = SpeedProbe()
        mark = sp.start()
        sp.spent += 10.0
        wall, _ = sp.stop(mark)
        assert wall < -9.0

    def test_installed_probe_samples_and_restores(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        sp = SpeedProbe()
        with sp:
            mark = sp.start()
            t_end = time.perf_counter() + 10 * PERIOD
            while time.perf_counter() < t_end:
                pass
            wall, ref = sp.stop(mark)
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(sp.took) >= 5 and all(d > 0 for d in sp.took)
        assert 0.0 < wall < 10 * PERIOD and ref > 0.0


class TestPaperCells:
    def test_table3_cells(self):
        assert TABLE3_PGX8_TWT == {"pull": 1.28, "push": 2.81}
        assert paper_scale(1.0e-3) == pytest.approx(2.0)

    def test_table3_err(self):
        exact = {v: secs * SCALE for v, secs in TABLE3_PGX8_TWT.items()}
        assert table3_err(exact) == pytest.approx(0.0, abs=1e-12)
        off = dict(exact, pull=2 * 1.28 * SCALE)
        assert table3_err(off) == pytest.approx(0.5)
        slow = {v: 4 * s for v, s in exact.items()}
        assert table3_err(slow) == pytest.approx(2.0)


class TestTracer:
    def test_self_time_subtracts_children(self):
        tr = Tracer()
        # span 0 [0, 10] has children 1 [1, 4] and 2 [5, 6]; 1 has child 3.
        for nid, start, end, parent in ((0, 0.0, 10.0, -1),
                                        (1, 1.0, 4.0, 0),
                                        (2, 5.0, 6.0, 0),
                                        (3, 2.0, 3.5, 1)):
            tr.name_id.append(nid)
            tr.start.append(start)
            tr.end.append(end)
            tr.parent.append(parent)
            tr.op_id.append(0)
        assert tr.self_times().tolist() == [6.0, 1.5, 1.0, 1.5]

    def test_tracing_leaves_simulated_results_identical(self):
        from repro import ClusterConfig, PgxdCluster, rmat
        from repro.algorithms import pagerank
        from repro.core import task_manager
        from repro.runtime.simulator import Simulator

        def run_once():
            cluster = PgxdCluster(ClusterConfig(num_machines=3))
            dg = cluster.load_graph(rmat(400, 3000, seed=5))
            res = pagerank(cluster, dg, variant="push", max_iterations=2)
            return (res.total_time, res.values["pr"],
                    cluster.sim.events_executed)

        plain = run_once()
        originals = (Simulator.step_while, task_manager.worker_loop)
        tr = Tracer()
        with tr:
            assert task_manager.worker_loop is not originals[1]
            traced = run_once()
        assert (Simulator.step_while, task_manager.worker_loop) == originals
        assert traced[0] == plain[0] and traced[2] == plain[2]
        assert np.array_equal(traced[1], plain[1])
        m = tr.metrics()
        assert m["jobrunner.jobs"] == 8 and m["kernels.calls"] > 0
        assert m["trace.spans"] == len(tr.name_id) > 0
        assert all(v >= -1e-9 for v in tr.self_times())

    def test_paused_records_nothing(self):
        import repro.graph.generators as generators

        tr = Tracer()
        with tr:
            with tr.paused():
                generators.rmat(100, 400, seed=1)
            assert len(tr.name_id) == 0
            generators.rmat(100, 400, seed=1)
        assert tr.metrics()["setup.generate_s"] > 0


class TestOracles:
    def test_delta_pagerank_oracle_matches_pagerank_approx(self):
        from repro import ClusterConfig, PgxdCluster, rmat
        from repro.algorithms.pagerank import pagerank_approx
        from repro.core.incremental import IncrementalConfig
        from workloads import delta_pagerank_oracle, pr_close

        cfg = IncrementalConfig()
        graph = rmat(500, 4000, seed=2)
        cluster = PgxdCluster(ClusterConfig(num_machines=3))
        res = pagerank_approx(cluster, cluster.load_graph(graph),
                              damping=cfg.pr_damping,
                              threshold=cfg.pr_threshold,
                              max_iterations=cfg.pr_max_iterations)
        assert pr_close(res.values["pr"], delta_pagerank_oracle(graph, cfg))

    def test_planned_reuse_counts_untouched_machines(self):
        from workloads import ServeMutate

        wl = ServeMutate(4)
        wl.NODES, wl.BATCHES, wl.READS_PER_BATCH = 400, 6, 2
        starts = np.array([0, 100, 200, 300, 400])
        rng = np.random.default_rng(0)
        edges = [tuple(e) for e in rng.integers(0, 400, (3000, 2)).tolist()]
        plan = wl._plan_trace(edges, starts)
        for local, removed, inserted, want_reused in plan.batches:
            owners = {int(x) // 100 for e in removed + inserted for x in e}
            assert want_reused == 4 - len(owners)
            assert (want_reused == 3) if local else (len(owners) >= 2)


class TestReadResults:
    def test_same_result(self):
        from workloads import same_result

        rows = [(3, {"out_degree": 7.0}), (1, {"out_degree": 5.0})]
        assert same_result(rows, [(3, {"out_degree": 7.0}),
                                  (1, {"out_degree": 5.0})])
        assert not same_result(rows, rows[:1])
        assert not same_result(rows, [(1, {"out_degree": 5.0}),
                                      (3, {"out_degree": 7.0})])
        assert same_result(4, 4.0) and not same_result(4, 5)
        assert not same_result(None, 4)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(not math.isnan(b) and b > 0 for b in bounds.values())
