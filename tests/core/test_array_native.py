"""Provenance-ordered staged apply: exactness of ``canonical_apply``.

``canonical_apply`` reduces each target row's staged contributions in
ascending provenance-key order, with no value sort: SUM reduces the row's
contributions from zero and adds the total once, the other operators fold
them into the target, OVERWRITE keeps the highest-key contribution, and
groups whose result cannot depend on order apply unordered.  These tests
sweep every :class:`ReduceOp` against element-by-element references, the
special values (NaN, ±inf, -0.0, wide ints, huge keys), the cached slot
path of a full superstep, and the end-to-end flag: ``array_native_events``
on vs. off must produce identical PageRank fingerprints under perturbed
tie-breaker schedules.
"""

import numpy as np
import pytest

from repro.core.machine import LocalCsr
from repro.core.properties import ReduceOp
from repro.core.routing_plan import StageSlots, canonical_apply, edge_rows

ALL_OPS = list(ReduceOp)
UFUNCS = {ReduceOp.SUM: np.add, ReduceOp.MIN: np.minimum,
          ReduceOp.MAX: np.maximum, ReduceOp.AND: np.logical_and,
          ReduceOp.OR: np.logical_or}


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact comparison that treats NaNs by bit pattern (inf + -inf paths)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a.view(f"u{a.dtype.itemsize}"),
                                   b.view(f"u{b.dtype.itemsize}")))
    return bool(np.array_equal(a, b))


def reference_apply(op, target, rows, vals):
    """Staging before provenance keys: fold in (row, value) order."""
    order = np.lexsort((vals, rows))
    op.apply_at(target, rows[order], vals[order])


def provenance_reference(op, target, rows, vals, keys):
    """The documented rule, one element at a time in ascending key order."""
    order = np.argsort(keys, kind="stable")
    if op is ReduceOp.SUM:
        sums = {}
        for i in order:
            r = int(rows[i])
            sums[r] = sums.get(r, vals.dtype.type(0)) + vals[i]
        for r, total in sums.items():
            target[r] = target[r] + total
        return
    for i in order:
        r = int(rows[i])
        if op is ReduceOp.OVERWRITE:
            target[r] = vals[i]
        else:
            target[r] = UFUNCS[op](target[r], vals[i])


def make_case(rng, n, n_targets, dtype):
    rows = rng.integers(0, n_targets, size=n).astype(np.int64)
    if dtype == np.float64:
        vals = rng.standard_normal(n)
    elif dtype == np.float32:
        vals = rng.standard_normal(n).astype(np.float32)
    elif dtype == np.bool_:
        vals = rng.integers(0, 2, size=n).astype(bool)
    else:
        vals = rng.integers(-1000, 1000, size=n).astype(dtype)
    return rows, vals


def fresh_target(op, n_targets, dtype):
    dtype = np.dtype(dtype)
    if dtype.kind == "b" and op in (ReduceOp.MIN, ReduceOp.MAX):
        init = op is ReduceOp.MIN  # MIN's identity on bools is True
    else:
        init = op.bottom(dtype)
    return np.full(n_targets, init, dtype=dtype)


def shuffled_keys(rng, n):
    return rng.permutation(n).astype(np.int64)


class TestCanonicalApplyExactness:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32,
                                       np.bool_],
                             ids=["f8", "f4", "i4", "b1"])
    def test_matches_lexsort_reference(self, op, dtype):
        """Keys that rank the contributions in (row, value) order reproduce
        the content-sorted staging bit for bit: the apply follows the keys,
        whatever order the arrays arrive in."""
        rng = np.random.default_rng(3)
        for trial in range(6):
            rows, vals = make_case(rng, 400, 60, dtype)
            keys = np.empty(len(rows), dtype=np.int64)
            keys[np.lexsort((vals, rows))] = np.arange(len(rows))
            ref = fresh_target(op, 60, dtype)
            got = fresh_target(op, 60, dtype)
            reference_apply(op, ref, rows, vals)
            canonical_apply(op, got, keys, vals, rows)
            assert bitwise_equal(ref, got), f"trial {trial}"

    @pytest.mark.parametrize("op", [ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX])
    def test_warm_cache_reuses_row_stream_exactly(self, op):
        """Full supersteps over one cached slot map — the stationary shape:
        same remote edges, fresh values and arrival order every time."""
        rng = np.random.default_rng(11)
        degrees = rng.integers(0, 9, size=80)
        starts = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        m = int(starts[-1])
        csr = LocalCsr(starts=starts, nbrs=np.zeros(m, dtype=np.int64),
                       weights=None,
                       nbr_owner=rng.integers(0, 3, m).astype(np.int32),
                       nbr_offset=np.zeros(m, dtype=np.int64),
                       nbr_ghost_slot=np.full(m, -1, dtype=np.int64))
        slots = StageSlots(csr, False, 0)
        assert np.array_equal(slots.edges, np.flatnonzero(csr.nbr_owner != 0))
        buf = np.empty(m)
        for _ in range(4):
            keys = rng.permutation(slots.edges)
            vals = rng.standard_normal(len(keys))
            ref = rng.standard_normal(80)
            got = ref.copy()
            provenance_reference(op, ref, edge_rows(starts, keys), vals, keys)
            canonical_apply(op, got, keys, vals, slots=slots, buf=buf)
            assert bitwise_equal(ref, got)

    def test_special_float_values(self):
        """±inf, -0.0 and duplicate collisions stay bit-exact (SUM can
        produce NaN from inf + -inf; both paths must produce it the same
        way)."""
        rows = np.array([3, 0, 3, 1, 0, 3, 2, 2], dtype=np.int64)
        vals = np.array([np.inf, -0.0, -np.inf, 1.5, 0.0, 2.0, -np.inf,
                         np.inf])
        keys = shuffled_keys(np.random.default_rng(1), len(rows))
        for op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX,
                   ReduceOp.OVERWRITE):
            ref = fresh_target(op, 4, np.float64)
            got = fresh_target(op, 4, np.float64)
            with np.errstate(invalid="ignore"):  # inf + -inf is the point
                provenance_reference(op, ref, rows, vals, keys)
                canonical_apply(op, got, keys, vals, rows)
            assert bitwise_equal(ref, got), op

    def test_nan_values_fall_back_to_lexsort(self):
        """NaN makes MIN/MAX order-dependent: such groups leave the
        unordered fast path for the keyed (lexsort) one."""
        rows = np.array([1, 0, 1, 2, 1], dtype=np.int64)
        vals = np.array([1.0, np.nan, 2.0, np.nan, -1.0])
        keys = np.array([4, 0, 2, 3, 1], dtype=np.int64)
        for op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX):
            ref = np.zeros(3)
            got = np.zeros(3)
            with np.errstate(invalid="ignore"):
                provenance_reference(op, ref, rows, vals, keys)
                canonical_apply(op, got, keys, vals, rows)
            assert bitwise_equal(ref, got), op

    def test_wide_int_values_fall_back(self):
        """int64 values beyond the float64 mantissa stay exact."""
        rows = np.array([0, 1, 0, 1], dtype=np.int64)
        vals = np.array([2 ** 60, 2 ** 60 + 1, 5, -7], dtype=np.int64)
        keys = np.array([3, 2, 1, 0], dtype=np.int64)
        for op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX):
            ref = np.zeros(2, dtype=np.int64)
            got = np.zeros(2, dtype=np.int64)
            provenance_reference(op, ref, rows, vals, keys)
            canonical_apply(op, got, keys, vals, rows)
            assert np.array_equal(ref, got), op

    def test_huge_row_ids_fall_back(self):
        """Keys past 2**53 (machine bits of a write key) order exactly:
        they are never squeezed through a float."""
        big = 2 ** 53
        rows = np.zeros(3, dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        keys = np.array([big + 1, big, big + 2], dtype=np.int64)
        got = np.zeros(1)
        canonical_apply(ReduceOp.OVERWRITE, got, keys, vals, rows)
        assert got[0] == 3.0  # the highest key wins
        keys = np.array([big + 2, big, big + 1], dtype=np.int64)
        canonical_apply(ReduceOp.OVERWRITE, got, keys, vals, rows)
        assert got[0] == 1.0

    def test_empty_and_singleton_streams(self):
        t = np.zeros(4)
        empty = np.array([], dtype=np.int64)
        canonical_apply(ReduceOp.SUM, t, empty, np.array([]), empty)
        assert (t == 0).all()
        canonical_apply(ReduceOp.SUM, t, np.array([9], dtype=np.int64),
                        np.array([5.0]), np.array([2], dtype=np.int64))
        assert t[2] == 5.0


class TestApplyUnique:
    """Duplicate-free indices — a ghost partial batch — apply as one
    vectorized ``combine``, exactly like the sequential ``apply_at``."""

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.value)
    def test_matches_apply_at_on_unique_indices(self, op):
        rng = np.random.default_rng(29)
        idx = rng.permutation(50)[:30].astype(np.int64)
        dtype = bool if op in (ReduceOp.AND, ReduceOp.OR) else np.float64
        if dtype is bool:
            vals = rng.integers(0, 2, size=30).astype(bool)
        else:
            vals = rng.standard_normal(30)
        a = fresh_target(op, 50, np.bool_ if dtype is bool else np.float64)
        b = a.copy()
        op.apply_at(a, idx, vals)
        b[idx] = op.combine(b[idx], vals)
        assert bitwise_equal(a, b)


class TestMachineScratch:
    @pytest.fixture
    def machine(self, small_rmat):
        from tests.conftest import make_cluster

        return make_cluster(2, None).load_graph(small_rmat).machines[0]

    def test_scratch_tags_are_distinct_buffers(self, machine):
        a = machine.scratch(16, np.float64, 0)
        b = machine.scratch(16, np.float64, 1)
        assert a.base is not None and b.base is not None
        assert a.base is not b.base
        # same (dtype, tag) reuses the allocation
        assert machine.scratch(8, np.float64, 0).base is a.base

    def test_scratch_grows(self, machine):
        small = machine.scratch(10, np.int64)
        big = machine.scratch(5000, np.int64)
        assert len(big) == 5000 and big.base is not small.base


class TestStageSlots:
    def test_slot_map_is_cached_and_exact(self, small_rmat):
        from tests.conftest import make_cluster

        m = make_cluster(2, None).load_graph(small_rmat).machines[1]
        slots = m.stage_slots("in", False)
        assert m.stage_slots("in", False) is slots
        csr = m.csr("in")
        remote = np.flatnonzero(csr.nbr_owner != m.index)
        assert np.array_equal(slots.edges, remote)
        assert np.array_equal(slots.seg_rows[slots.seg_id],
                              edge_rows(csr.starts, remote))
        assert np.all(np.diff(slots.seg_rows) > 0)

    def test_ghost_edges_leave_the_slot_map(self, small_rmat):
        from tests.conftest import make_cluster

        m = make_cluster(2, 40).load_graph(small_rmat).machines[0]
        csr = m.csr("in")
        ghosted = (csr.nbr_owner != m.index) & (csr.nbr_ghost_slot >= 0)
        assert ghosted.any()
        with_ghosts = m.stage_slots("in", True)
        assert not np.isin(np.flatnonzero(ghosted), with_ghosts.edges).any()
        assert len(with_ghosts.edges) + ghosted.sum() == len(
            m.stage_slots("in", False).edges)


class TestFlagEquivalence:
    """``array_native_events`` must be invisible to results and sim time."""

    @pytest.mark.parametrize("variant", ["pull", "push"])
    @pytest.mark.parametrize("seed", [None, 1, 7, 42])
    def test_pagerank_fingerprints_identical(self, small_rmat, variant, seed):
        from repro.algorithms import pagerank
        from tests.conftest import make_cluster

        def run(native):
            cluster = make_cluster(4, 40, routing_plan_cache=True,
                                   combine_writes=True,
                                   array_native_events=native)
            dg = cluster.load_graph(small_rmat)
            if seed is not None:
                cluster.sim.set_tie_breaker(seed)
            res = pagerank(cluster, dg, variant=variant, max_iterations=4)
            return res.values["pr"], res.total_time

        vals_on, t_on = run(True)
        vals_off, t_off = run(False)
        assert bitwise_equal(vals_on, vals_off)
        assert t_on == t_off, "timing model must be untouched"


class TestAuditHarnessWithNativeLoop:
    def test_perturbed_schedules_pass(self):
        """The full audit harness under the array-native engine: three
        perturbation seeds on top of the canonical schedule."""
        from repro import ClusterConfig, rmat, with_uniform_weights
        from repro.audit.harness import AuditHarness, AuditScenario

        graph = with_uniform_weights(rmat(120, 900, seed=21), 0.1, 1.0,
                                     seed=22)
        config = ClusterConfig(num_machines=4).with_engine(
            num_workers=16, num_copiers=8, buffer_size=64,
            chunking="edge", chunk_size=64, ghost_threshold=1000,
            array_native_events=True)
        harness = AuditHarness(graph, config, schedules=3, base_seed=7,
                               iterations=2)
        assert len(harness.tie_seeds()) == 4
        v = harness.run_scenario(AuditScenario("native-pr", "pagerank"))
        assert v.passed and v.bit_identical and v.violation_count == 0
