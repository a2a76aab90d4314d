"""Provenance-ordered staging through the job runner.

Staged contributions (WRITE_REQ payloads, read responses) must reduce in
ascending provenance-key order per target row, whatever order their
messages arrive in.  Each fixture feeds the same contributions to
:class:`~repro.core.jobrunner.JobExecution` in several batch orders and
checks the target, bit for bit, against a value worked out by hand in
provenance order.
"""

import itertools
import math

import numpy as np
import pytest

from repro import EdgeMapJob, EdgeMapSpec, ReduceOp, rmat
from repro.core import jobrunner
from repro.core.jobrunner import make_execution
from repro.core.routing_plan import canonical_apply
from tests.conftest import make_cluster


def bits(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return a.view(f"u{a.dtype.itemsize}") if a.dtype.kind == "f" else a


def nan_with_payload(payload: int) -> float:
    return np.array([0x7FF8000000000000 | payload],
                    dtype=np.uint64).view(np.float64)[0]


@pytest.fixture
def execution():
    """A job execution over a 2-machine cluster (never started: the
    staging methods are driven directly)."""
    cluster = make_cluster(2, None)
    dg = cluster.load_graph(rmat(60, 300, seed=4))
    dg.add_property("x", init=1.0)
    dg.add_property("t", init=0.0)
    job = EdgeMapJob(name="j", spec=EdgeMapSpec(
        direction="pull", source="x", target="t", op=ReduceOp.SUM))
    return make_execution(cluster, dg, job)


def run_writes(exc, op, dtype, init, batches):
    """Stage ``batches`` of (source machine, rows, values, source edge
    indices) as WRITE_REQs to machine 0 and apply them; returns a copy of
    the target property."""
    m = exc.machines[0]
    if "w" in m.props:
        m.props.drop("w")
    target = m.props.add("w", dtype=dtype, init=0)
    target[:len(init)] = init
    for src, rows, vals, edges in batches:
        exc.stage_write(0, src, "w", op, np.array(rows, dtype=np.int64),
                        np.array(vals, dtype=dtype),
                        np.array(edges, dtype=np.int32))
    with np.errstate(invalid="ignore"):  # NaN operands are the point
        exc._apply_staged_writes()
    return target[:len(init)].copy()


#: op -> (dtype, initial target rows, three messages of (source machine,
#: rows, values, source edge indices), expected target worked out by hand).
#: Provenance order is (source machine, source edge index).
NAN1, NAN2 = nan_with_payload(1), nan_with_payload(2)
CASES = {
    # row 0: provenance order is 1.0 (m0), 1e16 (m1), -1e16 (m2):
    # 0 + 1.0 = 1.0; 1.0 + 1e16 rounds to 1e16; 1e16 - 1e16 = 0.0; the
    # target adds that once: 1.0 + 0.0 = 1.0.  (Folding into the target in
    # content order, -1e16 first, gives 0.0.)  row 1: 0.5 + (0.25 + 0.125).
    "float-sum": (ReduceOp.SUM, np.float64, [1.0, 0.5],
                  [(1, [0, 1], [1e16, 0.25], [5, 6]),
                   (2, [0, 1], [-1e16, 0.125], [0, 9]),
                   (0, [0], [1.0], [2])],
                  [1.0, 0.875]),
    "int-sum": (ReduceOp.SUM, np.int64, [10, -3],
                [(0, [1, 0], [4, 2**62], [0, 3]),
                 (1, [0], [2**62], [0]),
                 (2, [1, 0], [-5, -(2**62)], [1, 2])],
                [10 + 2**62, -4]),
    # row 0: +0.0 (m0) then -0.0 (m1): min(inf, +0) = +0, then
    # min(+0, -0) = -0 (numpy's minimum returns the second operand on a
    # tie).  row 1: the NaN in the middle of the fold propagates.
    "min-signed-zero-nan": (ReduceOp.MIN, np.float64, [np.inf, np.inf],
                            [(0, [0, 1], [0.0, 3.0], [7, 1]),
                             (1, [0, 1], [-0.0, np.nan], [0, 1]),
                             (2, [1], [1.0], [0])],
                            [-0.0, np.nan]),
    # row 0: max(-inf, -0.0 (m0)) = -0.0, max(-0.0, +0.0 (m2)) = +0.0.
    # row 1: two NaN payloads; the first in provenance order (m0's NAN2)
    # propagates through the fold.
    "max-signed-zero-nan": (ReduceOp.MAX, np.float64, [-np.inf, -np.inf],
                            [(0, [0, 1], [-0.0, NAN2], [0, 8]),
                             (1, [1], [NAN1], [3]),
                             (2, [0, 1], [0.0, 9.0], [4, 2])],
                            [0.0, NAN2]),
    "and": (ReduceOp.AND, np.bool_, [True, True],
            [(0, [0], [True], [0]),
             (1, [1, 0], [False, True], [0, 1]),
             (2, [1], [True], [0])],
            [True, False]),
    "or": (ReduceOp.OR, np.bool_, [False, False],
           [(0, [0], [False], [0]),
            (1, [1, 0], [True, False], [0, 1]),
            (2, [1], [False], [0])],
           [False, True]),
    # Multi-writer OVERWRITE: the highest provenance key wins — m2's 7.0
    # on row 0 (not the largest value, m1's 9.0), m1's 1.0 on row 1.
    "overwrite": (ReduceOp.OVERWRITE, np.float64, [0.0, 0.0],
                  [(1, [0, 1], [9.0, 1.0], [9, 3]),
                   (2, [0], [7.0], [1]),
                   (0, [0, 1], [5.0, 8.0], [3, 40])],
                  [7.0, 1.0]),
}


class TestWritesReduceInProvenanceOrder:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_batch_order_gives_the_hand_value(self, execution, case):
        op, dtype, init, batches, expected = CASES[case]
        want = np.array(expected, dtype=dtype)
        orders = list(itertools.permutations(batches))
        assert len(orders) >= 3
        for order in orders:
            got = run_writes(execution, op, dtype, init, order)
            assert np.array_equal(bits(got), bits(want)), (case, order)

    def test_arrival_order_staging_diverges(self, execution):
        """The negative control (``content_sorted_staging=False``) folds in
        arrival order, so the float-SUM fixture's batch orders disagree."""
        op, dtype, init, batches, _ = CASES["float-sum"]
        execution.content_sorted = False
        got = {run_writes(execution, op, dtype, init, order)[0]
               for order in itertools.permutations(batches)}
        assert len(got) > 1


class TestResponsesReduceInProvenanceOrder:
    def test_full_superstep_matches_hand_fold_in_any_order(self, execution):
        """Every remote edge answered: the slot path.  Three shuffles of
        the response batches give the value folded by hand in edge order."""
        m = execution.machines[0]
        csr = m.csr("in")
        remote = np.flatnonzero(csr.nbr_owner != m.index)
        rows = np.searchsorted(csr.starts, remote, side="right") - 1
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(len(remote)) * 10.0 ** rng.integers(
            -8, 8, len(remote))
        init = rng.standard_normal(m.n_local)
        want = init.copy()
        for r in np.unique(rows):
            acc = 0.0
            for v in vals[rows == r]:  # ascending edge index
                acc += v
            want[r] += acc
        target = m.props["t"]
        for _ in range(3):
            perm = rng.permutation(len(remote))
            target[:] = init
            for part in np.array_split(perm, 7):
                execution.stage_remote(m.index, remote[part], vals[part])
            execution._apply_staged_responses()
            assert np.array_equal(bits(target), bits(want))

    def test_partial_superstep_matches_full_path(self, execution):
        """A filtered superstep (a subset of the remote edges) takes the
        keyed path; it must agree with the slot path on the same rows."""
        m = execution.machines[0]
        csr = m.csr("in")
        remote = np.flatnonzero(csr.nbr_owner != m.index)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(len(remote))
        keep = np.zeros(len(remote), dtype=bool)
        keep[::2] = True
        vals_sparse = np.where(keep, vals, 0.0)
        target = m.props["t"]
        target[:] = 0.0
        execution.stage_remote(m.index, remote[keep][::-1], vals[keep][::-1])
        execution._apply_staged_responses()
        partial = target.copy()
        target[:] = 0.0
        execution.stage_remote(m.index, remote, vals_sparse)
        execution._apply_staged_responses()
        # adding the zeros of the dropped edges changes no bits
        assert np.array_equal(bits(partial), bits(target))


def test_provenance_order_is_at_least_as_accurate_as_content_order(
        monkeypatch):
    """Against a ``math.fsum`` oracle, PageRank's staged sums in the new
    order are no less accurate (mean relative error per target row) than
    folding the same contributions into the target in (row, value)
    order, the order staging used before."""
    recorded = []

    def spy(op, target, keys, vals, rows=None, slots=None, buf=None):
        before = target.copy()
        if rows is None:
            edge_row = slots.seg_rows[slots.seg_id]
            rows_k = edge_row[np.searchsorted(slots.edges, keys)]
        else:
            rows_k = rows
        canonical_apply(op, target, keys, vals, rows, slots, buf)
        recorded.append((before, rows_k.copy(), vals.copy(), target.copy()))

    monkeypatch.setattr(jobrunner, "canonical_apply", spy)
    from repro.algorithms import pagerank

    cluster = make_cluster(4, None)
    dg = cluster.load_graph(rmat(3000, 40000, seed=1))
    pagerank(cluster, dg, "pull", max_iterations=5)
    assert recorded
    err_new, err_old = [], []
    for before, rows, vals, after in recorded:
        old = before.copy()
        order = np.lexsort((vals, rows))
        np.add.at(old, rows[order], vals[order])
        s = np.argsort(rows, kind="stable")
        rs, vs = rows[s], vals[s]
        bounds = np.r_[0, np.flatnonzero(rs[1:] != rs[:-1]) + 1, len(rs)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            r = rs[a]
            exact = math.fsum([before[r], *vs[a:b]])
            err_new.append(abs(after[r] - exact) / abs(exact))
            err_old.append(abs(old[r] - exact) / abs(exact))
    assert np.mean(err_new) <= np.mean(err_old)
