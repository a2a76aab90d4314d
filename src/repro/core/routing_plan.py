"""Iteration-invariant routing plans for the vectorized edge-map path.

The hot loop of :func:`repro.core.vector_kernels.execute_edge_map_chunk`
re-derives, for every chunk of every superstep, work that depends only on the
immutable CSR: the ``np.repeat`` edge expansion, the owner/ghost/remote
classification masks, and the owner-stable sort + per-destination bounds that
route remote requests.  PGX.D's whole point (Sections 3.2-3.4) is keeping
that path at memory-bandwidth speed; re-deriving invariants every iteration
is pure overhead for multi-superstep algorithms (PageRank, SSSP, WCC run the
same chunks tens of times).

A :class:`RoutingPlanCache` lives on each :class:`~repro.core.machine.Machine`
and memoizes one :class:`ChunkPlan` per ``(csr direction, chunk range, ghost
visibility)``.  Plans are host-side only — consuming a cached plan performs
the *same* logical reads/writes/traffic and produces bit-identical results
and identical simulated times; only the wall clock of the simulator process
improves.  The active-vertex filter is applied as a mask *on top* of the
cached plan, so vertex deactivation keeps working (and stays bit-identical:
stable sorting commutes with subsetting).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from .properties import ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from .machine import LocalCsr


class ChunkPlan:
    """Precomputed routing of one chunk ``[lo, hi)`` of one CSR direction.

    Arrays are grouped per destination class, pre-subset and (for the remote
    class) pre-sorted by owner, so a cached chunk execution is pure
    gather/scatter plus buffer appends.
    """

    __slots__ = (
        "lo", "hi", "es", "ee", "n_nodes", "n_edges", "degrees", "rows",
        "is_local", "is_ghost", "is_remote", "n_local", "n_ghost", "n_remote",
        "local_idx", "local_rows", "local_offsets",
        "ghost_idx", "ghost_rows", "ghost_slots",
        "remote_idx", "remote_addr", "remote_offsets", "remote_keys", "bounds",
        "dest_runs",
        "_weight_cache", "nbytes",
    )

    def __init__(self, csr: "LocalCsr", lo: int, hi: int, ghost_ok: bool,
                 machine_index: int, num_machines: int):
        starts = csr.starts
        self.lo, self.hi = lo, hi
        self.es, self.ee = int(starts[lo]), int(starts[hi])
        self.n_nodes = hi - lo
        self.degrees = np.diff(starts[lo:hi + 1])
        # Index arrays are int32 whenever the CSR allows: plans are the
        # engine's largest long-lived host structure.
        idx = np.int32 if csr.num_edges < 2 ** 31 else np.int64
        rows = np.repeat(np.arange(lo, hi, dtype=idx), self.degrees)
        self.rows = rows
        self.n_edges = len(rows)

        owners = csr.nbr_owner[self.es:self.ee]
        offsets = csr.nbr_offset[self.es:self.ee]
        gslots = csr.nbr_ghost_slot[self.es:self.ee]

        is_local = owners == machine_index
        if ghost_ok:
            is_ghost = (~is_local) & (gslots >= 0)
        else:
            is_ghost = np.zeros(self.n_edges, dtype=bool)
        is_remote = ~(is_local | is_ghost)
        self.is_local, self.is_ghost, self.is_remote = is_local, is_ghost, is_remote

        self.local_idx = np.flatnonzero(is_local).astype(idx)
        self.ghost_idx = np.flatnonzero(is_ghost).astype(idx)
        rem = np.flatnonzero(is_remote).astype(idx)
        self.n_local = len(self.local_idx)
        self.n_ghost = len(self.ghost_idx)
        self.n_remote = len(rem)

        self.local_rows = rows[self.local_idx]
        self.local_offsets = offsets[self.local_idx].astype(idx)
        self.ghost_rows = rows[self.ghost_idx]
        self.ghost_slots = gslots[self.ghost_idx].astype(idx)

        # Stable owner sort: identical permutation to sorting the remote
        # subset directly, so buffered request order (and therefore every
        # downstream message and reduction) matches the uncached path.
        order = np.argsort(owners[rem], kind="stable")
        self.remote_idx = rem[order]
        remote_owners = owners[self.remote_idx]
        #: (target offset, provenance key) rows of the remote edges; the
        #: key is the local CSR edge index.  One array, so a buffered write
        #: carries both with a single concatenation.
        self.remote_addr = np.empty((2, self.n_remote), dtype=idx)
        self.remote_offsets, self.remote_keys = self.remote_addr
        np.take(offsets, self.remote_idx, out=self.remote_offsets)
        np.add(self.remote_idx, self.es, out=self.remote_keys)
        self.bounds = np.searchsorted(remote_owners,
                                      np.arange(num_machines + 1))
        # NXgraph-style destination-sorted sub-chunks: one pre-sliced
        # (dst, b0, b1, addr) run per *non-empty* destination, so a cached
        # chunk execution appends exactly one fused batch per destination
        # without scanning all machines or re-slicing the invariant arrays.
        # The views alias remote_addr.
        runs = []
        for dst in range(num_machines):
            b0, b1 = int(self.bounds[dst]), int(self.bounds[dst + 1])
            if b1 > b0:
                runs.append((dst, b0, b1, self.remote_addr[:, b0:b1]))
        self.dest_runs = tuple(runs)

        self._weight_cache: dict = {}
        self.nbytes = sum(
            getattr(self, name).nbytes for name in (
                "degrees", "rows", "is_local", "is_ghost", "is_remote",
                "local_idx", "local_rows", "local_offsets",
                "ghost_idx", "ghost_rows", "ghost_slots",
                "remote_idx", "remote_addr", "bounds"))

    def weight_split(self, key, edge_data: np.ndarray):
        """Per-class subsets ``(local, ghost, remote-sorted)`` of one edge
        data column, memoized under ``key`` (the spec's edge-prop name, or
        ``None`` for the weight column)."""
        entry = self._weight_cache.get(key)
        if entry is None:
            w = edge_data[self.es:self.ee]
            entry = (w[self.local_idx], w[self.ghost_idx], w[self.remote_idx])
            self._weight_cache[key] = entry
            self.nbytes += sum(a.nbytes for a in entry)
        return entry


class RoutingPlanCache:
    """Per-machine memo of :class:`ChunkPlan` objects.

    Keyed by ``(iter direction, lo, hi, ghost_ok)`` — a machine has exactly
    one immutable CSR per direction, and the ghost masks additionally depend
    on whether the accessed property participates in the job's ghost
    read/write set.  ``max_bytes`` is a soft cap: plans past it are built
    but not retained (counted under ``rejected``).
    """

    __slots__ = ("_plans", "hits", "misses", "rejected", "evicted", "nbytes",
                 "max_bytes")

    def __init__(self, max_bytes: int = 1 << 30):
        self._plans: dict[tuple, ChunkPlan] = {}
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.evicted = 0
        self.nbytes = 0
        self.max_bytes = max_bytes

    def lookup(self, csr: "LocalCsr", direction: str, lo: int, hi: int,
               ghost_ok: bool, machine_index: int,
               num_machines: int) -> tuple[ChunkPlan, bool]:
        """The plan for one chunk, built and (capacity permitting) retained
        on first use.  Returns ``(plan, was_cache_hit)``."""
        key = (direction, lo, hi, bool(ghost_ok))
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan, True
        self.misses += 1
        plan = ChunkPlan(csr, lo, hi, ghost_ok, machine_index, num_machines)
        if self.nbytes + plan.nbytes <= self.max_bytes:
            self._plans[key] = plan
            self.nbytes += plan.nbytes
        else:
            self.rejected += 1
        return plan, False

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def evict_chunks(self, direction: str, chunks: list) -> int:
        """Drop the plans of a streamed window that left DRAM.

        Out-of-core mode keys plan residency to window residency: a plan
        holds views into the window's CSR slice, so once the window is
        evicted its plans go too (both ghost_ok variants).  Returns the
        number of plans dropped.  Purely host-side bookkeeping — the next
        superstep rebuilds the plan when the window streams back in.
        """
        dropped = 0
        for lo, hi in chunks:
            for ghost_ok in (False, True):
                plan = self._plans.pop((direction, lo, hi, ghost_ok), None)
                if plan is not None:
                    self.nbytes -= plan.nbytes
                    dropped += 1
        self.evicted += dropped
        return dropped

    def clear(self) -> None:
        self._plans.clear()
        self.nbytes = 0


# ---------------------------------------------------------------------------
# Provenance-ordered staged apply (the determinism invariant of jobrunner).
# ---------------------------------------------------------------------------

#: Bit position of the source machine in a WRITE_REQ's provenance key as
#: the staged apply sees it: ``(source machine << PROVENANCE_SHIFT) +
#: source-side CSR edge index``, so keys order by (source machine,
#: source-side edge rank).  On the wire a write carries only the edge
#: index; the receiver adds the message's source.
PROVENANCE_SHIFT = 40


class StageSlots:
    """Slot map of one machine's remote edges for one (CSR direction, ghost
    visibility): where every read response of a full superstep lands.

    A read response is keyed by the requester's CSR edge index, and CSR
    edges are row-major, so key order *is* (row, provenance) order.  When a
    superstep answers every remote edge (an unfiltered edge map), the
    contributions scatter by key into edge space, one gather over
    ``edges`` compacts them into slot order, and the row segments are the
    cached ``seg_id``/``seg_rows`` — no sort.  Built lazily, in O(edges).
    """

    __slots__ = ("n_edges", "edges", "seg_id", "seg_rows")

    def __init__(self, csr: "LocalCsr", ghost_ok: bool, machine_index: int):
        remote = csr.nbr_owner != machine_index
        if ghost_ok:
            remote &= csr.nbr_ghost_slot < 0
        self.n_edges = csr.num_edges
        self.edges = np.flatnonzero(remote)
        self.seg_id, self.seg_rows = _segments(
            edge_rows(csr.starts, self.edges))


def edge_rows(starts: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The CSR row of each (local) edge index."""
    return np.searchsorted(starts, edges, side="right") - 1


def canonical_apply(op, target: np.ndarray, keys: np.ndarray,
                    vals: np.ndarray, rows: Optional[np.ndarray] = None,
                    slots: Optional[StageSlots] = None,
                    buf: Optional[np.ndarray] = None) -> None:
    """Reduce staged contributions into ``target`` in provenance order.

    ``keys`` are the contributions' provenance keys, ``rows`` their target
    rows.  ``rows=None`` means a full superstep of read responses: ``slots``
    covers every key and ``buf`` is an edge-space scratch buffer of
    ``slots.n_edges`` elements.  The reduction rule per target row, with
    c1..ck its contributions in ascending key order:

    - SUM: ``target += ((0 + c1) + c2) + ... + ck`` — reduce, then add once;
    - MIN/MAX/AND/OR: ``target = op(...op(op(target, c1), c2)..., ck)``;
    - OVERWRITE: the highest-provenance contribution ``ck`` wins.

    Groups whose result cannot depend on the order — integer/bool values,
    AND/OR, and MIN/MAX without NaN or -0.0 — apply directly, unordered.
    """
    if rows is None:
        buf[keys] = vals
        vals = buf[slots.edges]
        seg_id, seg_rows = slots.seg_id, slots.seg_rows
    elif _order_free(op, vals):
        op.apply_at(target, rows, vals)
        return
    else:
        order = np.lexsort((keys, rows))
        seg_id, seg_rows = _segments(rows[order])
        vals = vals[order]
    if op is ReduceOp.SUM:
        acc = np.zeros(len(seg_rows), dtype=vals.dtype)
        np.add.at(acc, seg_id, vals)
        target[seg_rows] += acc
    else:
        op.apply_at(target, seg_rows[seg_id], vals)


def _order_free(op, vals: np.ndarray) -> bool:
    """Whether reducing ``vals`` in any order gives the same bits."""
    if op is ReduceOp.OVERWRITE:
        return False
    if op in (ReduceOp.AND, ReduceOp.OR) or vals.dtype.kind != "f":
        return True
    if op is ReduceOp.SUM:
        return False
    if not len(vals):
        return True
    lo, hi = vals.min(), vals.max()
    if lo != lo:  # NaN: min() propagates it
        return False
    # Equal-comparing values with different bits are the only other
    # hazard: -0.0 vs +0.0 ties.
    return lo > 0 or hi < 0 or not np.signbit(vals[vals == 0]).any()


def _segments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(segment id per element, row per segment)`` of a row-sorted
    stream."""
    new = np.empty(len(rows), dtype=bool)
    new[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=new[1:])
    return np.cumsum(new) - 1, rows[new]
