"""Dynamic graphs with snapshot-based analytics (Section 6.2, last bullet).

The paper's final outlook item: support constantly-changing graphs by
running continuous pattern matching on updates "while keeping its ability to
perform classical computational analytics by using snapshots of these graphs
for algorithms which do not support graph updates."

This module provides exactly that split:

* :class:`DynamicGraph` — a mutable edge set absorbing batched insertions
  and deletions, versioned by epoch;
* ``snapshot()`` — an immutable :class:`repro.graph.csr.Graph` built from
  the current state, loadable into a cluster for any Table 2 algorithm;
* :class:`ContinuousPatternMonitor` — re-evaluates a registered pattern
  against each update batch, reporting only the *new* matches introduced by
  the batch (a selectivity-style incremental check: every new match must use
  at least one inserted edge, so the search is seeded from the batch rather
  than re-scanning the graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional

import numpy as np

from .graph.csr import Graph, from_sorted_edges
from .patterns import Pattern, PatternMatcher
from .core.engine import PgxdCluster


@dataclass(frozen=True)
class UpdateBatch:
    """One applied batch of edge changes."""

    epoch: int
    inserted: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]


class DynamicGraph:
    """A mutable directed multigraph with epoch-stamped batched updates.

    The edge multiset is one sorted int64 key array, ``u * num_nodes + v``
    (CSR out-edge order, duplicates adjacent): a batch applies as a
    vectorized merge, and :meth:`snapshot` assembles the CSR from it.
    """

    def __init__(self, num_nodes: int,
                 edges: Optional[Iterable[tuple[int, int]]] = None):
        self.num_nodes = num_nodes
        self._keys = np.sort(self._pack(edges or ()))
        self.epoch = 0
        self._pending_inserts: list[tuple[int, int]] = []
        self._pending_removes: list[tuple[int, int]] = []
        self.history: list[UpdateBatch] = []

    # -- mutation -----------------------------------------------------------

    def _check(self, u: int, v: int) -> None:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")

    def _pack(self, edges: Iterable[tuple[int, int]]) -> np.ndarray:
        """The keys of ``(u, v)`` edges, range-checked (an out-of-range
        edge's key would alias another edge's)."""
        pairs = np.fromiter(chain.from_iterable(edges),
                            dtype=np.int64).reshape(-1, 2)
        bad = ((pairs < 0) | (pairs >= self.num_nodes)).any(axis=1)
        if bad.any():
            self._check(*pairs[np.argmax(bad)].tolist())
        return pairs[:, 0] * self.num_nodes + pairs[:, 1]

    def add_edge(self, u: int, v: int) -> None:
        self._check(u, v)
        self._pending_inserts.append((u, v))

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u, v)
        self._pending_removes.append((u, v))

    def apply_updates(self) -> UpdateBatch:
        """Apply the pending changes as one atomic batch; bumps the epoch.

        Removals are checked against the pre-batch multiset, copies
        counted, before anything changes: a batch removing an edge more
        often than it has copies raises ``KeyError`` and changes nothing.
        Cost: O(batch * log E) search plus one O(E) copy.
        """
        keys = self._keys
        removes = np.sort(self._pack(self._pending_removes))
        # the k-th removal of a key takes the k-th copy of it
        pos = (np.searchsorted(keys, removes) + np.arange(len(removes))
               - np.searchsorted(removes, removes))
        short = pos >= np.searchsorted(keys, removes, side="right")
        if short.any():
            e = divmod(int(removes[np.argmax(short)]), self.num_nodes)
            raise KeyError(f"cannot remove edge {e}: the batch removes it "
                           "more often than it was present")
        keys = np.delete(keys, pos)
        inserts = np.sort(self._pack(self._pending_inserts))
        self._keys = np.insert(keys, np.searchsorted(keys, inserts), inserts)
        self.epoch += 1
        batch = UpdateBatch(self.epoch, tuple(self._pending_inserts),
                            tuple(self._pending_removes))
        self._pending_inserts.clear()
        self._pending_removes.clear()
        self.history.append(batch)
        return batch

    # -- inspection -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._keys)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        key = u * self.num_nodes + v
        return bool(np.searchsorted(self._keys, key, side="right")
                    > np.searchsorted(self._keys, key))

    def edge_list(self) -> list[tuple[int, int]]:
        src, dst = np.divmod(self._keys, self.num_nodes)
        return list(zip(src.tolist(), dst.tolist()))

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, weight_fn: Optional[Callable] = None) -> Graph:
        """Immutable CSR snapshot of the current epoch (for classical
        analytics, as the paper prescribes), weighted by ``weight_fn(src,
        dst)`` if given.  Equals ``from_edges`` of :meth:`edge_list`."""
        src, dst = np.divmod(self._keys, self.num_nodes)
        weights = None if weight_fn is None else weight_fn(src, dst)
        return from_sorted_edges(src, dst, self.num_nodes, weights)


class ContinuousPatternMonitor:
    """Continuous pattern detection over a :class:`DynamicGraph`.

    After each applied batch, reports the matches that did not exist before
    the batch.  New matches must involve at least one inserted edge, so the
    check matches against the post-update snapshot and filters to rows using
    a batch edge — far cheaper than diffing full result sets when batches are
    small, which is the streaming regime the cited continuous-matching work
    targets.
    """

    def __init__(self, dynamic: DynamicGraph, pattern: Pattern,
                 cluster_factory=None):
        self.dynamic = dynamic
        self.pattern = pattern
        self._cluster_factory = cluster_factory or (lambda: PgxdCluster())
        self._pattern_edges = [(s, d) for s, d in pattern.edges]
        self._name_pos = {v.name: i for i, v in enumerate(pattern.vertices)}
        self._known: set[tuple[int, ...]] = set()
        self.prime()

    def _all_matches(self) -> set[tuple[int, ...]]:
        snap = self.dynamic.snapshot()
        cluster = self._cluster_factory()
        dg = cluster.load_graph(snap)
        result = PatternMatcher(cluster, dg).find(self.pattern)
        return {tuple(int(x) for x in row) for row in result.matches}

    def prime(self) -> int:
        """(Re)baseline the known-match set; returns its size."""
        self._known = self._all_matches()
        return len(self._known)

    def _row_edges(self, row: tuple[int, ...]):
        """The concrete (u, v) edges a match row binds the pattern edges to."""
        for s, d in self._pattern_edges:
            yield (row[self._name_pos[s]], row[self._name_pos[d]])

    def _uses_batch_edge(self, row: tuple[int, ...],
                         batch: UpdateBatch) -> bool:
        inserted = set(batch.inserted)
        return any(e in inserted for e in self._row_edges(row))

    def on_batch(self, batch: UpdateBatch) -> dict[str, list[tuple[int, ...]]]:
        """Process one applied batch; returns {'appeared': [...],
        'disappeared': [...]} match tuples.

        Truly incremental in both directions: matching is monotone in the
        edge set, so a known match can only disappear when one of its
        bound edges drops out of the graph entirely — a removal that still
        leaves a multigraph copy behind keeps the match.  Remove-only
        batches therefore never rescan; they drop exactly the known
        matches bound to a vanished edge, so no stale match is observable
        at the next epoch.  New matches must use at least one inserted
        edge, so the rescan runs only when the batch inserted something.
        """
        gone = {e for e in set(batch.removed)
                if not self.dynamic.has_edge(*e)}
        if batch.inserted:
            current = self._all_matches()
            appeared = current - self._known
            disappeared = self._known - current
            # Invariant of incremental matching: every appearing match
            # uses an inserted edge (checked, not assumed).
            for row in appeared:
                assert self._uses_batch_edge(row, batch)
            self._known = current
        else:
            appeared = set()
            disappeared = {row for row in self._known
                           if any(e in gone for e in self._row_edges(row))}
            self._known -= disappeared
        return {"appeared": sorted(appeared),
                "disappeared": sorted(disappeared)}
