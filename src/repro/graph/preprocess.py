"""Vertex renumbering — the paper's assumed preprocessing step.

Section 3.3: "we assume that the vertices are numbered from 0 to N-1 by a
preprocessing step."  Because PGX.D partitions *consecutive* vertex ranges,
the numbering determines everything downstream: which vertices co-locate,
how balanced the pivots can be, and how much access locality CSR scans see.

Three orderings are provided:

* ``renumber_by_degree`` — hubs first.  Concentrates the heavy vertices in
  one partition (bad for balance, good for demonstrating why edge
  partitioning matters) and groups the hottest property entries (good for
  cache behaviour).
* ``renumber_bfs`` — breadth-first locality order.  Neighbors get nearby
  ids, raising CSR gather locality and lowering crossing-edge counts for
  graphs with community structure.
* ``renumber_random`` — a seeded shuffle; the adversarial baseline.

Each returns (new graph, old-to-new map) so external ids can be translated
both ways.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from .csr import Graph, from_sorted_edges, stable_argsort


def _apply_order(graph: Graph, new_of_old: np.ndarray) -> Graph:
    """Rebuild the graph with vertex v renamed to new_of_old[v]."""
    src, dst = graph.edge_list()
    src, dst = new_of_old[src], new_of_old[dst]
    n = graph.num_nodes
    order = stable_argsort(src * n + dst, n ** 2)
    w = graph.edge_weights
    g2 = from_sorted_edges(src[order], dst[order], n,
                           None if w is None else w[order])
    for name, values in (graph.edge_props or {}).items():
        g2.add_edge_property(name, values[order])
    return g2


def renumber_by_degree(graph: Graph, descending: bool = True
                       ) -> tuple[Graph, np.ndarray]:
    """Renumber so the highest-(total-)degree vertices get the lowest ids."""
    deg = graph.total_degrees()
    order = np.argsort(deg, kind="stable")
    if descending:
        order = order[::-1]
    new_of_old = np.empty(graph.num_nodes, dtype=np.int64)
    new_of_old[order] = np.arange(graph.num_nodes)
    return _apply_order(graph, new_of_old), new_of_old


def renumber_bfs(graph: Graph, root: Optional[int] = None
                 ) -> tuple[Graph, np.ndarray]:
    """Renumber in BFS discovery order (undirected traversal); unreached
    components are seeded from the smallest unvisited id."""
    n = graph.num_nodes
    new_of_old = np.full(n, -1, dtype=np.int64)
    nxt = 0
    start = root if root is not None else 0
    seeds = [start] + [v for v in range(n) if v != start]
    queue: deque[int] = deque()
    for seed in seeds:
        if n == 0:
            break
        if new_of_old[seed] >= 0:
            continue
        queue.append(seed)
        new_of_old[seed] = nxt
        nxt += 1
        while queue:
            v = queue.popleft()
            nbrs = np.concatenate([graph.out_neighbors(v),
                                   graph.in_neighbors(v)])
            for u in np.unique(nbrs):
                if new_of_old[u] < 0:
                    new_of_old[u] = nxt
                    nxt += 1
                    queue.append(int(u))
    return _apply_order(graph, new_of_old), new_of_old


def renumber_random(graph: Graph, seed: int = 0) -> tuple[Graph, np.ndarray]:
    """A seeded random permutation — the worst-case numbering baseline."""
    rng = np.random.default_rng(seed)
    new_of_old = rng.permutation(graph.num_nodes).astype(np.int64)
    return _apply_order(graph, new_of_old), new_of_old


def neighbor_id_distance(graph: Graph) -> float:
    """Mean |src - dst| over all edges, normalized by N — a locality score
    of the current numbering (lower = neighbors have nearer ids = fewer
    crossing edges under range partitioning)."""
    if graph.num_edges == 0 or graph.num_nodes == 0:
        return 0.0
    src, dst = graph.edge_list()
    return float(np.abs(src - dst).mean() / graph.num_nodes)
