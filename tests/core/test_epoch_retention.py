"""Finished scheduler tickets must not keep superseded epochs alive.

A completed :class:`~repro.core.scheduler.JobTicket` stays in the ticket
log for its identity, times and stats; if it also kept its graph and
execution, every epoch a mutation trickle superseded would stay resident.
"""

import gc
import weakref

import numpy as np

from repro import ClusterConfig, PgxdCluster, rmat
from repro.core.incremental import IncrementalEngine, hash_weights
from repro.dynamic import DynamicGraph
from repro.query import apply_spec
from repro.server import PgxdServer

N = 400


def test_trickle_keeps_only_pinned_and_current_epochs():
    g = rmat(N, 2400, seed=3)
    src = np.repeat(np.arange(N), np.diff(g.out_starts))
    dyn = DynamicGraph(N, list(zip(src.tolist(), g.out_nbrs.tolist())))
    cluster = PgxdCluster(ClusterConfig(num_machines=4))
    server = PgxdServer(cluster)
    server.enable_cache()
    engine = IncrementalEngine(cluster, dyn, weight_fn=hash_weights(seed=1))
    session = server.create_session("reader")
    pinned = engine.pin()
    session.attach_graph("g", pinned)
    engine.sssp(0)
    engine.wcc()
    engine.pagerank()
    epochs = [weakref.ref(pinned)]
    rng = np.random.default_rng(0)
    for _ in range(5):
        apply_spec(session.query("g"), ("count", 2, 0))
        apply_spec(session.query("g"), ("top", 1, 5))
        for _ in range(4):
            dyn.add_edge(*map(int, rng.integers(0, N, 2)))
        engine.mutate(session="mutator")
        engine.sssp(0)
        engine.wcc()
        engine.pagerank()
        session.attach_graph("g", engine.pin())
        epochs.append(weakref.ref(engine.pin()))
    gc.collect()
    alive = [i for i, ref in enumerate(epochs) if ref() is not None]
    assert alive == [0, 5]
    # the finished tickets still carry what callers read from them
    done = [t for t in cluster.scheduler.tickets if t.state == "done"]
    assert done and all(t.stats is not None and t.finish_time is not None
                        and t.dgraph is None and t.execution is None
                        for t in done)
