"""CSR construction, degrees, reverse CSR, conversions."""

import numpy as np
import pytest

from repro.graph.csr import Graph, from_edges, from_networkx, from_sorted_edges


class TestFromEdges:
    def test_basic_shape(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_edges == 6

    def test_out_neighbors_sorted(self, tiny_graph):
        assert tiny_graph.out_neighbors(0).tolist() == [1, 4]

    def test_in_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.in_neighbors(3).tolist()) == [2, 4]

    def test_degrees_sum_to_edge_count(self, small_rmat):
        g = small_rmat
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    def test_total_degrees(self, tiny_graph):
        td = tiny_graph.total_degrees()
        assert td[0] == 2  # two out, zero in
        assert td[3] == 3  # two in, one out

    def test_empty_graph(self):
        g = from_edges([], [], num_nodes=5)
        assert g.num_nodes == 5 and g.num_edges == 0
        assert g.out_degrees().tolist() == [0] * 5

    def test_self_loops_kept(self):
        g = from_edges([0, 1], [0, 1], num_nodes=2)
        assert g.num_edges == 2
        assert g.out_neighbors(0).tolist() == [0]

    def test_parallel_edges_kept_by_default(self):
        g = from_edges([0, 0, 0], [1, 1, 1], num_nodes=2)
        assert g.num_edges == 3

    def test_dedup_drops_duplicates(self):
        g = from_edges([0, 0, 1], [1, 1, 0], num_nodes=2, dedup=True)
        assert g.num_edges == 2

    def test_num_nodes_inferred(self):
        g = from_edges([0, 7], [3, 2])
        assert g.num_nodes == 8

    def test_endpoint_exceeding_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            from_edges([0], [5], num_nodes=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            from_edges([-1], [0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            from_edges([0, 1], [2])

    def test_weights_follow_edge_order(self):
        g = from_edges([1, 0, 0], [0, 2, 1], num_nodes=3,
                       weights=[10.0, 20.0, 30.0])
        # sorted by (src, dst): (0,1,w30), (0,2,w20), (1,0,w10)
        assert g.edge_weights.tolist() == [30.0, 20.0, 10.0]

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            from_edges([0], [1], weights=[1.0, 2.0])


class TestReverseCsr:
    def test_in_edge_index_maps_weights(self, tiny_graph):
        g = tiny_graph
        g.edge_weights = np.arange(g.num_edges, dtype=np.float64)
        src, dst = g.edge_list()
        # For every in-edge of every node, the mapped weight must equal the
        # weight of the corresponding out-edge.
        for v in range(g.num_nodes):
            s, e = g.in_starts[v], g.in_starts[v + 1]
            for k in range(s, e):
                out_pos = g.in_edge_index[k]
                assert dst[out_pos] == v
                assert src[out_pos] == g.in_nbrs[k]

    def test_edge_list_round_trip(self, small_rmat):
        src, dst = small_rmat.edge_list()
        g2 = from_edges(src, dst, num_nodes=small_rmat.num_nodes)
        assert np.array_equal(g2.out_starts, small_rmat.out_starts)
        assert np.array_equal(g2.out_nbrs, small_rmat.out_nbrs)
        assert np.array_equal(g2.in_nbrs, small_rmat.in_nbrs)


def reference_csr(src, dst, num_nodes):
    """CSR assembly by two lexsorts and ``np.add.at``: the reference the
    factored assembly in ``from_sorted_edges`` must equal."""
    order = np.lexsort((dst, src))
    src_s, dst_s = src[order], dst[order]
    out_starts = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(out_starts, src_s + 1, 1)
    np.cumsum(out_starts, out=out_starts)
    rorder = np.lexsort((src_s, dst_s))
    in_starts = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(in_starts, dst_s + 1, 1)
    np.cumsum(in_starts, out=in_starts)
    return out_starts, dst_s, in_starts, src_s[rorder], rorder, order


class TestSortedAssembly:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lexsort_reference(self, seed):
        """Random multigraphs with duplicates and self-loops: both the
        factored assembly and ``from_edges`` equal the reference."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 4 * n))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        src[: m // 4] = dst[: m // 4]                       # self-loops
        src = np.concatenate([src, src[: m // 3]])          # duplicates
        dst = np.concatenate([dst, dst[: m // 3]])
        w = rng.random(len(src))
        out_starts, out_nbrs, in_starts, in_nbrs, rorder, order = \
            reference_csr(src, dst, n)
        sorted_g = from_sorted_edges(src[order], dst[order], n, w[order])
        g = from_edges(src, dst, num_nodes=n, weights=w)
        for got in (sorted_g, g):
            assert np.array_equal(got.out_starts, out_starts)
            assert np.array_equal(got.out_nbrs, out_nbrs)
            assert np.array_equal(got.in_starts, in_starts)
            assert np.array_equal(got.in_nbrs, in_nbrs)
            assert np.array_equal(got.in_edge_index, rorder)
            assert got.edge_weights.tobytes() == w[order].tobytes()


class TestNetworkxConversion:
    def test_round_trip_counts(self, small_rmat):
        nxg = small_rmat.to_networkx()
        # networkx collapses parallel edges; compare against dedup'ed graph
        src, dst = small_rmat.edge_list()
        distinct = len(set(zip(src.tolist(), dst.tolist())))
        assert nxg.number_of_edges() == distinct
        assert nxg.number_of_nodes() == small_rmat.num_nodes

    def test_from_networkx(self):
        import networkx as nx

        nxg = nx.DiGraph([(0, 1), (1, 2), (2, 0)])
        g = from_networkx(nxg)
        assert g.num_nodes == 3 and g.num_edges == 3
        assert g.out_neighbors(2).tolist() == [0]

    def test_from_networkx_undirected_doubles(self):
        import networkx as nx

        nxg = nx.Graph([(0, 1)])
        g = from_networkx(nxg)
        assert g.num_edges == 2

    def test_weights_preserved(self, tiny_graph):
        tiny_graph.edge_weights = np.full(tiny_graph.num_edges, 2.5)
        nxg = tiny_graph.to_networkx()
        assert nxg[0][1]["weight"] == 2.5
