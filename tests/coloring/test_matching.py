"""Tests of the reference colouring by repeated perfect matchings
(scipy and pure-Python Hopcroft-Karp), the oracle the other colouring
tests compare :func:`repro.coloring.edge_coloring` against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from tests.coloring.hopcroft_karp import (
    hopcroft_karp_coloring,
    hopcroft_karp_matching,
    matching_coloring,
)
from tests.conftest import regular_multigraphs_st


class TestHopcroftKarp:
    def test_perfect_matching_exists(self):
        adjacency = [[0, 1], [1, 2], [0, 2]]
        match = hopcroft_karp_matching(adjacency, 3)
        assert np.all(match >= 0)
        assert len(set(match.tolist())) == 3

    def test_partial_matching(self):
        # Both left nodes only connect to right node 0.
        adjacency = [[0], [0]]
        match = hopcroft_karp_matching(adjacency, 1)
        assert sorted(match.tolist()) == [-1, 0]

    def test_empty(self):
        assert hopcroft_karp_matching([], 0).size == 0

    def test_maximum_cardinality(self):
        # A graph where greedy matching can be suboptimal: HK must find 3.
        adjacency = [[0, 1], [0], [1, 2]]
        match = hopcroft_karp_matching(adjacency, 3)
        assert np.sum(match >= 0) == 3

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_matches_scipy(self, nodes, seed):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        rng = np.random.default_rng(seed)
        dense = rng.random((nodes, nodes)) < 0.5
        adjacency = [np.nonzero(dense[u])[0].tolist() for u in range(nodes)]
        hk = hopcroft_karp_matching(adjacency, nodes)
        sp = maximum_bipartite_matching(
            csr_matrix(dense), perm_type="column"
        )
        # Same cardinality (matchings themselves may differ).
        assert np.sum(hk >= 0) == np.sum(sp >= 0)


class TestMatchingColoring:
    @pytest.mark.parametrize(
        "coloring", [matching_coloring, hopcroft_karp_coloring]
    )
    def test_proper_on_odd_degree(self, coloring):
        # Degree 3: no Euler split applies.
        rng = np.random.default_rng(0)
        left = np.tile(np.arange(5, dtype=np.int64), 3)
        right = np.concatenate(
            [rng.permutation(5).astype(np.int64) for _ in range(3)]
        )
        g = RegularBipartiteMultigraph(left, right, 5, 5)
        colors = coloring(g)
        verify_edge_coloring(g, colors, expect_colors=3)

    @pytest.mark.parametrize(
        "coloring", [matching_coloring, hopcroft_karp_coloring]
    )
    def test_parallel_edges_get_distinct_colors(self, coloring):
        g = RegularBipartiteMultigraph.from_edges(
            [0, 0, 1, 1], [0, 0, 1, 1], 2, 2
        )
        colors = coloring(g)
        verify_edge_coloring(g, colors, expect_colors=2)
        # The two parallel (0,0) edges must differ.
        assert colors[0] != colors[1]

    def test_empty_graph(self):
        g = RegularBipartiteMultigraph(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
        )
        assert matching_coloring(g).size == 0

    def test_rejects_unequal_sides(self):
        # Unequal sides cannot carry a regular graph with edges, so the
        # smallest colourable case is a perfect matching on equal sides.
        g = RegularBipartiteMultigraph.from_edges([0, 1], [0, 1], 2, 2)
        colors = matching_coloring(g)
        verify_edge_coloring(g, colors, expect_colors=1)

    @settings(deadline=None)
    @given(regular_multigraphs_st())
    def test_property_scipy_backend_proper(self, g):
        colors = matching_coloring(g)
        verify_edge_coloring(g, colors, expect_colors=g.degree)

    @settings(deadline=None, max_examples=30)
    @given(regular_multigraphs_st(max_nodes=6, max_degree=5))
    def test_property_hk_backend_proper(self, g):
        colors = hopcroft_karp_coloring(g)
        verify_edge_coloring(g, colors, expect_colors=g.degree)
