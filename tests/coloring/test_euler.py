"""Tests for the Euler split and the colouring built on it."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coloring.euler import edge_coloring, euler_split
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from repro.errors import ColoringError


def _random_regular(nodes: int, degree: int, seed: int):
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    return RegularBipartiteMultigraph(left, right, nodes, nodes)


class TestEulerSplit:
    def test_split_halves_are_regular(self):
        g = _random_regular(6, 4, seed=0)
        half = euler_split(g)
        for take in (half, ~half):
            sub = RegularBipartiteMultigraph(
                g.left[take], g.right[take], g.num_left, g.num_right
            )
            assert sub.degree == 2

    def test_rejects_odd_degree(self):
        g = _random_regular(4, 3, seed=1)
        with pytest.raises(ColoringError):
            euler_split(g)

    def test_parallel_edges(self):
        # Two nodes, all four edges parallel in pairs.
        g = RegularBipartiteMultigraph.from_edges(
            [0, 0, 1, 1], [0, 0, 1, 1], 2, 2
        )
        half = euler_split(g)
        assert half.sum() == 2  # exactly half the edges

    def test_empty(self):
        g = RegularBipartiteMultigraph(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
        )
        assert euler_split(g).size == 0

    @given(
        st.integers(min_value=1, max_value=10),
        st.sampled_from([2, 4, 6, 8]),
        st.integers(min_value=0, max_value=1000),
    )
    def test_property_split_balance(self, nodes, degree, seed):
        g = _random_regular(nodes, degree, seed)
        half = euler_split(g)
        for take in (half, ~half):
            left_deg = np.bincount(g.left[take], minlength=nodes)
            right_deg = np.bincount(g.right[take], minlength=nodes)
            assert np.all(left_deg == degree // 2)
            assert np.all(right_deg == degree // 2)


class TestEulerColoring:
    def test_degree_one(self):
        g = _random_regular(5, 1, seed=2)
        colors = edge_coloring(g)
        assert np.all(colors == 0)

    def test_proper_and_exact_color_count(self):
        for degree in (1, 2, 4, 8, 16):
            g = _random_regular(7, degree, seed=degree)
            colors = edge_coloring(g)
            verify_edge_coloring(g, colors, expect_colors=degree)

    def test_color_classes_are_perfect_matchings(self):
        g = _random_regular(8, 4, seed=9)
        colors = edge_coloring(g)
        for c in range(4):
            mask = colors == c
            assert np.array_equal(np.sort(g.left[mask]), np.arange(8))
            assert np.array_equal(np.sort(g.right[mask]), np.arange(8))

    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1, 2, 4, 8]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_always_proper(self, nodes, degree, seed):
        g = _random_regular(nodes, degree, seed)
        colors = edge_coloring(g)
        verify_edge_coloring(g, colors, expect_colors=degree)
