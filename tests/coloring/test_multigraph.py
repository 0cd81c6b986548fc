"""Tests for the regular bipartite multigraph representation."""

import numpy as np
import pytest
from hypothesis import given

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import NotRegularError, SizeError
from tests.conftest import regular_multigraphs_st


class TestConstruction:
    def test_simple(self):
        g = RegularBipartiteMultigraph.from_edges([0, 1], [1, 0])
        assert g.degree == 1
        assert g.num_edges == 2

    def test_parallel_edges(self):
        g = RegularBipartiteMultigraph.from_edges([0, 0], [0, 0], 1, 1)
        assert g.degree == 2

    def test_rejects_irregular(self):
        with pytest.raises(NotRegularError):
            RegularBipartiteMultigraph.from_edges([0, 0], [0, 1], 1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(SizeError):
            RegularBipartiteMultigraph([0, 5], [0, 1], 2, 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SizeError):
            RegularBipartiteMultigraph([0, 1], [0], 2, 2)

    def test_empty_graph(self):
        g = RegularBipartiteMultigraph(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
        )
        assert g.degree == 0
        assert g.num_edges == 0


@given(regular_multigraphs_st())
def test_property_regularity_detected(g):
    degrees_left = np.bincount(g.left, minlength=g.num_left)
    assert np.all(degrees_left == g.degree)
    degrees_right = np.bincount(g.right, minlength=g.num_right)
    assert np.all(degrees_right == g.degree)
