"""Tests for the proper-colouring verifier."""

import numpy as np
import pytest

from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import is_proper_edge_coloring, verify_edge_coloring
from repro.errors import ColoringError


def _k22():
    # Complete bipartite K_{2,2}: degree 2.
    return RegularBipartiteMultigraph.from_edges(
        [0, 0, 1, 1], [0, 1, 0, 1], 2, 2
    )


def test_accepts_proper():
    g = _k22()
    colors = np.array([0, 1, 1, 0])
    assert is_proper_edge_coloring(g, colors)
    verify_edge_coloring(g, colors, expect_colors=2)


def test_rejects_shared_left_node():
    g = _k22()
    colors = np.array([0, 0, 1, 1])  # node u0 sees colour 0 twice
    assert not is_proper_edge_coloring(g, colors)
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, colors)


def test_rejects_shared_right_node():
    g = _k22()
    colors = np.array([0, 1, 0, 1])  # node v0 sees colour 0 twice
    assert not is_proper_edge_coloring(g, colors)


def test_rejects_too_many_colors():
    g = _k22()
    colors = np.array([0, 1, 2, 3])  # proper but uses 4 colours
    assert is_proper_edge_coloring(g, colors)
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, colors, expect_colors=2)


def test_rejects_colour_equal_to_expect_colors():
    # Proper, and only two distinct colours: colour 2 alone is out of
    # range for expect_colors=2.
    g = _k22()
    colors = np.array([0, 2, 2, 0])
    assert is_proper_edge_coloring(g, colors)
    with pytest.raises(ColoringError, match="expected at most 2"):
        verify_edge_coloring(g, colors, expect_colors=2)


def test_rejects_negative_color():
    g = _k22()
    assert not is_proper_edge_coloring(g, np.array([-1, 0, 0, 1]))


def test_rejects_wrong_length():
    g = _k22()
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, np.array([0, 1]))


def test_empty_graph_ok():
    g = RegularBipartiteMultigraph(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
    )
    verify_edge_coloring(g, np.empty(0, dtype=np.int64), expect_colors=0)


# ---------------------------------------------------------------------------
# Edge cases: degenerate sizes, non-square graphs, duplicate edges
# ---------------------------------------------------------------------------


def test_single_node_single_edge():
    # n = 1: one node per side, one edge, one colour.
    g = RegularBipartiteMultigraph.from_edges([0], [0], 1, 1)
    verify_edge_coloring(g, np.array([0]), expect_colors=1)
    assert not is_proper_edge_coloring(g, np.array([1, 0]))  # wrong len
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, np.array([1]), expect_colors=1)


def test_width_one_star_of_loops():
    # w = 1 analogue: a 1-regular graph on m nodes per side is a
    # plain perfect matching; the single colour class must cover it.
    m = 5
    g = RegularBipartiteMultigraph.from_edges(
        np.arange(m), np.roll(np.arange(m), 2), m, m
    )
    verify_edge_coloring(g, np.zeros(m, dtype=np.int64), expect_colors=1)
    bad = np.zeros(m, dtype=np.int64)
    bad[3] = 1
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, bad, expect_colors=1)


def test_non_square_sides():
    # A d-regular bipartite graph forces equal side sizes for d > 0,
    # so rectangular inputs (as a padded planner would produce before
    # squaring) must be rejected rather than silently mis-coloured.
    from repro.errors import NotRegularError

    with pytest.raises(NotRegularError):
        RegularBipartiteMultigraph.from_edges([0, 0, 1, 1], [0, 1, 1, 2], 2, 3)
    # Degree 0 is the only regular rectangular case.
    g = RegularBipartiteMultigraph(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 2, 3
    )
    verify_edge_coloring(g, np.empty(0, dtype=np.int64), expect_colors=0)


def test_duplicate_edge_multigraph():
    # Two parallel edges between the same node pair (a fixed point of
    # the permutation routed twice) MUST get distinct colours.
    g = RegularBipartiteMultigraph.from_edges(
        [0, 0, 1, 1], [1, 1, 0, 0], 2, 2
    )
    verify_edge_coloring(g, np.array([0, 1, 0, 1]), expect_colors=2)
    with pytest.raises(ColoringError):
        verify_edge_coloring(g, np.array([0, 0, 1, 1]), expect_colors=2)


def test_all_parallel_edges():
    # Degree-3 dipole: three parallel edges need three distinct colours.
    g = RegularBipartiteMultigraph.from_edges([0, 0, 0], [0, 0, 0], 1, 1)
    verify_edge_coloring(g, np.array([0, 1, 2]), expect_colors=3)
    assert not is_proper_edge_coloring(g, np.array([0, 1, 1]))


def test_decomposition_colouring_edge_cases():
    # Every legal decomposition, the degenerate n = 1 matrix included,
    # routes its permutation with a proper colouring of the row
    # multigraph.
    from repro.core.scheduler import decompose

    for n in (1, 16):
        p = np.arange(n)[::-1].copy()
        d = decompose(p)
        d.route(p)
        m = d.m
        i = np.arange(n)
        graph = RegularBipartiteMultigraph.from_edges(i // m, p // m, m, m)
        verify_edge_coloring(graph, d.colors, expect_colors=m)

    from repro.errors import SchedulingError

    d = decompose(np.arange(16))
    with pytest.raises(SchedulingError):
        d.route(np.arange(4))  # wrong length
