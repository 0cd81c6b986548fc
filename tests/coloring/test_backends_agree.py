"""Cross-checks against the reference colourings: ``edge_coloring``,
the textbook recursive Euler construction and the repeated-matching
oracles all produce proper König colourings on the same graphs
(Figure 5's existence claim, constructively)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import edge_coloring, euler_split
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from tests.coloring.hopcroft_karp import (
    hopcroft_karp_coloring,
    matching_coloring,
)


def _split_coloring(graph: RegularBipartiteMultigraph) -> np.ndarray:
    """Textbook Euler construction for a power-of-two degree: split
    once, recurse on each half as a graph of its own."""
    if graph.degree <= 1:
        return np.zeros(graph.num_edges, dtype=np.int64)
    half = euler_split(graph)
    colors = np.empty(graph.num_edges, dtype=np.int64)
    for take, base in ((half, 0), (~half, graph.degree // 2)):
        sub = RegularBipartiteMultigraph(
            graph.left[take], graph.right[take],
            graph.num_left, graph.num_right,
        )
        colors[take] = base + _split_coloring(sub)
    return colors


#: ``edge_coloring`` (Euler splits plus the odd step's matchings) and
#: the three oracles, by name; "euler" needs a power-of-two degree.
COLOURINGS = {
    "euler": _split_coloring,
    "hybrid": edge_coloring,
    "hopcroft-karp": hopcroft_karp_coloring,
    "matching": matching_coloring,
}


def _random_regular(nodes: int, degree: int, seed: int):
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    return RegularBipartiteMultigraph(left, right, nodes, nodes)


@pytest.mark.parametrize("backend", sorted(COLOURINGS))
@pytest.mark.parametrize("degree", [1, 2, 4, 8])
def test_power_of_two_degrees_all_backends(backend, degree):
    g = _random_regular(6, degree, seed=degree)
    colors = COLOURINGS[backend](g)
    verify_edge_coloring(g, colors, expect_colors=degree)


@pytest.mark.parametrize("degree", [3, 5, 6, 7])
def test_general_degrees_matching_backends(degree):
    g = _random_regular(5, degree, seed=degree)
    for backend in ("hybrid", "hopcroft-karp", "matching"):
        colors = COLOURINGS[backend](g)
        verify_edge_coloring(g, colors, expect_colors=degree)


def test_auto_dispatch():
    g_pow2 = _random_regular(4, 4, seed=0)
    verify_edge_coloring(g_pow2, edge_coloring(g_pow2), expect_colors=4)
    g_odd = _random_regular(4, 3, seed=0)
    verify_edge_coloring(g_odd, edge_coloring(g_odd), expect_colors=3)


def test_figure5_example_shape():
    """Figure 5: a degree-4 regular bipartite graph is 4-colourable with
    each colour class a perfect matching."""
    g = _random_regular(4, 4, seed=55)
    colors = edge_coloring(g)
    for c in range(4):
        mask = colors == c
        assert mask.sum() == 4
        assert np.array_equal(np.sort(g.left[mask]), np.arange(4))
        assert np.array_equal(np.sort(g.right[mask]), np.arange(4))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1, 2, 4, 8]),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_euler_and_matching_agree_on_validity(nodes, degree, seed):
    g = _random_regular(nodes, degree, seed)
    for backend in ("euler", "hybrid", "matching"):
        colors = COLOURINGS[backend](g)
        verify_edge_coloring(g, colors, expect_colors=degree)
