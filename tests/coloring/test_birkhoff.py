"""The König colouring as a Birkhoff–von Neumann decomposition.

The count matrix ``C[u][v]`` of a ``D``-regular bipartite multigraph
has every row and column sum ``D``; each colour class of a proper
``D``-colouring is one permutation matrix, and the ``D`` of them sum to
``C`` (docs/theory.md, section 2).  These tests build graphs from count
matrices, often with heavy multiplicities, and read the decomposition
back off :func:`repro.coloring.edge_coloring`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.errors import ColoringError


def _graph(counts) -> RegularBipartiteMultigraph:
    """The multigraph with ``counts[u, v]`` parallel ``u -> v`` edges."""
    counts = np.asarray(counts, dtype=np.int64)
    u, v = np.nonzero(counts)
    reps = counts[u, v]
    return RegularBipartiteMultigraph(
        np.repeat(u, reps), np.repeat(v, reps), *counts.shape
    )


def _decompose(counts) -> list[np.ndarray]:
    """Colour the graph of ``counts``; one permutation per colour."""
    g = _graph(counts)
    colors = edge_coloring(g)
    perms = []
    for c in range(g.degree):
        take = colors == c
        perm = np.full(g.num_left, -1, dtype=np.int64)
        perm[g.left[take]] = g.right[take]
        assert np.array_equal(np.sort(perm), np.arange(g.num_left))
        perms.append(perm)
    return perms


def _recompose(perms, size) -> np.ndarray:
    counts = np.zeros((size, size), dtype=np.int64)
    for perm in perms:
        counts[np.arange(size), perm] += 1
    return counts


def test_permutation_matrix_is_single_term():
    # 3 * P: degree 3 with every edge tripled, so each of the three
    # colour classes (one from the odd step's matching) must be P.
    counts = np.array([[0, 3, 0], [0, 0, 3], [3, 0, 0]])
    perms = _decompose(counts)
    assert len(perms) == 3
    for perm in perms:
        assert np.array_equal(perm, [1, 2, 0])


def test_exact_reconstruction():
    counts = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    perms = _decompose(counts)
    assert np.array_equal(_recompose(perms, 3), counts)
    assert len(perms) == 4


def test_rejects_unbalanced():
    with pytest.raises(ColoringError):
        _graph(np.array([[1, 0], [1, 1]]))


def test_rejects_non_square():
    with pytest.raises(ColoringError):
        _graph(np.ones((2, 3), dtype=int))


def test_empty():
    assert _decompose(np.zeros((0, 0), dtype=int)) == []


def test_zero_matrix():
    assert _decompose(np.zeros((3, 3), dtype=int)) == []


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_reconstruction(size, degree, seed):
    rng = np.random.default_rng(seed)
    counts = np.zeros((size, size), dtype=np.int64)
    for _ in range(degree):
        counts[np.arange(size), rng.permutation(size)] += 1
    perms = _decompose(counts)
    assert len(perms) == degree
    assert np.array_equal(_recompose(perms, size), counts)
