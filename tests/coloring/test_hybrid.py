"""Tests of ``edge_coloring`` on degrees with an odd factor: Euler
splits down to the odd part, then the odd step peels perfect
matchings off the stacked subgraphs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.coloring import edge_coloring
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from repro.errors import ColoringError


def _random_regular(nodes, degree, seed):
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    return RegularBipartiteMultigraph(left, right, nodes, nodes)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8, 12, 48])
def test_all_degrees_proper(degree):
    g = _random_regular(6, degree, seed=degree)
    colors = edge_coloring(g)
    verify_edge_coloring(g, colors, expect_colors=degree)


def test_empty():
    g = RegularBipartiteMultigraph(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0, 0
    )
    assert edge_coloring(g).size == 0


def test_parallel_edges():
    g = RegularBipartiteMultigraph.from_edges(
        [0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0], 2, 2
    )
    colors = edge_coloring(g)
    verify_edge_coloring(g, colors, expect_colors=3)


def test_rejects_unequal_sides():
    # A non-empty regular bipartite multigraph cannot have unequal
    # sides, so the representation itself rejects it (NotRegularError
    # is a ColoringError).
    with pytest.raises(ColoringError):
        RegularBipartiteMultigraph.from_edges([0, 1], [0, 1], 2, 3)


def test_auto_uses_hybrid_for_odd_degrees():
    g = _random_regular(5, 3, seed=0)
    colors = edge_coloring(g)
    verify_edge_coloring(g, colors, expect_colors=3)


def test_large_mixed_degree():
    """Degree 48 = 16 * 3: four Euler levels, then one matching on
    the stacked degree-3 graph and one more split."""
    g = _random_regular(64, 48, seed=1)
    colors = edge_coloring(g)
    verify_edge_coloring(g, colors, expect_colors=48)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_any_degree_proper(nodes, degree, seed):
    g = _random_regular(nodes, degree, seed)
    colors = edge_coloring(g)
    verify_edge_coloring(g, colors, expect_colors=degree)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_property_odd_factor_degrees(nodes, odd, log_even, seed):
    """Degree ``odd * 2**log_even`` on few nodes (so many parallel
    edges): exactly ``degree`` colours, every class a perfect matching."""
    degree = odd << log_even
    g = _random_regular(nodes, degree, seed)
    colors = edge_coloring(g)
    verify_edge_coloring(g, colors, expect_colors=degree)
    assert np.array_equal(np.bincount(colors, minlength=degree),
                          np.full(degree, nodes))


def test_scipy_imported_only_by_the_odd_step():
    """Importing the CLI and planner, and colouring a power-of-two
    degree, leave scipy unloaded; the first odd degree loads it."""
    script = (
        "import sys\n"
        "import repro.cli, repro.planner\n"
        "from repro.coloring import RegularBipartiteMultigraph, "
        "edge_coloring\n"
        "loaded = lambda: 'scipy' in sys.modules\n"
        "assert not loaded(), 'scipy loaded on import'\n"
        "edge_coloring(RegularBipartiteMultigraph.from_edges("
        "[0, 0, 1, 1], [0, 1, 0, 1]))\n"
        "assert not loaded(), 'scipy loaded by a power-of-two degree'\n"
        "edge_coloring(RegularBipartiteMultigraph.from_edges("
        "[0, 0, 0], [0, 0, 0]))\n"
        "assert loaded()\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
