"""Tests for the regular bipartite multigraph representation."""

import numpy as np
import pytest
from hypothesis import given

from repro.coloring import euler
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.errors import ColoringError, NotRegularError, SizeError
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


class TestDeferredChecks:
    """A ``deferred`` graph is checked once, by whichever colouring
    path runs: the compiled split's own checks, or ``check()``."""

    def _graph(self, right, num_nodes=2, degree=2):
        left = np.array([0, 0, 1, 1], dtype=np.int64)
        return RegularBipartiteMultigraph.deferred(
            left, np.array(right, dtype=np.int64), num_nodes, degree
        )

    def test_construction_checks_nothing(self):
        g = self._graph([0, 0, 0, 5])
        assert g.degree == 2 and g.checks_deferred

    @pytest.mark.parametrize("native", [True, False])
    def test_regular_graph_colours_alike(self, native, monkeypatch):
        if native and not euler.NATIVE:
            pytest.skip("no compiled kernel")
        if not native:
            monkeypatch.setattr(euler, "_KERNEL", None)
        checks = []
        real = RegularBipartiteMultigraph.check

        def counting(graph):
            checks.append(graph)
            return real(graph)

        monkeypatch.setattr(RegularBipartiteMultigraph, "check", counting)
        g = self._graph([0, 1, 0, 1])
        colors = euler.edge_coloring(g)
        want = euler.edge_coloring(
            RegularBipartiteMultigraph(g.left, g.right, 2, 2)
        )
        assert np.array_equal(colors, want)
        # The reference graph's constructor is the one check natively.
        assert len(checks) == (1 if native else 2)

    @pytest.mark.parametrize("right, error", [
        ([0, 0, 0, 1], NotRegularError),
        ([0, 1, 0, 5], SizeError),
    ])
    def test_numpy_path_raises_the_constructor_errors(self, right, error,
                                                      monkeypatch):
        monkeypatch.setattr(euler, "_KERNEL", None)
        with pytest.raises(error):
            euler.edge_coloring(self._graph(right))

    def test_numpy_path_refuses_a_wrong_degree(self, monkeypatch):
        monkeypatch.setattr(euler, "_KERNEL", None)
        with pytest.raises(NotRegularError, match="not 4-regular"):
            euler.edge_coloring(self._graph([0, 1, 0, 1], degree=4))

    @pytest.mark.parametrize("degree", [0, 1, 4])
    def test_wrong_degree_is_refused_on_every_path(self, degree):
        """Zero and odd degrees never reach the compiled split, so the
        graph's own check refuses them; 4 is the kernel's shape check."""
        with pytest.raises(ColoringError):
            euler.edge_coloring(self._graph([0, 1, 0, 1], degree=degree))

    @pytest.mark.parametrize("right", [[0, 0, 0, 1], [0, 1, 0, 5]])
    def test_compiled_split_refuses(self, right):
        if not euler.NATIVE:
            pytest.skip("no compiled kernel")
        with pytest.raises(ColoringError):
            euler.edge_coloring(self._graph(right))
