"""Property tests of the level-synchronous Euler split kernel.

One kernel, ``_split_levels``, backs ``euler_split`` (one level) and
``edge_coloring`` (every even level of the degree).  Any balanced split is valid, so the tests check
invariants: every subgraph of every level is regular, every colouring
verifies, and the early-exit orbit labelling equals the full one.  A
pure-Python closed-trail walk, the textbook Euler split, is kept here
as the reference the kernel is compared against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.euler import (
    _orbit_minima,
    _split_levels,
    edge_coloring,
    euler_split,
)
from repro.coloring.multigraph import RegularBipartiteMultigraph
from repro.coloring.verify import verify_edge_coloring
from repro.core.scheduler import decompose
from repro.permutations import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)


def _random_regular(nodes, degree, seed):
    rng = np.random.default_rng(seed)
    left = np.tile(np.arange(nodes, dtype=np.int64), degree)
    right = np.concatenate(
        [rng.permutation(nodes).astype(np.int64) for _ in range(degree)]
    )
    return left, right, nodes


def _assert_levels_regular(left, right, nodes, degree, levels):
    """Every prefix class after ``levels`` splits is regular."""
    sub = _split_levels(left, right, nodes, degree, levels)
    assert sub.shape == left.shape
    assert sub.min() >= 0 and sub.max() < 2**levels
    for prefix in range(2**levels):
        take = sub == prefix
        for ends in (left, right):
            assert np.all(np.bincount(ends[take], minlength=nodes)
                          == degree >> levels)


def _full_doubling(tau):
    """Min-label pointer doubling with the fixed ``bit_length(E)`` steps."""
    labels = np.arange(tau.shape[0])
    hop = tau.copy()
    for _ in range(max(1, tau.shape[0].bit_length())):
        labels = np.minimum(labels, labels[hop])
        hop = hop[hop]
    return labels


def _trail_walk(left, right, nodes):
    """Reference split: walk closed trails, edges traversed left to
    right form the first half."""
    adjacent = [[] for _ in range(2 * nodes)]
    for e, (u, v) in enumerate(zip(left.tolist(), right.tolist())):
        adjacent[u].append(e)
        adjacent[nodes + v].append(e)
    used = [False] * left.shape[0]
    half = np.zeros(left.shape[0], dtype=bool)
    for start in range(2 * nodes):
        while adjacent[start]:
            node = start
            # Every other node keeps an even unused degree, so the
            # trail can only get stuck back at ``start``.
            while adjacent[node]:
                e = adjacent[node].pop()
                if used[e]:
                    continue
                used[e] = True
                if node < nodes:
                    half[e] = True
                    node = nodes + int(right[e])
                else:
                    node = int(left[e])
    return half


def _kernel_split(left, right, nodes):
    return _split_levels(left, right, nodes, left.shape[0] // nodes, 1) == 0


def _assert_balanced(left, right, nodes, degree, half):
    for take in (half, ~half):
        assert np.all(np.bincount(left[take], minlength=nodes) == degree // 2)
        assert np.all(np.bincount(right[take], minlength=nodes) == degree // 2)


@pytest.mark.parametrize("impl", [_kernel_split, _trail_walk],
                         ids=["vectorized", "walk"])
class TestBothImplementations:
    def test_balanced_on_random_regular(self, impl):
        for nodes, degree, seed in ((10, 4, 0), (64, 8, 1), (3, 2, 2),
                                    (5, 6, 3), (7, 10, 4)):
            left, right, n = _random_regular(nodes, degree, seed)
            _assert_balanced(left, right, n, degree, impl(left, right, n))

    def test_parallel_edges(self, impl):
        left = np.array([0, 0, 1, 1], dtype=np.int64)
        right = np.array([0, 0, 1, 1], dtype=np.int64)
        _assert_balanced(left, right, 2, 2, impl(left, right, 2))

    def test_two_cycle(self, impl):
        # A single pair of parallel edges: one per half.
        zeros = np.zeros(2, dtype=np.int64)
        assert impl(zeros, zeros, 1).sum() == 1

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([2, 4, 6, 8]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_balance(self, impl, nodes, degree, seed):
        left, right, n = _random_regular(nodes, degree, seed)
        _assert_balanced(left, right, n, degree, impl(left, right, n))


class TestSplitKernel:
    def test_every_level_regular(self):
        for nodes, degree, levels, seed in ((9, 8, 3, 0), (16, 12, 2, 1),
                                            (33, 64, 6, 2)):
            left, right, n = _random_regular(nodes, degree, seed)
            _assert_levels_regular(left, right, n, degree, levels)

    def test_all_parallel_edges(self):
        # One node pair joined by 2**5 parallel edges: every colour once.
        g = RegularBipartiteMultigraph.from_edges([0] * 32, [0] * 32, 1, 1)
        colors = edge_coloring(g)
        assert np.array_equal(np.sort(colors), np.arange(32))

    def test_many_degree_two_components(self):
        # 500 disjoint cycles on 1..4 nodes per side (1 node: a pair of
        # parallel edges), edges shuffled so no component is contiguous.
        left, right, base = [], [], 0
        for c in range(500):
            ring = base + np.arange(1 + c % 4)
            left += [ring, ring]
            right += [ring, np.roll(ring, 1)]
            base += ring.shape[0]
        perm = np.random.default_rng(11).permutation(2 * base)
        g = RegularBipartiteMultigraph.from_edges(
            np.concatenate(left)[perm], np.concatenate(right)[perm],
            base, base,
        )
        assert g.degree == 2
        half = euler_split(g)
        for take in (half, ~half):
            assert np.array_equal(np.sort(g.left[take]), np.arange(base))
            assert np.array_equal(np.sort(g.right[take]), np.arange(base))

    def test_first_split_is_top_colour_bit(self):
        left, right, n = _random_regular(12, 8, seed=5)
        g = RegularBipartiteMultigraph(left, right, n, n)
        colors = edge_coloring(g)
        assert np.array_equal(colors < 4, euler_split(g))

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from([2, 4, 6, 8, 12, 16]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_property_every_level_regular(self, nodes, degree, seed):
        left, right, n = _random_regular(nodes, degree, seed)
        levels = (degree & -degree).bit_length() - 1
        _assert_levels_regular(left, right, n, degree, levels)


class TestColouring:
    @pytest.mark.parametrize("log_degree", range(10))
    def test_proper_for_power_of_two_degrees(self, log_degree):
        degree = 1 << log_degree
        # Degree 2**9 on 128 nodes is E = 2**16 edges.
        nodes = 128 if degree >= 128 else 37
        left, right, n = _random_regular(nodes, degree, seed=log_degree)
        g = RegularBipartiteMultigraph(left, right, n, n)
        verify_edge_coloring(g, edge_coloring(g),
                             expect_colors=degree)

    @pytest.mark.parametrize("family", ["bit-reversal", "transpose",
                                        "random"])
    def test_paper_graphs_proper(self, family):
        """The global row multigraph (Section VII) and the stacked
        per-row bank multigraph (Section VI) of each family, n = 2**16."""
        n, m, width = 1 << 16, 256, 16
        p = {
            "bit-reversal": lambda: bit_reversal(n),
            "transpose": lambda: transpose_permutation(n),
            "random": lambda: random_permutation(n, seed=3),
        }[family]()
        i = np.arange(n, dtype=np.int64)
        glob = RegularBipartiteMultigraph.from_edges(i // m, p // m, m, m)
        verify_edge_coloring(glob, edge_coloring(glob),
                             expect_colors=m)
        steps = decompose(p)
        offset = (np.arange(m, dtype=np.int64) * width)[:, None]
        banks = (offset + (np.arange(m) % width)[None, :]).reshape(-1)
        for gamma in (steps.gamma1, steps.gamma3):
            rows = RegularBipartiteMultigraph.from_edges(
                banks, (offset + gamma % width).reshape(-1),
                m * width, m * width,
            )
            verify_edge_coloring(rows, edge_coloring(rows),
                                 expect_colors=m // width)

    @pytest.mark.parametrize("degree", [3, 5, 6, 10, 12, 20, 24])
    def test_hybrid_non_power_of_two(self, degree):
        left, right, n = _random_regular(29, degree, seed=degree)
        g = RegularBipartiteMultigraph(left, right, n, n)
        verify_edge_coloring(g, edge_coloring(g), expect_colors=degree)


class TestOrbitMinima:
    @staticmethod
    def _labels(tau):
        tau = tau.astype(np.int32)
        labels = np.arange(tau.shape[0], dtype=np.int32)
        scratch = [np.empty_like(tau) for _ in range(2)]
        steps = _orbit_minima(tau.copy(), labels, *scratch)
        return labels, steps

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 1000, 4097])
    def test_early_exit_equals_full_doubling(self, size):
        rng = np.random.default_rng(size)
        identity = np.arange(size)
        one_cycle = np.roll(identity, 1)
        pairs = identity ^ 1 if size % 2 == 0 else identity
        for tau in (rng.permutation(size), identity, one_cycle, pairs):
            labels, steps = self._labels(tau)
            assert np.array_equal(labels, _full_doubling(tau))
            assert steps <= size.bit_length() + 1

    def test_short_orbits_stop_early(self):
        tau = np.arange(1 << 14) ^ 1     # 2**13 two-element orbits
        labels, steps = self._labels(tau)
        assert np.array_equal(labels, _full_doubling(tau))
        assert steps == 2

    @settings(deadline=None, max_examples=60)
    @given(st.permutations(list(range(23))))
    def test_property_equals_full_doubling(self, tau):
        tau = np.array(tau)
        assert np.array_equal(self._labels(tau)[0], _full_doubling(tau))


class TestLargeGraphPath:
    def test_vectorized_path_used_and_coloring_proper(self):
        left, right, n = _random_regular(256, 16, seed=7)
        graph = RegularBipartiteMultigraph(left, right, n, n)
        colors = edge_coloring(graph)
        verify_edge_coloring(graph, colors, expect_colors=16)

    def test_vectorized_equals_walk_on_structure(self):
        """A single cycle through 16 + 16 nodes has exactly two balanced
        splits, its two alternate edge classes: kernel and walk must
        pick the same one, up to which half comes first."""
        nodes = 16
        ring = np.arange(nodes, dtype=np.int64)
        left = np.concatenate([ring, ring])
        right = np.concatenate([ring, np.roll(ring, 1)])
        perm = np.random.default_rng(3).permutation(2 * nodes)
        left, right = left[perm], right[perm]
        half = _kernel_split(left, right, nodes)
        walk = _trail_walk(left, right, nodes)
        assert np.array_equal(half, walk) or np.array_equal(half, ~walk)
        for take in (half, ~half):
            assert np.array_equal(np.sort(left[take]), ring)

    def test_node_ids_wider_than_16_bits(self):
        # 70000 nodes per side: ranks come from the wide stable sort.
        left, right, n = _random_regular(70_000, 4, seed=8)
        graph = RegularBipartiteMultigraph(left, right, n, n)
        verify_edge_coloring(graph, edge_coloring(graph),
                             expect_colors=4)
