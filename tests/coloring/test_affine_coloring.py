"""Closed-form König colourings of GF(2)-affine permutations.

An affine ``p`` (bit reversal, transpose, any ``A·i ⊕ c``) is planned
without the Euler split: the global row multigraph and every stacked
bank multigraph get ``colour(i) = C·i`` from
:func:`repro.coloring.affine.affine_colour_map`.  These tests check that
those colourings are proper, that the plans still certify 32 rounds and
denote ``p``, that only non-affine permutations reach the split, and
that refusing a non-affine map reads a few entries, never all of them.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import RegularBipartiteMultigraph
from repro.coloring.affine import affine_colour_map
from repro.coloring.verify import verify_edge_coloring
from repro.core import rowwise, scheduler
from repro.core.rowwise import _affine_rows
from repro.core.scheduled import ScheduledPermutation
from repro.errors import ColoringError
from repro.permutations.affine import (
    AffineMap,
    detect_affine,
    detect_affine_blocks,
)
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.staticcheck.certifier import certify_plan
from repro.staticcheck.semantics import denote_program


@st.composite
def invertible_maps(draw, min_half_bits=2, max_half_bits=6):
    """An affine bijection on ``n = 4**k`` indices: seeded random
    columns, redrawn until they are independent."""
    bits = 2 * draw(st.integers(min_half_bits, max_half_bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        columns = [int(c) for c in rng.integers(1, 1 << bits, size=bits)]
        if _rank(columns) == bits:
            break
    offset = draw(st.integers(0, (1 << bits) - 1))
    return AffineMap(tuple(columns), offset)


def _rank(columns):
    pivots = {}
    for column in columns:
        while column and column.bit_length() in pivots:
            column ^= pivots[column.bit_length()]
        if column:
            pivots[column.bit_length()] = column
    return len(pivots)


def _bank_graph(gamma, width):
    """The stacked bank multigraph of ``RowwiseSchedule.plan``."""
    rows, m = gamma.shape
    offset = (np.arange(rows, dtype=np.int64) * width)[:, None]
    left = (offset + np.arange(m) % width).reshape(-1)
    right = (offset + gamma % width).reshape(-1)
    return RegularBipartiteMultigraph(left, right, rows * width,
                                      rows * width)


def _count_colourings(monkeypatch):
    """Record every Euler colouring the planner runs: a graph coloured
    by ``edge_coloring`` (the NumPy route) or a fused call of the split
    kernel (``split_rows``, ``split_global``)."""
    calls = []
    for module, name in ((scheduler, "edge_coloring"),
                         (rowwise, "edge_coloring"),
                         (scheduler, "split_global"),
                         (rowwise, "split_rows")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


class TestClosedFormPlans:
    @settings(deadline=None, max_examples=30)
    @given(invertible_maps())
    def test_property_colourings_proper_and_plan_certified(self, q):
        p = q.index_map()
        n = q.n
        m = 1 << (len(q.columns) // 2)
        i = np.arange(n, dtype=np.int64)
        with mock.patch.object(scheduler, "edge_coloring") as euler_global, \
                mock.patch.object(rowwise, "edge_coloring") as euler_banks, \
                mock.patch.object(scheduler, "split_global") as fused_global, \
                mock.patch.object(rowwise, "split_rows") as fused_banks:
            for width in (1 << k for k in range(m.bit_length())):
                plan = ScheduledPermutation.plan(p, width=width)
                colors = plan.decomposition.colors
                verify_edge_coloring(
                    RegularBipartiteMultigraph(i // m, p // m, m, m),
                    colors, expect_colors=m,
                )
                for step in (plan.step1, plan.step2.rowwise, plan.step3):
                    verify_edge_coloring(
                        _bank_graph(step.gamma, width),
                        step.s.astype(np.int64).reshape(-1) // width,
                        expect_colors=m // width,
                    )
                cert = certify_plan(plan)
                assert cert.ok and cert.num_rounds == 32
                den = denote_program(plan.lower())
                assert den.ok and np.array_equal(den.index_map, p)
        assert euler_global.call_count == euler_banks.call_count == 0
        assert fused_global.call_count == fused_banks.call_count == 0

    @pytest.mark.parametrize("n", [1 << 12, 1 << 14])
    @pytest.mark.parametrize("family, expected", [
        (bit_reversal, 0),
        (transpose_permutation, 0),
        (lambda n: random_permutation(n, seed=7), 4),
    ], ids=["bit-reversal", "transpose", "random"])
    def test_euler_split_runs_only_for_non_affine(self, family, expected,
                                                  n, monkeypatch,
                                                  colouring_route):
        calls = _count_colourings(monkeypatch)
        ScheduledPermutation.plan(family(n), width=8)
        assert len(calls) == expected
        assert set(calls) <= ({"split_global", "split_rows"}
                              if colouring_route == "native"
                              else {"edge_coloring"})

    def test_side_not_a_power_of_two_takes_the_split(self, monkeypatch):
        """m = 96: no index has a bit structure, so all four graphs are
        Euler-coloured, and no degree is a power of two, so by
        ``edge_coloring``."""
        calls = _count_colourings(monkeypatch)
        p = np.arange(96 * 96, dtype=np.int64)[::-1].copy()
        plan = ScheduledPermutation.plan(p, width=8)
        assert calls == ["edge_coloring"] * 4
        assert certify_plan(plan).ok

    def test_inverse_plan_is_closed_form_too(self, monkeypatch):
        plan = ScheduledPermutation.plan(bit_reversal(4096), width=8)
        calls = _count_colourings(monkeypatch)
        inverse = plan.inverse()
        assert calls == []
        assert certify_plan(inverse).ok


def affine_coloring(q, left_mask, right_mask):
    return affine_colour_map(q, left_mask, right_mask).index_map()


class TestAffineColoring:
    def test_bit_reversal_global_colour_is_row_xor_column(self):
        q = detect_affine(bit_reversal(256))
        colors = affine_coloring(q, 0xF0, 0xF0)
        i = np.arange(256)
        assert np.array_equal(colors, (i >> 4) ^ (i & 15))

    def test_singular_map_is_refused(self):
        # q(i) = i & 0b01: every right node of the high bit is empty.
        q = AffineMap((1, 0), 0)
        with pytest.raises(ColoringError, match="not regular"):
            affine_coloring(q, 0b10, 0b10)

    @pytest.mark.parametrize("mask", [0, 0b1111])
    def test_one_colour_or_one_edge_per_node(self, mask):
        q = detect_affine(bit_reversal(16))
        colors = affine_coloring(q, mask, mask)
        expected = np.zeros(16) if mask else np.arange(16)
        assert np.array_equal(np.sort(colors), np.sort(expected))

    def test_empty_index_space(self):
        assert np.array_equal(affine_coloring(AffineMap((), 0), 0, 0),
                              np.zeros(1))


class _CountingReader:
    """A block reader over an array that counts the entries it hands
    out."""

    def __init__(self, values):
        self.values = values
        self.read = 0

    def __call__(self, lo, hi):
        self.read += hi - lo
        return self.values[lo:hi]


class TestRejectingIsCheap:
    N = 1 << 20

    @pytest.mark.parametrize("seed", range(5))
    def test_random_map_is_refused_after_a_few_entries(self, seed):
        reader = _CountingReader(random_permutation(self.N, seed=seed))
        assert detect_affine_blocks(reader, self.N) is None
        assert reader.read <= 8

    def test_affine_map_is_read_about_twice(self):
        reader = _CountingReader(bit_reversal(self.N))
        assert detect_affine_blocks(reader, self.N) is not None
        assert reader.read == 2 * self.N - 1

    def test_no_n_length_array_is_built(self):
        p = random_permutation(self.N, seed=1)
        gamma = p.reshape(1024, 1024) % 1024
        tracemalloc.start()
        try:
            assert detect_affine(p) is None
            assert _affine_rows(gamma, 32) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
