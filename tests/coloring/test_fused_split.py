"""The split kernel's fused entry points against the NumPy route.

For a power-of-two degree the planner colours through ``split_rows``
(each row-wise step's bank colouring and its ``s``/``t``) and
``split_global`` (the row multigraph, its colours, ``delta`` and
``gamma3``), one compiled call each.  Otherwise, and without the
kernel, it builds each graph, colours it with ``edge_coloring`` and
scatters the arrays in NumPy.  Both routes must build the same plan,
bit for bit and dtype for dtype; an odd degree must take the NumPy
route; and the kernel must refuse what the NumPy route refuses.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import euler
from repro.core import rowwise, scheduler
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.errors import ColoringError, NotAPermutationError, SchedulingError
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from tests.conftest import plan_arrays, same_arrays

native = pytest.mark.skipif(
    not euler.NATIVE, reason="no compiled kernel: NumPy is the only route"
)

_FAMILIES = {
    "random": lambda n: random_permutation(n, seed=n),
    "bit-reversal": bit_reversal,
    "transpose": transpose_permutation,
}


def _plans(p, widths):
    """The plans of ``p`` at each width on the native route and on the
    NumPy route, as :func:`plan_arrays`.  The affine detection is off,
    so an affine family is coloured by the Euler split too."""
    plans = {}
    with mock.patch.object(scheduler, "detect_affine", return_value=None), \
            mock.patch.object(rowwise, "detect_affine", return_value=None):
        for route in ("native", "numpy"):
            kernel = euler._KERNEL if route == "native" else None
            with mock.patch.object(euler, "_KERNEL", kernel):
                plans[route] = [
                    plan_arrays(ScheduledPermutation.plan(p, width=w))
                    for w in widths
                ]
    return plans


def _count_routes(monkeypatch):
    """Count the graphs ``edge_coloring`` colours for the planner and
    the fused calls it makes instead."""
    calls = {"edge_coloring": 0, "split_rows": 0, "split_global": 0}
    for module, name in ((scheduler, "edge_coloring"),
                         (rowwise, "edge_coloring"),
                         (rowwise, "split_rows"),
                         (scheduler, "split_global")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


@native
class TestSamePlanOnBothRoutes:
    @pytest.mark.parametrize("log_n", [12, 14, 18])
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_plan_bit_identical(self, family, log_n):
        widths = [w for w in (4, 8, 16, 32) if w <= 1 << log_n // 2]
        plans = _plans(_FAMILIES[family](1 << log_n), widths)
        for width, got, want in zip(widths, plans["native"],
                                    plans["numpy"]):
            assert same_arrays(got, want), (family, log_n, width)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_rowwise_bit_identical(self, rows, log_width,
                                            log_degree, seed):
        """Any rows at any width and power-of-two degree, degree 1
        (no split at all) included."""
        width, m = 1 << log_width, 1 << (log_width + log_degree)
        rng = np.random.default_rng(seed)
        gamma = np.stack([rng.permutation(m) for _ in range(rows)])
        got = RowwiseSchedule.plan(gamma, width)
        with mock.patch.object(euler, "_KERNEL", None):
            want = RowwiseSchedule.plan(gamma, width)
        for a, b in ((got.s, want.s), (got.t, want.t)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("width", [3, 5, 12])
    def test_width_not_a_power_of_two(self, width):
        gamma = np.stack([np.random.default_rng(width).permutation(4 * width)
                          for _ in range(3)])
        got = RowwiseSchedule.plan(gamma, width)
        with mock.patch.object(euler, "_KERNEL", None):
            want = RowwiseSchedule.plan(gamma, width)
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.t, want.t)

    def test_32_bit_schedule_entries(self):
        """A row longer than 2**16 stores ``s`` and ``t`` as uint32."""
        gamma = np.random.default_rng(3).permutation(1 << 17)[None]
        got = RowwiseSchedule.plan(gamma, 32)
        assert got.s.dtype == np.uint32
        with mock.patch.object(euler, "_KERNEL", None):
            want = RowwiseSchedule.plan(gamma, 32)
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.t, want.t)

    def test_the_plan_takes_the_fused_calls(self, monkeypatch):
        calls = _count_routes(monkeypatch)
        ScheduledPermutation.plan(random_permutation(1 << 12, seed=1),
                                  width=8)
        assert calls == {"edge_coloring": 0, "split_rows": 3,
                         "split_global": 1}


class TestOddDegreeFallsBack:
    @pytest.mark.parametrize("width", [8, 32])
    def test_m_96_takes_the_numpy_route(self, width, monkeypatch):
        """m = 96: the global degree 96 and the bank degree 12 or 3
        are not powers of two, so all four graphs are coloured by
        ``edge_coloring``, whose odd step the fused calls lack."""
        calls = _count_routes(monkeypatch)
        p = random_permutation(96 * 96, seed=96)
        plan = ScheduledPermutation.plan(p, width=width)
        assert calls == {"edge_coloring": 4, "split_rows": 0,
                         "split_global": 0}
        with mock.patch.object(euler, "_KERNEL", None):
            want = ScheduledPermutation.plan(p, width=width)
        assert same_arrays(plan_arrays(plan), plan_arrays(want))

    def test_no_kernel_takes_the_numpy_route(self, monkeypatch):
        monkeypatch.setattr(euler, "_KERNEL", None)
        calls = _count_routes(monkeypatch)
        ScheduledPermutation.plan(random_permutation(1 << 10, seed=1),
                                  width=8)
        assert calls == {"edge_coloring": 4, "split_rows": 0,
                         "split_global": 0}


class TestRefusals:
    @pytest.mark.parametrize("gamma", [
        [[0, 1, 2, 3], [0, 1, 2, 4]],        # out of range
        [[0, 1, 2, 3], [0, 1, 2, -1]],       # negative
        [[0, 1, 1, 3], [0, 1, 2, 3]],        # a repeated column
        [[0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 2, 3], [3, 2, 1, 2**40]],    # wider than 32 bits
    ])
    def test_rows_that_are_not_permutations(self, gamma, colouring_route):
        with pytest.raises(SchedulingError,
                           match="every row of gamma must be a permutation"):
            RowwiseSchedule.plan(np.array(gamma, dtype=np.int64), width=2)

    def test_a_bad_row_after_good_ones(self, colouring_route):
        gamma = np.tile(np.arange(64, dtype=np.int64), (5, 1))
        gamma[4, 63] = 0
        with pytest.raises(SchedulingError, match="permutation"):
            RowwiseSchedule.plan(gamma, width=8)

    @pytest.mark.parametrize("p", [
        [0, 1, 2, 2],
        [0, 1, 2, 4],
        [-1, 1, 2, 3],
    ])
    def test_plan_refuses_a_bad_p(self, p, colouring_route):
        with pytest.raises(NotAPermutationError):
            ScheduledPermutation.plan(np.array(p), width=2)


@native
class TestKernelChecksItsArguments:
    """The fused calls trust nothing their caller passes."""

    def test_split_global_refuses_an_index_out_of_range(self):
        p = np.arange(16, dtype=np.int64)
        p[3] = 16
        with pytest.raises(ColoringError, match="out of range"):
            euler.split_global(p, 4)
        p[3] = -1
        with pytest.raises(ColoringError, match="out of range"):
            euler.split_global(p, 4)

    def test_split_global_refuses_an_irregular_row_multigraph(self):
        p = np.arange(16, dtype=np.int64)
        p[3] = 4                    # destination row 1 gets five
        with pytest.raises(ColoringError, match="not regular"):
            euler.split_global(p, 4)

    def test_split_global_refuses_a_p_of_the_wrong_length(self):
        with pytest.raises(ColoringError, match="entries"):
            euler.split_global(np.arange(15, dtype=np.int64), 4)

    def test_split_global_refuses_a_side_not_a_power_of_two(self):
        with pytest.raises(ColoringError, match="2\\*\\*levels"):
            euler.split_global(np.arange(36, dtype=np.int64), 6)

    def test_split_rows_refuses_a_degree_not_a_power_of_two(self):
        gamma = np.arange(12, dtype=np.int64)[None]
        with pytest.raises(ColoringError, match="2\\*\\*levels"):
            euler.split_rows(gamma, 4)

    def test_split_rows_accepts_any_integer_dtype(self):
        gamma = np.stack([np.random.default_rng(r).permutation(32)
                          for r in range(4)])
        want = euler.split_rows(gamma.astype(np.int64), 8)
        for dtype in (np.int32, np.uint16):
            got = euler.split_rows(gamma.astype(dtype), 8)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
