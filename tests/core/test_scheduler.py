"""Tests for the global three-step decomposition (Section VII)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.scheduler import decompose
from repro.errors import SchedulingError, SizeError
from repro.permutations.named import (
    bit_reversal,
    identical,
    random_permutation,
    shuffle,
    transpose_permutation,
)
from tests.conftest import permutations_st


class TestDecompose:
    def test_identity(self):
        d = decompose(identical(16))
        d.route(identical(16))
        # Step 2 of the identity decomposition never moves rows: along
        # the actual routing, delta[gamma1[r, c], r] == r.
        m = 4
        i = np.arange(16)
        col1 = d.gamma1[i // m, i % m]
        row2 = d.delta[col1, i // m]
        assert np.array_equal(row2, i // m)

    @pytest.mark.parametrize(
        "perm_fn",
        [identical, shuffle, bit_reversal, transpose_permutation,
         lambda n: random_permutation(n, seed=11)],
    )
    def test_named_permutations_route_correctly(self, perm_fn):
        p = perm_fn(256)
        d = decompose(p)
        d.route(p)   # raises on any mismatch

    def test_all_parts_are_row_permutations(self):
        p = random_permutation(64, seed=1)
        d = decompose(p)
        m = 8
        for arr in (d.gamma1, d.delta, d.gamma3):
            assert arr.shape == (m, m)
            assert np.array_equal(
                np.sort(arr, axis=1), np.tile(np.arange(m), (m, 1))
            )

    def test_colors_proper_within_rows(self):
        p = random_permutation(144, seed=2)
        d = decompose(p)
        m = 12
        colors = d.colors.reshape(m, m)
        # Each source row sees every colour exactly once.
        assert np.array_equal(
            np.sort(colors, axis=1), np.tile(np.arange(m), (m, 1))
        )
        # Each destination row sees every colour exactly once.
        dst_rows = (p // m).reshape(m, m)
        seen = np.zeros((m, m), dtype=int)
        np.add.at(seen, (dst_rows.reshape(-1), d.colors), 1)
        assert np.all(seen == 1)

    def test_rejects_non_square(self):
        with pytest.raises(SizeError):
            decompose(np.arange(8))

    def test_route_detects_corruption(self):
        p = random_permutation(64, seed=3)
        d = decompose(p)
        q = p.copy()
        q[0], q[1] = q[1], q[0]
        with pytest.raises(SchedulingError):
            d.route(q)

    def test_empty(self):
        d = decompose(np.empty(0, dtype=np.int64))
        assert d.m == 0

    def test_matching_backend(self):
        p = random_permutation(81, seed=4)   # m = 9: not a power of two
        d = decompose(p)
        d.route(p)

    @settings(deadline=None, max_examples=40)
    @given(permutations_st(require_square=True))
    def test_property_decomposition_routes_any_permutation(self, p):
        d = decompose(p)
        d.route(p)

    @settings(deadline=None, max_examples=20)
    @given(permutations_st(require_square=True))
    def test_property_steps_compose_to_p(self, p):
        """Apply the three steps to actual data and compare with the
        reference scatter."""
        d = decompose(p)
        m = d.m
        mat = np.random.default_rng(0).random((m, m)) if m else np.zeros((0, 0))
        rows = np.arange(m)[:, None]
        step1 = np.empty_like(mat)
        step1[rows, d.gamma1] = mat
        step2 = np.empty_like(mat)
        for k in range(m):
            step2[d.delta[k], k] = step1[:, k]
        step3 = np.empty_like(mat)
        step3[rows, d.gamma3] = step2
        expected = np.empty(m * m)
        expected[p] = mat.reshape(-1)
        assert np.array_equal(step3.reshape(-1), expected)
