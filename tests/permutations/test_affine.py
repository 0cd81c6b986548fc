"""Tests for the GF(2)-affine permutation detector."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.permutations.affine import AffineMap, detect_affine
from repro.permutations.families import (
    block_swap,
    butterfly,
    gray_code,
    reversal,
    rotation,
    stride,
    tiled_transpose,
    unshuffle,
)
from repro.permutations.named import (
    bit_reversal,
    identical,
    random_permutation,
    shuffle,
    transpose_permutation,
)
from repro.permutations.networks import hypercube_step, torus_shift
from repro.util.validation import is_permutation

_N = 1 << 12

AFFINE = {
    "identical": identical(_N),
    "bit-reversal": bit_reversal(_N),
    "transpose": transpose_permutation(_N),
    "shuffle": shuffle(_N),
    "unshuffle": unshuffle(_N),
    "butterfly": butterfly(_N, 7),
    "gray-code": gray_code(_N),
    "reversal": reversal(_N),
    "block-swap": block_swap(_N, 32),
    "tiled-transpose": tiled_transpose(_N, 8),
    "hypercube-step": hypercube_step(_N, 5),
}

NOT_AFFINE = {
    "rotation": rotation(_N, 3),
    "odd-stride": stride(_N, 3),
    "torus-shift": torus_shift(_N, 1, 1),
    "random": random_permutation(_N, seed=0),
}


@pytest.mark.parametrize("name", sorted(AFFINE))
def test_accepts_affine_families(name):
    p = AFFINE[name]
    affine = detect_affine(p)
    assert affine is not None
    assert affine.n == _N
    assert affine.offset == int(p[0])
    assert np.array_equal(affine.index_map(), p)


@pytest.mark.parametrize("name", sorted(NOT_AFFINE))
def test_rejects_non_affine_families(name):
    assert detect_affine(NOT_AFFINE[name]) is None


@pytest.mark.parametrize("n", [0, 3, 12, 48, 1000])
def test_rejects_non_power_of_two(n):
    assert detect_affine(reversal(n)) is None
    assert detect_affine(np.arange(n)) is None


def test_rejects_non_vector():
    assert detect_affine(np.int64(0)) is None
    assert detect_affine(np.zeros((2, 4), dtype=np.int64)) is None


def test_single_element_is_affine():
    affine = detect_affine(np.array([0]))
    assert affine == AffineMap((), 0)
    assert np.array_equal(affine.index_map(), [0])


def test_rejects_map_that_only_agrees_on_powers_of_two():
    # Every index read to build (A, c) — 0 and each 2^k — keeps its
    # image; only indices 3 and 5 trade theirs.
    p = bit_reversal(_N).copy()
    p[3], p[5] = p[5], p[3]
    assert detect_affine(p) is None
    # The same trade at the very end, in the last doubling block.
    q = bit_reversal(_N).copy()
    q[_N - 1], q[_N - 2] = q[_N - 2], q[_N - 1]
    assert detect_affine(q) is None


@st.composite
def affine_maps(draw):
    """A random invertible A (identity columns mixed by column
    additions, then shuffled) and a random offset c."""
    bits = draw(st.integers(min_value=1, max_value=10))
    columns = [1 << k for k in range(bits)]
    pairs = st.tuples(
        st.integers(0, bits - 1), st.integers(0, bits - 1)
    )
    for i, j in draw(st.lists(pairs, max_size=4 * bits)):
        if i != j:
            columns[i] ^= columns[j]
    columns = draw(st.permutations(columns))
    offset = draw(st.integers(0, (1 << bits) - 1))
    return AffineMap(tuple(columns), offset)


@given(affine_maps())
def test_detects_random_invertible_maps(affine):
    p = affine.index_map()
    assert is_permutation(p)
    assert detect_affine(p) == affine


class TestAlgebra:
    """The map helpers agree with the same operation on index arrays."""

    @given(affine_maps(), st.data())
    def test_compose(self, outer, data):
        bits = len(outer.columns)
        inner = data.draw(affine_maps().filter(
            lambda q: len(q.columns) == bits))
        assert np.array_equal(outer.compose(inner).index_map(),
                              outer.index_map()[inner.index_map()])

    @given(affine_maps())
    def test_inverse(self, affine):
        inverse = affine.inverse()
        assert inverse is not None
        p = affine.index_map()
        assert np.array_equal(inverse.index_map()[p], np.arange(affine.n))

    def test_singular_or_out_of_domain_map_has_no_inverse(self):
        assert AffineMap((1, 1), 0).inverse() is None
        assert AffineMap((1, 4), 0).inverse() is None
        assert AffineMap((1, 2), 4).inverse() is None
        assert AffineMap((1, 2), -1).inverse() is None

    @given(affine_maps(), affine_maps(), st.integers(0, 1023),
           st.integers(-3, 3))
    def test_xor_and_bits(self, a, b, mask, shift):
        if len(a.columns) != len(b.columns):
            with pytest.raises(ValueError):
                a ^ b
            return
        p, q = a.index_map(), b.index_map()
        assert np.array_equal((a ^ b).index_map(), p ^ q)
        moved = p & mask
        moved = moved >> shift if shift >= 0 else moved << -shift
        assert np.array_equal(a.bits(mask, shift).index_map(), moved)

    @given(affine_maps())
    def test_fixed_points(self, affine):
        p = affine.index_map()
        assert affine.fixed_points() == int(
            np.count_nonzero(p == np.arange(affine.n)))

    def test_index_map_in_a_narrow_dtype(self):
        affine = detect_affine(bit_reversal(256))
        narrow = affine.index_map(np.uint8)
        assert narrow.dtype == np.uint8
        assert np.array_equal(narrow, bit_reversal(256))

    def test_call_and_identity(self):
        affine = detect_affine(transpose_permutation(16))
        assert [affine(i) for i in range(16)] == list(
            transpose_permutation(16))
        assert AffineMap.identity(3).index_map().tolist() == list(range(8))
        with pytest.raises(ValueError):
            affine(16)


def test_narrow_arrays_are_detected_in_their_own_dtype():
    p = bit_reversal(256)
    assert detect_affine(p.astype(np.uint8)) == detect_affine(p)
    assert detect_affine(p.astype(np.float64)) is None
