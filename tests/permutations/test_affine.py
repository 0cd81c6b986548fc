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
