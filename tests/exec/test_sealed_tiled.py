"""The tiled sealed gather: which programs get a layout, and parity of
the tiled path with the definitional scatter ``b[p[i]] = a[i]``."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.exec.sealed import SealedExecutor
from repro.ir.sealed import TILED_MIN_N, SealedProgram
from repro.permutations.families import (
    butterfly,
    gray_code,
    reversal,
    tiled_transpose,
    unshuffle,
)
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    shuffle,
    transpose_permutation,
)

_FAMILIES = {
    "bit-reversal": bit_reversal,
    "transpose": transpose_permutation,
    "shuffle": shuffle,
}
_CASES = [
    ("bit-reversal", 19),
    ("bit-reversal", 20),
    ("shuffle", 19),
    ("shuffle", 20),
    ("transpose", 20),
]
_DTYPES = [np.float32, np.float64, np.int16, np.complex128]


@pytest.fixture(scope="module")
def programs():
    """Seal each case once; only the latest case stays resident."""
    cache: dict = {}

    def get(name, log_n):
        if (name, log_n) not in cache:
            cache.clear()
            p = _FAMILIES[name](1 << log_n)
            cache[name, log_n] = (p, SealedProgram("x", 32, p))
        return cache[name, log_n]

    yield get
    cache.clear()


def _values(size, dtype):
    base = (np.arange(size, dtype=np.int64) * 7919) % 32749
    if np.dtype(dtype).kind == "c":
        return (base + 1j * base[::-1]).astype(dtype)
    return base.astype(dtype)


def _scatter(p, a):
    b = np.empty(a.shape, dtype=a.dtype)
    b[p] = a
    return b


class TestLayoutChoice:
    @pytest.mark.parametrize("name", ["bit-reversal", "transpose"])
    def test_strided_families_are_tiled(self, name):
        assert SealedProgram("x", 32, _FAMILIES[name](1 << 20)).layout

    def test_tiled_transpose_with_small_tiles_is_tiled(self):
        p = tiled_transpose(1 << 20, 2)
        assert SealedProgram("x", 32, p).layout is not None

    @pytest.mark.parametrize("make", [
        lambda n: random_permutation(n, seed=0),
        gray_code,
        shuffle,
        unshuffle,
        lambda n: butterfly(n, 10),
        reversal,
    ], ids=["random", "gray-code", "shuffle", "unshuffle", "butterfly",
            "reversal"])
    def test_line_friendly_maps_keep_the_plain_gather(self, make):
        # Random is not affine; the others read at most a few source
        # lines per output line, which the plain gather already serves.
        assert SealedProgram("x", 32, make(1 << 20)).layout is None

    def test_below_the_threshold_stays_plain(self):
        p = bit_reversal(TILED_MIN_N // 2)
        assert SealedProgram("x", 32, p).layout is None


@pytest.mark.parametrize("dtype", _DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("case", _CASES, ids=lambda c: f"{c[0]}-2^{c[1]}")
class TestTiledParity:
    def test_apply(self, programs, case, dtype):
        p, sealed = programs(*case)
        n = sealed.n
        base = _values(2 * n, dtype)
        for a in (base[:n], base[::2]):  # contiguous, then strided
            out = SealedExecutor().run(sealed, a)
            assert out.dtype == a.dtype
            np.testing.assert_array_equal(out, _scatter(p, a))

    @pytest.mark.parametrize("k", [0, 1, 8])
    def test_apply_batch(self, programs, case, dtype, k):
        p, sealed = programs(*case)
        n = sealed.n
        base = _values(2 * (n + k), dtype)
        # Row r starts r elements later: distinct rows that share one
        # buffer.  The second batch is also strided along each row.
        contiguous = sliding_window_view(base[: n + k], n)[:k]
        strided = sliding_window_view(base[::2], n)[:k]
        for batch in (contiguous, strided):
            out = SealedExecutor().run_batch(sealed, batch)
            assert out.shape == (k, n)
            assert out.dtype == batch.dtype
            for row, out_row in zip(batch, out):
                np.testing.assert_array_equal(out_row, _scatter(p, row))
            del out
