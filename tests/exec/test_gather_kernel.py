"""The compiled sealed gather against its NumPy reference.

``SealedExecutor`` runs the C kernel (``_gather.c``) for contiguous,
object-free payloads of at least ``NATIVE_MIN_N`` items and NumPy's
``take`` (plus a strided copy when tiled) otherwise.  Both must write
the same bytes for every dtype, family and batch shape; strided and
object payloads must take NumPy; and an out-of-range index or a
tampered walk must raise ``ValidationError``, never crash.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ir.sealed as ir_sealed
from repro.errors import ValidationError
from repro.exec import sealed as sealed_exec
from repro.exec.sealed import SealedExecutor
from repro.ir.sealed import SealedProgram
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    shuffle,
    transpose_permutation,
)

pytestmark = pytest.mark.skipif(
    not sealed_exec.NATIVE,
    reason="no compiled gather: NumPy is the only path",
)

_DTYPES = [np.int8, np.int16, np.float32, np.float64, np.complex128]


def _rect_transpose(rows, cols):
    """Transpose of a row-major ``rows x cols`` matrix (any power-of-two
    sides, so also non-square ``n`` such as 2^19)."""
    i = np.arange(rows * cols, dtype=np.int64)
    return (i % cols) * rows + i // cols


def _bits(size, dtype, seed):
    """``size`` values of ``dtype`` from random bytes: NaNs, signed
    zeros and every bit pattern included."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.random.default_rng(seed).integers(
        0, 256, size * itemsize, dtype=np.uint8
    )
    return raw.view(dtype)


def _sealed(p, tiled):
    """Seal ``p``; ``tiled`` forces a layout whenever ``p`` is affine,
    whatever its size."""
    if not tiled:
        return SealedProgram("x", 32, p)
    with mock.patch.object(ir_sealed, "TILED_MIN_N", 0), \
            mock.patch.object(ir_sealed, "MIN_ALIASED_LINES", 0):
        return SealedProgram("x", 32, p)


def _assert_native_is_numpy(sealed, payload):
    """Apply through the kernel and through NumPy; same bytes out."""
    run = (SealedExecutor().run if payload.ndim == 1
           else SealedExecutor().run_batch)
    with mock.patch.object(sealed_exec, "NATIVE_MIN_N", 0), \
            mock.patch.object(sealed_exec, "_gather_native",
                              wraps=sealed_exec._gather_native) as kernel:
        got = run(sealed, payload)
    # An empty row's stride is arbitrary, so n = 0 may take either path.
    assert kernel.call_count == 1 or sealed.n == 0
    with mock.patch.object(sealed_exec, "_KERNEL", None):
        want = run(sealed, payload)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


class TestBitIdentical:
    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(_DTYPES),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(["random", "bit-reversal", "shuffle"]),
        st.booleans(),
        st.sampled_from([None, 0, 1, 8]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_equals_numpy(self, dtype, log_n, family, tiled, k,
                                   seed):
        """Small programs, plain or forced tiled, one payload or a
        batch of ``k``."""
        n = (1 << log_n) if log_n else 0
        p = {
            "random": lambda: random_permutation(n, seed=seed),
            "bit-reversal": lambda: bit_reversal(n),
            "shuffle": lambda: shuffle(n),
        }[family]() if n else np.empty(0, dtype=np.int64)
        # A layout reads the gather at 0 and 2^0..2^3: n >= 16.
        sealed = _sealed(p, tiled and n >= 16)
        if k is None:
            payload = _bits(n, dtype, seed)
        else:
            payload = _bits(k * n, dtype, seed).reshape(k, n)
        out = _assert_native_is_numpy(sealed, payload)
        want = np.empty_like(payload)
        want[..., p] = payload
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", _DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("make, tiled", [
        (lambda: random_permutation(1 << 20, seed=3), False),
        (lambda: shuffle(1 << 19), False),
        (lambda: bit_reversal(1 << 19), True),
        (lambda: bit_reversal(1 << 20), True),
        (lambda: _rect_transpose(1 << 9, 1 << 10), True),
        (lambda: transpose_permutation(1 << 20), True),
    ], ids=["random-2^20", "shuffle-2^19", "bit-reversal-2^19",
            "bit-reversal-2^20", "transpose-2^19", "transpose-2^20"])
    def test_full_size_families(self, make, tiled, dtype):
        p = make()
        sealed = SealedProgram("x", 32, p)
        assert (sealed.layout is not None) == tiled
        _assert_native_is_numpy(sealed, _bits(p.shape[0], dtype, seed=1))

    @pytest.mark.parametrize("k", [0, 1, 8])
    def test_full_size_batches(self, k):
        """One kernel call for all ``k`` rows, rows that overlap in one
        buffer included."""
        n = 1 << 19
        sealed = SealedProgram("x", 32, bit_reversal(n))
        assert sealed.layout is not None
        base = _bits(n + k, np.float32, seed=k)
        overlapping = np.lib.stride_tricks.sliding_window_view(base, n)[:k]
        for batch in (_bits(k * n, np.float32, seed=k).reshape(k, n),
                      overlapping):
            out = _assert_native_is_numpy(sealed, batch)
            for row, out_row in zip(batch, out):
                single = SealedExecutor().run(sealed, row.copy())
                assert out_row.tobytes() == single.tobytes()


class TestNumPyKeeps:
    @pytest.fixture
    def sealed(self):
        return SealedProgram(
            "x", 32, random_permutation(sealed_exec.NATIVE_MIN_N, seed=2)
        )

    def _runs_numpy(self, sealed, payload):
        with mock.patch.object(sealed_exec, "_gather_native") as kernel:
            out = (SealedExecutor().run(sealed, payload)
                   if payload.ndim == 1
                   else SealedExecutor().run_batch(sealed, payload))
        assert kernel.call_count == 0
        want = np.empty_like(payload)
        want[..., sealed.scatter] = payload
        assert np.array_equal(out, want)

    def test_strided_payloads(self, sealed):
        n = sealed.n
        base = np.arange(2 * n, dtype=np.float64)
        self._runs_numpy(sealed, base[::2])
        self._runs_numpy(sealed, base.reshape(n, 2).T)

    def test_object_dtype(self, sealed):
        self._runs_numpy(sealed, np.arange(sealed.n).astype(object))

    def test_below_native_min_n(self):
        p = random_permutation(sealed_exec.NATIVE_MIN_N // 2, seed=1)
        self._runs_numpy(SealedProgram("x", 32, p),
                         np.arange(p.shape[0], dtype=np.float32))

    def test_the_kernel_runs_from_native_min_n(self, sealed):
        a = np.arange(sealed.n, dtype=np.float32)
        with mock.patch.object(sealed_exec, "_gather_native",
                               wraps=sealed_exec._gather_native) as kernel:
            SealedExecutor().run(sealed, a)
        assert kernel.call_count == 1


class TestRefuses:
    n = 1 << 16

    def _refused(self, sealed, match, numpy=True):
        """The kernel refuses with ``match``; so does NumPy, unless
        ``numpy`` is false (it wraps a negative index)."""
        a = np.arange(sealed.n, dtype=np.float32)
        with mock.patch.object(sealed_exec, "NATIVE_MIN_N", 0):
            with pytest.raises(ValidationError, match=match):
                SealedExecutor().run(sealed, a)
            with pytest.raises(ValidationError, match=match):
                SealedExecutor().run_batch(sealed, np.stack([a, a]))
        if numpy:
            with mock.patch.object(sealed_exec, "_KERNEL", None):
                for run, payload in ((SealedExecutor().run, a),
                                     (SealedExecutor().run_batch,
                                      np.stack([a, a]))):
                    with pytest.raises(ValidationError):
                        run(sealed, payload)

    @pytest.mark.parametrize("bad", [1 << 16, 1 << 40, -1])
    def test_out_of_range_plain_gather(self, bad):
        sealed = SealedProgram("x", 32, random_permutation(self.n, seed=0))
        gather = sealed.gather.copy()
        gather[12345] = bad
        sealed.gather = gather
        self._refused(sealed, "12345 is outside", numpy=bad >= 0)

    def test_out_of_range_tiled_gather(self):
        sealed = _sealed(bit_reversal(self.n), tiled=True)
        gather = sealed.layout.gather.copy()
        gather[-1] = self.n
        sealed.layout.gather = gather
        self._refused(sealed, f"position {self.n - 1} is outside")

    @pytest.mark.parametrize("dims_axes", [
        lambda d, a: (d, (1, 1, 2)),                    # axis twice
        lambda d, a: (d[:-1] + (8,), a),                # wrong size
        lambda d, a: ((-d[0],) + d[1:-1] + (-d[-1],), a),  # negatives
    ], ids=["repeated-axis", "wrong-size", "negative-dims"])
    def test_tampered_walk(self, dims_axes):
        sealed = _sealed(bit_reversal(self.n), tiled=True)
        layout = sealed.layout
        assert len(layout.dims) == 3
        layout.dims, layout.axes = dims_axes(layout.dims, layout.axes)
        self._refused(sealed, "not a bijection")

    def test_wrong_index_dtype(self):
        sealed = SealedProgram("x", 32, random_permutation(self.n, seed=0))
        sealed.gather = sealed.gather.astype(np.int32)
        with mock.patch.object(sealed_exec, "NATIVE_MIN_N", 0), \
                pytest.raises(ValidationError, match="int64"):
            SealedExecutor().run(sealed, np.zeros(self.n, np.float32))

    @pytest.mark.parametrize("walk, item_size", [
        ([64, 2], 4),          # farthest output past n - 1
        ([2, 32, 33, 1], 4),   # farthest output exactly n
        ([8, 8, 1, 1], 4),     # two axes onto the same outputs: in range
        ([32, 1], 4),          # visits 32 of 64 outputs
        ([64, 1], 3),          # unsupported item size
        ([64, -1], 4),         # negative stride
        ([32, 2, 1, 32], 4),   # a bijection, but the inner axis strided
    ])
    def test_kernel_checks_its_own_arguments(self, walk, item_size):
        """The kernel re-checks what Python derived: a walk out of the
        output's range, or an item size it has no loop for, is refused
        before any byte is written."""
        n = 64
        src = np.zeros(n * 4, dtype=np.uint8)
        out = np.full(n * 4 + 64, 7, dtype=np.uint8)
        index = np.arange(n, dtype=np.int64)
        walk = np.array(walk, dtype=np.int64)
        status = sealed_exec._KERNEL.gather_rows(
            src.ctypes.data, 0, out.ctypes.data, 1, n, index.ctypes.data,
            len(walk) // 2, walk.ctypes.data, item_size,
        )
        if walk.tolist() == [8, 8, 1, 1]:
            # Memory-safe (every output inside [0, n)), so accepted;
            # the bijection itself is proven by TiledLayout.walk.
            assert status == -1
        else:
            assert status == -2
            assert (out == 7).all()


class TestReadOnlyMaps:
    def test_sealed_maps_are_read_only(self):
        p = bit_reversal(1 << 19)
        sealed = SealedProgram("x", 32, p)
        for arr in (sealed.scatter, sealed.gather, sealed.layout.gather):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # The caller's own array keeps its flags.
        assert p.flags.writeable
