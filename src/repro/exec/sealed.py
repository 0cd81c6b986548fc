"""The sealed executor: one gather, the whole permutation.

Where :class:`~repro.exec.reference.ReferenceExecutor` replays a
lowered program op by op (one fancy-index pass per kernel),
:class:`SealedExecutor` applies a :class:`~repro.ir.sealed.
SealedProgram` as a single ``a[gather]`` — the minimum data movement
any implementation of a permutation can do.  It is the data path of
every engine ``apply`` and every compiled handle.

A program with a :class:`~repro.ir.sealed.TiledLayout` runs the same
gather tile by tile instead: ``out[visit(v)] = a[tiled_gather[v]]``,
where the walk ``visit`` is derived from the layout's ``dims`` and
``axes`` on every call.  The batch form permutes ``k`` stacked
payloads, row for row the single-payload result.

Two gathers compute that, with identical bytes.  The compiled one
(``_gather.c``, built on import like the Euler split's kernel, see
:mod:`repro.util.native`) runs every payload of at least
``NATIVE_MIN_N`` items whose rows are contiguous and hold 1, 2, 4, 8 or
16 bytes per item, with no Python objects: one pass per row, the tiled
walk included, and one call for all ``k`` rows.  It range-checks every
index.  The NumPy gather runs everything else and is the reference:
one ``take`` (a 2-D take for a batch), or, when tiled, one ``take`` in
visit order plus one strided copy into the output viewed in visit
order, row by row.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.errors import SizeError, ValidationError
from repro.ir.sealed import SealedProgram, TiledLayout
from repro.util.native import load_library

__all__ = ["NATIVE", "NATIVE_MIN_N", "SealedExecutor"]

_SOURCE = Path(__file__).with_name("_gather.c")
#: ``gather_rows(src, src_row_stride, dst, rows, n, index, ndim, walk,
#: item_size)``: -1, -2 for arguments it refuses, or the first visit
#: position whose index is out of range.
_ARGTYPES = (
    ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
    ctypes.c_int64, ctypes.c_void_p, ctypes.c_int32, ctypes.c_void_p,
    ctypes.c_int32,
)
_KERNEL_OK = -1
_ITEM_SIZES = frozenset({1, 2, 4, 8, 16})
#: Smallest ``n`` the compiled gather runs.  A call costs about 10 us
#: more than a ``take`` (the ctypes call and four ``.ctypes`` pointers).
#: Plain random gather, float32, one payload, medians on a 2-vCPU Xeon:
#:
#:     n          2^10  2^12  2^14  2^15  2^16  2^17  2^18  2^20
#:     compiled   15    22    32    40    77    192   460   3193 us
#:     NumPy take 4     11    32    56    110   359   902   5341 us
NATIVE_MIN_N = 1 << 15

_SIGNATURES = {"gather_rows": (_ARGTYPES, ctypes.c_int64)}

_KERNEL = load_library(_SOURCE, _SIGNATURES)
#: Whether this process gathers with the compiled kernel; decided once,
#: on import, by whether the library could be built and loaded.
NATIVE = _KERNEL is not None


class SealedExecutor:
    """Apply sealed programs as one flat gather."""

    def _check(self, sealed: SealedProgram, n: int) -> None:
        if n != sealed.n:
            raise SizeError(
                f"sealed program permutes {sealed.n} elements, got a "
                f"payload of {n}"
            )

    def run(self, sealed: SealedProgram, a: np.ndarray) -> np.ndarray:
        """Permute one payload: ``out[scatter[i]] = a[i]`` in a single
        gather ``out = a[gather]``."""
        arr = np.asarray(a)
        if arr.ndim != 1:
            raise SizeError(
                f"sealed apply expects a 1-D payload, got shape "
                f"{arr.shape}"
            )
        self._check(sealed, int(arr.shape[0]))
        return _apply(sealed, arr[np.newaxis])[0]

    def run_batch(
        self, sealed: SealedProgram, batch: np.ndarray
    ) -> np.ndarray:
        """Permute ``k`` stacked payloads: one compiled call, or one
        2-D take (row by row when tiled: a 2-D take would widen the
        tile's working set ``k`` times)."""
        mat = np.asarray(batch)
        if mat.ndim != 2:
            raise SizeError(
                f"sealed batch apply expects a (k, n) array, got shape "
                f"{mat.shape}"
            )
        self._check(sealed, int(mat.shape[1]))
        return _apply(sealed, mat)


def _apply(sealed: SealedProgram, mat: np.ndarray) -> np.ndarray:
    """Permute every row of the ``(k, n)`` payload ``mat``."""
    if _native(sealed, mat):
        out = np.empty(mat.shape, dtype=mat.dtype)
        _gather_native(sealed, mat, out)
        return out
    layout = sealed.layout
    if layout is None:
        return _take(mat, sealed.gather)
    out = np.empty(mat.shape, dtype=mat.dtype)
    for row, out_row in zip(mat, out):
        _run_tiled(layout, row, out_row)
    return out


def _native(sealed: SealedProgram, mat: np.ndarray) -> bool:
    """Whether the compiled gather takes the ``(k, n)`` payload ``mat``."""
    return (
        _KERNEL is not None
        and sealed.n >= NATIVE_MIN_N
        and mat.itemsize in _ITEM_SIZES
        and not mat.dtype.hasobject
        and mat.strides[1] == mat.itemsize
    )


def _gather_native(
    sealed: SealedProgram, mat: np.ndarray, out: np.ndarray
) -> None:
    """``out[r, visit(v)] = mat[r, index[v]]`` for every row, in one
    kernel call; ``out`` is C-contiguous."""
    n = sealed.n
    layout = sealed.layout
    if layout is None:
        index, shape, strides = sealed.gather, [n], [1]
    else:
        index = layout.gather
        shape, strides = layout.walk(n)
    if index.dtype != np.int64 or index.shape != (n,) or not (
        index.flags.c_contiguous
    ):
        raise ValidationError(
            f"sealed gather must be {n} contiguous int64 indices, got "
            f"{index.dtype} of shape {index.shape}"
        )
    walk = np.array(shape + strides, dtype=np.int64)
    status = _KERNEL.gather_rows(
        mat.ctypes.data, mat.strides[0], out.ctypes.data, mat.shape[0], n,
        index.ctypes.data, len(shape), walk.ctypes.data, mat.itemsize,
    )
    if status >= 0:
        raise ValidationError(
            f"sealed gather index {int(index[status])} at visit position "
            f"{status} is outside 0..{n - 1}"
        )
    if status != _KERNEL_OK:
        raise ValidationError(
            f"the gather kernel refused the walk {shape} by {strides}"
        )


def _take(mat: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``mat.take(index, axis=-1)``, refusing an out-of-range index as
    the compiled gather does (NumPy still wraps negative ones).

    NumPy copies an index it may not write before every ``take`` (a
    128 KiB allocation per request at 2^14).  The sealed maps are
    read-only views of buffers the library owns, so the take reads
    them through a writable view of the same buffer and writes nothing.
    """
    index = index.view()
    try:
        index.flags.writeable = True
    except ValueError:  # the buffer itself is read-only: NumPy copies
        pass
    try:
        return mat.take(index, axis=-1)
    except IndexError as exc:
        raise ValidationError(f"sealed gather: {exc}") from None


def _run_tiled(layout: TiledLayout, a: np.ndarray, out: np.ndarray) -> None:
    layout.walk(a.shape[0])
    layout.visit(out)[...] = _take(a, layout.gather).reshape(layout.shape)
