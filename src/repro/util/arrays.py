"""Small array helpers shared across the package.

These are deliberately tiny, allocation-conscious functions following the
project's performance guide: prefer views over copies, keep dtypes small,
and make contiguity explicit at API boundaries.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.errors import SizeError
from repro.util.validation import isqrt_exact


def as_1d(a: npt.ArrayLike, what: str = "array") -> np.ndarray:
    """Return ``a`` as a one-dimensional contiguous ndarray (view if possible)."""
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise SizeError(f"{what} must be one-dimensional, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def as_index_array(
    a: npt.ArrayLike, what: str = "index array"
) -> np.ndarray:
    """Return ``a`` as a contiguous 1-D ``int64`` index array."""
    arr = as_1d(a, what)
    if not np.issubdtype(arr.dtype, np.integer):
        raise SizeError(f"{what} must have an integer dtype, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def reshape_square(a: np.ndarray, what: str = "array") -> np.ndarray:
    """View a flat length-``n`` array as a ``sqrt(n) x sqrt(n)`` matrix.

    This is a zero-copy reshape; ``n`` must be a perfect square.
    """
    arr = as_1d(a, what)
    m = isqrt_exact(arr.shape[0], f"len({what})")
    return arr.reshape(m, m)


def flat_cells(cols: np.ndarray) -> np.ndarray:
    """``r * m + cols[r, c]``: the flat index of each row's column
    ``cols[r, c]`` in a row-major ``(rows, m)`` matrix.

    ``cols`` is a ``(rows, m)`` array of columns; the result has its
    shape and dtype ``int64``.
    """
    rows, m = cols.shape
    return np.arange(0, rows * m, m, dtype=np.int64)[:, None] + cols


def smallest_index_dtype(max_value: int) -> np.dtype:
    """Return the smallest unsigned dtype able to hold ``max_value``.

    The paper stores its row-wise schedule arrays ``s`` and ``t`` as
    16-bit ``short int`` because row indices never exceed ``sqrt(n) <=
    2**16``; we mirror that choice so schedule memory footprints match.
    """
    if max_value < 0:
        raise SizeError(f"max_value must be non-negative, got {max_value}")
    for dtype in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def interleave(*arrays: np.ndarray) -> np.ndarray:
    """Interleave equal-length 1-D arrays element-wise.

    ``interleave(a, b)[2*i] == a[i]`` and ``interleave(a, b)[2*i+1] == b[i]``.
    Used by the pipeline tests to build mixed access streams.
    """
    if not arrays:
        return np.empty(0, dtype=np.int64)
    length = arrays[0].shape[0]
    for arr in arrays:
        if arr.shape != (length,):
            raise SizeError("interleave requires equal-length 1-D arrays")
    out = np.empty(length * len(arrays), dtype=np.result_type(*arrays))
    for offset, arr in enumerate(arrays):
        out[offset :: len(arrays)] = arr
    return out
