"""Detect permutations that are affine maps over GF(2).

Many structured permutations act on the bits of an index by a linear
map plus a constant: ``p(i) = A·i ⊕ c``, where ``A`` is an invertible
``log2(n) × log2(n)`` bit matrix and ``⊕`` is XOR.  Bit-reversal,
transpose, shuffle, butterfly, gray code, reversal, block swap, tiled
transpose and hypercube steps are all of this form (the BMMC
permutations of Bouverot-Dupuis & Sheeran).  The sealed tier reads
``A`` to choose a cache-blocked gather order, and the planner colours
the graphs of an affine permutation in closed form
(:mod:`repro.coloring.affine`).

``c = p(0)``, and column ``k`` of ``A`` is ``p(2ᵏ) ⊕ c``.  Doubling
then rebuilds the whole map: the indices ``2ᵏ .. 2ᵏ⁺¹-1`` are the
indices ``0 .. 2ᵏ-1`` with bit ``k`` set, so their images are the
earlier images XOR column ``k``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.util.validation import is_power_of_two

__all__ = ["AffineMap", "detect_affine", "detect_affine_blocks"]


@dataclass(frozen=True)
class AffineMap:
    """``p(i) = A·i ⊕ offset`` over GF(2); ``columns[k]`` is ``A·eₖ``
    as a bit mask."""

    columns: tuple[int, ...]
    offset: int

    @property
    def n(self) -> int:
        return 1 << len(self.columns)

    def index_map(self) -> np.ndarray:
        """The map as an ``int64`` array, built by doubling."""
        q = np.empty(self.n, dtype=np.int64)
        q[0] = self.offset
        for k, column in enumerate(self.columns):
            np.bitwise_xor(q[: 1 << k], column, out=q[1 << k : 2 << k])
        return q


def detect_affine(p: np.ndarray) -> AffineMap | None:
    """``p`` as an :class:`AffineMap`, or ``None`` when it is not one.

    Reads ``p`` through :func:`detect_affine_blocks`, so a map that is
    not affine is usually rejected after a few elements.  Lengths that
    are not a power of two are never affine.
    """
    arr = np.asarray(p)
    if arr.ndim != 1:
        return None
    return detect_affine_blocks(
        lambda lo, hi: arr[lo:hi].astype(np.int64, copy=False),
        int(arr.shape[0]),
    )


def detect_affine_blocks(
    read: Callable[[int, int], np.ndarray], n: int
) -> AffineMap | None:
    """Detect an affine map of length ``n`` read block by block:
    ``read(lo, hi)`` returns its entries ``lo .. hi-1`` as integers.

    Each doubling block is compared as soon as it is implied, and only
    the blocks compared are read, so rejecting a map reads ``O(1)``
    elements unless its first ``2ᵏ`` entries are affine.
    """
    if not is_power_of_two(n):
        return None
    offset = int(read(0, 1)[0])
    columns = []
    for k in range(n.bit_length() - 1):
        block = read(1 << k, 2 << k)
        column = int(block[0]) ^ offset
        if not np.array_equal(block, read(0, 1 << k) ^ column):
            return None
        columns.append(column)
    return AffineMap(tuple(columns), offset)
