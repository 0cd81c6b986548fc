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

:class:`AffineMap` also composes, inverts, XORs and selects bits of
maps, so a plan for an affine permutation is derived from bit matrices
and materialised once per array (``docs/theory.md`` §10.1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.util.validation import is_power_of_two

__all__ = ["AffineMap", "Echelon", "detect_affine", "detect_affine_blocks"]


class Echelon:
    """A row-echelon basis of GF(2) vectors (non-negative ``int`` bit
    masks) that tracks, for every vector it holds, the combination of
    inserted vectors it is (one bit per insertion)."""

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[int, int]] = {}

    def reduce(self, vector: int, combo: int = 0) -> tuple[int, int]:
        """``vector`` less every pivot it reaches, and ``combo`` XOR
        the combinations taken."""
        while vector:
            pivot = self._pivots.get(vector.bit_length() - 1)
            if pivot is None:
                break
            vector ^= pivot[0]
            combo ^= pivot[1]
        return vector, combo

    def insert(self, vector: int, combo: int = 0) -> bool:
        """Add ``vector``; ``False`` (nothing added) when the basis
        already spans it."""
        vector, combo = self.reduce(vector, combo)
        if vector:
            self._pivots[vector.bit_length() - 1] = (vector, combo)
        return bool(vector)


def _linear(columns: tuple[int, ...], x: int) -> int:
    """XOR of ``columns[k]`` over the bits ``k`` of ``x``."""
    out = 0
    for column in columns:
        if x & 1:
            out ^= column
        x >>= 1
    if x:
        raise ValueError("index outside the map's domain")
    return out


@dataclass(frozen=True)
class AffineMap:
    """``p(i) = A·i ⊕ offset`` over GF(2); ``columns[k]`` is ``A·eₖ``
    as a bit mask.

    The domain is ``0 .. 2**len(columns) - 1``; images may have more or
    fewer bits (a map to a row or a column index has fewer).
    """

    columns: tuple[int, ...]
    offset: int

    @classmethod
    def identity(cls, bits: int) -> "AffineMap":
        return cls(tuple(1 << k for k in range(bits)), 0)

    @property
    def n(self) -> int:
        return 1 << len(self.columns)

    def __call__(self, x: int) -> int:
        return _linear(self.columns, x) ^ self.offset

    def __xor__(self, other: "AffineMap") -> "AffineMap":
        """The map ``i ↦ self(i) ⊕ other(i)`` on the common domain."""
        if len(self.columns) != len(other.columns):
            raise ValueError("maps on different domains")
        return AffineMap(
            tuple(a ^ b for a, b in zip(self.columns, other.columns)),
            self.offset ^ other.offset,
        )

    def bits(self, mask: int, shift: int = 0) -> "AffineMap":
        """The map ``i ↦ (self(i) & mask) >> shift``; a negative
        ``shift`` moves the bits left."""

        def move(value: int) -> int:
            value &= mask
            return value >> shift if shift >= 0 else value << -shift

        return AffineMap(tuple(map(move, self.columns)), move(self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map ``i ↦ self(inner(i))``; ``inner``'s images must lie
        in ``self``'s domain."""
        return AffineMap(
            tuple(_linear(self.columns, c) for c in inner.columns),
            self(inner.offset),
        )

    def inverse(self) -> "AffineMap | None":
        """The inverse map, or ``None`` when ``self`` is no bijection of
        its domain ``0 .. n-1``."""
        if not all(0 <= v < self.n for v in (*self.columns, self.offset)):
            return None
        basis = Echelon()
        if not all(
            basis.insert(column, 1 << k)
            for k, column in enumerate(self.columns)
        ):
            return None
        linear = AffineMap(
            tuple(basis.reduce(1 << j)[1] for j in range(len(self.columns))),
            0,
        )
        return AffineMap(linear.columns, linear(self.offset))

    def fixed_points(self) -> int:
        """How many ``i`` in the domain ``self`` maps to themselves: the
        solutions of ``(A ⊕ I)·i = offset``, none or a coset of the
        kernel of ``A ⊕ I``.  For a map of ``0 .. n-1`` into itself."""
        basis = Echelon()
        rank = sum(
            basis.insert(column ^ 1 << k)
            for k, column in enumerate(self.columns)
        )
        if basis.reduce(self.offset)[0]:
            return 0
        return 1 << (len(self.columns) - rank)

    def index_map(self, dtype: npt.DTypeLike = np.int64) -> np.ndarray:
        """The map as an array of ``dtype``, built by doubling."""
        q = np.empty(self.n, dtype=dtype)
        q[0] = self.offset
        for k, column in enumerate(self.columns):
            np.bitwise_xor(q[: 1 << k], column, out=q[1 << k : 2 << k])
        return q


def detect_affine(p: np.ndarray) -> AffineMap | None:
    """``p`` as an :class:`AffineMap`, or ``None`` when it is not one.

    Reads ``p`` through :func:`detect_affine_blocks`, so a map that is
    not affine is usually rejected after a few elements, and one it
    accepts has had every entry compared.  Lengths that are not a power
    of two, and arrays that are not integral, are never affine.
    """
    arr = np.asarray(p)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        return None
    # Blocks are compared in the array's own dtype: a column is the
    # XOR of two entries, so XOR-ing it into entries stays in range.
    return detect_affine_blocks(lambda lo, hi: arr[lo:hi], int(arr.shape[0]))


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
