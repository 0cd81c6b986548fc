"""The sealed (terminal) compilation form: one proven flat gather.

A lowered :class:`~repro.ir.program.KernelProgram` denotes a single
permutation — the composition of all its ops — and once that index map
has been materialized and proved bijective there is nothing left to
optimize: applying the program *is* one gather.  A
:class:`SealedProgram` is that terminal form, the third compilation
tier after raw and pipeline-optimized programs:

* ``scatter`` — the denoted index map ``p`` in the repo-wide
  destination-designated convention, ``out[scatter[i]] = a[i]``;
* ``gather`` — its inverse, so ``out = a[gather]`` in one fancy-index
  pass (the form :class:`~repro.exec.sealed.SealedExecutor` executes);
* ``meta`` — provenance: the plan fingerprint, the pass-pipeline
  signature, the denotation digest the semantic certificate recorded,
  and the cost model's predicted rounds for the program it collapsed;
* ``layout`` — for large GF(2)-affine maps whose plain gather thrashes
  the cache, a :class:`TiledLayout` that visits the outputs tile by
  tile (``None`` otherwise).  It is derived from ``scatter`` on
  construction and never persisted.

Sealing never *computes* anything new: the index map comes from
:func:`repro.staticcheck.semantics.denote_program` (or from a
translation-validated certificate that already proved the plan's
permutation equal to the denotation), so a sealed program is correct
by construction and re-provable at any time via :meth:`verify`.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.ir.ops import CasualWrite
from repro.ir.program import KernelProgram
from repro.permutations.affine import detect_affine

__all__ = ["SealedProgram", "TiledLayout", "tiled_layout"]

#: Smallest ``n`` that gets a tiled layout.  Below it the plain gather
#: wins: bit-reversal takes 0.58 ms plain and 0.96 ms tiled at 2^18,
#: but 4.3 ms and 1.7 ms at 2^19, where the int64 index alone fills a
#: 4 MiB L2.
TILED_MIN_N = 1 << 19
#: log2 of the float32 values in one 64-byte cache line.
LINE_BITS = 4
#: log2 of the float32 values in 4 KiB: lines that far apart share an
#: L1 set.
ALIAS_BITS = 10
#: Tile only when this many of the (at most 16) source lines of one
#: output line share an L1 set.  At 2^20, tiled transpose with 2 x 2
#: tiles (8 such lines) drops from 12.0 to 6.8 ms when tiled; with
#: 4 x 4 tiles (4 lines) tiling gains nothing measurable.
MIN_ALIASED_LINES = 8
#: Largest tile, in index bits: 4096 values, 16 KiB of float32.
MAX_TILE_BITS = 3 * LINE_BITS


def _as_index(name: str, arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
    if out.ndim != 1:
        raise ValidationError(
            f"sealed {name} must be 1-D, got shape {out.shape}"
        )
    return out


def invert_permutation(p: np.ndarray) -> np.ndarray:
    """The inverse index map: ``inv[p[i]] = i``.

    Assumes ``p`` is a permutation of ``0..n-1`` (the caller proves it
    — sealing sits downstream of a bijectivity proof).
    """
    arr = _as_index("permutation", p)
    inv = np.empty_like(arr)
    inv[arr] = np.arange(arr.shape[0], dtype=np.int64)
    return inv


class TiledLayout:
    """The sealed gather stored in tile-by-tile output order.

    The output index splits into runs of bits ``dims``, most
    significant first.  Visiting the runs in ``axes`` order, outermost
    first, walks the outputs one tile at a time; ``gather`` holds the
    source of each output in that visit order.  Visiting is a reshape
    plus a transpose, so no order array is stored.
    """

    __slots__ = ("dims", "axes", "gather")

    def __init__(
        self, dims: tuple[int, ...], axes: tuple[int, ...],
        gather: np.ndarray,
    ) -> None:
        self.dims = dims
        self.axes = axes
        self.gather = gather

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.dims[axis] for axis in self.axes)

    def visit(self, out: np.ndarray) -> np.ndarray:
        """A contiguous 1-D ``out`` as a view in visit order."""
        return out.reshape(self.dims).transpose(self.axes)


def tiled_layout(
    scatter: np.ndarray, gather: np.ndarray
) -> TiledLayout | None:
    """The tiled layout for ``scatter``, or ``None`` for the plain gather.

    Only ``p(i) = A·i ⊕ c`` over GF(2) with ``n >= TILED_MIN_N`` is
    tiled, and only when the plain gather thrashes: at least
    ``MIN_ALIASED_LINES`` of the source lines that one output line
    reads lie a multiple of 4 KiB apart.  Those offsets are the
    columns of ``A⁻¹``, read off ``gather`` (which :meth:`SealedProgram.
    verify` proves is ``p⁻¹``).  The tile bits are the low
    ``LINE_BITS`` output bits plus every output bit the columns
    ``A·e₀ … A·e₃`` reach, so a tile holds whole output lines and whole
    input lines.  Outside the tile bits form the outer loop, inside
    them the inner one.  The choice depends on ``A`` and ``n`` only.
    """
    n = int(scatter.shape[0])
    if n < TILED_MIN_N:
        return None
    affine = detect_affine(scatter)
    if affine is None:
        return None
    span = {0}
    for k in range(LINE_BITS):
        column = int(gather[1 << k]) ^ int(gather[0])
        span |= {offset ^ column for offset in span}
    lines = {offset >> LINE_BITS for offset in span}
    alias_mask = (1 << (ALIAS_BITS - LINE_BITS)) - 1
    if sum(1 for line in lines if not line & alias_mask) < MIN_ALIASED_LINES:
        return None
    tile = (1 << LINE_BITS) - 1
    for column in affine.columns[:LINE_BITS]:
        tile |= column
    if bin(tile).count("1") > MAX_TILE_BITS:
        return None
    bits = [bool(tile >> k & 1) for k in reversed(range(n.bit_length() - 1))]
    runs = [(inside, len(list(run))) for inside, run in groupby(bits)]
    dims = tuple(1 << length for _, length in runs)
    axes = tuple(sorted(range(len(runs)), key=lambda axis: runs[axis][0]))
    return TiledLayout(
        dims, axes, gather.reshape(dims).transpose(axes).ravel()
    )


class SealedProgram:
    """A permutation collapsed to its proven flat index maps.

    Parameters
    ----------
    engine:
        Engine name of the program that was sealed (provenance).
    width:
        Warp width the plan was built for (provenance; sealing itself
        is width-free — one gather has no bank structure left).
    scatter:
        The denoted map ``p``: ``out[scatter[i]] = a[i]``.
    gather:
        Optional inverse (``out = a[gather]``); derived from
        ``scatter`` when omitted.
    meta:
        Provenance mapping (fingerprint, pipeline signature,
        ``denotation_sha``, ``plan_sha``, ``predicted_rounds``, ...).
    certificate:
        Optional :class:`~repro.staticcheck.semantics.
        SemanticCertificate` carried along from the translation
        validation that proved the sealed map.
    """

    def __init__(
        self,
        engine: str,
        width: int,
        scatter: np.ndarray,
        gather: np.ndarray | None = None,
        meta: dict[str, Any] | None = None,
        certificate: Any | None = None,
    ) -> None:
        self.engine = str(engine)
        self.width = int(width)
        self.scatter = _as_index("scatter", scatter)
        self.gather = (
            invert_permutation(self.scatter)
            if gather is None
            else _as_index("gather", gather)
        )
        if self.gather.shape != self.scatter.shape:
            raise ValidationError(
                f"sealed gather length {self.gather.shape[0]} does not "
                f"match scatter length {self.scatter.shape[0]}"
            )
        self.meta: dict[str, Any] = dict(meta or {})
        self.certificate = certificate
        self.layout = tiled_layout(self.scatter, self.gather)

    @property
    def n(self) -> int:
        return int(self.scatter.shape[0])

    @property
    def nbytes(self) -> int:
        """Resident bytes of every index map, the tiled gather included
        (cache accounting)."""
        total = self.scatter.nbytes + self.gather.nbytes
        if self.layout is not None:
            total += self.layout.gather.nbytes
        return int(total)

    def verify(self) -> None:
        """Re-prove the sealed pair: mutual inverses over ``0..n-1``.

        ``gather[scatter] == identity`` forces ``scatter`` to be
        injective into range and ``gather`` to be its left inverse;
        equal lengths then make both bijections.  A tiled layout must
        visit each of ``0..n-1`` once and hold ``gather`` in that
        order.  Raises :class:`~repro.errors.ValidationError` on any
        refutation.
        """
        n = self.n
        if n == 0:
            return
        lo = int(min(self.scatter.min(), self.gather.min()))
        hi = int(max(self.scatter.max(), self.gather.max()))
        if lo < 0 or hi >= n:
            raise ValidationError(
                f"sealed index maps leave the range 0..{n - 1} "
                f"(saw {lo}..{hi})"
            )
        identity = np.arange(n, dtype=np.int64)
        if not np.array_equal(self.gather[self.scatter], identity):
            bad = np.nonzero(self.gather[self.scatter] != identity)[0]
            i = int(bad[0])
            raise ValidationError(
                "sealed gather is not the inverse of scatter: element "
                f"{i} scatters to {int(self.scatter[i])} but gathers "
                f"back to {int(self.gather[self.scatter[i]])}"
            )
        self._verify_layout()

    def _verify_layout(self) -> None:
        layout = self.layout
        if layout is None:
            return
        if math.prod(layout.dims) != self.n or sorted(layout.axes) != list(
            range(len(layout.dims))
        ):
            raise ValidationError(
                f"tiled visit order {layout.dims} by {layout.axes} is not "
                f"a bijection of 0..{self.n - 1}"
            )
        if layout.gather.shape != self.gather.shape or not np.array_equal(
            layout.gather.reshape(layout.shape), layout.visit(self.gather)
        ):
            raise ValidationError(
                "tiled gather is not the sealed gather in visit order"
            )

    def as_program(self) -> KernelProgram:
        """The sealed form as a one-op :class:`KernelProgram`.

        A single destination-designated
        :class:`~repro.ir.ops.CasualWrite` carrying ``scatter`` — the
        bridge back into the executor/simulator/denotation tooling, so
        a sealed plan can be priced on the HMM cost model and denoted
        symbolically like any other program.
        """
        return KernelProgram(
            engine=self.engine,
            n=self.n,
            width=self.width,
            ops=(CasualWrite(p=self.scatter, label="sealed gather"),),
            meta=dict(self.meta) or None,
        )

    def describe(self) -> str:
        fp = str(self.meta.get("fingerprint", ""))
        fp_part = f", fingerprint {fp[:12]}..." if fp else ""
        return (
            f"sealed {self.engine!r}: n = {self.n}, "
            f"width = {self.width}, {self.nbytes} resident "
            f"bytes{fp_part}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SealedProgram(engine={self.engine!r}, n={self.n}, "
            f"width={self.width})"
        )
