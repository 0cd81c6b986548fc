"""Typed kernel ops — the vocabulary of the kernel-program IR.

Each op describes one GPU kernel launch (or one CPU pass) over a flat
array, carrying exactly the arrays a machine needs to run it.  Ops are
*data*: they neither execute themselves nor know about any particular
machine.  The executors in :mod:`repro.exec` give them semantics, and
:mod:`repro.ir.rounds` enumerates their memory access rounds.

Op kinds
--------

``rowwise-scatter``
    ``out[r, gamma[r, c]] = mat[r, c]`` row by row.  With ``s``/``t``
    schedule arrays attached (and a positive ``width``) this is the
    paper's conflict-free 8-round kernel; without them it is a plain
    3-round scatter (the CPU engines' form).
``transpose``
    Square matrix transpose.  ``width > 0`` selects the tiled
    4-round shared-memory kernel (optionally with diagonal slot
    rotation); ``width == 0`` is a direct 2-round transpose.
``casual-write`` / ``casual-read``
    The conventional baselines: ``b[p[i]] = a[i]`` (destination
    designated) and ``b[i] = a[q[i]]`` (source designated), each
    3 rounds, in global or shared space.
``gather-scatter``
    The single-DMM conflict-free kernel ``b[t[i]] = a[s[i]]``
    (4 shared rounds).
``cycle-rotate``
    Cycle-following permutation (the in-place CPU engine's form),
    modelled as one casual read + one casual write.
``pad`` / ``slice``
    Zero-cost resizing used by the padded engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import SizeError, ValidationError


@dataclass(frozen=True, eq=False)
class KernelOp:
    """Base class for IR ops.

    ``label`` names the kernel launch (it becomes the kernel name in
    traces and static rounds, e.g. ``"step1.rowwise"``).  The class
    attribute ``kind`` is the stable serialisation tag; the ``_*_FIELDS``
    tuples declare which dataclass fields plan format v3 persists and
    how.
    """

    label: str

    kind: ClassVar[str] = "op"
    _ARRAY_FIELDS: ClassVar[tuple[str, ...]] = ()
    _SCALAR_FIELDS: ClassVar[tuple[str, ...]] = ()
    _BOOL_FIELDS: ClassVar[tuple[str, ...]] = ()
    _STR_FIELDS: ClassVar[tuple[str, ...]] = ()

    @property
    def regular(self) -> bool:
        """True when every access round is conflict-free/coalesced by
        construction (the op carries a full schedule)."""
        return False

    @property
    def num_rounds(self) -> int:
        """Memory access rounds this op costs on the HMM."""
        return 0

    def out_size(self, in_size: int) -> int:
        """Length of the output array given the input length."""
        return in_size

    def validate(self, in_size: int) -> None:
        """Raise if the op is malformed or cannot accept ``in_size``."""
        return None


@dataclass(frozen=True, eq=False)
class RowwiseScatter(KernelOp):
    """Independent per-row scatter of an ``rows x m`` matrix."""

    gamma: np.ndarray
    width: int
    s: np.ndarray | None = None
    t: np.ndarray | None = None

    kind: ClassVar[str] = "rowwise-scatter"
    _ARRAY_FIELDS: ClassVar[tuple[str, ...]] = ("gamma", "s", "t")
    _SCALAR_FIELDS: ClassVar[tuple[str, ...]] = ("width",)

    @property
    def rows(self) -> int:
        return int(self.gamma.shape[0])

    @property
    def m(self) -> int:
        return int(self.gamma.shape[1])

    @property
    def scheduled(self) -> bool:
        """True when s/t schedules are attached (8-round kernel)."""
        return self.s is not None and self.t is not None

    @property
    def regular(self) -> bool:
        return self.scheduled and self.width > 0

    @property
    def num_rounds(self) -> int:
        return 8 if self.scheduled else 3

    def validate(self, in_size: int) -> None:
        if np.ndim(self.gamma) != 2:
            raise ValidationError(
                f"op {self.label!r}: gamma must be a 2-D array"
            )
        if in_size != self.rows * self.m:
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{self.rows * self.m}, got {in_size}"
            )
        if (self.s is None) != (self.t is None):
            raise ValidationError(
                f"op {self.label!r}: s and t must be given together"
            )
        if self.scheduled and self.width <= 0:
            raise ValidationError(
                f"op {self.label!r}: a scheduled row-wise op needs a "
                f"positive width, got {self.width}"
            )
        for name, arr in (("s", self.s), ("t", self.t)):
            if arr is not None and arr.shape != self.gamma.shape:
                raise ValidationError(
                    f"op {self.label!r}: {name} must have shape "
                    f"{self.gamma.shape}, got {arr.shape}"
                )


@dataclass(frozen=True, eq=False)
class Transpose(KernelOp):
    """Transpose of an ``m x m`` matrix (tiled when ``width > 0``)."""

    m: int
    width: int = 0
    diagonal: bool = True

    kind: ClassVar[str] = "transpose"
    _SCALAR_FIELDS: ClassVar[tuple[str, ...]] = ("m", "width")
    _BOOL_FIELDS: ClassVar[tuple[str, ...]] = ("diagonal",)

    @property
    def tiled(self) -> bool:
        return self.width > 0

    @property
    def regular(self) -> bool:
        return self.tiled

    @property
    def num_rounds(self) -> int:
        return 4 if self.tiled else 2

    def validate(self, in_size: int) -> None:
        if self.m <= 0:
            raise ValidationError(
                f"op {self.label!r}: m must be positive, got {self.m}"
            )
        if in_size != self.m * self.m:
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{self.m * self.m}, got {in_size}"
            )
        if self.tiled and (self.m < self.width or self.m % self.width != 0):
            raise ValidationError(
                f"op {self.label!r}: a tiled transpose needs m a "
                f"multiple of the width ({self.m} vs {self.width})"
            )


@dataclass(frozen=True, eq=False)
class CasualWrite(KernelOp):
    """Destination-designated scatter ``b[p[i]] = a[i]``."""

    p: np.ndarray
    space: str = "global"

    kind: ClassVar[str] = "casual-write"
    _ARRAY_FIELDS: ClassVar[tuple[str, ...]] = ("p",)
    _STR_FIELDS: ClassVar[tuple[str, ...]] = ("space",)

    @property
    def num_rounds(self) -> int:
        return 3

    def validate(self, in_size: int) -> None:
        if self.space not in ("global", "shared"):
            raise ValidationError(
                f"op {self.label!r}: space must be 'global' or "
                f"'shared', got {self.space!r}"
            )
        if np.ndim(self.p) != 1:
            raise ValidationError(f"op {self.label!r}: p must be 1-D")
        if in_size != int(self.p.shape[0]):
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{int(self.p.shape[0])}, got {in_size}"
            )


@dataclass(frozen=True, eq=False)
class CasualRead(KernelOp):
    """Source-designated gather ``b[i] = a[q[i]]``."""

    q: np.ndarray
    space: str = "global"

    kind: ClassVar[str] = "casual-read"
    _ARRAY_FIELDS: ClassVar[tuple[str, ...]] = ("q",)
    _STR_FIELDS: ClassVar[tuple[str, ...]] = ("space",)

    @property
    def num_rounds(self) -> int:
        return 3

    def validate(self, in_size: int) -> None:
        if self.space not in ("global", "shared"):
            raise ValidationError(
                f"op {self.label!r}: space must be 'global' or "
                f"'shared', got {self.space!r}"
            )
        if np.ndim(self.q) != 1:
            raise ValidationError(f"op {self.label!r}: q must be 1-D")
        if in_size != int(self.q.shape[0]):
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{int(self.q.shape[0])}, got {in_size}"
            )


@dataclass(frozen=True, eq=False)
class GatherScatter(KernelOp):
    """The single-DMM conflict-free kernel ``b[t[i]] = a[s[i]]``."""

    s: np.ndarray
    t: np.ndarray

    kind: ClassVar[str] = "gather-scatter"
    _ARRAY_FIELDS: ClassVar[tuple[str, ...]] = ("s", "t")

    @property
    def regular(self) -> bool:
        return True

    @property
    def num_rounds(self) -> int:
        return 4

    def validate(self, in_size: int) -> None:
        if np.ndim(self.s) != 1 or self.s.shape != self.t.shape:
            raise ValidationError(
                f"op {self.label!r}: s and t must be 1-D with equal "
                f"shapes, got {self.s.shape} and {self.t.shape}"
            )
        if in_size != int(self.s.shape[0]):
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{int(self.s.shape[0])}, got {in_size}"
            )


@dataclass(frozen=True, eq=False)
class CycleRotate(KernelOp):
    """Cycle-following permutation (semantically ``b[p[i]] = a[i]``)."""

    p: np.ndarray

    kind: ClassVar[str] = "cycle-rotate"
    _ARRAY_FIELDS: ClassVar[tuple[str, ...]] = ("p",)

    @property
    def num_rounds(self) -> int:
        return 2

    def validate(self, in_size: int) -> None:
        if np.ndim(self.p) != 1:
            raise ValidationError(f"op {self.label!r}: p must be 1-D")
        if in_size != int(self.p.shape[0]):
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{int(self.p.shape[0])}, got {in_size}"
            )


@dataclass(frozen=True, eq=False)
class Pad(KernelOp):
    """Zero-extend a length-``n`` array to ``padded_n`` elements."""

    n: int
    padded_n: int

    kind: ClassVar[str] = "pad"
    _SCALAR_FIELDS: ClassVar[tuple[str, ...]] = ("n", "padded_n")

    @property
    def regular(self) -> bool:
        return True

    def out_size(self, in_size: int) -> int:
        return self.padded_n

    def validate(self, in_size: int) -> None:
        if self.padded_n < self.n or self.n < 0:
            raise SizeError(
                f"op {self.label!r}: invalid pad {self.n} -> "
                f"{self.padded_n}"
            )
        if in_size != self.n:
            raise SizeError(
                f"op {self.label!r}: expected input of length "
                f"{self.n}, got {in_size}"
            )


@dataclass(frozen=True, eq=False)
class Slice(KernelOp):
    """Truncate an array back to its first ``n`` elements."""

    n: int

    kind: ClassVar[str] = "slice"
    _SCALAR_FIELDS: ClassVar[tuple[str, ...]] = ("n",)

    @property
    def regular(self) -> bool:
        return True

    def out_size(self, in_size: int) -> int:
        return self.n

    def validate(self, in_size: int) -> None:
        if self.n < 0 or in_size < self.n:
            raise SizeError(
                f"op {self.label!r}: cannot slice {in_size} elements "
                f"down to {self.n}"
            )


OP_KINDS: dict[str, type[KernelOp]] = {
    cls.kind: cls
    for cls in (
        RowwiseScatter,
        Transpose,
        CasualWrite,
        CasualRead,
        GatherScatter,
        CycleRotate,
        Pad,
        Slice,
    )
}
