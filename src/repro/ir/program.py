"""The :class:`KernelProgram` — an engine's plan, lowered to typed ops.

A program is the complete, machine-independent description of how an
engine permutes an array: which kernels run, in what order, and with
which schedule arrays.  Executors (:mod:`repro.exec`) run programs;
plan format v3 (:mod:`repro.core.io`) persists them; the static
certifier (:mod:`repro.staticcheck`) enumerates their access rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SizeError, ValidationError
from repro.ir.ops import KernelOp


@dataclass(frozen=True, eq=False)
class KernelProgram:
    """An ordered sequence of kernel ops over a length-``n`` array.

    Attributes
    ----------
    engine:
        Registry name of the engine that lowered to this program
        (``"scheduled"``, ``"d-designated"``, ``"cpu-blocked"``, ...).
    n:
        Input array length.
    width:
        Warp width / bank count the schedules were planned for
        (``0`` for CPU engines that have no warp structure).
    ops:
        The kernel launches, in execution order.
    meta:
        Optional annotations (e.g. a sealed program's provenance).
        Advisory only: executors ignore it and plan format v3 does not
        persist it.
    """

    engine: str
    n: int
    width: int
    ops: tuple[KernelOp, ...]
    meta: dict[str, object] | None = None

    @property
    def out_n(self) -> int:
        """Output length after every op has run (equals ``n`` unless a
        ``pad`` is left unbalanced by a ``slice``)."""
        size = self.n
        for op in self.ops:
            size = op.out_size(size)
        return size

    @property
    def num_rounds(self) -> int:
        """Total memory access rounds across all kernels."""
        return sum(op.num_rounds for op in self.ops)

    @property
    def nbytes(self) -> int:
        """Bytes of every schedule array the ops hold (cache
        accounting)."""
        return sum(
            int(np.asarray(value).nbytes)
            for op in self.ops
            for value in (getattr(op, f) for f in op._ARRAY_FIELDS)
            if value is not None
        )

    @property
    def is_regular(self) -> bool:
        """True when every op is conflict-free/coalesced by
        construction (the paper's scheduled pipelines)."""
        return bool(self.ops) and all(op.regular for op in self.ops)

    def validate(self) -> None:
        """Check sizes chain correctly and each op is well-formed."""
        if self.n < 0:
            raise SizeError(f"program n must be >= 0, got {self.n}")
        if not self.ops:
            raise ValidationError(
                f"program for engine {self.engine!r} has no ops"
            )
        size = self.n
        for op in self.ops:
            op.validate(size)
            size = op.out_size(size)

    def describe(self) -> str:
        """Human-readable one-line-per-op listing."""
        lines = [
            f"engine {self.engine!r}: n={self.n} width={self.width} "
            f"ops={len(self.ops)} rounds={self.num_rounds}"
        ]
        for i, op in enumerate(self.ops):
            lines.append(
                f"  [{i}] {op.kind:<16} {op.label:<22} "
                f"rounds={op.num_rounds}"
            )
        return "\n".join(lines)


def concat_programs(
    first: KernelProgram,
    second: KernelProgram,
    engine: str | None = None,
) -> KernelProgram:
    """Sequentially compose two programs (run ``first``, then
    ``second`` on its output).

    The composition is a plain op-list concatenation, so a pass
    pipeline can optimize *across* the seam — e.g. cancel the trailing
    transpose of ``first`` against the leading transpose of
    ``second``.  Raises :class:`SizeError` when the sizes do not chain.
    """
    if first.out_n != second.n:
        raise SizeError(
            f"cannot concatenate programs: first produces "
            f"{first.out_n} elements, second expects {second.n}"
        )
    return KernelProgram(
        engine=engine or f"{first.engine}+{second.engine}",
        n=first.n,
        width=max(first.width, second.width),
        ops=first.ops + second.ops,
    )
