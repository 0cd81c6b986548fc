"""Arbitrary-length permutation via padding.

The scheduled algorithm needs ``n = m²`` with ``w | m``.  The paper
notes the algorithm "is not restricted to a square matrix" in spirit;
this module makes that concrete for *any* length: embed the length-``n``
permutation into the smallest valid ``N >= n`` by fixing the padding
elements (``p'(i) = i`` for ``i >= n``), plan the padded permutation,
and slice the result.

Overhead: ``N/n <= (1 + w/sqrt(n))²`` — e.g. < 13% for ``n >= 256K`` at
``w = 32``, vanishing as ``n`` grows.  ``padded_length`` exposes the
exact figure so callers can decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.scheduled import ScheduledPermutation
from repro.errors import SizeError, ValidationError
from repro.ir.engine import EngineBase
from repro.ir.ops import Pad, Slice
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.ir.rounds import rowwise_shared_bytes
from repro.machine.params import MachineParams
from repro.util.validation import check_permutation


def padded_length(n: int, width: int) -> int:
    """Smallest valid scheduled-permutation size ``N >= n``:
    ``N = (ceil(sqrt(n)/w) * w)²``."""
    if n < 0:
        raise SizeError(f"n must be non-negative, got {n}")
    if width < 1:
        raise SizeError(f"width must be >= 1, got {width}")
    if n == 0:
        return 0
    m = math.isqrt(n)
    if m * m < n:
        m += 1
    m = -(-m // width) * width
    return m * m


@register_engine("padded")
@dataclass
class PaddedScheduledPermutation(EngineBase):
    """A scheduled permutation for arbitrary ``n``, via padding."""

    n: int
    inner: ScheduledPermutation

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32
    ) -> "PaddedScheduledPermutation":
        """Plan for any permutation length (including non-squares)."""
        p = check_permutation(p)
        n = int(p.shape[0])
        big_n = padded_length(n, width)
        with telemetry.span("padded.plan", n=n, padded_n=big_n) as sp:
            padded = np.concatenate(
                [p, np.arange(n, big_n, dtype=np.int64)]
            )
            inner = ScheduledPermutation.plan(padded, width=width)
            plan = cls(n=n, inner=inner)
            sp.set(overhead=plan.overhead)
        return plan

    @property
    def padded_n(self) -> int:
        return self.inner.n

    @property
    def p(self) -> np.ndarray:
        """The original (unpadded) permutation."""
        return self.inner.p[: self.n]

    @property
    def width(self) -> int:
        return self.inner.width

    @property
    def overhead(self) -> float:
        """Extra elements moved, as a fraction: ``N/n - 1``."""
        return self.padded_n / self.n - 1.0 if self.n else 0.0

    # ------------------------------------------------------------------
    # IR lowering
    # ------------------------------------------------------------------

    def lower(self) -> KernelProgram:
        """Wrap the inner five-kernel program in ``pad``/``slice`` (the
        bare five kernels when ``n`` needs no padding)."""
        ops = self.inner.lower().ops
        if self.padded_n != self.n:
            ops = (
                Pad(label="pad", n=self.n, padded_n=self.padded_n),
                *ops,
                Slice(label="slice", n=self.n),
            )
        return KernelProgram(
            engine="padded", n=self.n, width=self.inner.width, ops=ops
        )

    @classmethod
    def from_program(
        cls, program: KernelProgram, p: np.ndarray
    ) -> "PaddedScheduledPermutation":
        """Rebuild from a ``pad + five kernels + slice`` program, or the
        bare five kernels of an unpadded ``n``; the padded permutation
        tail is the identity by construction."""
        ops = program.ops
        n = padded_n = program.n
        if ops and isinstance(ops[0], Pad):
            if len(ops) < 3 or not isinstance(ops[-1], Slice):
                raise ValidationError(
                    "not a padded program: "
                    f"{[op.kind for op in ops]}"
                )
            n, padded_n, ops = ops[0].n, ops[0].padded_n, ops[1:-1]
        inner_program = KernelProgram(
            engine="scheduled", n=padded_n, width=program.width, ops=ops
        )
        padded_p = np.concatenate([
            np.asarray(p, dtype=np.int64),
            np.arange(n, padded_n, dtype=np.int64),
        ])
        inner = ScheduledPermutation.from_program(inner_program, padded_p)
        return cls(n=n, inner=inner)

    @classmethod
    def predict(
        cls,
        p: np.ndarray,
        params: MachineParams | None = None,
        dtype=np.float32,
    ) -> int | None:
        """Scheduled closed-form time at the padded size ``N``."""
        from repro.core import theory
        from repro.machine.cost_model import element_cells_of

        params = params or MachineParams()
        n = int(np.asarray(p).shape[0])
        try:
            big_n = padded_length(n, params.width)
        except SizeError:
            return None
        if big_n == 0:
            return None
        if params.shared_capacity is not None:
            shared_needed = rowwise_shared_bytes(math.isqrt(big_n), dtype)
            if shared_needed > params.shared_capacity:
                return None
        k = element_cells_of(dtype)
        return theory.scheduled_time(big_n, params.width, params.latency,
                                     params.num_dmms, k)
