"""Three-pass cache-blocked permutation on the CPU.

Reuses the scheduler's global decomposition (row-wise, column-wise,
row-wise) but replaces the GPU's bank-conflict machinery with CPU cache
reasoning:

* each row-wise pass scatters **within rows** — a row of
  ``sqrt(n)`` elements fits in L1/L2, so the random part of the access
  stays cache-resident while rows stream linearly;
* the column-wise pass is transpose / row-wise / transpose with a
  blocked transpose whose tiles fit the L1 cache.

Exactly like the paper's schedule, the plan is computed offline from
``p`` and reused across applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scheduler import ThreeStepDecomposition, decompose
from repro.cpu.tuning import default_block_size
from repro.errors import SizeError, ValidationError
from repro.ir.engine import EngineBase
from repro.ir.ops import RowwiseScatter, Transpose
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.util.validation import check_permutation, isqrt_exact


def blocked_transpose(
    mat: np.ndarray, block: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Cache-blocked out-of-place transpose of a square matrix.

    Walks the matrix in ``block x block`` tiles so each tile's source
    rows and destination columns stay cache-resident.  ``block=None``
    picks :func:`~repro.cpu.tuning.default_block_size`.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SizeError(f"matrix must be square, got shape {mat.shape}")
    m = mat.shape[0]
    if block is None:
        block = default_block_size(mat.dtype, m)
    if out is None:
        out = np.empty_like(mat)
    elif out.shape != mat.shape:
        raise SizeError("out must match the input shape")
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        for j0 in range(0, m, block):
            j1 = min(j0 + block, m)
            out[j0:j1, i0:i1] = mat[i0:i1, j0:j1].T
    return out


@register_engine("cpu-blocked")
@dataclass
class BlockedPermutation(EngineBase):
    """A planned three-pass CPU permutation for a fixed ``p``."""

    p: np.ndarray
    decomposition: ThreeStepDecomposition
    block: int | None = None

    @classmethod
    def plan(
        cls,
        p: np.ndarray,
        block: int | None = None,
        backend: str = "auto",
        width: int | None = None,
    ) -> "BlockedPermutation":
        """Plan from a destination-designated permutation ``p``.

        ``len(p)`` must be a perfect square (no width constraint on the
        CPU — there are no warps; ``width`` is accepted and ignored for
        registry signature uniformity).
        """
        del width
        p = check_permutation(p)
        isqrt_exact(p.shape[0], "len(p)")
        return cls(p=p, decomposition=decompose(p, backend=backend), block=block)

    @property
    def n(self) -> int:
        return int(self.p.shape[0])

    @property
    def m(self) -> int:
        return self.decomposition.m

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Permute ``a``: returns ``b`` with ``b[p[i]] == a[i]``.

        Five passes, each either row-local or a blocked transpose.
        """
        a = np.asarray(a)
        if a.shape != (self.n,):
            raise SizeError(f"a must have shape ({self.n},), got {a.shape}")
        m = self.m
        d = self.decomposition
        rows = np.arange(m)[:, None]

        mat = a.reshape(m, m)
        step1 = np.empty_like(mat)
        step1[rows, d.gamma1] = mat                 # row-wise scatter

        staged = blocked_transpose(step1, self.block)
        step2 = np.empty_like(mat)
        step2[rows, d.delta] = staged               # column-wise, in
        staged = blocked_transpose(step2, self.block)  # transposed space

        out = np.empty_like(mat)
        out[rows, d.gamma3] = staged                # row-wise scatter
        return out.reshape(-1)

    def lower(self) -> KernelProgram:
        """The same five-kernel decomposition as the GPU engine, but
        unscheduled (``width = 0``): row-wise ops carry only ``gamma``
        and the transposes are untiled."""
        d = self.decomposition
        ops = (
            RowwiseScatter(label="step1.rowwise", gamma=d.gamma1, width=0),
            Transpose(label="step2.transpose-in", m=self.m),
            RowwiseScatter(label="step2.rowwise", gamma=d.delta, width=0),
            Transpose(label="step2.transpose-out", m=self.m),
            RowwiseScatter(label="step3.rowwise", gamma=d.gamma3, width=0),
        )
        return KernelProgram(
            engine="cpu-blocked", n=self.n, width=0, ops=ops
        )

    @classmethod
    def from_program(
        cls, program: KernelProgram, p: np.ndarray
    ) -> "BlockedPermutation":
        """Rebuild from the carried ``gamma`` arrays (no re-planning)."""
        ops = program.ops
        if len(ops) != 5 or not (
            isinstance(ops[0], RowwiseScatter)
            and isinstance(ops[2], RowwiseScatter)
            and isinstance(ops[4], RowwiseScatter)
        ):
            raise ValidationError(
                "not a blocked five-kernel program: "
                f"{[op.kind for op in ops]}"
            )
        gamma1 = np.ascontiguousarray(ops[0].gamma, dtype=np.int64)
        decomposition = ThreeStepDecomposition(
            gamma1=gamma1,
            delta=np.ascontiguousarray(ops[2].gamma, dtype=np.int64),
            gamma3=np.ascontiguousarray(ops[4].gamma, dtype=np.int64),
            colors=gamma1.reshape(-1),
        )
        return cls(p=np.asarray(p), decomposition=decomposition)
