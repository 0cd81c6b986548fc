"""Column-wise permutation (paper Section VI, Lemma 8).

A column-wise permutation — element at row ``r`` of column ``k`` moves
to row ``delta[k, r]`` of the same column — is performed as

    transpose  ∘  row-wise(delta)  ∘  transpose

After the first transpose, column ``k`` lies in row ``k`` (the element
formerly at ``(r, k)`` sits at ``(k, r)``), so the row-wise pass with
``gamma = delta`` moves it to ``(k, delta[k, r])``, and the second
transpose returns it to ``(delta[k, r], k)``.

Round counts add up to Table I's column-wise row: 5 coalesced reads,
3 coalesced writes, 4 conflict-free reads, 4 conflict-free writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rowwise import RowwiseSchedule
from repro.core.transpose import TiledTranspose
from repro.errors import SizeError
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.trace import ProgramTrace
from repro.permutations.affine import AffineMap


@dataclass
class ColumnwiseSchedule:
    """A planned conflict-free column-wise permutation.

    ``delta[k, r]`` is the destination row of the element at
    ``(row r, column k)``; each row of ``delta`` (i.e. each column of
    the matrix) must be a permutation.
    """

    rowwise: RowwiseSchedule
    transpose: TiledTranspose

    @classmethod
    def plan(
        cls,
        delta: np.ndarray,
        width: int,
        values: AffineMap | None = None,
    ) -> "ColumnwiseSchedule":
        """``values`` as in :meth:`RowwiseSchedule.plan`."""
        delta = np.asarray(delta)
        if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
            raise SizeError(
                f"delta must be square (column count == row count), got "
                f"shape {delta.shape}"
            )
        rowwise = RowwiseSchedule.plan(delta, width, values)
        transpose = TiledTranspose(delta.shape[0], width)
        return cls(rowwise=rowwise, transpose=transpose)

    @property
    def m(self) -> int:
        return self.rowwise.m

    @property
    def width(self) -> int:
        return self.rowwise.width

    def shared_bytes(self, dtype) -> int:
        """Worst per-block shared footprint across the three kernels."""
        return max(
            self.rowwise.shared_bytes(dtype),
            self.transpose.shared_bytes(dtype),
        )

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Apply the column-wise permutation to ``mat``."""
        mat = np.asarray(mat)
        if mat.shape != (self.m, self.m):
            raise SizeError(
                f"matrix must have shape ({self.m}, {self.m}), got {mat.shape}"
            )
        staged = self.transpose.apply(mat)
        permuted = self.rowwise.apply(staged)
        return self.transpose.apply(permuted)

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        """Charge the three kernels on an HMM and return the trace."""
        from repro.exec.simulator import price_ops

        ops = (self.transpose.op, self.rowwise.op, self.transpose.op)
        return price_ops("columnwise", ops, machine, dtype)
