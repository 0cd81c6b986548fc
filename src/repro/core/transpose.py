"""Tiled matrix transpose with the diagonal arrangement (Section V).

A ``m x m`` matrix is partitioned into ``(m/w)²`` tiles of ``w x w``.
Each tile is staged through shared memory using the **diagonal
arrangement** (Figure 4): tile element ``(i, j)`` is stored at shared
address ``i*w + (i + j) mod w``, so

* the elements of one tile **row** sit in ``w`` distinct banks, and
* the elements of one tile **column** also sit in ``w`` distinct banks,

making both the row-major write and the column-major read conflict-free
— four memory-access rounds total (Table I: 1 coalesced read, 1
coalesced write, 1 conflict-free read, 1 conflict-free write).

The naive arrangement (``i*w + j``) is also provided: its column read
is a ``w``-way bank conflict, which the ablation benchmark
(DESIGN.md F4) quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SizeError
from repro.ir.ops import Transpose
from repro.ir.rounds import transpose_shared_bytes
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.trace import ProgramTrace


def tile_addresses(
    m: int, width: int, diagonal: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four per-thread address streams of a tiled transpose.

    One block per ``w x w`` tile; block ``(I, J)`` has ``w²`` threads
    indexed ``(i, j)``.  Returns ``(read, slot_write, slot_read,
    write)``: the global read of ``a``, the block-local shared write
    and read of the tile, and the global write of ``b`` — the streams
    :mod:`repro.ir.rounds` emits for every ``transpose`` kernel.
    """
    w = width
    mt = m // w                      # tiles per side
    block = np.arange(mt * mt, dtype=np.int64)
    tile_row = block // mt               # I
    tile_col = block % mt                # J
    thread = np.arange(w * w, dtype=np.int64)
    i = thread // w
    j = thread % w
    # Element (i, j) of tile (I, J) sits at row I*w + i, column J*w + j.
    offset = (i * m + j)[None, :]
    read = ((tile_row * w * m + tile_col * w)[:, None] + offset).reshape(-1)
    write = ((tile_col * w * m + tile_row * w)[:, None] + offset).reshape(-1)
    if diagonal:
        slot_write = i * w + (i + j) % w
        slot_read = j * w + (i + j) % w
    else:
        slot_write = i * w + j
        slot_read = j * w + i
    return (
        read,
        np.tile(slot_write, mt * mt),
        np.tile(slot_read, mt * mt),
        write,
    )


class TiledTranspose:
    """Transpose of an ``m x m`` matrix on the HMM.

    Parameters
    ----------
    m:
        Matrix side; must be a multiple of ``width``.
    width:
        Machine width ``w`` (tile side, bank count, warp size).
    diagonal:
        Use the paper's diagonal shared arrangement (default).  With
        ``False`` the naive arrangement is used — correct, but the
        shared read becomes a full ``w``-way bank conflict.
    """

    def __init__(self, m: int, width: int = 32, diagonal: bool = True) -> None:
        if width < 1:
            raise SizeError(f"width must be >= 1, got {width}")
        if m < width or m % width != 0:
            raise SizeError(
                f"matrix side m = {m} must be a positive multiple of the "
                f"width {width}"
            )
        self.m = m
        self.width = width
        self.diagonal = diagonal

    @property
    def op(self) -> Transpose:
        """The kernel as an IR op (its rounds come from
        :mod:`repro.ir.rounds`)."""
        return Transpose(
            label="transpose", m=self.m, width=self.width,
            diagonal=self.diagonal,
        )

    def shared_bytes(self, dtype) -> int:
        """Shared memory per block: one ``w x w`` tile of ``dtype``."""
        return transpose_shared_bytes(self.width, dtype)

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Transpose ``mat`` (shape ``(m, m)``) through the kernel's
        four access rounds."""
        from repro.exec.interpreter import run_op

        mat = np.asarray(mat)
        if mat.shape != (self.m, self.m):
            raise SizeError(
                f"matrix must have shape ({self.m}, {self.m}), got {mat.shape}"
            )
        return run_op(self.op, mat.reshape(-1)).reshape(self.m, self.m)

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        """Charge one transpose kernel on an HMM and return the trace."""
        from repro.exec.simulator import price_ops

        return price_ops("transpose", (self.op,), machine, dtype)


def diagonal_slot(i: np.ndarray, j: np.ndarray, width: int) -> np.ndarray:
    """Shared address of tile element ``(i, j)`` under the diagonal
    arrangement: ``i*w + (i + j) mod w`` (Figure 4)."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * width + (i + j) % width
