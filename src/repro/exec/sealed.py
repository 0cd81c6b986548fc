"""The sealed executor: one gather, the whole permutation.

Where :class:`~repro.exec.reference.ReferenceExecutor` replays a
lowered program op by op (one fancy-index pass per kernel),
:class:`SealedExecutor` applies a :class:`~repro.ir.sealed.
SealedProgram` as a single ``a[gather]`` — the minimum data movement
any implementation of a permutation can do.  It is the data path of
every engine ``apply`` and every compiled handle.

A program with a :class:`~repro.ir.sealed.TiledLayout` runs the same
gather tile by tile instead: one ``take`` in visit order, then one
strided copy into the output viewed in visit order.  The batch form
permutes ``k`` stacked payloads in one two-dimensional take
(``batch[:, gather]``), or row by row when the program is tiled, row
for row the single-payload result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SizeError
from repro.ir.sealed import SealedProgram, TiledLayout

__all__ = ["SealedExecutor"]


class SealedExecutor:
    """Apply sealed programs as one flat gather."""

    def _check(self, sealed: SealedProgram, n: int) -> None:
        if n != sealed.n:
            raise SizeError(
                f"sealed program permutes {sealed.n} elements, got a "
                f"payload of {n}"
            )

    def run(self, sealed: SealedProgram, a: np.ndarray) -> np.ndarray:
        """Permute one payload: ``out[scatter[i]] = a[i]`` in a single
        gather ``out = a[gather]``."""
        arr = np.asarray(a)
        if arr.ndim != 1:
            raise SizeError(
                f"sealed apply expects a 1-D payload, got shape "
                f"{arr.shape}"
            )
        self._check(sealed, int(arr.shape[0]))
        if sealed.layout is None:
            return arr.take(sealed.gather)
        out = np.empty(arr.shape, dtype=arr.dtype)
        _run_tiled(sealed.layout, arr, out)
        return out

    def run_batch(
        self, sealed: SealedProgram, batch: np.ndarray
    ) -> np.ndarray:
        """Permute ``k`` stacked payloads in one 2-D take (row by row
        when tiled: a 2-D take would widen the tile's working set ``k``
        times)."""
        mat = np.asarray(batch)
        if mat.ndim != 2:
            raise SizeError(
                f"sealed batch apply expects a (k, n) array, got shape "
                f"{mat.shape}"
            )
        self._check(sealed, int(mat.shape[1]))
        if sealed.layout is None:
            return mat.take(sealed.gather, axis=1)
        out = np.empty(mat.shape, dtype=mat.dtype)
        for row, out_row in zip(mat, out):
            _run_tiled(sealed.layout, row, out_row)
        return out


def _run_tiled(layout: TiledLayout, a: np.ndarray, out: np.ndarray) -> None:
    layout.visit(out)[...] = a.take(layout.gather).reshape(layout.shape)
