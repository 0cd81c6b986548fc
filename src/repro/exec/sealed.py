"""The sealed executor: one gather, the whole permutation.

Where :class:`~repro.exec.reference.ReferenceExecutor` replays a
lowered program op by op (one fancy-index pass per kernel),
:class:`SealedExecutor` applies a :class:`~repro.ir.sealed.
SealedProgram` as a single ``a[gather]`` — the minimum data movement
any implementation of a permutation can do.  It is the data path of
every engine ``apply`` and every compiled handle.

The batch form permutes ``k`` stacked payloads in one two-dimensional
take (``batch[:, gather]``), row for row the single-payload result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SizeError
from repro.ir.sealed import SealedProgram

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
        return arr.take(sealed.gather)

    def run_batch(
        self, sealed: SealedProgram, batch: np.ndarray
    ) -> np.ndarray:
        """Permute ``k`` stacked payloads in one 2-D take."""
        mat = np.asarray(batch)
        if mat.ndim != 2:
            raise SizeError(
                f"sealed batch apply expects a (k, n) array, got shape "
                f"{mat.shape}"
            )
        self._check(sealed, int(mat.shape[1]))
        return mat.take(sealed.gather, axis=1)
