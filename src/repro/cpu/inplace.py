"""In-place permutation by cycle following.

A third CPU baseline: rearrange the array *in place* (O(1) extra data
memory beyond the cycle bookkeeping) by walking the permutation's
cycles.  It trades the naive approach's second array for strictly
sequential dependence — each step's load address depends on the
previous step — making it the most latency-bound of the engines: a
useful lower anchor for the A3 benchmark and a classic systems
trade-off (space vs memory-level parallelism).

Two variants:

* :func:`cycle_permute` — pure cycle walking, O(n) time, O(n) bits for
  the visited map;
* :func:`cycle_permute_prefactored` — with cycles precomputed offline
  (the permutation is known in advance!), the online phase walks plain
  index lists.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SizeError
from repro.ir.engine import EngineBase
from repro.ir.ops import CycleRotate
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.permutations.ops import cycles
from repro.util.validation import check_permutation


def cycle_permute(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Permute ``a`` in place along ``p`` (``a[p[i]] <- a[i]``).

    Walks each cycle backwards carrying one temporary.  Returns ``a``
    (modified in place).
    """
    p = check_permutation(p)
    a = np.asarray(a)
    if a.shape != p.shape:
        raise SizeError(
            f"a (shape {a.shape}) and p (shape {p.shape}) must match"
        )
    n = p.shape[0]
    visited = np.zeros(n, dtype=bool)
    pl = p.tolist()
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        j = pl[start]
        if j == start:
            continue
        carried = a[start]
        while j != start:
            visited[j] = True
            carried, a[j] = a[j], carried
            j = pl[j]
        a[start] = carried
    return a


@register_engine("cpu-inplace")
class InplacePermutation(EngineBase):
    """Offline-planned in-place permutation (cycles precomputed)."""

    def __init__(self, p: np.ndarray) -> None:
        p = check_permutation(p)
        self.p = p
        self.n = int(p.shape[0])
        # Keep only the non-trivial cycles; fixed points need no work.
        self._cycles = [c for c in cycles(p) if c.shape[0] > 1]

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32, backend: str = "auto"
    ) -> "InplacePermutation":
        """Precompute the cycles; ``width``/``backend`` are ignored."""
        del width, backend
        return cls(p)

    @property
    def num_cycles(self) -> int:
        """Non-trivial cycles in the plan."""
        return len(self._cycles)

    def lower(self) -> KernelProgram:
        return KernelProgram(
            engine="cpu-inplace",
            n=self.n,
            width=0,
            ops=(CycleRotate(label="cycle-rotate", p=self.p),),
        )

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Permute ``a`` in place; returns ``a``.

        For each cycle ``(c0, c1, ..., ck)`` of ``p``, the value at
        ``c0`` must go to ``p[c0] = c1``, etc. — a vectorised roll of
        the gathered cycle values.
        """
        a = np.asarray(a)
        if a.shape != (self.n,):
            raise SizeError(f"a must have shape ({self.n},), got {a.shape}")
        for cycle in self._cycles:
            # Fancy indexing materialises the gather before the scatter,
            # so the overlapping in-place rotation is safe.
            a[np.roll(cycle, -1)] = a[cycle]
        return a


def cycle_permute_prefactored(a: np.ndarray, plan: InplacePermutation) -> np.ndarray:
    """Convenience wrapper over :meth:`InplacePermutation.apply`."""
    return plan.apply(a)
