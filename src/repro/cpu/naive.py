"""Conventional one-pass permutation on the CPU.

The two variants mirror the paper's D-designated and S-designated
algorithms: ``scatter_permute`` writes randomly (``b[p] = a``),
``gather_permute`` reads randomly (``b = a[q]``).  Both stream one
array and hit the other at the permutation's whim — the CPU-cache
analogue of a casual round.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SizeError
from repro.ir.engine import EngineBase
from repro.ir.ops import CasualWrite
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.permutations.ops import invert
from repro.util.validation import check_permutation


def scatter_permute(a: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """D-designated on the CPU: ``b[p[i]] = a[i]`` (random writes).

    ``out`` may be supplied to avoid allocation in benchmarks.
    """
    a = np.asarray(a)
    p = check_permutation(p)
    if out is None:
        out = np.empty_like(a)
    out[p] = a
    return out


def gather_permute(a: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """S-designated on the CPU: ``b[i] = a[q[i]]`` (random reads).

    ``q`` is the *inverse* of the destination-designated permutation —
    use :func:`inverse_for_gather` to derive it.
    """
    a = np.asarray(a)
    q = check_permutation(q)
    if out is None:
        out = np.empty_like(a)
    np.take(a, q, out=out)
    return out


def inverse_for_gather(p: np.ndarray) -> np.ndarray:
    """The gather index achieving the same result as ``scatter_permute``:
    ``gather_permute(a, inverse_for_gather(p)) == scatter_permute(a, p)``."""
    return invert(p)


@register_engine("cpu-naive")
class NaivePermutation(EngineBase):
    """The one-pass baseline as a planned engine: ``b[p[i]] = a[i]``.

    Wraps :func:`scatter_permute` in the registry's planning interface
    so the naive CPU path participates in the selector, resilience
    chain, and executor layer like every other engine.
    """

    def __init__(self, p: np.ndarray) -> None:
        self.p = check_permutation(p)
        self.n = int(self.p.shape[0])

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32, backend: str = "auto"
    ) -> "NaivePermutation":
        """Nothing to precompute; ``width``/``backend`` are ignored."""
        del width, backend
        return cls(p)

    def lower(self) -> KernelProgram:
        return KernelProgram(
            engine="cpu-naive",
            n=self.n,
            width=0,
            ops=(CasualWrite(label="cpu-naive", p=self.p),),
        )

    def apply(self, a: np.ndarray) -> np.ndarray:
        """One random-write pass."""
        a = np.asarray(a)
        if a.shape != (self.n,):
            raise SizeError(f"a must have shape ({self.n},), got {a.shape}")
        return scatter_permute(a, self.p)
