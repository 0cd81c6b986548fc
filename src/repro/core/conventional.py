"""Conventional offline permutation algorithms (paper Section IV).

Both baselines perform three rounds of memory access; their cost is
dominated by the one *casual* round, whose stage count equals the
permutation's distribution ``D_w(P)`` (Lemma 4):

* **D-designated** — ``for all i: b[p[i]] <- a[i]``: coalesced reads of
  ``a`` and ``p``, casual **write** of ``b``;
* **S-designated** — ``for all i: b[i] <- a[q[i]]`` with ``q = p⁻¹``:
  coalesced read of ``q``, casual **read** of ``a``, coalesced write of
  ``b``.  (On real GPUs the paper finds casual reads cheaper than
  casual writes thanks to cache-coherency effects; in the base model
  they cost the same.)

Each engine lowers to its one kernel; ``apply`` runs the sealed gather
that kernel's rounds are proven to compute, and ``simulate`` prices the
rounds :mod:`repro.ir.rounds` enumerates for it.
"""

from __future__ import annotations

import numpy as np

from repro.ir.engine import EngineBase
from repro.ir.ops import CasualRead, CasualWrite
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.machine.cost_model import element_cells_of
from repro.machine.params import MachineParams
from repro.permutations.ops import invert
from repro.util.validation import check_permutation


class ConventionalPermutation(EngineBase):
    """Shared scaffolding for the two conventional baselines."""

    #: Subclasses set the kernel name used in traces.
    kernel_name = "conventional"

    def __init__(self, p: np.ndarray) -> None:
        p = check_permutation(p)
        # The paper stores the permutation as 32-bit int ("at most
        # ceil(log n) <= 32 bits are necessary"); keep that so index
        # reads are charged single-cell bandwidth.
        self.p = (
            # Fixed width is paper-mandated here, not a size assumption.
            p.astype(np.int32)  # staticcheck: ignore[REP103]
            if p.shape[0] <= 2**31
            else p
        )
        self.n = int(self.p.shape[0])

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32
    ) -> "ConventionalPermutation":
        """Planning is trivial for the baselines: validate and store.

        ``width`` is accepted (and ignored) so the baselines share the
        registry's planning signature.
        """
        del width
        return cls(p)

    # -- to be provided by subclasses --------------------------------

    @classmethod
    def _predict_index(cls, p: np.ndarray) -> np.ndarray:
        """The index array whose distribution prices the casual round."""
        raise NotImplementedError

    @classmethod
    def predict(
        cls,
        p: np.ndarray,
        params: MachineParams | None = None,
        dtype=np.float32,
    ) -> int | None:
        """Closed-form three-round time (Lemma 4 / Table I)."""
        from repro.core import theory
        from repro.core.distribution import distribution

        params = params or MachineParams()
        p = check_permutation(p)
        n = int(p.shape[0])
        w = params.width
        if n == 0 or n % w != 0:
            return None
        k = element_cells_of(dtype)
        group = w // k if k <= w and w % k == 0 else 1
        dw = distribution(cls._predict_index(p), w, group)
        return theory.conventional_time(n, w, params.latency, dw, k)


@register_engine("d-designated")
class DDesignatedPermutation(ConventionalPermutation):
    """Destination-designated baseline: ``b[p[i]] <- a[i]``."""

    kernel_name = "d-designated"

    def lower(self) -> KernelProgram:
        return KernelProgram(
            engine="d-designated",
            n=self.n,
            width=0,
            ops=(CasualWrite(label=self.kernel_name, p=self.p),),
        )

    @classmethod
    def _predict_index(cls, p: np.ndarray) -> np.ndarray:
        return p


@register_engine("s-designated")
class SDesignatedPermutation(ConventionalPermutation):
    """Source-designated baseline: ``b[i] <- a[q[i]]`` with ``q = p⁻¹``.

    The inverse permutation is computed once at construction (it is part
    of the offline input in the paper: "suppose that q(0..n-1) are
    stored in an array").
    """

    kernel_name = "s-designated"

    def __init__(self, p: np.ndarray) -> None:
        super().__init__(p)
        self.q = invert(self.p).astype(self.p.dtype)

    def lower(self) -> KernelProgram:
        return KernelProgram(
            engine="s-designated",
            n=self.n,
            width=0,
            ops=(CasualRead(label=self.kernel_name, q=self.q),),
        )

    @classmethod
    def _predict_index(cls, p: np.ndarray) -> np.ndarray:
        return invert(p)
