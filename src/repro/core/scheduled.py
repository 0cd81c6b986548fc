"""The scheduled offline permutation — the paper's main contribution.

:class:`ScheduledPermutation` packages the full pipeline:

* **plan** (offline, done once per permutation): the global three-step
  decomposition (Section VII) plus a conflict-free row-wise schedule
  for each of the three passes (Section VI).  The schedules are plain
  arrays — ``s``/``t`` pairs in 16-bit integers, exactly what the
  paper's CUDA implementation stores in global memory.
* **lower**: five kernels — row-wise, transpose, row-wise, transpose,
  row-wise — every round coalesced or conflict-free; ``apply`` runs
  their proven composition as one sealed gather;
* **simulate**: price those rounds on an
  :class:`~repro.machine.hmm.HMM`, giving the 32-round trace whose
  time is ``16(n/w + l - 1)`` plus the (d-fold parallel) shared
  terms — independent of the permutation.

Example
-------
>>> import numpy as np
>>> from repro import ScheduledPermutation
>>> from repro.permutations import bit_reversal
>>> p = bit_reversal(256)
>>> plan = ScheduledPermutation.plan(p, width=4)
>>> a = np.arange(256.0)
>>> b = plan.apply(a)
>>> expected = np.empty_like(a); expected[p] = a
>>> bool((b == expected).all())
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.core.colwise import ColumnwiseSchedule
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduler import ThreeStepDecomposition, decompose_checked
from repro.core.transpose import TiledTranspose
from repro.errors import SizeError, ValidationError
from repro.ir.engine import EngineBase
from repro.ir.ops import RowwiseScatter, Transpose
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.ir.rounds import rowwise_shared_bytes
from repro.machine.cost_model import element_cells_of
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.trace import ProgramTrace
from repro.util.validation import check_permutation, check_square, isqrt_exact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.certifier import Certificate


@register_engine("scheduled")
@dataclass
class ScheduledPermutation(EngineBase):
    """A fully planned optimal offline permutation."""

    p: np.ndarray
    width: int
    decomposition: ThreeStepDecomposition
    step1: RowwiseSchedule
    step2: ColumnwiseSchedule
    step3: RowwiseSchedule
    #: Static conflict-freedom proof, attached by
    #: :func:`repro.core.io.prove_plan` (a compile, ``save_plan``) or by
    #: :func:`repro.core.io.load_plan` when the file embeds one.
    certificate: "Certificate | None" = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    @classmethod
    def plan(cls, p: np.ndarray, width: int = 32) -> "ScheduledPermutation":
        """Plan the scheduled permutation for ``p``.

        ``len(p)`` must be a perfect square whose root is a multiple of
        ``width``.  The plan keeps a read-only copy of ``p``: a caller
        that edits its array afterwards changes neither the plan nor
        what it computes.
        """
        owned = check_permutation(p)
        if np.may_share_memory(owned, p):
            owned = owned.copy()
        owned.flags.writeable = False
        p = owned
        n = int(p.shape[0])
        check_square(n, width, "len(p)")
        with telemetry.span("scheduled.plan", n=n, width=width):
            decomposition = decompose_checked(p)
            maps = decomposition.maps or (None, None, None)
            with telemetry.span("scheduled.plan.step1"):
                step1 = RowwiseSchedule.plan(
                    decomposition.gamma1, width, maps[0]
                )
            with telemetry.span("scheduled.plan.step2"):
                step2 = ColumnwiseSchedule.plan(
                    decomposition.delta, width, maps[1]
                )
            with telemetry.span("scheduled.plan.step3"):
                step3 = RowwiseSchedule.plan(
                    decomposition.gamma3, width, maps[2]
                )
        return cls(
            p=p,
            width=width,
            decomposition=decomposition,
            step1=step1,
            step2=step2,
            step3=step3,
        )

    @property
    def n(self) -> int:
        return int(self.p.shape[0])

    @property
    def m(self) -> int:
        return self.decomposition.m

    def schedule_bytes(self) -> int:
        """Total bytes of precomputed schedule data (the offline output).

        Three row-wise passes, each with an ``s`` and a ``t`` array of
        ``n`` entries.
        """
        arrays = (
            self.step1.s, self.step1.t,
            self.step2.rowwise.s, self.step2.rowwise.t,
            self.step3.s, self.step3.t,
        )
        return int(sum(a.nbytes for a in arrays))

    def shared_bytes(self, dtype) -> int:
        """Worst per-block shared-memory footprint across the 5 kernels."""
        return max(
            self.step1.shared_bytes(dtype),
            self.step2.shared_bytes(dtype),
            self.step3.shared_bytes(dtype),
        )

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        """Charge the five kernels on an HMM and return the 32-round trace."""
        from repro.exec.simulator import SimulatorExecutor

        with telemetry.span("scheduled.simulate", n=self.n) as sp:
            trace = SimulatorExecutor().simulate(
                self.lower(), machine, dtype=dtype
            )
            sp.set(model_time=trace.time, model_rounds=trace.num_rounds)
        return trace

    # ------------------------------------------------------------------
    # IR lowering
    # ------------------------------------------------------------------

    def lower(self) -> KernelProgram:
        """Lower to the canonical five-kernel program of Theorem 2.

        The op labels are the kernel names the static certifier pins
        (``step1.rowwise`` ... ``step3.rowwise``); the schedule arrays
        are the plan's own (no copies), so a lowered program certifies
        and executes bitwise identically to the engine.
        """
        w = self.width
        diagonal = self.step2.transpose.diagonal
        ops = (
            RowwiseScatter(
                label="step1.rowwise", gamma=self.step1.gamma,
                width=w, s=self.step1.s, t=self.step1.t,
            ),
            Transpose(label="step2.transpose-in", m=self.m, width=w,
                      diagonal=diagonal),
            RowwiseScatter(
                label="step2.rowwise", gamma=self.step2.rowwise.gamma,
                width=w, s=self.step2.rowwise.s, t=self.step2.rowwise.t,
            ),
            Transpose(label="step2.transpose-out", m=self.m, width=w,
                      diagonal=diagonal),
            RowwiseScatter(
                label="step3.rowwise", gamma=self.step3.gamma,
                width=w, s=self.step3.s, t=self.step3.t,
            ),
        )
        return KernelProgram(engine="scheduled", n=self.n, width=w, ops=ops)

    @classmethod
    def from_program(
        cls, program: KernelProgram, p: np.ndarray
    ) -> "ScheduledPermutation":
        """Rebuild the planned engine from its lowered program.

        The decomposition's colour array is recovered from ``gamma1``
        (an element's colour *is* its intermediate column), so the
        five-kernel program is a complete serialisation; the transposes'
        shared arrangement (``diagonal``) is kept, so the rebuilt plan
        lowers to ``program`` itself and proves what it stores.
        """
        ops = program.ops
        if len(ops) != 5 or not (
            isinstance(ops[0], RowwiseScatter)
            and isinstance(ops[1], Transpose)
            and isinstance(ops[2], RowwiseScatter)
            and isinstance(ops[3], Transpose)
            and isinstance(ops[4], RowwiseScatter)
        ):
            raise ValidationError(
                "not a scheduled five-kernel program: "
                f"{[op.kind for op in ops]}"
            )
        width = program.width
        gamma1 = np.ascontiguousarray(ops[0].gamma, dtype=np.int64)
        delta = np.ascontiguousarray(ops[2].gamma, dtype=np.int64)
        gamma3 = np.ascontiguousarray(ops[4].gamma, dtype=np.int64)
        step1 = RowwiseSchedule(
            gamma=gamma1, s=ops[0].s, t=ops[0].t, width=width
        )
        step3 = RowwiseSchedule(
            gamma=gamma3, s=ops[4].s, t=ops[4].t, width=width
        )
        m = int(gamma1.shape[0])
        step2 = ColumnwiseSchedule(
            rowwise=RowwiseSchedule(
                gamma=delta, s=ops[2].s, t=ops[2].t, width=width
            ),
            transpose=TiledTranspose(m, width, diagonal=ops[1].diagonal),
        )
        decomposition = ThreeStepDecomposition(
            gamma1=gamma1,
            delta=delta,
            gamma3=gamma3,
            colors=gamma1.reshape(-1),
        )
        return cls(
            p=np.asarray(p),
            width=width,
            decomposition=decomposition,
            step1=step1,
            step2=step2,
            step3=step3,
        )

    @classmethod
    def predict(
        cls,
        p: np.ndarray,
        params: MachineParams | None = None,
        dtype=np.float32,
    ) -> int | None:
        """Closed-form time ``16(n/w + l - 1) + shared terms``
        (Table I), or ``None`` when ``n`` is not a feasible square or
        the tiles would overflow shared memory."""
        from repro.core import theory

        params = params or MachineParams()
        n = int(np.asarray(p).shape[0])
        w = params.width
        try:
            m = isqrt_exact(n, "n")
        except SizeError:
            return None
        if n == 0 or m % w != 0:
            return None
        if params.shared_capacity is not None:
            if rowwise_shared_bytes(m, dtype) > params.shared_capacity:
                return None
        k = element_cells_of(dtype)
        return theory.scheduled_time(n, w, params.latency,
                                     params.num_dmms, k)

    def inverse(self) -> "ScheduledPermutation":
        """Plan the inverse permutation from this plan's decomposition.

        If this plan realises ``p`` as ``rowwise(g1) ∘ colwise(delta) ∘
        rowwise(g3)``, then ``p⁻¹`` is ``rowwise(g3⁻¹) ∘
        colwise(delta⁻¹) ∘ rowwise(g1⁻¹)`` — the per-row/per-column
        inverses applied in reverse order.  The expensive global König
        colouring is *reused*; only the three cheap bank colourings are
        recomputed for the inverted families.
        """
        m = self.m
        d = self.decomposition

        def invert_rows(arr: np.ndarray) -> np.ndarray:
            out = np.empty_like(arr)
            rows = np.arange(arr.shape[0])[:, None]
            out[rows, arr] = np.broadcast_to(
                np.arange(m, dtype=arr.dtype), arr.shape
            )
            return out

        gamma1_inv = invert_rows(np.asarray(d.gamma3, dtype=np.int64))
        delta_inv = invert_rows(np.asarray(d.delta, dtype=np.int64))
        gamma3_inv = invert_rows(np.asarray(d.gamma1, dtype=np.int64))

        from repro.permutations.ops import invert as invert_perm

        p_inv = invert_perm(self.p)
        # Colour (= intermediate column) of each inverse-route element:
        # the element starting at position q = p[i] travels i's route
        # backwards through the same column.
        colors_inv = np.empty(self.n, dtype=np.int64)
        colors_inv[self.p] = d.colors
        decomposition = ThreeStepDecomposition(
            gamma1=gamma1_inv,
            delta=delta_inv,
            gamma3=gamma3_inv,
            colors=colors_inv,
        )
        decomposition.route(p_inv)
        width = self.width
        return ScheduledPermutation(
            p=p_inv,
            width=width,
            decomposition=decomposition,
            step1=RowwiseSchedule.plan(gamma1_inv, width),
            step2=ColumnwiseSchedule.plan(delta_inv, width),
            step3=RowwiseSchedule.plan(gamma3_inv, width),
        )


def scheduled_permute(
    a: np.ndarray, p: np.ndarray, width: int = 32
) -> np.ndarray:
    """One-shot convenience: plan and apply in one call.

    For repeated permutations with the same ``p`` (the algorithm's
    intended use — "offline" means ``p`` is known in advance), plan once
    with :meth:`ScheduledPermutation.plan` and reuse it.
    """
    return ScheduledPermutation.plan(p, width=width).apply(a)
