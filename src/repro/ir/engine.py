"""The formal Engine protocol and the default-method mix-in.

Every permutation engine — GPU-modelled or CPU — presents the same
six-method surface:

``plan(p, width=..., backend=...)``
    Classmethod constructor: precompute schedules for permutation ``p``.
``lower()``
    Lower the planned engine to a :class:`~repro.ir.program.KernelProgram`.
``apply(a)``
    Permute one array.
``apply_batch(batch)``
    Permute ``k`` stacked arrays in one pass (throughput mode).
``simulate(machine=None, dtype=...)``
    Price the engine on the HMM cost model, returning a trace.
``predict(p, params=None, dtype=...)``
    Classmethod: closed-form time prediction, or ``None`` when the
    engine has no comparable HMM closed form (CPU/DMM engines).

:class:`EngineBase` supplies everything but ``plan`` and ``lower``.
Its ``apply``/``apply_batch`` seal the lowered program once (its
denotation, proved equal to ``p``) and run the sealed gather, so a
concrete engine only describes its kernels.  The CPU engines keep their
hand-written ``apply``: those loops are what the CPU backend ablation
times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Protocol, cast, runtime_checkable

import numpy as np

from repro import telemetry
from repro.ir.program import KernelProgram

if TYPE_CHECKING:
    from repro.ir.sealed import SealedProgram
    from repro.machine.trace import ProgramTrace


@runtime_checkable
class Engine(Protocol):
    """Structural type of a planned permutation engine instance."""

    @property
    def p(self) -> np.ndarray: ...

    def lower(self) -> KernelProgram: ...

    def apply(self, a: np.ndarray) -> np.ndarray: ...

    def apply_batch(self, batch: np.ndarray) -> np.ndarray: ...

    def simulate(
        self, machine: Any = None, dtype: Any = np.float32
    ) -> ProgramTrace: ...


class EngineBase:
    """Mix-in providing executor-backed protocol defaults."""

    #: Registry name, set by :func:`repro.ir.registry.register_engine`.
    engine_name: ClassVar[str] = ""

    def lower(self) -> KernelProgram:
        raise NotImplementedError(
            f"{type(self).__name__} does not lower to the IR"
        )

    def lower_optimized(self, pipeline: Any = None) -> KernelProgram:
        """Lower to the IR and run the optimization pass pipeline.

        The raw ``lower()`` output goes through the (conservative)
        default pipeline — or an explicit one — yielding the optimized,
        cost-annotated program :meth:`simulate` prices.
        """
        if pipeline is None:
            from repro.passes import default_pipeline

            pipeline = default_pipeline()
        return cast(KernelProgram, pipeline.run(self.lower()))

    def _sealed_program(self) -> SealedProgram:
        """The lowered program collapsed to its proven flat gather.

        Sealed on first use and memoized on the instance.  Sealing
        denotes the program and refuses one that does not denote
        ``p``, so a wrong plan raises here instead of answering wrong.
        """
        sealed = cast("SealedProgram | None", vars(self).get("_sealed"))
        if sealed is None:
            from repro.passes import seal_program

            with telemetry.span("engine.seal", engine=self.engine_name):
                sealed = seal_program(
                    self.lower(), requested=np.asarray(getattr(self, "p"))
                )
            vars(self)["_sealed"] = sealed
        return sealed

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Permute ``a``: ``b[p[i]] = a[i]`` as one proven gather."""
        from repro.exec.sealed import SealedExecutor

        with telemetry.span("engine.apply", engine=self.engine_name):
            return SealedExecutor().run(self._sealed_program(), a)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Permute every row of a ``(k, n)`` batch in one 2-D gather."""
        from repro.exec.sealed import SealedExecutor

        with telemetry.span("engine.apply", engine=self.engine_name):
            return SealedExecutor().run_batch(self._sealed_program(), batch)

    def simulate(
        self, machine: Any = None, dtype: Any = np.float32
    ) -> ProgramTrace:
        """Price this engine's program on the HMM cost model."""
        from repro.exec.simulator import SimulatorExecutor

        return SimulatorExecutor().simulate(
            self.lower_optimized(), machine, dtype=dtype
        )

    @classmethod
    def predict(
        cls,
        p: np.ndarray,
        params: Any = None,
        dtype: Any = np.float32,
    ) -> int | None:
        """Closed-form time prediction; ``None`` when the engine has no
        comparable HMM closed form."""
        return None

    @classmethod
    def from_program(
        cls, program: KernelProgram, p: np.ndarray
    ) -> EngineBase:
        """Rebuild a planned engine from its lowered program.

        The default re-plans from ``p``; engines whose programs carry
        the full schedules override this to reconstruct bitwise.
        """
        planner = getattr(cls, "plan")
        return cast(
            "EngineBase", planner(p, width=program.width or 32)
        )
