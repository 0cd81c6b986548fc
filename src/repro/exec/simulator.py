"""HMM-simulator executor — price a program's access rounds.

The rounds come from the one enumerator in :mod:`repro.ir.rounds`, the
same stream the static certifier proves and the round interpreter
moves data through; this executor only charges them on
:meth:`repro.machine.hmm.HMM.run_program`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.ir.ops import KernelOp
from repro.ir.program import KernelProgram
from repro.ir.rounds import op_kernels
from repro.machine.hmm import HMM
from repro.machine.trace import ProgramTrace


def as_hmm(machine: Any = None) -> HMM:
    """An :class:`HMM` from ``None``, machine params, or an HMM."""
    if machine is None:
        return HMM()
    if isinstance(machine, HMM):
        return machine
    return HMM(machine)


def price_ops(
    name: str,
    ops: Iterable[KernelOp],
    machine: Any = None,
    dtype: Any = np.float32,
) -> ProgramTrace:
    """Charge the access rounds of ``ops`` as one program ``name``."""
    kernels = (k.to_kernel() for k in op_kernels(ops, dtype))
    return as_hmm(machine).run_program(kernels, name=name)


class SimulatorExecutor:
    """Price programs on the HMM cost model."""

    def simulate(
        self,
        program: KernelProgram,
        machine: Any = None,
        dtype: Any = np.float32,
    ) -> ProgramTrace:
        """Price the program on an HMM, returning the trace."""
        return price_ops(program.engine, program.ops, machine, dtype)
