"""Kernel-program IR: typed kernel ops, the Engine protocol, registry.

Every permutation engine in the repo *lowers* to the same intermediate
representation — a :class:`~repro.ir.program.KernelProgram`, an ordered
tuple of typed kernel ops each carrying its schedule arrays.  The
executors in :mod:`repro.exec` consume any program, which is what gives
every engine its sealed ``apply``/``apply_batch`` and HMM simulation
for free, and what lets the static certifier, plan I/O and the CLI
treat engines uniformly.
"""

from repro.ir.engine import Engine, EngineBase
from repro.ir.ops import (
    OP_KINDS,
    CasualRead,
    CasualWrite,
    CycleRotate,
    GatherScatter,
    KernelOp,
    Pad,
    RowwiseScatter,
    Slice,
    Transpose,
)
from repro.ir.program import KernelProgram, concat_programs
from repro.ir.registry import engine_names, get_engine, register_engine
from repro.ir.sealed import SealedProgram

__all__ = [
    "OP_KINDS",
    "CasualRead",
    "CasualWrite",
    "CycleRotate",
    "Engine",
    "EngineBase",
    "GatherScatter",
    "KernelOp",
    "KernelProgram",
    "Pad",
    "RowwiseScatter",
    "SealedProgram",
    "Slice",
    "Transpose",
    "concat_programs",
    "engine_names",
    "get_engine",
    "register_engine",
]
