"""Pluggable executors that run any lowered :class:`KernelProgram`.

Five executors, one IR.  The sealed gather is how ``apply`` moves data
(only the CPU engines keep hand-written loops); the reference executor
and the round interpreter are the oracles tests and ``repro report``
hold it to:

* :class:`ReferenceExecutor` — pure-numpy semantic ground truth, op by
  op;
* :class:`RoundInterpreter` — moves the payload through the access
  rounds of :mod:`repro.ir.rounds`, proving per engine that the rounds
  we charge compute the answer;
* :class:`SimulatorExecutor` — prices those same rounds on the HMM
  cost model;
* :class:`StreamingExecutor` — out-of-core: applies a sharded plan
  tile-by-tile against memory-mapped payload files under a hard
  ``max_resident_bytes`` budget;
* :class:`SealedExecutor` — the terminal tier: applies a
  :class:`~repro.ir.sealed.SealedProgram` as a single proven flat
  gather, for every engine ``apply``/``apply_batch`` and every
  compiled handle.
"""

from repro.exec.interpreter import RoundInterpreter
from repro.exec.reference import ReferenceExecutor
from repro.exec.sealed import SealedExecutor
from repro.exec.simulator import SimulatorExecutor
from repro.exec.streaming import StreamingExecutor, StreamingStats

__all__ = [
    "ReferenceExecutor",
    "RoundInterpreter",
    "SealedExecutor",
    "SimulatorExecutor",
    "StreamingExecutor",
    "StreamingStats",
]
