"""Pluggable executors that run any lowered :class:`KernelProgram`.

Six executors, one IR:

* :class:`ReferenceExecutor` — pure-numpy semantic ground truth;
* :class:`BatchExecutor` — vectorized ``(k, n)`` throughput mode,
  giving every engine ``apply_batch``;
* :class:`RoundInterpreter` — moves the payload through the access
  rounds of :mod:`repro.ir.rounds`: the GPU-model engines' ``apply``;
* :class:`SimulatorExecutor` — prices those same rounds on the HMM
  cost model;
* :class:`StreamingExecutor` — out-of-core: applies a sharded plan
  tile-by-tile against memory-mapped payload files under a hard
  ``max_resident_bytes`` budget;
* :class:`SealedExecutor` — the terminal tier: applies a
  :class:`~repro.ir.sealed.SealedProgram` as a single proven flat
  gather (chunked across threads for large payloads).
"""

from repro.exec.batch import BatchExecutor
from repro.exec.interpreter import RoundInterpreter
from repro.exec.reference import ReferenceExecutor
from repro.exec.sealed import SealedExecutor
from repro.exec.simulator import SimulatorExecutor
from repro.exec.streaming import (
    StreamingExecutor,
    StreamingJob,
    StreamingStats,
)

__all__ = [
    "BatchExecutor",
    "ReferenceExecutor",
    "RoundInterpreter",
    "SealedExecutor",
    "SimulatorExecutor",
    "StreamingExecutor",
    "StreamingJob",
    "StreamingStats",
]
