"""Simulator of the paper's memory machine models (Section II–III).

* :class:`~repro.machine.params.MachineParams` — the model parameters
  (width ``w``, global latency ``l``, number of DMMs ``d``, shared
  latency 1, shared capacity);
* :mod:`repro.machine.cost_model` — vectorised stage counting for the
  Discrete Memory Machine (bank conflicts) and the Unified Memory
  Machine (address-group coalescing), implementing Lemma 1 and the
  casual-access costs;
* :mod:`repro.machine.pipeline` — a cycle-accurate simulation of the
  ``l``-stage MMU pipeline, reproducing Figure 3 exactly;
* :class:`~repro.machine.hmm.HMM` — the Hierarchical Memory Machine:
  executes kernels (sequences of access rounds) and produces cost
  traces;
* :mod:`repro.machine.cache` — an optional L2 cache model in front of
  the global memory (extension; explains the paper's small-``n``
  regime).

The access rounds a kernel performs are described once, by the
enumerator in :mod:`repro.ir.rounds`; this package only prices them.
"""

from repro.machine.params import MachineParams
from repro.machine.requests import AccessRound, Kernel, coalesced_addresses
from repro.machine.cost_model import (
    classify_round,
    global_round_stages,
    global_warp_stages,
    round_time,
    shared_round_stages,
    shared_warp_stages,
)
from repro.machine.pipeline import PipelineSimulator, simulate_access_sequence
from repro.machine.trace import KernelTrace, ProgramTrace, RoundCost
from repro.machine.hmm import HMM
from repro.machine.cache import L2Cache, cached_global_stages
from repro.machine.dmm import DMM
from repro.machine.metrics import TraceMetrics, analyze, format_metrics
from repro.machine.umm import UMM

__all__ = [
    "AccessRound",
    "DMM",
    "HMM",
    "UMM",
    "Kernel",
    "KernelTrace",
    "L2Cache",
    "MachineParams",
    "PipelineSimulator",
    "ProgramTrace",
    "RoundCost",
    "TraceMetrics",
    "analyze",
    "format_metrics",
    "cached_global_stages",
    "classify_round",
    "coalesced_addresses",
    "global_round_stages",
    "global_warp_stages",
    "round_time",
    "shared_round_stages",
    "shared_warp_stages",
    "simulate_access_sequence",
]
