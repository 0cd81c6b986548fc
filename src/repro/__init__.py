"""repro — An Optimal Offline Permutation Algorithm on the Hierarchical
Memory Machine (ICPP 2013), reproduced in Python.

The package provides:

* the **scheduled offline permutation** — the paper's optimal
  32-round algorithm (:class:`ScheduledPermutation`);
* the **conventional baselines** it is compared against
  (:class:`DDesignatedPermutation`, :class:`SDesignatedPermutation`);
* a faithful **simulator of the HMM / DMM / UMM** memory-machine models
  (:class:`HMM`, :class:`MachineParams`, and the
  :mod:`repro.machine` subpackage), replacing the paper's GTX-680;
* the **König edge-colouring** machinery the schedule is built on
  (:mod:`repro.coloring`);
* permutation **workload generators** (:mod:`repro.permutations`);
* a cache-blocked **CPU backend** as a real-hardware analogue
  (:mod:`repro.cpu`).

Quick start
-----------
>>> import numpy as np, repro
>>> p = repro.permutations.bit_reversal(1024)
>>> plan = repro.ScheduledPermutation.plan(p, width=8)
>>> b = plan.apply(np.arange(1024.0))
>>> trace = plan.simulate(repro.MachineParams(width=8, latency=16, num_dmms=4))
>>> trace.num_rounds
32
"""

from repro import (
    analysis,
    apps,
    coloring,
    core,
    cpu,
    ir,
    machine,
    passes,
    permutations,
    planner,
    resilience,
    service,
    staticcheck,
    telemetry,
    util,
)
# Importing the executors binds the ``repro.exec`` submodule too
# (``exec`` is a fine module name, just not a bindable import alias).
from repro.exec import ReferenceExecutor, SimulatorExecutor
from repro.core.conventional import (
    DDesignatedPermutation,
    SDesignatedPermutation,
)
from repro.core.colwise import ColumnwiseSchedule
from repro.core.distribution import (
    distribution,
    distribution_fraction,
    expected_random_distribution,
    theoretical_distribution,
)
from repro.core.io import load_plan, save_plan
from repro.core.selector import (
    AutoPermutation,
    predict_all,
    predict_sharded,
    predict_times,
    recommend,
)
from repro.ir import (
    KernelProgram,
    engine_names,
    get_engine,
    register_engine,
)
from repro.core.padded import PaddedScheduledPermutation, padded_length
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation, scheduled_permute
from repro.core.scheduler import ThreeStepDecomposition, decompose
from repro.core.transpose import TiledTranspose
from repro.core import theory
from repro.errors import (
    CertificateError,
    ColoringError,
    FallbackExhaustedError,
    MachineError,
    MemoryRaceError,
    NotAPermutationError,
    PlanCorruptionError,
    PlanIntegrityError,
    PlanVersionError,
    ReproError,
    ResilienceError,
    SchedulingError,
    SharedMemoryCapacityError,
    SizeError,
    StaticCheckError,
    TelemetryError,
    ValidationError,
)
from repro.passes import (
    PassPipeline,
    aggressive_pipeline,
    default_pipeline,
)
from repro.planner import (
    CompiledPermutation,
    DiskPlanCache,
    LRUPlanCache,
    Planner,
    permutation_digest,
    plan_fingerprint,
)
from repro.resilience import FailureReport, FaultPlan, ResilientPermutation
from repro.service import PermutationService
from repro.telemetry import Tracer
from repro.machine.cache import L2Cache
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.permutations.ops import apply_permutation, invert

__version__ = "1.0.0"

__all__ = [
    "AutoPermutation",
    "CertificateError",
    "ColoringError",
    "ColumnwiseSchedule",
    "CompiledPermutation",
    "DDesignatedPermutation",
    "DiskPlanCache",
    "FailureReport",
    "FallbackExhaustedError",
    "FaultPlan",
    "HMM",
    "KernelProgram",
    "L2Cache",
    "LRUPlanCache",
    "MachineError",
    "MachineParams",
    "MemoryRaceError",
    "NotAPermutationError",
    "PaddedScheduledPermutation",
    "PassPipeline",
    "PermutationService",
    "PlanCorruptionError",
    "PlanIntegrityError",
    "PlanVersionError",
    "Planner",
    "ReferenceExecutor",
    "ReproError",
    "ResilienceError",
    "ResilientPermutation",
    "RowwiseSchedule",
    "SDesignatedPermutation",
    "ScheduledPermutation",
    "SchedulingError",
    "SharedMemoryCapacityError",
    "SimulatorExecutor",
    "SizeError",
    "StaticCheckError",
    "TelemetryError",
    "ThreeStepDecomposition",
    "TiledTranspose",
    "Tracer",
    "ValidationError",
    "__version__",
    "aggressive_pipeline",
    "analysis",
    "apply_permutation",
    "apps",
    "coloring",
    "core",
    "cpu",
    "decompose",
    "default_pipeline",
    "distribution",
    "distribution_fraction",
    "engine_names",
    "expected_random_distribution",
    "get_engine",
    "invert",
    "ir",
    "load_plan",
    "machine",
    "padded_length",
    "passes",
    "permutation_digest",
    "permutations",
    "plan_fingerprint",
    "planner",
    "predict_all",
    "predict_sharded",
    "predict_times",
    "recommend",
    "register_engine",
    "resilience",
    "save_plan",
    "scheduled_permute",
    "service",
    "staticcheck",
    "telemetry",
    "theoretical_distribution",
    "theory",
    "util",
]
