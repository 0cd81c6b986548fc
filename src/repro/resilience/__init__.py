"""Resilience layer: deterministic fault injection for verified plans.

The paper's offline algorithm plans *once* and is then trusted
forever.  Here each plan is proved when it is compiled and its file is
checked when it is loaded; this package manufactures the faults those
checks exist to catch:

* :class:`FaultPlan` (:mod:`repro.resilience.faults`) — seedable,
  deterministic fault injection: corrupt saved plan files and sealed
  sidecars, and inject write-write collisions into shared-memory
  scatters;
* checksummed plan files (:mod:`repro.core.io`) — every ``.npz`` plan
  carries a SHA-256 checksum and version stamps, verified on load.

See ``docs/robustness.md`` for the full story.
"""

from repro.resilience.faults import (
    FILE_FAULT_MODES,
    FaultPlan,
    InjectedFileFault,
    active_fault_plan,
)

__all__ = [
    "FILE_FAULT_MODES",
    "FaultPlan",
    "InjectedFileFault",
    "active_fault_plan",
]
