"""Optimization passes over the kernel-program IR.

Public surface::

    from repro.passes import default_pipeline

    optimized = default_pipeline().run(engine.lower(), validate=True)

The rewrites are a stand-alone demonstration of translation
validation: no compile runs them (the planner seals what ``lower()``
emits, proved equal to ``p``).  ``repro cost --roundtrip``, ``repro
check --semantics`` and the ``report`` semantics claim do.
``default_pipeline()`` returns the process-wide conservative pipeline
(see the module docstring of :mod:`repro.passes.optimizations` for
what it does and does not remove); ``aggressive_pipeline()``
additionally drops standalone identity ops.  :func:`seal_program`, the
terminal stage, collapses a proven program into its flat gather;
:func:`seal_proved` is its unchecked form for a caller that holds the
very array its certificate proved.
"""

from __future__ import annotations

from repro.passes.framework import (
    PIPELINE_VERSION,
    Pass,
    PassChange,
    PassPipeline,
    ValidatedPass,
    identity_guard,
    is_identity_guard,
)
from repro.passes.optimizations import (
    CancelAdjacentTransposes,
    DropIdentityOps,
    FuseCasualChains,
    FuseRowwiseSteps,
    SimplifyPadSlice,
)
from repro.passes.seal import seal_program, seal_proved

__all__ = [
    "PIPELINE_VERSION",
    "CancelAdjacentTransposes",
    "DropIdentityOps",
    "FuseCasualChains",
    "FuseRowwiseSteps",
    "Pass",
    "PassChange",
    "PassPipeline",
    "SimplifyPadSlice",
    "ValidatedPass",
    "aggressive_pipeline",
    "default_pipeline",
    "identity_guard",
    "is_identity_guard",
    "seal_program",
    "seal_proved",
]

_DEFAULT: PassPipeline | None = None


def default_pipeline() -> PassPipeline:
    """The conservative pipeline (cached: one instance per process)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PassPipeline(
            (
                SimplifyPadSlice(),
                FuseRowwiseSteps(),
                FuseCasualChains(),
                CancelAdjacentTransposes(),
            ),
            name="default",
        )
    return _DEFAULT


def aggressive_pipeline() -> PassPipeline:
    """The default passes plus full identity-op elimination.

    Opt-in: deleting a standalone identity kernel changes the
    program's *modelled* cost (those rounds are real on the HMM — see
    the Table II identity-pricing note in ``docs/architecture.md``), so
    the simulator-facing default keeps them.  The drop is gated behind
    :class:`~repro.passes.framework.ValidatedPass`: a drop that would
    change the program's denoted index map is refused rather than
    applied, so aggressive mode is provably semantics-preserving.
    """
    return PassPipeline(
        (
            SimplifyPadSlice(),
            FuseRowwiseSteps(),
            FuseCasualChains(),
            ValidatedPass(DropIdentityOps()),
            CancelAdjacentTransposes(),
        ),
        name="aggressive",
    )
