"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  Errors are
grouped along the package's three main layers:

* validation of user input (:class:`ValidationError` and subclasses),
* the machine simulator (:class:`MachineError` and subclasses),
* schedule construction (:class:`SchedulingError` and subclasses).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------


class ValidationError(ReproError, ValueError):
    """Invalid user input (bad permutation, incompatible sizes, ...)."""


class NotAPermutationError(ValidationError):
    """An index array was expected to be a permutation of ``0..n-1``."""


class SizeError(ValidationError):
    """An array size does not satisfy a structural requirement.

    The scheduled algorithm requires ``n`` to be a perfect square whose
    root is a multiple of the machine width; several kernels additionally
    require power-of-two sizes.
    """


class PlanIntegrityError(ValidationError):
    """A persisted plan file cannot be trusted.

    The offline algorithm's whole premise is that a plan is computed
    once and then applied forever, so a bad plan file is the worst
    failure mode the system has: it would permute *silently wrong*.
    :func:`repro.core.io.load_plan` therefore refuses any file whose
    provenance it cannot establish, raising one of the two subclasses
    below before any schedule array is handed to an engine.
    """


class PlanCorruptionError(PlanIntegrityError):
    """A plan file's content does not match its recorded checksum.

    Also raised for structurally broken files — truncated archives,
    deleted keys — where no checksum can even be read.
    """


class PlanVersionError(PlanIntegrityError):
    """A plan file was written by an incompatible format version."""


# ---------------------------------------------------------------------------
# Machine simulator
# ---------------------------------------------------------------------------


class MachineError(ReproError):
    """Base class for errors raised by the machine simulator."""


class InvalidMachineError(MachineError, ValueError):
    """Machine parameters are structurally invalid (e.g. width < 1)."""


class SharedMemoryCapacityError(MachineError):
    """A kernel requires more shared memory per DMM than available.

    Mirrors the paper's GTX-680 limit: 48 KB of shared memory per
    streaming multiprocessor makes ``sqrt(n) = 4096`` doubles infeasible
    (Table II(b) stops at 2048).
    """


class AccessRoundError(MachineError, ValueError):
    """An access round is malformed (bad shape, negative addresses, ...)."""


class MemoryRaceError(MachineError):
    """A memory race was detected in an access-round sequence.

    Raised by the emulators when race detection is enabled (``HMM(...,
    detect_races=True)`` or ``DMM/UMM.simulate(..., detect_races=True)``)
    and two threads collide on the same address: a write-write collision
    within one round (nondeterministic outcome), or a read-write /
    write-write hazard between overlapping rounds when barriers are
    disabled.  Carries the structured findings as ``findings``.
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        self.findings = tuple(findings)


# ---------------------------------------------------------------------------
# Scheduling / colouring
# ---------------------------------------------------------------------------


class SchedulingError(ReproError):
    """Base class for errors during offline schedule construction."""


class ColoringError(SchedulingError):
    """An edge colouring could not be constructed or failed verification."""


class NotRegularError(ColoringError, ValueError):
    """A bipartite multigraph expected to be regular is not."""


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


class StaticCheckError(ReproError):
    """Base class for errors raised by :mod:`repro.staticcheck`."""


class CertificateError(StaticCheckError):
    """A conflict-freedom certificate is malformed or cannot be issued.

    Raised when deserialising a structurally invalid certificate, and by
    :func:`repro.core.io.save_plan` when asked to certify a plan whose
    schedule is *not* conflict-free — a plan that fails its own static
    proof must never be persisted as trusted.
    """


class SemanticValidationError(StaticCheckError):
    """Translation validation refuted a program rewrite.

    Raised by :meth:`repro.passes.PassPipeline.run` in ``validate=True``
    mode when an optimization pass changed the denoted index map of a
    kernel program, and by the planner when a lowered program does not
    denote the requested permutation.  Carries the refuting
    :class:`~repro.staticcheck.semantics.SemanticCertificate` as
    ``certificate`` (``None`` when no certificate could be built), whose
    ``blame`` names the offending pass and whose ``counterexample``
    pinpoints the first diverging index.
    """

    def __init__(self, message: str, certificate=None) -> None:
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# Sharding / out-of-core streaming
# ---------------------------------------------------------------------------


class ShardingError(ReproError):
    """Base class for errors raised by :mod:`repro.shard` and the
    streaming executor."""


class ShardRefutedError(ShardingError):
    """A sharded decomposition failed its denotation proof.

    Raised by :func:`repro.shard.shard_program` when the reassembled
    stripe/exchange/stripe program does not denote the same index map
    as the whole program.  Carries the refuting
    :class:`~repro.staticcheck.semantics.SemanticCertificate` as
    ``certificate`` so callers can inspect the counterexample.
    """

    def __init__(self, message: str, certificate=None) -> None:
        super().__init__(message)
        self.certificate = certificate


class ResidentBudgetError(ShardingError):
    """A streaming execution cannot fit its tiles in the resident budget.

    Raised by :class:`repro.exec.StreamingExecutor` *before* any payload
    is moved when even the smallest tile of some phase would exceed
    ``max_resident_bytes``; the fix is a larger budget or a larger shard
    count ``d`` (smaller stripes).
    """


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TelemetryError(ReproError):
    """A telemetry artefact is malformed (invalid Chrome trace, ...)."""


# ---------------------------------------------------------------------------
# Resilience / graceful degradation
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Base class for errors raised by :mod:`repro.resilience`."""


class FaultInjectionError(ResilienceError):
    """The fault-injection API was misused (nested activation, unknown
    fault mode, ...) — never raised by an *injected* fault itself."""


class FallbackExhaustedError(ResilienceError):
    """Every engine in a resilient fallback chain failed.

    Carries the structured :class:`repro.resilience.FailureReport` as
    ``report`` so callers (and the CLI) can show exactly which engine
    failed at which stage on which attempt.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Concurrent serving
# ---------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for errors raised by the concurrent serving core
    (:mod:`repro.service.server`)."""


class ServiceOverloadError(ServingError):
    """The server refused a request to protect itself.

    Raised when the bounded request queue is full (and the request's
    priority does not justify shedding a queued one) or a tenant quota
    is exhausted.  ``retry_after`` is the server's estimate, in
    seconds, of when a retry is likely to be admitted — the
    programmatic equivalent of an HTTP ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class QuotaExceededError(ServiceOverloadError):
    """A tenant exceeded its requests/sec rate or bulkhead quota."""


class DeadlineExceededError(ServingError):
    """A request's deadline expired before a result was produced.

    Deadlines are enforced at admission and at dequeue, so an expired
    request never occupies a worker.
    """
