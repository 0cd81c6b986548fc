"""The ``seal`` pass stage: materialize a program's proven denotation.

Sealing is the terminal stage: it collapses a program — as lowered,
or as a rewrite pipeline left it — into a
:class:`~repro.ir.sealed.SealedProgram` — the flat index map the
program denotes, plus its inverse, with provenance.  Unlike the
rewriting passes it does not return a :class:`KernelProgram`; it
returns the sealed form, so it lives beside the pipeline rather than
inside it.

Correctness is inherited, not asserted: the index map is either the
symbolic denotation of :func:`repro.staticcheck.semantics.
denote_program` (bijectivity proved element by element) or — the fast
path the planner takes — the requested permutation itself, admissible
exactly when a positive translation-validation certificate already
proved ``denote(program) == requested``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SemanticValidationError, ValidationError
from repro.ir.program import KernelProgram
from repro.ir.sealed import SealedProgram, invert_permutation
from repro.staticcheck.semantics import (
    denotation_digest,
    denote_program,
)

__all__ = ["seal_program", "seal_proved"]


def seal_program(
    program: KernelProgram,
    requested: np.ndarray | None = None,
    certificate: Any | None = None,
    fingerprint: str | None = None,
) -> SealedProgram:
    """Collapse ``program`` into its proven :class:`SealedProgram`.

    With a positive ``certificate`` whose ``requested_sha`` digests
    ``requested``, the certificate's proof is reused and ``requested``
    becomes the scatter map directly — no re-denotation
    (:func:`seal_proved`, once the digest ties the two together).
    Otherwise the program is denoted symbolically and the denotation's
    bijectivity proof gates the seal; a program that does not denote a
    permutation raises :class:`~repro.errors.SemanticValidationError`.

    The meta records the denotation digest, the program's access-round
    count (``predicted_rounds``) and, when given, the ``fingerprint``.
    """
    if requested is not None and certificate is not None:
        wanted = np.ascontiguousarray(
            np.asarray(requested, dtype=np.int64)
        )
        if (
            getattr(certificate, "ok", False)
            and getattr(certificate, "requested_sha", None)
            == denotation_digest(wanted)
        ):
            return seal_proved(program, wanted, certificate, fingerprint)
    denotation = denote_program(program)
    if not denotation.ok:
        assert denotation.failure is not None
        raise SemanticValidationError(
            "refusing to seal: program does not denote a "
            f"permutation — {denotation.failure.describe()}"
        )
    scatter = denotation.index_map
    if requested is not None and not np.array_equal(
        scatter, np.asarray(requested, dtype=np.int64)
    ):
        raise SemanticValidationError(
            "refusing to seal: program denotes a different "
            "permutation than the requested one"
        )
    return _sealed(program, scatter, denotation.digest(), fingerprint)


def seal_proved(
    program: KernelProgram,
    proved: np.ndarray,
    certificate: Any,
    fingerprint: str | None = None,
) -> SealedProgram:
    """Seal ``program`` as ``proved``, the very array a positive
    ``certificate`` proved it denotes, without checking that pairing.

    The planner's path: it has just run ``validate_translation(program,
    program, requested=proved)`` and refused a certificate that is not
    ``ok``, so the denotation and its digest are in hand.  Unlike
    :func:`seal_program`, this does not hash ``proved`` to tie it to
    the certificate — the caller vouches for the pair, and the map is
    hashed once per compile.  A caller that holds a certificate and an
    array from different places must use :func:`seal_program`.
    """
    if not getattr(certificate, "ok", False):
        raise SemanticValidationError(
            "refusing to seal: the certificate does not prove the "
            "program denotes the requested permutation"
        )
    scatter = np.ascontiguousarray(np.asarray(proved, dtype=np.int64))
    return _sealed(
        program, scatter, str(certificate.denotation_sha), fingerprint
    )


def _sealed(
    program: KernelProgram,
    scatter: np.ndarray,
    denotation_sha: str,
    fingerprint: str | None,
) -> SealedProgram:
    """The sealed form of ``program`` over its proven ``scatter``."""
    if scatter.shape[0] != program.n:
        raise ValidationError(
            f"sealed index map length {scatter.shape[0]} does not "
            f"match the program's input size {program.n}"
        )
    meta: dict[str, Any] = {
        "denotation_sha": denotation_sha,
        "predicted_rounds": int(program.num_rounds),
    }
    if fingerprint is not None:
        meta["fingerprint"] = fingerprint
    return SealedProgram(
        engine=program.engine,
        width=program.width,
        scatter=scatter,
        gather=invert_permutation(scatter),
        meta=meta,
    )
