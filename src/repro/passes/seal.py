"""The ``seal`` pass stage: materialize a program's proven denotation.

Sealing is the terminal pass: it runs *after* the optimizing pipeline
and collapses whatever program came out of it into a
:class:`~repro.ir.sealed.SealedProgram` — the flat index map the
program denotes, plus its inverse, with provenance.  Unlike the
rewriting passes it does not return a :class:`KernelProgram`; it
returns the sealed form, so it lives beside the pipeline rather than
inside it (the pipeline signature still names what was sealed).

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

__all__ = ["seal_program"]


def seal_program(
    program: KernelProgram,
    requested: np.ndarray | None = None,
    certificate: Any | None = None,
    fingerprint: str | None = None,
    pipeline_signature: str | None = None,
) -> SealedProgram:
    """Collapse ``program`` into its proven :class:`SealedProgram`.

    With a positive ``certificate`` whose ``requested_sha`` digests
    ``requested``, the certificate's proof is reused and ``requested``
    becomes the scatter map directly — no re-denotation (the planner's
    hot path: it just validated the translation).  Otherwise the
    program is denoted symbolically and the denotation's bijectivity
    proof gates the seal; a program that does not denote a permutation
    raises :class:`~repro.errors.SemanticValidationError`.

    ``fingerprint`` / ``pipeline_signature`` stamp the provenance
    meta, alongside the denotation digest and the cost model's
    ``predicted_rounds`` annotation when the program carries one.
    """
    scatter: np.ndarray | None = None
    denotation_sha: str | None = None
    if requested is not None and certificate is not None:
        wanted = np.ascontiguousarray(
            np.asarray(requested, dtype=np.int64)
        )
        if (
            getattr(certificate, "ok", False)
            and getattr(certificate, "requested_sha", None)
            == denotation_digest(wanted)
        ):
            scatter = wanted
            denotation_sha = str(certificate.denotation_sha)
    if scatter is None:
        denotation = denote_program(program)
        if not denotation.ok:
            assert denotation.failure is not None
            raise SemanticValidationError(
                "refusing to seal: program does not denote a "
                f"permutation — {denotation.failure.describe()}"
            )
        scatter = denotation.index_map
        denotation_sha = denotation.digest()
        if requested is not None and not np.array_equal(
            scatter, np.asarray(requested, dtype=np.int64)
        ):
            raise SemanticValidationError(
                "refusing to seal: program denotes a different "
                "permutation than the requested one"
            )
    if scatter.shape[0] != program.n:
        raise ValidationError(
            f"sealed index map length {scatter.shape[0]} does not "
            f"match the program's input size {program.n}"
        )
    meta: dict[str, Any] = {"denotation_sha": denotation_sha}
    if fingerprint is not None:
        meta["fingerprint"] = fingerprint
    if pipeline_signature is not None:
        meta["pipeline"] = pipeline_signature
    rounds = (program.meta or {}).get("predicted_rounds")
    if isinstance(rounds, int) and rounds > 0:
        meta["predicted_rounds"] = rounds
    return SealedProgram(
        engine=program.engine,
        width=program.width,
        scatter=scatter,
        gather=invert_permutation(scatter),
        meta=meta,
    )
