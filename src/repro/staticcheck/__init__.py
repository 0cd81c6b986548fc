"""Static analysis for scheduled-permutation plans.

Four layers, all pure functions over arrays and source text — nothing
here runs the simulator:

* :mod:`repro.staticcheck.certifier` — proves the memory-access rounds
  of a lowered kernel program (the scheduled plan's 32, via
  :func:`certify_plan`, or any regular program's, via
  :func:`certify_program`) bank-conflict-free (DMM) and fully coalesced
  (UMM) from the schedule arrays alone, emitting a :class:`Certificate`
  or a precise :class:`Counterexample`;
* :mod:`repro.staticcheck.semantics` — abstractly interprets any
  kernel program into its denoted index map (:func:`denote_program`),
  proves it a bijection, and performs translation validation of the
  pass pipeline (:func:`validate_translation`), emitting a
  :class:`SemanticCertificate`;
* :mod:`repro.staticcheck.races` — write-write / read-write race
  detection over access-round traces, wired into the emulators behind
  ``detect_races=True``;
* :mod:`repro.staticcheck.lint` — project-specific AST rules
  (``python -m repro check``), including the REP106/REP107
  concurrency rules over the serving core.
"""

from __future__ import annotations

from repro.ir.rounds import StaticRound, program_rounds
from repro.staticcheck.certifier import (
    CERTIFICATE_VERSION,
    Certificate,
    Counterexample,
    RoundVerdict,
    analyze_round,
    certify_plan,
    certify_program,
    certify_rounds,
    global_group_counts,
    plan_rounds,
    shared_bank_multiplicities,
)
from repro.staticcheck.lint import (
    LINT_RULES,
    LintFinding,
    lint_source,
    run_lint,
)
from repro.staticcheck.races import (
    RaceFinding,
    check_races,
    detect_races,
    find_cross_round_hazards,
    find_intra_round_races,
)
from repro.staticcheck.semantics import (
    SEMANTIC_CERTIFICATE_VERSION,
    OpDenotation,
    ProgramDenotation,
    SemanticCertificate,
    SemanticCounterexample,
    denotation_digest,
    denote_program,
    prove_bijection,
    validate_translation,
)

__all__ = [
    "CERTIFICATE_VERSION",
    "Certificate",
    "Counterexample",
    "LINT_RULES",
    "LintFinding",
    "OpDenotation",
    "ProgramDenotation",
    "RaceFinding",
    "RoundVerdict",
    "SEMANTIC_CERTIFICATE_VERSION",
    "SemanticCertificate",
    "SemanticCounterexample",
    "StaticRound",
    "analyze_round",
    "certify_plan",
    "certify_program",
    "certify_rounds",
    "check_races",
    "denotation_digest",
    "denote_program",
    "detect_races",
    "find_cross_round_hazards",
    "find_intra_round_races",
    "global_group_counts",
    "lint_source",
    "prove_bijection",
    "plan_rounds",
    "program_rounds",
    "run_lint",
    "shared_bank_multiplicities",
    "validate_translation",
]
