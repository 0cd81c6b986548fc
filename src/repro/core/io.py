"""Plan persistence.

The scheduled algorithm's whole point is that planning happens *once*,
offline — so plans must be storable.  Format version 3 serialises the
engine's *lowered kernel program* (:class:`~repro.ir.program.
KernelProgram`) to a single compressed ``.npz``: the engine name, the
permutation, and one group of keys per op (``op0.kind``, ``op0.gamma``,
``op0.s`` ...) holding exactly the schedule arrays the op carries.
Because every registered engine lowers to the IR, **any** engine's plan
can be saved and loaded — loading rebuilds the planned engine through
``Engine.from_program`` without re-running any colouring.

Because a stored plan is *trusted forever*, the file is self-verifying:
every file carries a SHA-256 checksum over the canonically packed
payload arrays plus a library-version stamp.  :func:`load_plan`
verifies the checksum before the (much more expensive) structural
verification, and maps every way a file can be bad onto a precise
exception:

* unreadable / truncated / key-stripped file →
  :class:`~repro.errors.PlanCorruptionError`,
* checksum mismatch (bit rot, tampering)   →
  :class:`~repro.errors.PlanCorruptionError`,
* written by another format version         →
  :class:`~repro.errors.PlanVersionError`.

Files of the previous format (version 2: the fixed thirteen-key layout
of a scheduled plan) still load — the golden plan in ``tests/data`` is
one — but new files are always written as version 3.

On top of integrity, files embed machine-checked *proofs*:

* files whose engine carries a scheduled plan (the ``scheduled``
  engine itself, or ``padded`` wrapping one) embed an *optimality
  proof*: by default :func:`save_plan` computes the static
  conflict-freedom certificate of :mod:`repro.staticcheck`, binds it
  to the payload checksum and stores it;
* **every** v3 file embeds a *correctness proof*: the semantic
  certificate of :mod:`repro.staticcheck.semantics`, recording that
  the stored program's symbolically-computed denotation is a bijection
  equal to the stored permutation ``p``.

:func:`load_plan` re-validates both — not just the SHA binding: the
semantic certificate's denotation is *recomputed* from the unpacked
program and compared against the certificate digest and the stored
``p``, so a file whose program no longer denotes its permutation is
refused as corrupt even if internally self-consistent.  A loaded plan
is then proven authentic, bank-conflict-free/coalesced (when
applicable) **and** semantically correct without running an executor.
Both certificates are optional extra keys, so their presence does not
change the payload checksum or the format version.

See ``docs/robustness.md`` for the exact file layout and checksum
definition, and ``docs/static-analysis.md`` for both certificates.
"""

from __future__ import annotations

import hashlib
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.colwise import ColumnwiseSchedule
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.core.scheduler import ThreeStepDecomposition
from repro.core.transpose import TiledTranspose
from repro.errors import (
    CertificateError,
    PlanCorruptionError,
    PlanVersionError,
    ValidationError,
)
from repro.ir.ops import OP_KINDS
from repro.ir.program import KernelProgram
from repro.ir.registry import get_engine

#: Format tag stored in every file; bump on incompatible change.
#: Version history: 1 = raw arrays; 2 = adds ``checksum`` (SHA-256 over
#: the payload) and ``library_version`` stamps; 3 = generic lowered
#: kernel programs (any registered engine, ``op{i}.*`` key groups).
FORMAT_VERSION = 3

#: Format tag of sealed sidecar files (``save_sealed``); independent of
#: :data:`FORMAT_VERSION` because sealed artifacts are derived caches,
#: not plans — losing one costs a re-plan, never a wrong answer.
SEALED_FORMAT_VERSION = 1

#: Keys that describe the file rather than the plan; excluded from the
#: checksum so adding a certificate does not change the payload digest.
METADATA_KEYS = (
    "checksum",
    "library_version",
    "certificate",
    "semantic_certificate",
    "pipeline",
    "fingerprint",
    "shard_d",
    "shard_fingerprint",
)

#: Optional provenance metadata the planner stamps on cached plans:
#: the pass-pipeline signature the plan was optimized under, the
#: content-addressed fingerprint it is cached by, and — when the plan
#: was sharded for out-of-core streaming — the shard count and the
#: ``d``-scoped shard fingerprint.
PROVENANCE_KEYS = ("pipeline", "fingerprint", "shard_d",
                   "shard_fingerprint")

#: Version-2 payload keys in their canonical (checksum) order; kept for
#: loading legacy scheduled-plan files.
PAYLOAD_KEYS = (
    "format_version",
    "p",
    "width",
    "colors",
    "gamma1",
    "delta",
    "gamma3",
    "s1",
    "t1",
    "s2",
    "t2",
    "s3",
    "t3",
)


def plan_checksum(arrays: dict, keys: tuple[str, ...] | None = None) -> str:
    """SHA-256 hex digest over the payload arrays of a plan file.

    Each key contributes, in order: its name, the array's dtype string,
    its shape, and its C-contiguous bytes — so any bit flip, shape
    change, retyping, or added/removed key changes the digest.  Version
    3 files hash every non-metadata key in sorted order (the default);
    version 2 files pass ``keys=PAYLOAD_KEYS`` for the legacy fixed
    order.
    """
    if keys is None:
        keys = tuple(sorted(k for k in arrays if k not in METADATA_KEYS))
    digest = hashlib.sha256()
    for key in keys:
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Packing (version 3: generic kernel programs)
# ----------------------------------------------------------------------


def _narrow_index_array(arr: np.ndarray) -> np.ndarray:
    """The narrowest sufficient unsigned dtype for an index array.

    Plan arrays are indices (permutations, schedules, colourings):
    non-negative integers bounded by ``n``.  Stored at ``int64`` they
    waste 4--8x the bytes actually needed, so v3 files narrow them to
    the smallest unsigned dtype that holds the maximum value.  Arrays
    that are not integer, are empty, or contain negatives (sentinel
    conventions) are stored as-is.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind not in "iu" or arr.size == 0:
        return arr
    if arr.dtype.kind == "i" and int(arr.min()) < 0:
        return arr
    return arr.astype(np.min_scalar_type(int(arr.max())))


def _store_narrowed(arrays: dict, key: str, value: np.ndarray) -> None:
    """Store ``value`` under ``key``, narrowed when that saves bytes.

    When narrowing changes the dtype, the original dtype string is
    recorded under ``key + ".dtype"`` so the loader can restore the
    array *bitwise identical* — the simulator prices schedule arrays
    by their in-memory width, so load must not change what the
    planner built.  Sidecar keys are payload (checksummed), never
    metadata: retyping one is tampering.
    """
    value = np.asarray(value)
    narrowed = _narrow_index_array(value)
    arrays[key] = narrowed
    if narrowed.dtype != value.dtype:
        arrays[key + ".dtype"] = np.str_(str(value.dtype))


def _restore_narrowed(arrays: dict, key: str) -> np.ndarray:
    """Load ``arrays[key]``, widening back to its recorded dtype."""
    value = np.asarray(arrays[key])
    sidecar = key + ".dtype"
    if sidecar in arrays:
        value = value.astype(np.dtype(str(arrays[sidecar])))
    return value


def _pack_program(program: KernelProgram, p: np.ndarray) -> dict:
    """Flatten a lowered program (plus its permutation) to npz keys."""
    arrays: dict = {
        "format_version": np.int64(FORMAT_VERSION),
        "engine": np.str_(program.engine),
        "n": np.int64(program.n),
        "width": np.int64(program.width),
        "num_ops": np.int64(len(program.ops)),
    }
    _store_narrowed(arrays, "p", np.asarray(p))
    for i, op in enumerate(program.ops):
        prefix = f"op{i}."
        arrays[prefix + "kind"] = np.str_(op.kind)
        arrays[prefix + "label"] = np.str_(op.label)
        for field in op._ARRAY_FIELDS:
            value = getattr(op, field)
            if value is not None:
                _store_narrowed(arrays, prefix + field, value)
        for field in op._SCALAR_FIELDS:
            arrays[prefix + field] = np.int64(getattr(op, field))
        for field in op._BOOL_FIELDS:
            arrays[prefix + field] = np.bool_(getattr(op, field))
        for field in op._STR_FIELDS:
            arrays[prefix + field] = np.str_(getattr(op, field))
    return arrays


def _unpack_program(path, arrays: dict) -> KernelProgram:
    """Rebuild the :class:`KernelProgram` from npz keys (checksum has
    already vouched for the key set, so failures here mean the file was
    written by an incompatible library, not corrupted)."""
    engine = str(arrays["engine"])
    num_ops = int(arrays["num_ops"])
    ops = []
    for i in range(num_ops):
        prefix = f"op{i}."
        kind = str(arrays[prefix + "kind"])
        op_cls = OP_KINDS.get(kind)
        if op_cls is None:
            raise PlanCorruptionError(
                f"{path}: plan file contains unknown op kind {kind!r}; "
                "the file was written by an incompatible library version"
            )
        kwargs: dict = {"label": str(arrays[prefix + "label"])}
        for field in op_cls._ARRAY_FIELDS:
            if prefix + field in arrays:
                kwargs[field] = _restore_narrowed(
                    arrays, prefix + field
                )
        for field in op_cls._SCALAR_FIELDS:
            kwargs[field] = int(arrays[prefix + field])
        for field in op_cls._BOOL_FIELDS:
            kwargs[field] = bool(arrays[prefix + field])
        for field in op_cls._STR_FIELDS:
            kwargs[field] = str(arrays[prefix + field])
        try:
            ops.append(op_cls(**kwargs))
        except (TypeError, KeyError) as exc:
            raise PlanCorruptionError(
                f"{path}: op {i} ({kind}) is missing required fields: "
                f"{exc}"
            ) from exc
    return KernelProgram(
        engine=engine,
        n=int(arrays["n"]),
        width=int(arrays["width"]),
        ops=tuple(ops),
    )


def _certifiable_plan(plan: Any) -> ScheduledPermutation | None:
    """The scheduled plan inside ``plan`` (itself, or ``plan.inner``
    for the padded wrapper), or ``None`` when the engine has no
    statically certifiable schedule."""
    if isinstance(plan, ScheduledPermutation):
        return plan
    inner = getattr(plan, "inner", None)
    if isinstance(inner, ScheduledPermutation):
        return inner
    return None


def certify_schedule(plan: Any, subject: str,
                     checksum: str | None = None) -> Any | None:
    """Certify the scheduled core of ``plan`` conflict-free/coalesced.

    Runs :func:`~repro.staticcheck.certifier.certify_plan` on the
    certifiable plan inside ``plan`` (bound to the payload
    ``checksum`` when one is given) and attaches the positive
    certificate to it; returns ``None`` for engines without a
    certifiable schedule.  A refuted schedule raises
    :class:`~repro.errors.CertificateError` ("refusing to
    ``subject``"): a conflicted plan must never be persisted as
    trusted.
    """
    certifiable = _certifiable_plan(plan)
    if certifiable is None:
        return None
    from repro.staticcheck.certifier import certify_plan

    cert = certify_plan(certifiable)
    if checksum is not None:
        cert = cert.bound_to(checksum)
    if not cert.ok:
        assert cert.counterexample is not None
        raise CertificateError(
            f"refusing to {subject}: plan is not conflict-free — "
            f"{cert.counterexample.describe()}"
        )
    certifiable.certificate = cert
    return cert


def save_plan(path, plan, certify: bool = True,
              provenance: dict | None = None) -> None:
    """Serialise a planned engine to ``path`` (.npz, format v3).

    ``plan`` may be any registered engine instance (its class carries
    ``engine_name``); anything else raises
    :class:`~repro.errors.ValidationError` naming the offending type.
    The file holds the engine's lowered kernel program and is stamped
    with :data:`FORMAT_VERSION`, the writing library's version, and a
    SHA-256 checksum over the payload.

    With ``certify=True`` (the default) and an engine carrying a
    scheduled plan, the static conflict-freedom certificate is
    computed, bound to that checksum and embedded; a plan that fails
    its own proof raises :class:`~repro.errors.CertificateError` and
    nothing is written — a conflicted plan must never be persisted as
    trusted.  Engines without a certifiable schedule (conventional,
    CPU, DMM) are saved without a conflict certificate.  In the same
    mode, a *semantic* certificate is computed for **every** engine:
    the program's denotation (:func:`repro.staticcheck.semantics.
    denote_program`) is proved a bijection equal to the stored
    permutation, and the digest-bound proof is embedded for the loader
    to re-verify.  A program that fails its own denotation proof also
    raises :class:`~repro.errors.CertificateError` unwritten.  Pass
    ``certify=False`` to write a bare (still checksummed) file.

    ``provenance`` optionally records the planner's compile context —
    :data:`PROVENANCE_KEYS` only (the pass-pipeline signature and the
    content-addressed fingerprint).  Provenance keys are metadata:
    they do not enter the payload checksum, so stamped and unstamped
    files holding the same plan share a digest.
    """
    engine_name = getattr(type(plan), "engine_name", "")
    if not engine_name:
        raise ValidationError(
            f"cannot save a {type(plan).__name__}: not a registered "
            "engine (no engine_name); register the class with "
            "repro.ir.register_engine or pass a planned engine instance"
        )
    if provenance is not None:
        unknown = sorted(set(provenance) - set(PROVENANCE_KEYS))
        if unknown:
            raise ValidationError(
                f"unknown provenance key(s) {unknown}; save_plan "
                f"records only {list(PROVENANCE_KEYS)}"
            )
    from repro import __version__

    program = plan.lower()
    with telemetry.span(
        "plan_io.save", n=program.n, engine=engine_name
    ) as sp:
        arrays = _pack_program(program, plan.p)
        checksum = plan_checksum(arrays)
        extra: dict = {}
        if provenance is not None:
            for key in PROVENANCE_KEYS:
                if key in provenance:
                    extra[key] = np.str_(provenance[key])
        if certify:
            cert = certify_schedule(plan, f"save {path}", checksum)
            if cert is not None:
                extra["certificate"] = np.str_(cert.to_json())
            from repro.staticcheck.semantics import validate_translation

            sem = validate_translation(
                program, program, requested=plan.p
            ).bound_to(checksum)
            if not sem.ok:
                raise CertificateError(
                    f"refusing to save {path}: program does not denote "
                    f"its own permutation — {sem.summary()}"
                )
            extra["semantic_certificate"] = np.str_(sem.to_json())
        np.savez_compressed(
            Path(path),
            checksum=np.str_(checksum),
            library_version=np.str_(__version__),
            **extra,
            **arrays,
        )
        sp.set(file_bytes=Path(path).stat().st_size,
               certified="certificate" in extra,
               semantically_certified="semantic_certificate" in extra)


def _pack_v2(plan: ScheduledPermutation) -> dict:
    return {
        "format_version": np.int64(2),
        "p": plan.p,
        "width": np.int64(plan.width),
        "colors": plan.decomposition.colors,
        "gamma1": plan.decomposition.gamma1,
        "delta": plan.decomposition.delta,
        "gamma3": plan.decomposition.gamma3,
        "s1": plan.step1.s,
        "t1": plan.step1.t,
        "s2": plan.step2.rowwise.s,
        "t2": plan.step2.rowwise.t,
        "s3": plan.step3.s,
        "t3": plan.step3.t,
    }


def save_plan_v2(path, plan: ScheduledPermutation,
                 certify: bool = True) -> None:
    """Write the legacy version-2 layout (scheduled plans only).

    Kept so the migration tests can manufacture v2 files on demand;
    new code should use :func:`save_plan`.
    """
    if not isinstance(plan, ScheduledPermutation):
        raise ValidationError(
            f"expected a ScheduledPermutation, got {type(plan).__name__}"
        )
    from repro import __version__

    arrays = _pack_v2(plan)
    checksum = plan_checksum(arrays, keys=PAYLOAD_KEYS)
    extra: dict = {}
    if certify:
        from repro.staticcheck.certifier import certify_plan

        cert = certify_plan(plan).bound_to(checksum)
        if not cert.ok:
            assert cert.counterexample is not None
            raise CertificateError(
                f"refusing to save {path}: plan is not conflict-"
                f"free — {cert.counterexample.describe()}"
            )
        plan.certificate = cert
        extra["certificate"] = np.str_(cert.to_json())
    np.savez_compressed(
        Path(path),
        checksum=np.str_(checksum),
        library_version=np.str_(__version__),
        **extra,
        **arrays,
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def _read_payload(
    path,
) -> tuple[int, dict, str, str | None, str | None]:
    """Open ``path`` and return ``(format version, payload arrays,
    stored checksum, conflict-certificate JSON or None, semantic-
    certificate JSON or None)``.

    All the ways a file can be unreadable — not a zip at all, truncated
    mid-archive, a metadata key deleted — surface here and are wrapped
    in :class:`PlanCorruptionError` naming the offending path, instead
    of leaking raw ``zipfile`` / ``KeyError`` internals.
    """
    try:
        with np.load(Path(path)) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise PlanCorruptionError(
            f"{path}: plan file is unreadable (truncated or not a "
            f"save_plan archive): {exc}"
        ) from exc
    if "format_version" not in arrays:
        raise PlanCorruptionError(
            f"{path}: plan file is incomplete: format_version is not "
            "a file in the archive"
        )
    version = int(arrays.pop("format_version"))
    if version == 1:
        raise PlanVersionError(
            f"{path}: plan file uses format version 1, which "
            "carried no integrity checksum and can no longer "
            "be trusted or loaded; this build reads versions "
            f"2-{FORMAT_VERSION}.  Re-create the file from the "
            "original permutation with save_plan() or "
            "`python -m repro plan` — planning is "
            "deterministic, so the regenerated schedule is "
            "identical."
        )
    if version not in (2, FORMAT_VERSION):
        raise PlanVersionError(
            f"{path}: unsupported plan format version {version}; "
            f"this build reads versions 2-{FORMAT_VERSION}"
        )
    arrays["format_version"] = np.int64(version)
    if "checksum" not in arrays:
        raise PlanCorruptionError(
            f"{path}: plan file is incomplete: checksum is not a file "
            "in the archive"
        )
    stored = str(arrays.pop("checksum"))
    cert_arr = arrays.pop("certificate", None)
    cert_json = str(cert_arr) if cert_arr is not None else None
    sem_arr = arrays.pop("semantic_certificate", None)
    sem_json = str(sem_arr) if sem_arr is not None else None
    arrays.pop("library_version", None)
    for key in PROVENANCE_KEYS:
        arrays.pop(key, None)
    return version, arrays, stored, cert_json, sem_json


def read_plan_provenance(path) -> dict:
    """The provenance metadata of a plan file, as ``{key: str}``.

    Returns only the :data:`PROVENANCE_KEYS` actually present — an
    empty dict for files written outside the planner (plain
    :func:`save_plan`, legacy v2 files).  Provenance is advisory
    metadata; this helper does **not** verify the plan (use
    :func:`load_plan` for that), but an unreadable file still raises
    :class:`PlanCorruptionError`.
    """
    try:
        with np.load(Path(path)) as data:
            files = set(data.files)
            return {
                key: str(np.asarray(data[key]))
                for key in PROVENANCE_KEYS
                if key in files
            }
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise PlanCorruptionError(
            f"{path}: plan file is unreadable (truncated or not a "
            f"save_plan archive): {exc}"
        ) from exc


def load_plan(path):
    """Rebuild a planned engine saved by :func:`save_plan`.

    Verification happens cheapest-first: format version, then the
    SHA-256 content checksum, then the embedded certificate (well-
    formed, bound to this exact payload checksum, positive, and
    matching the plan's ``n``/``width``), then the full structural
    verification — ``plan.verify()`` when the engine provides it, a
    reference-executor differential against the stored permutation
    otherwise — so a corrupted file fails loudly rather than permuting
    silently wrong, and fails *early* rather than after an expensive
    rebuild.  A validated certificate is attached to the returned
    plan's scheduled core as ``certificate``.

    The returned object is whichever engine class the file names —
    version-2 files always hold a
    :class:`~repro.core.scheduled.ScheduledPermutation`.
    """
    with telemetry.span("plan_io.load") as sp:
        try:
            size = Path(path).stat().st_size
        except OSError:
            size = -1
        sp.set(file_bytes=size)
        return _load_plan_inner(path, sp)


def _load_plan_inner(path, sp):
    version, arrays, stored, cert_json, sem_json = _read_payload(path)
    if version == 2:
        # v2 files predate semantic certificates; any stray
        # semantic_certificate key is ignored.
        return _load_plan_v2(path, arrays, stored, cert_json, sp)
    return _load_plan_v3(path, arrays, stored, cert_json, sem_json, sp)


def _checksum_mismatch(path, stored: str, actual: str) -> PlanCorruptionError:
    return PlanCorruptionError(
        f"{path}: plan checksum mismatch (stored {stored[:12]}..., "
        f"recomputed {actual[:12]}...); the file was corrupted or "
        "tampered with — re-plan from the original permutation"
    )


def _load_plan_v3(path, arrays, stored, cert_json, sem_json, sp):
    actual = plan_checksum(arrays)
    if actual != stored:
        raise _checksum_mismatch(path, stored, actual)
    certificate = None
    if cert_json is not None:
        certificate = _validate_certificate(path, cert_json, actual)
    program = _unpack_program(path, arrays)
    try:
        engine_cls = get_engine(program.engine)
    except ValidationError as exc:
        raise PlanCorruptionError(
            f"{path}: plan file names engine {program.engine!r}, which "
            f"is not in this build's registry: {exc}"
        ) from exc
    p = _restore_narrowed(arrays, "p")
    semantic = None
    if sem_json is not None:
        semantic = _validate_semantic_certificate(
            path, sem_json, actual, program, p
        )
    plan = engine_cls.from_program(program, p)
    if semantic is not None:
        plan.semantic_certificate = semantic
    if certificate is not None:
        certifiable = _certifiable_plan(plan)
        if certifiable is None:
            raise PlanCorruptionError(
                f"{path}: embedded certificate on engine "
                f"{program.engine!r}, which has no certifiable schedule"
            )
        if (certificate.n != certifiable.n
                or certificate.width != certifiable.width):
            raise PlanCorruptionError(
                f"{path}: embedded certificate was issued for n = "
                f"{certificate.n}, w = {certificate.width}, but the "
                f"plan has n = {certifiable.n}, "
                f"w = {certifiable.width}"
            )
        certifiable.certificate = certificate
    with telemetry.span("plan_io.verify", n=program.n):
        verifier = getattr(plan, "verify", None)
        if verifier is not None:
            verifier()
        else:
            _reference_check(path, plan, program)
    sp.set(n=program.n, width=program.width, engine=program.engine,
           certified=certificate is not None,
           semantically_certified=semantic is not None)
    return plan


def _reference_check(path, plan, program: KernelProgram) -> None:
    """Structural check for engines without ``verify()``: the loaded
    program must realise the stored permutation exactly."""
    from repro.exec.reference import ReferenceExecutor

    a = np.arange(program.n, dtype=np.int64)
    out = ReferenceExecutor().run(program, a)
    expected = np.empty_like(a)
    expected[np.asarray(plan.p, dtype=np.int64)] = a
    if not np.array_equal(out, expected):
        raise PlanCorruptionError(
            f"{path}: loaded program does not realise its stored "
            "permutation — the schedule arrays are inconsistent"
        )


def _load_plan_v2(path, arrays, stored, cert_json, sp):
    missing = [key for key in PAYLOAD_KEYS if key not in arrays]
    if missing:
        raise PlanCorruptionError(
            f"{path}: plan file is incomplete: {missing[0]} is not a "
            "file in the archive"
        )
    actual = plan_checksum(arrays, keys=PAYLOAD_KEYS)
    if actual != stored:
        raise _checksum_mismatch(path, stored, actual)
    certificate = None
    if cert_json is not None:
        certificate = _validate_certificate(path, cert_json, actual)
    p = arrays["p"]
    width = int(arrays["width"])
    decomposition = ThreeStepDecomposition(
        gamma1=arrays["gamma1"],
        delta=arrays["delta"],
        gamma3=arrays["gamma3"],
        colors=arrays["colors"],
    )
    m = decomposition.m
    step1 = RowwiseSchedule(
        gamma=decomposition.gamma1, s=arrays["s1"], t=arrays["t1"],
        width=width,
    )
    step2 = ColumnwiseSchedule(
        rowwise=RowwiseSchedule(
            gamma=decomposition.delta, s=arrays["s2"], t=arrays["t2"],
            width=width,
        ),
        transpose=TiledTranspose(m, width),
    )
    step3 = RowwiseSchedule(
        gamma=decomposition.gamma3, s=arrays["s3"], t=arrays["t3"],
        width=width,
    )
    plan = ScheduledPermutation(
        p=p,
        width=width,
        decomposition=decomposition,
        step1=step1,
        step2=step2,
        step3=step3,
        certificate=certificate,
    )
    if certificate is not None and (
        certificate.n != plan.n or certificate.width != width
    ):
        raise PlanCorruptionError(
            f"{path}: embedded certificate was issued for n = "
            f"{certificate.n}, w = {certificate.width}, but the plan "
            f"has n = {plan.n}, w = {width}"
        )
    with telemetry.span("plan_io.verify", n=plan.n):
        plan.verify()
    sp.set(n=plan.n, width=width, engine="scheduled",
           certified=certificate is not None)
    return plan


def _validate_certificate(path, cert_json: str, checksum: str):
    """Parse and police an embedded certificate (all failure modes are
    :class:`PlanCorruptionError` — a bad certificate means the file was
    hand-edited or spliced together from two files)."""
    from repro.staticcheck.certifier import Certificate

    try:
        cert = Certificate.from_json(cert_json)
    except CertificateError as exc:
        raise PlanCorruptionError(
            f"{path}: embedded certificate is malformed: {exc}"
        ) from exc
    if cert.plan_sha != checksum:
        raise PlanCorruptionError(
            f"{path}: embedded certificate is bound to payload "
            f"{str(cert.plan_sha)[:12]}..., not this file's "
            f"{checksum[:12]}... — certificate and payload do not "
            "belong together"
        )
    if not cert.ok:
        assert cert.counterexample is not None
        raise PlanCorruptionError(
            f"{path}: embedded certificate records a conflict "
            f"({cert.counterexample.describe()}); a negative "
            "certificate must never be persisted"
        )
    return cert


def _validate_semantic_certificate(
    path, sem_json: str, checksum: str, program: KernelProgram,
    p: np.ndarray,
):
    """Parse and *re-prove* an embedded semantic certificate.

    Beyond the structural checks (well-formed JSON, bound to this
    payload checksum, positive verdict), the program's denotation is
    recomputed from the unpacked ops and compared against both the
    certificate's digest and the stored permutation — so the
    certificate cannot vouch for a program that no longer denotes its
    permutation, even if the rest of the file is self-consistent.
    """
    from repro.staticcheck.semantics import (
        SemanticCertificate,
        denotation_digest,
        denote_program,
    )

    try:
        cert = SemanticCertificate.from_json(sem_json)
    except CertificateError as exc:
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate is malformed: {exc}"
        ) from exc
    if cert.plan_sha != checksum:
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate is bound to "
            f"payload {str(cert.plan_sha)[:12]}..., not this file's "
            f"{checksum[:12]}... — certificate and payload do not "
            "belong together"
        )
    if not cert.ok:
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate records a "
            f"refutation ({cert.summary()}); a negative certificate "
            "must never be persisted"
        )
    denotation = denote_program(program)
    if not denotation.ok:
        assert denotation.failure is not None
        raise PlanCorruptionError(
            f"{path}: stored program does not denote a permutation "
            f"({denotation.failure.describe()}), but the file carries "
            "a positive semantic certificate"
        )
    if denotation.digest() != cert.denotation_sha:
        raise PlanCorruptionError(
            f"{path}: recomputed program denotation "
            f"{denotation.digest()[:12]}... does not match the "
            f"certified {cert.denotation_sha[:12]}... — the program "
            "was altered after certification"
        )
    stored_p = np.asarray(p, dtype=np.int64)
    if not np.array_equal(denotation.index_map, stored_p):
        raise PlanCorruptionError(
            f"{path}: stored program denotes a different permutation "
            "than the stored p — the schedule arrays are inconsistent"
        )
    if (cert.requested_sha is not None
            and cert.requested_sha != denotation_digest(stored_p)):
        raise PlanCorruptionError(
            f"{path}: embedded semantic certificate was issued for a "
            "different requested permutation than the stored p"
        )
    return cert


# ----------------------------------------------------------------------
# Sealed artifacts (the third compilation tier)
# ----------------------------------------------------------------------

#: Metadata keys of sealed sidecar files — excluded from the payload
#: checksum, like :data:`METADATA_KEYS` for plan files.  ``plan_sha``
#: is only ever found in sidecars of older builds, which bound the
#: sidecar to a plan file written beside it; it is ignored on load.
SEALED_METADATA_KEYS = (
    "checksum",
    "library_version",
    "semantic_certificate",
    "plan_sha",
    "fingerprint",
    "pipeline",
)


def _zigzag_encode(deltas: np.ndarray) -> np.ndarray:
    """Map signed deltas onto small unsigned values (order-preserving
    in magnitude), so near-sorted gathers narrow to tiny dtypes."""
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def _zigzag_decode(codes: np.ndarray) -> np.ndarray:
    zz = np.ascontiguousarray(codes, dtype=np.uint64)
    half = (zz >> np.uint64(1)).view(np.int64)
    sign = (zz & np.uint64(1)).view(np.int64)
    return half ^ -sign


def save_sealed(path, sealed) -> None:
    """Serialise a :class:`~repro.ir.sealed.SealedProgram` to ``path``.

    The gather index is stored **delta-encoded**: zigzagged first
    differences of the (near-sorted for structured permutations)
    gather array, narrowed to the smallest sufficient unsigned dtype —
    a sealed sidecar for ``n = 2^20`` costs a fraction of its ``int64``
    in-memory form.  The scatter map is not stored at all; the loader
    re-derives it as the gather's inverse.

    Integrity mirrors plan files: a SHA-256 checksum over the payload
    keys, the denotation digest of the scatter map as a payload key
    (so a decoded artifact is re-provable), and the semantic
    certificate carried by the sealed program embedded as metadata.
    The artifact is *re-proved on load*; a sealed program that fails
    its own :meth:`verify` is refused unwritten.
    """
    from repro import __version__
    from repro.staticcheck.semantics import denotation_digest

    sealed.verify()
    with telemetry.span(
        "plan_io.save_sealed", n=sealed.n, engine=sealed.engine
    ) as sp:
        deltas = np.diff(sealed.gather, prepend=np.int64(0))
        arrays: dict = {
            "sealed_version": np.int64(SEALED_FORMAT_VERSION),
            "engine": np.str_(sealed.engine),
            "n": np.int64(sealed.n),
            "width": np.int64(sealed.width),
            "denotation_sha": np.str_(
                denotation_digest(sealed.scatter)
            ),
        }
        _store_narrowed(arrays, "gather_delta", _zigzag_encode(deltas))
        rounds = sealed.meta.get("predicted_rounds")
        if isinstance(rounds, int) and rounds > 0:
            arrays["predicted_rounds"] = np.int64(rounds)
        checksum = plan_checksum(
            arrays, keys=tuple(sorted(arrays))
        )
        extra: dict = {}
        for key in ("fingerprint", "pipeline"):
            if sealed.meta.get(key):
                extra[key] = np.str_(str(sealed.meta[key]))
        if sealed.certificate is not None:
            extra["semantic_certificate"] = np.str_(
                sealed.certificate.to_json()
            )
        np.savez_compressed(
            Path(path),
            checksum=np.str_(checksum),
            library_version=np.str_(__version__),
            **extra,
            **arrays,
        )
        sp.set(file_bytes=Path(path).stat().st_size)


def load_sealed(path):
    """Rebuild and **re-prove** a sealed artifact saved by
    :func:`save_sealed`.

    Verification ladder, cheapest first: payload checksum, delta
    decode, scatter re-derivation, denotation digest comparison
    against the stored ``denotation_sha``, mutual-inverse proof
    (:meth:`~repro.ir.sealed.SealedProgram.verify`), and the embedded
    semantic certificate against that digest.  Any failure raises
    :class:`~repro.errors.PlanCorruptionError`; a sealed artifact is a
    derived cache, so the caller heals by re-planning, never by
    trusting the file.
    """
    with telemetry.span("plan_io.load_sealed") as sp:
        try:
            with np.load(Path(path)) as data:
                arrays = {k: np.asarray(data[k]) for k in data.files}
        except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
            raise PlanCorruptionError(
                f"{path}: sealed artifact is unreadable (truncated or "
                f"not a save_sealed archive): {exc}"
            ) from exc
        sealed = _decode_sealed(path, arrays)
        sp.set(n=sealed.n, engine=sealed.engine)
        return sealed


def _decode_sealed(path, arrays: dict):
    from repro.ir.sealed import SealedProgram, invert_permutation
    from repro.staticcheck.semantics import (
        SemanticCertificate,
        denotation_digest,
    )

    for key in ("checksum", "sealed_version", "n", "gather_delta"):
        if key not in arrays:
            raise PlanCorruptionError(
                f"{path}: sealed artifact is incomplete: {key} is not "
                "a file in the archive"
            )
    version = int(arrays["sealed_version"])
    if version != SEALED_FORMAT_VERSION:
        raise PlanVersionError(
            f"{path}: unsupported sealed format version {version}; "
            f"this build reads version {SEALED_FORMAT_VERSION}"
        )
    stored = str(arrays.pop("checksum"))
    sem_arr = arrays.pop("semantic_certificate", None)
    arrays.pop("plan_sha", None)
    fingerprint_arr = arrays.pop("fingerprint", None)
    pipeline_arr = arrays.pop("pipeline", None)
    arrays.pop("library_version", None)
    actual = plan_checksum(arrays, keys=tuple(sorted(arrays)))
    if actual != stored:
        raise _checksum_mismatch(path, stored, actual)
    n = int(arrays["n"])
    deltas = _zigzag_decode(
        _restore_narrowed(arrays, "gather_delta")
    )
    if deltas.shape[0] != n:
        raise PlanCorruptionError(
            f"{path}: sealed artifact stores {deltas.shape[0]} gather "
            f"deltas for n = {n} — the index data is inconsistent"
        )
    gather = np.cumsum(deltas, dtype=np.int64)
    if n and (int(gather.min()) < 0 or int(gather.max()) >= n):
        raise PlanCorruptionError(
            f"{path}: decoded sealed gather leaves the range "
            f"0..{n - 1} — the index data is corrupted"
        )
    scatter = invert_permutation(gather)
    if str(arrays["denotation_sha"]) != denotation_digest(scatter):
        raise PlanCorruptionError(
            f"{path}: decoded sealed map digests "
            f"{denotation_digest(scatter)[:12]}..., not the stored "
            f"{str(arrays['denotation_sha'])[:12]}... — the artifact "
            "no longer encodes its certified permutation"
        )
    certificate = None
    if sem_arr is not None:
        try:
            certificate = SemanticCertificate.from_json(str(sem_arr))
        except CertificateError as exc:
            raise PlanCorruptionError(
                f"{path}: embedded semantic certificate is malformed: "
                f"{exc}"
            ) from exc
        if not certificate.ok:
            raise PlanCorruptionError(
                f"{path}: embedded semantic certificate records a "
                "refutation; a negative certificate must never be "
                "persisted"
            )
        if certificate.denotation_sha != str(arrays["denotation_sha"]):
            raise PlanCorruptionError(
                f"{path}: embedded semantic certificate digests a "
                "different denotation than the sealed map"
            )
    meta: dict = {"denotation_sha": str(arrays["denotation_sha"])}
    if fingerprint_arr is not None:
        meta["fingerprint"] = str(fingerprint_arr)
    if pipeline_arr is not None:
        meta["pipeline"] = str(pipeline_arr)
    if "predicted_rounds" in arrays:
        meta["predicted_rounds"] = int(arrays["predicted_rounds"])
    sealed = SealedProgram(
        engine=str(arrays.get("engine", "")),
        width=int(arrays.get("width", 0)),
        scatter=scatter,
        gather=gather,
        meta=meta,
        certificate=certificate,
    )
    sealed.verify()
    return sealed
