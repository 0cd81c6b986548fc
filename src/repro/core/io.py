"""Plan persistence.

The scheduled algorithm's whole point is that planning happens *once*,
offline — so plans must be storable.  Two on-disk formats share one
checked codec in this module:

* **plan files** (:func:`save_plan` / :func:`load_plan`, format version
  3) serialise an engine's *lowered kernel program*
  (:class:`~repro.ir.program.KernelProgram`) to a single compressed
  ``.npz``: the engine name, the permutation, and one group of keys
  per op (``op0.kind``, ``op0.gamma``, ``op0.s`` ...) holding exactly
  the schedule arrays the op carries.  Because every registered engine
  lowers to the IR, **any** engine's plan can be saved and loaded —
  loading rebuilds the planned engine through ``Engine.from_program``
  without re-running any colouring;
* **sealed sidecars** (:func:`save_sealed` / :func:`load_sealed`,
  sealed version 1) store a proven flat gather, delta-encoded — the
  planner's disk tier.

Because a stored artifact is *trusted forever*, every file is
self-verifying: it carries a SHA-256 checksum over its canonically
packed payload arrays plus a library-version stamp.  Both loaders go
through one reader, which verifies the format version, the presence of
every required key and the checksum before any (much more expensive)
structural verification, and maps every way a file can be bad onto a
precise exception:

* unreadable / truncated / key-stripped file →
  :class:`~repro.errors.PlanCorruptionError`,
* checksum mismatch (bit rot, tampering)   →
  :class:`~repro.errors.PlanCorruptionError`,
* written by another format version         →
  :class:`~repro.errors.PlanVersionError`.

Older plan formats (version 1: raw arrays; version 2: the fixed
thirteen-key scheduled layout) are refused with a message saying how
to re-create the file; planning is deterministic, so the regenerated
schedule is identical.

On top of integrity, files embed machine-checked *proofs*:

* plan files whose engine carries a scheduled plan (the ``scheduled``
  engine itself, or ``padded`` wrapping one) embed an *optimality
  proof*: by default :func:`save_plan` computes the static
  conflict-freedom certificate of :mod:`repro.staticcheck`, binds it
  to the payload checksum and stores it;
* **every** plan file embeds a *correctness proof*: the semantic
  certificate of :mod:`repro.staticcheck.semantics`, recording that
  the stored program's symbolically-computed denotation is a bijection
  equal to the stored permutation ``p``.

:func:`load_plan` does not trust them: it rebuilds the engine, runs
the same two proofs again (:func:`prove_plan`, as a compile does),
checks that the engine lowers to exactly the stored program, and
refuses the file unless each embedded certificate equals the one just
recomputed.  A loaded plan is then proven authentic,
bank-conflict-free/coalesced (when applicable) **and** semantically
correct without running an executor.  Both certificates are metadata
keys, so their presence does not change the payload checksum or the
format version.

See ``docs/robustness.md`` for the exact file layout and checksum
definition, and ``docs/static-analysis.md`` for both certificates.
"""

from __future__ import annotations

import hashlib
import os
import threading
import zipfile
import zlib
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.scheduled import ScheduledPermutation
from repro.errors import (
    CertificateError,
    PlanCorruptionError,
    PlanVersionError,
    ValidationError,
)
from repro.ir.ops import OP_KINDS
from repro.ir.program import KernelProgram
from repro.ir.registry import get_engine

#: Format tag stored in every plan file; bump on incompatible change.
#: Version history: 1 = raw arrays; 2 = adds ``checksum`` (SHA-256 over
#: the payload) and ``library_version`` stamps; 3 = generic lowered
#: kernel programs (any registered engine, ``op{i}.*`` key groups).
#: Only version 3 loads.
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

#: Optional provenance metadata ``repro plan`` stamps on plan files:
#: the content-addressed fingerprint and — when the plan was sharded
#: for out-of-core streaming — the shard count and the ``d``-scoped
#: shard fingerprint.  ``pipeline`` (the pass-pipeline signature) is
#: only written by older builds; readers still return it.
PROVENANCE_KEYS = ("pipeline", "fingerprint", "shard_d",
                   "shard_fingerprint")

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


#: A plan-file or sidecar member is deflated only when a level-1
#: deflate of its first :data:`DEFLATE_PROBE_BYTES` bytes shrinks them
#: to at most this fraction; otherwise it is stored as is
#: (``ZIP_STORED``).
DEFLATE_MAX_RATIO = 0.5

#: How much of a member the deflate probe compresses.
DEFLATE_PROBE_BYTES = 16 * 1024


def plan_checksum(arrays: dict) -> str:
    """SHA-256 hex digest over the payload arrays of a plan or sidecar.

    Every key outside :data:`METADATA_KEYS` contributes, in sorted
    order: its name, the array's dtype string, its shape, and its
    C-contiguous bytes — so any bit flip, shape change, retyping, or
    added/removed key changes the digest.
    """
    digest = hashlib.sha256()
    for key in sorted(k for k in arrays if k not in METADATA_KEYS):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The archive codec (shared by plan files and sealed sidecars)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Format:
    """What the shared codec needs to know about one on-disk format."""

    kind: str                   #: names the file in error messages
    writer: str                 #: the function that writes it
    version_key: str
    version: int
    required: tuple[str, ...]   #: payload keys every file must hold
    metadata: tuple[str, ...]   #: keys outside the payload checksum
    remedy: str                 #: what to do about a stale version


_PLAN = _Format(
    kind="plan file",
    writer="save_plan",
    version_key="format_version",
    version=FORMAT_VERSION,
    required=("engine", "n", "width", "num_ops", "p"),
    metadata=METADATA_KEYS,
    remedy=(
        "Re-create the file from the original permutation with "
        "save_plan() or `python -m repro plan` — planning is "
        "deterministic, so the regenerated schedule is identical."
    ),
)

_SEALED = _Format(
    kind="sealed artifact",
    writer="save_sealed",
    version_key="sealed_version",
    version=SEALED_FORMAT_VERSION,
    required=("engine", "n", "width", "denotation_sha", "gather_delta"),
    metadata=SEALED_METADATA_KEYS,
    remedy=(
        "Delete it: a sidecar is a derived cache, and the planner "
        "re-plans and rewrites it on the next compile."
    ),
)


def _deflates(value: np.ndarray) -> bool:
    """Whether a level-1 deflate of the first
    :data:`DEFLATE_PROBE_BYTES` of ``value``'s data shrinks them to at
    most :data:`DEFLATE_MAX_RATIO` of their size.  The probe's ratio
    tracks the whole member's: 0.763 against 0.748 for a random 2¹⁸
    map's deltas, 0.014 against 0.008 for bit-reversal's."""
    count = max(DEFLATE_PROBE_BYTES // max(value.itemsize, 1), 1)
    head = value.reshape(-1)[:count].tobytes()
    return len(zlib.compress(head, 1)) <= DEFLATE_MAX_RATIO * len(head)


def _write_archive(path, payload: dict, checksum: str,
                   metadata: dict) -> int:
    """Write one archive — checksum, library version, the ``metadata``
    strings, then the payload arrays — and return its size in bytes.

    The layout is ``np.savez_compressed``'s, so ``np.load`` reads it
    unchanged, and like ``np.savez`` a path without the ``.npz``
    suffix gains it.  Members are deflated at level 1: on a 2¹⁸
    scatter map that is about four times faster than zlib's default
    level 6, and the archive stays within a few percent of the size
    (larger for a random map, smaller for bit-reversal).  A member
    whose probe (:func:`_deflates`) shows deflate would not pay is
    stored instead: deflating a random 2¹⁸ map's 1 MiB of deltas takes
    about 35 ms to save a quarter of its bytes, and a random plan's
    schedule arrays barely shrink either, while inflating them was
    about half of ``load_plan``.

    The write is atomic: the archive goes to a hidden temporary
    sibling that :func:`os.replace` moves into place, so a reader (or
    a crash mid-write) sees the old file or the new one, never a
    truncated one, and the sibling is removed if the write fails.
    """
    from repro import __version__

    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    members = {
        "checksum": np.str_(checksum),
        "library_version": np.str_(__version__),
        **{key: np.str_(value) for key, value in metadata.items()},
        **payload,
    }
    directory, name = os.path.split(path)
    tmp = os.path.join(
        directory,
        f".{name}.{os.getpid()}.{threading.get_ident()}.tmp",
    )
    try:
        with zipfile.ZipFile(
            tmp, mode="w", compression=zipfile.ZIP_DEFLATED,
            compresslevel=1, allowZip64=True,
        ) as archive:
            for key, value in members.items():
                value = np.asanyarray(value)
                member: str | zipfile.ZipInfo = key + ".npy"
                if not _deflates(value):
                    # A ZipInfo's compress_type defaults to ZIP_STORED.
                    member = zipfile.ZipInfo(key + ".npy")
                with archive.open(member, "w", force_zip64=True) as f:
                    np.lib.format.write_array(
                        f, value, allow_pickle=False
                    )
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return os.stat(path).st_size


def _require(path, fmt: _Format, arrays: dict, keys) -> None:
    for key in keys:
        if key not in arrays:
            raise PlanCorruptionError(
                f"{path}: {fmt.kind} is incomplete: {key} is not a "
                "file in the archive"
            )


def _read_archive(path, fmt: _Format, required=()) -> dict:
    """Open the archive at ``path`` as ``{key: array}``.

    All the ways a file can be unreadable — not a zip at all,
    truncated mid-archive, a ``required`` key deleted — surface here as
    :class:`PlanCorruptionError` naming the offending path, instead of
    leaking raw ``zipfile`` / ``KeyError`` internals.
    """
    try:
        with np.load(Path(path)) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise PlanCorruptionError(
            f"{path}: {fmt.kind} is unreadable (truncated or not a "
            f"{fmt.writer} archive): {exc}"
        ) from exc
    _require(path, fmt, arrays, required)
    return arrays


def _read_verified(path, fmt: _Format) -> tuple[dict, dict, str]:
    """Read ``path`` and check it up to its checksum.

    Cheapest first: the format version (so a stale file gets the
    actionable version message even though its checksum is stale
    too), every required key, then the payload checksum.  Returns
    ``(payload arrays, metadata strings, checksum)``.
    """
    arrays = _read_archive(path, fmt, (fmt.version_key,))
    version = int(arrays[fmt.version_key])
    if version != fmt.version:
        raise PlanVersionError(
            f"{path}: {fmt.kind} uses format version {version}; this "
            f"build reads version {fmt.version} only.  {fmt.remedy}"
        )
    _require(path, fmt, arrays, ("checksum",) + fmt.required)
    meta = {
        key: str(arrays.pop(key)) for key in fmt.metadata if key in arrays
    }
    stored = meta.pop("checksum")
    actual = plan_checksum(arrays)
    if actual != stored:
        raise PlanCorruptionError(
            f"{path}: {fmt.kind} checksum mismatch (stored "
            f"{stored[:12]}..., recomputed {actual[:12]}...); the file "
            "was corrupted or tampered with — re-plan from the "
            "original permutation"
        )
    return arrays, meta, actual


def _parse_certificate(path, cert_cls, label: str, text: str,
                       binding: str, bound_to: str):
    """Parse and police an embedded certificate of ``cert_cls``.

    The certificate must be well-formed, carry ``bound_to`` in its
    ``binding`` field (the payload checksum for plan files, the
    denotation digest for sidecars) and be positive.  Every failure is
    a :class:`PlanCorruptionError`: a bad certificate means the file
    was hand-edited or spliced together from two files.
    """
    try:
        cert = cert_cls.from_json(text)
    except CertificateError as exc:
        raise PlanCorruptionError(
            f"{path}: embedded {label} is malformed: {exc}"
        ) from exc
    found = getattr(cert, binding)
    if found != bound_to:
        raise PlanCorruptionError(
            f"{path}: embedded {label} is bound to {binding} "
            f"{str(found)[:12]}..., not this file's {bound_to[:12]}... "
            "— certificate and payload do not belong together"
        )
    if not cert.ok:
        raise PlanCorruptionError(
            f"{path}: embedded {label} records a refutation "
            f"({cert.summary()}); a negative certificate must never "
            "be persisted"
        )
    return cert


# ----------------------------------------------------------------------
# Packing
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
        _require(path, _PLAN, arrays, (prefix + "kind",))
        kind = str(arrays[prefix + "kind"])
        op_cls = OP_KINDS.get(kind)
        if op_cls is None:
            raise PlanCorruptionError(
                f"{path}: plan file contains unknown op kind {kind!r}; "
                "the file was written by an incompatible library version"
            )
        _require(path, _PLAN, arrays, [
            prefix + field
            for field in ("label", *op_cls._SCALAR_FIELDS,
                          *op_cls._BOOL_FIELDS, *op_cls._STR_FIELDS)
        ])
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


def prove_plan(
    plan: Any,
    checksum: str | None = None,
    phase: Callable[[str], AbstractContextManager[Any]] = (
        lambda name: nullcontext()
    ),
) -> tuple[KernelProgram, Any | None, Any]:
    """Run the two proofs of a scheduled plan (``docs/theory.md`` §8).

    1. The 32-round certificate
       (:func:`~repro.staticcheck.certifier.certify_plan`) of the
       certifiable plan inside ``plan``: every shared round
       conflict-free, every global round coalesced.  ``None`` for
       engines without a certifiable schedule.
    2. ``validate_translation(program, program, requested=plan.p)`` on
       the lowered ``program``: it denotes a bijection equal to ``p``.

    Returns ``(program, certificate, semantic certificate)``, both
    certificates bound to ``checksum`` when one is given, and attaches
    a positive conflict certificate to the certifiable plan.  Never
    raises on a refutation: the planner, :func:`save_plan` and
    :func:`load_plan` each refuse a negative certificate in their own
    terms.  ``phase(name)`` wraps each proof (``"certify"``, then
    ``"denote"``), so the planner can time them apart.
    """
    from repro.staticcheck import certifier
    from repro.staticcheck.semantics import validate_translation

    certifiable = _certifiable_plan(plan)
    cert = None
    with phase("certify"):
        if certifiable is not None:
            cert = certifier.certify_plan(certifiable)
    with phase("denote"):
        program = plan.lower()
        sem = validate_translation(
            program, program, requested=np.asarray(plan.p)
        )
    if checksum is not None:
        sem = sem.bound_to(checksum)
        cert = None if cert is None else cert.bound_to(checksum)
    if cert is not None and cert.ok:
        certifiable.certificate = cert
    return program, cert, sem


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
    :data:`PROVENANCE_KEYS` only (e.g. the content-addressed
    fingerprint).  Provenance keys are metadata: they do not enter the
    payload checksum, so stamped and unstamped files holding the same
    plan share a digest.
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

    program = plan.lower()
    with telemetry.span(
        "plan_io.save", n=program.n, engine=engine_name
    ) as sp:
        arrays = _pack_program(program, plan.p)
        checksum = plan_checksum(arrays)
        metadata = {
            key: provenance[key]
            for key in PROVENANCE_KEYS
            if provenance is not None and key in provenance
        }
        if certify:
            _, cert, sem = prove_plan(plan, checksum)
            if cert is not None:
                if not cert.ok:
                    assert cert.counterexample is not None
                    raise CertificateError(
                        f"refusing to save {path}: plan is not "
                        "conflict-free — "
                        f"{cert.counterexample.describe()}"
                    )
                metadata["certificate"] = cert.to_json()
            if not sem.ok:
                raise CertificateError(
                    f"refusing to save {path}: program does not denote "
                    f"its own permutation — {sem.summary()}"
                )
            metadata["semantic_certificate"] = sem.to_json()
        sp.set(file_bytes=_write_archive(path, arrays, checksum, metadata),
               certified="certificate" in metadata,
               semantically_certified="semantic_certificate" in metadata)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def read_plan_provenance(path) -> dict:
    """The provenance metadata of a plan file, as ``{key: str}``.

    Returns only the :data:`PROVENANCE_KEYS` actually present — an
    empty dict for files written outside the planner (plain
    :func:`save_plan`).  Provenance is advisory metadata; this helper
    does **not** verify the plan (use :func:`load_plan` for that), but
    an unreadable file still raises :class:`PlanCorruptionError`.
    """
    arrays = _read_archive(path, _PLAN)
    return {
        key: str(arrays[key]) for key in PROVENANCE_KEYS if key in arrays
    }


def load_plan(path):
    """Rebuild a planned engine saved by :func:`save_plan`.

    Verification happens cheapest-first: format version, required
    keys, then the SHA-256 content checksum, then each embedded
    certificate (well-formed, bound to this exact payload checksum,
    positive).  The engine is then rebuilt and proved with
    :func:`prove_plan` — the proofs a compile runs — whether or not
    the file embeds certificates: its lowering must be exactly the
    stored program (same payload checksum), conflict-free/coalesced
    when it has a scheduled core, and denote the stored permutation,
    and each embedded certificate must equal the recomputed one.  Any
    failure raises :class:`~repro.errors.PlanCorruptionError`, so a
    corrupted file fails loudly rather than permuting silently wrong.
    The returned plan carries the certificates its file embeds
    (``certificate`` on its scheduled core, ``semantic_certificate``
    on the engine).

    The returned object is whichever engine class the file names.
    """
    with telemetry.span("plan_io.load") as sp:
        try:
            size = Path(path).stat().st_size
        except OSError:
            size = -1
        sp.set(file_bytes=size)
        return _load_plan_inner(path, sp)


def _load_plan_inner(path, sp):
    from repro.staticcheck.certifier import Certificate
    from repro.staticcheck.semantics import SemanticCertificate

    # The certificates a file may embed: metadata key, class, the name
    # error messages use, and the proof of prove_plan it records.
    proofs = (
        ("certificate", Certificate, "certificate",
         "32-round certificate"),
        ("semantic_certificate", SemanticCertificate,
         "semantic certificate", "denotation proof"),
    )
    arrays, meta, checksum = _read_verified(path, _PLAN)
    embedded = {
        key: _parse_certificate(path, cert_cls, label, meta[key],
                                "plan_sha", checksum)
        for key, cert_cls, label, _ in proofs if key in meta
    }
    program = _unpack_program(path, arrays)
    try:
        engine_cls = get_engine(program.engine)
    except ValidationError as exc:
        raise PlanCorruptionError(
            f"{path}: plan file names engine {program.engine!r}, which "
            f"is not in this build's registry: {exc}"
        ) from exc
    plan = engine_cls.from_program(program, _restore_narrowed(arrays, "p"))
    with telemetry.span("plan_io.verify", n=program.n):
        lowered, cert, sem = prove_plan(plan, checksum)
    if plan_checksum(_pack_program(lowered, plan.p)) != checksum:
        raise PlanCorruptionError(
            f"{path}: the {program.engine} engine rebuilt from this file "
            "lowers to a different program than the file stores"
        )
    if cert is not None and not cert.ok:
        assert cert.counterexample is not None
        raise PlanCorruptionError(
            f"{path}: stored schedule is not conflict-free — "
            f"{cert.counterexample.describe()}"
        )
    if not sem.ok:
        raise PlanCorruptionError(
            f"{path}: stored program does not denote the stored p — "
            f"{sem.summary()}"
        )
    for (key, _, label, proof), recomputed in zip(proofs, (cert, sem)):
        if key in embedded and embedded[key] != recomputed:
            raise PlanCorruptionError(
                f"{path}: embedded {label} is not the {proof} "
                "recomputed from the stored program — the file was "
                "altered after certification"
            )
    # The loaded plan carries the proofs its file embeds, each equal
    # to the one just recomputed.
    certifiable = _certifiable_plan(plan)
    if certifiable is not None:
        certifiable.certificate = embedded.get("certificate")
    if "semantic_certificate" in embedded:
        plan.semantic_certificate = sem
    sp.set(n=program.n, width=program.width, engine=program.engine,
           certified="certificate" in embedded,
           semantically_certified="semantic_certificate" in embedded)
    return plan


# ----------------------------------------------------------------------
# Sealed artifacts (the third compilation tier)
# ----------------------------------------------------------------------


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
    Nothing is proved here: the planner seals a map the denotation has
    just proved a bijection, and :func:`load_sealed` re-proves every
    file it reads (digest, certificate, mutual inverse), so a sealed
    program whose gather is not its scatter's inverse is written but
    refused on load.

    The scatter map's digest is the one :func:`~repro.passes.
    seal_program` stamped in ``sealed.meta``; a sealed program without
    one has its map hashed here.  A wrong one cannot slip through: the
    loader recomputes it and refuses the file.
    """
    from repro.staticcheck.semantics import denotation_digest

    denotation_sha = sealed.meta.get(
        "denotation_sha"
    ) or denotation_digest(sealed.scatter)
    with telemetry.span(
        "plan_io.save_sealed", n=sealed.n, engine=sealed.engine
    ) as sp:
        deltas = np.diff(sealed.gather, prepend=np.int64(0))
        arrays: dict = {
            "sealed_version": np.int64(SEALED_FORMAT_VERSION),
            "engine": np.str_(sealed.engine),
            "n": np.int64(sealed.n),
            "width": np.int64(sealed.width),
            "denotation_sha": np.str_(denotation_sha),
        }
        _store_narrowed(arrays, "gather_delta", _zigzag_encode(deltas))
        rounds = sealed.meta.get("predicted_rounds")
        if isinstance(rounds, int) and rounds > 0:
            arrays["predicted_rounds"] = np.int64(rounds)
        metadata = (
            {"fingerprint": str(sealed.meta["fingerprint"])}
            if sealed.meta.get("fingerprint") else {}
        )
        if sealed.certificate is not None:
            metadata["semantic_certificate"] = sealed.certificate.to_json()
        sp.set(file_bytes=_write_archive(
            path, arrays, plan_checksum(arrays), metadata,
        ))


def load_sealed(path):
    """Rebuild and **re-prove** a sealed artifact saved by
    :func:`save_sealed`.

    Verification ladder, cheapest first: sealed version, required
    keys, payload checksum, delta decode, scatter re-derivation,
    denotation digest comparison against the stored
    ``denotation_sha``, the embedded semantic certificate against that
    digest, and the mutual-inverse proof
    (:meth:`~repro.ir.sealed.SealedProgram.verify`).  Any failure
    raises :class:`~repro.errors.PlanCorruptionError` (or
    :class:`~repro.errors.PlanVersionError`); a sealed artifact is a
    derived cache, so the caller heals by re-planning, never by
    trusting the file.
    """
    with telemetry.span("plan_io.load_sealed") as sp:
        arrays, meta, _checksum = _read_verified(path, _SEALED)
        sealed = _decode_sealed(path, arrays, meta)
        sp.set(n=sealed.n, engine=sealed.engine)
        return sealed


def _decode_sealed(path, arrays: dict, meta: dict):
    from repro.ir.sealed import SealedProgram, invert_permutation
    from repro.staticcheck.semantics import (
        SemanticCertificate,
        denotation_digest,
    )

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
    try:
        scatter = invert_permutation(gather, checked=True)
    except ValidationError as exc:
        raise PlanCorruptionError(
            f"{path}: decoded sealed gather: {exc}"
        ) from exc
    digest = str(arrays["denotation_sha"])
    if digest != denotation_digest(scatter):
        raise PlanCorruptionError(
            f"{path}: decoded sealed map digests "
            f"{denotation_digest(scatter)[:12]}..., not the stored "
            f"{digest[:12]}... — the artifact no longer encodes its "
            "certified permutation"
        )
    certificate = None
    if "semantic_certificate" in meta:
        certificate = _parse_certificate(
            path, SemanticCertificate, "semantic certificate",
            meta["semantic_certificate"], "denotation_sha", digest,
        )
    sealed_meta: dict = {"denotation_sha": digest}
    for key in ("fingerprint", "pipeline"):
        if key in meta:
            sealed_meta[key] = meta[key]
    if "predicted_rounds" in arrays:
        sealed_meta["predicted_rounds"] = int(arrays["predicted_rounds"])
    sealed = SealedProgram(
        engine=str(arrays["engine"]),
        width=int(arrays["width"]),
        scatter=scatter,
        gather=gather,
        meta=sealed_meta,
        certificate=certificate,
    )
    try:
        sealed.verify()
    except ValidationError as exc:
        raise PlanCorruptionError(f"{path}: {exc}") from exc
    return sealed
