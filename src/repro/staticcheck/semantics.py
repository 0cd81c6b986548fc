"""Symbolic program semantics and translation validation.

Every lowered :class:`~repro.ir.program.KernelProgram` *denotes* a
permutation: running it over a payload ``a`` produces ``out`` with
``out[p[i]] = a[i]`` for a unique index map ``p`` (the repo-wide
destination-designated convention).  This module computes that index
map **symbolically** — op by op, from the op parameters alone, with no
executor and no payload — by abstract interpretation over element
positions: a vector ``dest`` tracks where each of the ``n`` input
elements currently lives, starting at ``dest = [0, 1, ..., n-1]``, and
each op is interpreted as a position transform (the position-space
mirror of what :class:`~repro.exec.reference.ReferenceExecutor` does in
data space).  After the last op, ``dest`` *is* the denoted ``p``.

On top of the denotation sit two proofs:

* **bijectivity** — the denoted map hits every output slot exactly
  once.  Drops (an element sliced away, a position no lane reads) and
  duplications (two elements landing on one slot, a position read
  twice) are refuted with a per-element counterexample.
* **translation validation** — :func:`validate_translation` proves
  ``denote(optimized) == denote(raw)`` and, when a requested
  permutation is supplied, ``denote(program) == requested``.  The
  result is a :class:`SemanticCertificate`: digest-bound, JSON
  round-trippable, and embedded into v3 plan files next to the
  conflict certificate (see :mod:`repro.core.io`).

The certificate stores the SHA-256 of the denotation's int64 bytes
(``denotation_sha``) rather than the n-vector itself, so plan files
stay small while loaders can still *recompute* the denotation from the
unpacked program and refuse any file whose program no longer denotes
its stored permutation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import telemetry
from repro.errors import (
    CertificateError,
    SemanticValidationError,
    StaticCheckError,
)
from repro.ir.ops import (
    CasualRead,
    CasualWrite,
    CycleRotate,
    GatherScatter,
    KernelOp,
    Pad,
    RowwiseScatter,
    Slice,
    Transpose,
)
from repro.permutations.affine import AffineMap, detect_affine
from repro.util.arrays import flat_cells
from repro.util.validation import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.program import KernelProgram

__all__ = [
    "SEMANTIC_CERTIFICATE_VERSION",
    "OpDenotation",
    "ProgramDenotation",
    "SemanticCertificate",
    "SemanticCounterexample",
    "denotation_digest",
    "denote_program",
    "prove_bijection",
    "validate_translation",
]

#: Schema version of serialised semantic certificates.
SEMANTIC_CERTIFICATE_VERSION = 1


@dataclass(frozen=True)
class SemanticCounterexample:
    """One input element refuting a semantic claim.

    ``stage`` names the proof that failed: ``"denotation"`` (an op
    dropped or duplicated a tracked element mid-program),
    ``"bijectivity"`` (two elements denote the same output slot),
    ``"optimized-vs-raw"`` (a pass changed the index map) or
    ``"requested"`` (the program does not denote the requested
    permutation).  ``index`` is the input element, ``expected`` /
    ``got`` its destination under the reference and offending maps
    (``-1`` when a side has no destination, e.g. a dropped element).
    """

    stage: str
    index: int
    expected: int
    got: int
    detail: str = ""

    def describe(self) -> str:
        base = (
            f"[{self.stage}] element {self.index}: expected "
            f"destination {self.expected}, got {self.got}"
        )
        return f"{base} ({self.detail})" if self.detail else base


@dataclass(frozen=True)
class OpDenotation:
    """The position-space effect of one op in a denotation walk."""

    index: int
    kind: str
    label: str
    in_size: int
    out_size: int
    moved: int

    def describe(self) -> str:
        size = (
            f"{self.in_size}"
            if self.in_size == self.out_size
            else f"{self.in_size} -> {self.out_size}"
        )
        return (
            f"op[{self.index}] {self.kind:<15} size {size:<14} "
            f"moves {self.moved} of {self.in_size} tracked elements"
        )


@dataclass(frozen=True)
class ProgramDenotation:
    """The denoted index map of a program, or why none exists.

    When ``failure`` is ``None``, ``index_map[i]`` is the output slot
    element ``i`` lands in (``out[index_map[i]] = a[i]``) and the map
    has been proved a bijection on ``0..n-1``.  Otherwise ``failure``
    pinpoints the first element whose tracking broke and ``index_map``
    holds the positions reached so far (diagnostic only).
    """

    engine: str
    n: int
    index_map: np.ndarray
    ops: tuple[OpDenotation, ...]
    failure: SemanticCounterexample | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def digest(self) -> str:
        return denotation_digest(self.index_map)

    def describe(self) -> str:
        lines = [
            f"denotation of {self.engine!r} (n = {self.n}, "
            f"{len(self.ops)} ops):"
        ]
        lines.extend("  " + op.describe() for op in self.ops)
        if self.failure is None:
            lines.append(
                f"  proved bijection on 0..{self.n - 1}; "
                f"digest {self.digest()[:16]}..."
            )
        else:
            lines.append("  NOT a bijection: " + self.failure.describe())
        return "\n".join(lines)


def denotation_digest(index_map: np.ndarray) -> str:
    """SHA-256 over the denotation's length and int64 bytes."""
    arr = np.ascontiguousarray(index_map, dtype=np.int64)
    h = hashlib.sha256()
    h.update(str(arr.shape[0]).encode("ascii"))
    h.update(b":")
    h.update(arr)
    return h.hexdigest()


def _first_out_of_range(
    dest: np.ndarray, size: int, op: KernelOp, index: int
) -> SemanticCounterexample | None:
    if dest.size == 0 or (int(dest.min()) >= 0 and int(dest.max()) < size):
        return None
    i = int(np.flatnonzero((dest < 0) | (dest >= size))[0])
    return SemanticCounterexample(
        stage="denotation",
        index=i,
        expected=-1,
        got=int(dest[i]),
        detail=(
            f"op[{index}] {op.kind} maps element {i} to position "
            f"{int(dest[i])}, outside the live array of {size}"
        ),
    )


def _schedule_failure(
    op: RowwiseScatter, gamma: np.ndarray, dest: np.ndarray, index: int
) -> SemanticCounterexample | None:
    """Refute a scheduled row-wise op whose ``s``/``t`` kernel does not
    route its ``gamma``, or return ``None``.

    The kernel moves the element at column ``c`` to slot ``s[c]``
    (step 1) and from there to ``t[s[c]]`` (step 3); the denotation
    follows ``gamma``.  Proving ``t[r, s[r, c]] == gamma[r, c]`` makes
    the two one map, so a slot that ``s`` repeats (an improper colour
    at a source bank) cannot hide behind a bijective ``gamma``.
    ``t[r, s[r, c]]`` is read as the flat ``t[r * m + s[r, c]]``.
    """
    s = np.asarray(op.s)
    t = np.asarray(op.t)
    m = gamma.shape[1]
    if s.size and (int(s.min()) < 0 or int(s.max()) >= m):
        bad = np.flatnonzero((s < 0) | (s >= m))
    else:
        bad = np.flatnonzero(t.reshape(-1)[flat_cells(s)] != gamma)
    if bad.size == 0:
        return None
    pos = int(bad[0])
    row, col = divmod(pos, m)
    hits = np.flatnonzero(dest == pos)
    return SemanticCounterexample(
        stage="denotation",
        index=int(hits[0]) if hits.size else 0,
        expected=row * m + int(gamma[row, col]),
        got=-1,
        detail=(
            f"op[{index}] rowwise-scatter schedule does not route "
            f"gamma at row {row}, column {col}: s = "
            f"{int(s.flat[pos])}, gamma = {int(gamma[row, col])}"
        ),
    )


def _denote_op(
    op: KernelOp, dest: np.ndarray, size: int, index: int
) -> tuple[np.ndarray, int, SemanticCounterexample | None]:
    """Apply one op's position transform to the tracked destinations.

    Returns ``(new_dest, new_size, failure)``.  Each branch mirrors the
    corresponding data movement in
    :class:`~repro.exec.reference.ReferenceExecutor._run_op`, rewritten
    as a map over *positions* instead of values.
    """
    if isinstance(op, RowwiseScatter):
        # out[r, gamma[r, c]] = mat[r, c]: position r*m + c moves to
        # r*m + gamma[r, c].  Since r*m + c is the position itself, one
        # flat gather through the table r*m + gamma[r, c] moves all.
        gamma = np.asarray(op.gamma, dtype=np.int64)
        rows, m = gamma.shape
        if size != rows * m:
            return dest, size, SemanticCounterexample(
                stage="denotation", index=0, expected=size,
                got=rows * m,
                detail=f"op[{index}] rowwise-scatter shape mismatch",
            )
        if op.scheduled:
            failure = _schedule_failure(op, gamma, dest, index)
            if failure is not None:
                return dest, size, failure
        return flat_cells(gamma).reshape(-1)[dest], size, None
    if isinstance(op, Transpose):
        # out = mat.reshape(m, m).T: position r*m + c moves to c*m + r.
        m = int(op.m)
        if size != m * m:
            return dest, size, SemanticCounterexample(
                stage="denotation", index=0, expected=size, got=m * m,
                detail=f"op[{index}] transpose shape mismatch",
            )
        r, c = np.divmod(dest, m)
        return c * m + r, size, None
    if isinstance(op, (CasualWrite, CycleRotate)):
        # out[p[u]] = data[u]: position u moves to p[u].
        p = np.asarray(op.p, dtype=np.int64)
        return p[dest], size, None
    if isinstance(op, CasualRead):
        # out[u] = data[q[u]]: position j moves to the unique u with
        # q[u] == j.  A j read twice duplicates the element; a j never
        # read drops it.
        q = np.asarray(op.q, dtype=np.int64)
        counts = np.bincount(q, minlength=size)
        tracked = counts[dest]
        bad = np.nonzero(tracked != 1)[0]
        if bad.size:
            i = int(bad[0])
            kind = "duplicated" if tracked[i] > 1 else "dropped"
            return dest, size, SemanticCounterexample(
                stage="denotation", index=i, expected=1,
                got=int(tracked[i]),
                detail=(
                    f"op[{index}] casual-read {kind} element {i}: "
                    f"position {int(dest[i])} is read "
                    f"{int(tracked[i])} times by q"
                ),
            )
        inv = np.empty(size, dtype=np.int64)
        inv[q] = np.arange(q.shape[0], dtype=np.int64)
        return inv[dest], size, None
    if isinstance(op, GatherScatter):
        # out[t[lane]] = data[s[lane]]: position j moves to t[lane]
        # for the unique lane with s[lane] == j.
        s = np.asarray(op.s, dtype=np.int64)
        t = np.asarray(op.t, dtype=np.int64)
        counts = np.bincount(s, minlength=size)
        tracked = counts[dest]
        bad = np.nonzero(tracked != 1)[0]
        if bad.size:
            i = int(bad[0])
            kind = "duplicated" if tracked[i] > 1 else "dropped"
            return dest, size, SemanticCounterexample(
                stage="denotation", index=i, expected=1,
                got=int(tracked[i]),
                detail=(
                    f"op[{index}] gather-scatter {kind} element {i}: "
                    f"position {int(dest[i])} is gathered "
                    f"{int(tracked[i])} times by s"
                ),
            )
        inv = np.empty(size, dtype=np.int64)
        inv[s] = np.arange(s.shape[0], dtype=np.int64)
        return t[inv[dest]], size, None
    if isinstance(op, Pad):
        # Zero-extension: positions are unchanged, the array grows.
        return dest, int(op.padded_n), None
    if isinstance(op, Slice):
        # out = data[:k]: any tracked element at position >= k is gone.
        k = int(op.n)
        bad = np.nonzero(dest >= k)[0]
        if bad.size:
            i = int(bad[0])
            return dest, size, SemanticCounterexample(
                stage="denotation", index=i, expected=-1,
                got=int(dest[i]),
                detail=(
                    f"op[{index}] slice to {k} drops element {i} at "
                    f"position {int(dest[i])}"
                ),
            )
        return dest, k, None
    raise StaticCheckError(
        f"no denotation rule for op kind {op.kind!r} "
        f"({type(op).__name__})"
    )


def denote_program(program: "KernelProgram") -> ProgramDenotation:
    """Abstractly interpret a program into its denoted index map.

    A program of scheduled row-wise ops and transposes whose arrays are
    all affine over GF(2) is denoted in closed form
    (:func:`_denote_affine`); any other, or one whose algebra does not
    prove out, is walked op by op (:func:`_denote_walk`).  Both give
    the same :class:`ProgramDenotation` for a program the closed form
    accepts (``docs/theory.md`` §8).  The ``staticcheck.denote`` span
    records which ``route`` answered.
    """
    program.validate()
    with telemetry.span("staticcheck.denote", n=int(program.n)) as sp:
        denotation = _denote_affine(program)
        sp.set(route="walk" if denotation is None else "affine")
        return (
            denotation if denotation is not None
            else _denote_walk(program)
        )


def _denote_walk(program: "KernelProgram") -> ProgramDenotation:
    """Walk the ops once, tracking the position of every input element;
    no executor is constructed and no payload is moved.  The walk stops
    at the first op that drops or duplicates a tracked element; the
    final map is additionally checked to be a bijection on ``0..n-1``.
    """
    n = int(program.n)
    dest = np.arange(n, dtype=np.int64)
    size = n
    summaries: list[OpDenotation] = []
    for index, op in enumerate(program.ops):
        new_dest, new_size, failure = _denote_op(op, dest, size, index)
        summaries.append(
            OpDenotation(
                index=index,
                kind=op.kind,
                label=op.label,
                in_size=size,
                out_size=new_size,
                moved=int(np.count_nonzero(new_dest != dest))
                if new_dest.shape == dest.shape
                else n,
            )
        )
        if failure is not None:
            return ProgramDenotation(
                engine=program.engine, n=n, index_map=dest,
                ops=tuple(summaries), failure=failure,
            )
        out_of_range = _first_out_of_range(new_dest, new_size, op, index)
        if out_of_range is not None:
            return ProgramDenotation(
                engine=program.engine, n=n, index_map=new_dest,
                ops=tuple(summaries), failure=out_of_range,
            )
        dest, size = new_dest, new_size
    if size != n:
        failure = SemanticCounterexample(
            stage="bijectivity", index=0, expected=n, got=size,
            detail=(
                f"program ends at size {size}, not n = {n}; the "
                "denotation is not an endomap of 0..n-1"
            ),
        )
        return ProgramDenotation(
            engine=program.engine, n=n, index_map=dest,
            ops=tuple(summaries), failure=failure,
        )
    failure = prove_bijection(dest, n)
    return ProgramDenotation(
        engine=program.engine, n=n, index_map=dest,
        ops=tuple(summaries), failure=failure,
    )


def _within(values: AffineMap, m: int) -> bool:
    """Every image of ``values`` lies in ``0..m-1`` (``m`` a power of
    two): its offset and columns do, so every XOR of them does, and
    they are images or XORs of two."""
    return all(0 <= v < m for v in (values.offset, *values.columns))


def _affine_step(op: KernelOp, n: int) -> AffineMap | None:
    """The position map of one op as a proven affine bijection of
    ``0..n-1`` (``n`` a power of two), or ``None``.

    A transpose of ``m × m`` swaps the two halves of the index bits.  A
    scheduled row-wise op moves ``r·m + c`` to ``r·m + gamma[r, c]``;
    it is accepted when ``gamma``, ``s`` and ``t`` are affine maps of
    the flat index (detection compares every entry), ``gamma`` and
    ``s`` stay in ``0..m-1``, the position map is invertible, and
    ``t[r, s[r, c]] == gamma[r, c]`` holds as an identity of maps.
    """
    index = AffineMap.identity(n.bit_length() - 1)
    if isinstance(op, Transpose):
        m = int(op.m)
        if m * m != n:
            return None
        h = m.bit_length() - 1
        return index.bits(m - 1, -h) ^ index.bits(n - m, h)
    if not (isinstance(op, RowwiseScatter) and op.scheduled):
        return None
    rows, m = np.shape(op.gamma)
    if rows * m != n:
        return None
    maps: list[AffineMap] = []
    for arr in (op.gamma, op.s, op.t):
        found = detect_affine(np.asarray(arr).reshape(-1))
        if found is None:
            return None
        maps.append(found)
    values, slots, targets = maps
    if not (_within(values, m) and _within(slots, m)):
        return None
    keep_rows = index.bits(n - m)
    step = keep_rows ^ values
    if step.inverse() is None or (
        targets.compose(keep_rows ^ slots) != values
    ):
        return None
    return step


def _denote_affine(program: "KernelProgram") -> ProgramDenotation | None:
    """The denotation of a program of affine ops, in closed form, or
    ``None`` when an op is not provably an affine bijection
    (:func:`_affine_step`).

    The denoted map is the composition of the ops' maps, built once by
    doubling; it is a bijection because each of them is.  An op moves
    the tracked elements that sit outside its fixed points, and since
    the elements occupy every position, that is ``n`` less the fixed
    points of its map.
    """
    n = int(program.n)
    if not is_power_of_two(n):
        return None
    total = AffineMap.identity(n.bit_length() - 1)
    summaries: list[OpDenotation] = []
    for index, op in enumerate(program.ops):
        step = _affine_step(op, n)
        if step is None:
            return None
        summaries.append(OpDenotation(
            index=index, kind=op.kind, label=op.label, in_size=n,
            out_size=n, moved=n - step.fixed_points(),
        ))
        total = step.compose(total)
    return ProgramDenotation(
        engine=program.engine, n=n, index_map=total.index_map(),
        ops=tuple(summaries),
    )


def prove_bijection(
    index_map: np.ndarray, n: int
) -> SemanticCounterexample | None:
    """Prove ``index_map`` is a bijection on ``0..n-1``.

    Returns ``None`` on success, else a counterexample naming the
    first element (in input order) whose destination collides with an
    earlier element's.
    """
    arr = np.asarray(index_map, dtype=np.int64)
    if arr.shape[0] != n:
        return SemanticCounterexample(
            stage="bijectivity", index=0, expected=n,
            got=int(arr.shape[0]),
            detail=f"index map has {arr.shape[0]} entries, not {n}",
        )
    counts = np.bincount(arr, minlength=n)
    if int(counts.max(initial=0)) <= 1:
        return None
    # First element (input order) sharing a destination with an
    # earlier one.
    dup = np.nonzero(counts[arr] > 1)[0]
    first = int(dup[0])
    partner = int(np.nonzero(arr == arr[first])[0][1])
    return SemanticCounterexample(
        stage="bijectivity",
        index=partner,
        expected=-1,
        got=int(arr[partner]),
        detail=(
            f"elements {first} and {partner} both denote output slot "
            f"{int(arr[first])}"
        ),
    )


def _first_divergence(
    reference: np.ndarray, candidate: np.ndarray, stage: str
) -> SemanticCounterexample | None:
    """First index where two denotations disagree, or ``None``."""
    if reference.shape != candidate.shape:
        return SemanticCounterexample(
            stage=stage, index=0, expected=int(reference.shape[0]),
            got=int(candidate.shape[0]),
            detail="index maps have different lengths",
        )
    diff = np.nonzero(reference != candidate)[0]
    if diff.size == 0:
        return None
    i = int(diff[0])
    return SemanticCounterexample(
        stage=stage, index=i, expected=int(reference[i]),
        got=int(candidate[i]),
    )


@dataclass(frozen=True)
class SemanticCertificate:
    """A machine-checked proof that a compile preserved semantics.

    ``ok`` iff the optimized program's denotation is a bijection, equal
    to the raw program's, and (when one was supplied) equal to the
    requested permutation.  ``blame`` names the pipeline pass that
    first broke the translation (filled in by the pipeline's
    ``validate=True`` mode), ``counterexample`` the first diverging
    element.  ``denotation_sha`` digests the proved index map so a plan
    loader can recompute the denotation from the persisted program and
    compare; ``plan_sha`` binds the certificate to one plan file's
    payload checksum, exactly like the conflict certificate.
    """

    engine: str
    n: int
    width: int
    pipeline: str | None
    raw_ops: int
    optimized_ops: int
    denotation_sha: str
    requested_sha: str | None = None
    bijective: bool = True
    matches_raw: bool = True
    matches_requested: bool | None = None
    blame: str | None = None
    counterexample: SemanticCounterexample | None = None
    plan_sha: str | None = None
    version: int = SEMANTIC_CERTIFICATE_VERSION

    @property
    def ok(self) -> bool:
        return (
            self.bijective
            and self.matches_raw
            and self.matches_requested is not False
        )

    def bound_to(self, plan_sha: str) -> "SemanticCertificate":
        """A copy bound to a specific plan-file payload checksum."""
        return replace(self, plan_sha=plan_sha)

    def with_blame(self, blame: str) -> "SemanticCertificate":
        """A copy naming the pipeline pass that broke the translation."""
        return replace(self, blame=blame)

    def summary(self) -> str:
        if self.ok:
            requested = (
                "" if self.matches_requested is None
                else " == requested"
            )
            return (
                f"semantics certified: denote(optimized) == "
                f"denote(raw){requested}, bijective on 0..{self.n - 1} "
                f"({self.raw_ops} -> {self.optimized_ops} ops, "
                f"digest {self.denotation_sha[:16]}...)"
            )
        blame = f" [pass {self.blame!r}]" if self.blame else ""
        detail = (
            self.counterexample.describe()
            if self.counterexample is not None
            else "no counterexample recorded"
        )
        return f"semantics REFUTED{blame}: {detail}"

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        counter = None
        if self.counterexample is not None:
            c = self.counterexample
            counter = {
                "stage": c.stage,
                "index": c.index,
                "expected": c.expected,
                "got": c.got,
                "detail": c.detail,
            }
        return {
            "version": self.version,
            "engine": self.engine,
            "n": self.n,
            "width": self.width,
            "pipeline": self.pipeline,
            "raw_ops": self.raw_ops,
            "optimized_ops": self.optimized_ops,
            "denotation_sha": self.denotation_sha,
            "requested_sha": self.requested_sha,
            "bijective": self.bijective,
            "matches_raw": self.matches_raw,
            "matches_requested": self.matches_requested,
            "blame": self.blame,
            "counterexample": counter,
            "plan_sha": self.plan_sha,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SemanticCertificate":
        if not isinstance(payload, dict):
            raise CertificateError(
                f"semantic certificate payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            version = int(payload["version"])
            if version != SEMANTIC_CERTIFICATE_VERSION:
                raise CertificateError(
                    f"unsupported semantic certificate version "
                    f"{version}; this build reads version "
                    f"{SEMANTIC_CERTIFICATE_VERSION}"
                )
            raw = payload.get("counterexample")
            counter = None
            if raw is not None:
                counter = SemanticCounterexample(
                    stage=str(raw["stage"]),
                    index=int(raw["index"]),
                    expected=int(raw["expected"]),
                    got=int(raw["got"]),
                    detail=str(raw.get("detail", "")),
                )
            pipeline = payload.get("pipeline")
            requested_sha = payload.get("requested_sha")
            matches_requested = payload.get("matches_requested")
            blame = payload.get("blame")
            sha = payload.get("plan_sha")
            return cls(
                engine=str(payload["engine"]),
                n=int(payload["n"]),
                width=int(payload["width"]),
                pipeline=None if pipeline is None else str(pipeline),
                raw_ops=int(payload["raw_ops"]),
                optimized_ops=int(payload["optimized_ops"]),
                denotation_sha=str(payload["denotation_sha"]),
                requested_sha=(
                    None if requested_sha is None else str(requested_sha)
                ),
                bijective=bool(payload["bijective"]),
                matches_raw=bool(payload["matches_raw"]),
                matches_requested=(
                    None if matches_requested is None
                    else bool(matches_requested)
                ),
                blame=None if blame is None else str(blame),
                counterexample=counter,
                plan_sha=None if sha is None else str(sha),
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(
                f"malformed semantic certificate payload: {exc!r}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "SemanticCertificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(
                f"semantic certificate is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


def validate_translation(
    raw: "KernelProgram",
    optimized: "KernelProgram",
    requested: np.ndarray | None = None,
    pipeline_signature: str | None = None,
) -> SemanticCertificate:
    """Prove ``denote(optimized) == denote(raw)`` (== ``requested``).

    The central translation-validation entry point: both programs are
    denoted symbolically and compared element-wise; the optimized
    denotation is additionally proved bijective, and — when the
    requested permutation is supplied — equal to it.  Never raises on
    refutation; inspect ``certificate.ok`` (policy lives with the
    caller: the pipeline and the planner raise, the plan writer
    refuses to persist).  Pass the same program twice to
    certify a single program against a requested permutation.
    """
    raw_den = denote_program(raw)
    opt_den = raw_den if optimized is raw else denote_program(optimized)
    cert = SemanticCertificate(
        engine=optimized.engine,
        n=int(optimized.n),
        width=int(optimized.width),
        pipeline=pipeline_signature,
        raw_ops=len(raw.ops),
        optimized_ops=len(optimized.ops),
        denotation_sha=opt_den.digest(),
    )
    if not opt_den.ok:
        return replace(
            cert, bijective=False, counterexample=opt_den.failure
        )
    if not raw_den.ok:
        # The optimized program denotes a bijection but the raw one
        # does not: the rewrite manufactured a permutation out of a
        # broken program, which is its own kind of wrong.
        return replace(
            cert, matches_raw=False, counterexample=raw_den.failure
        )
    diverged = _first_divergence(
        raw_den.index_map, opt_den.index_map, "optimized-vs-raw"
    )
    if diverged is not None:
        return replace(cert, matches_raw=False, counterexample=diverged)
    if requested is None:
        return cert
    wanted = np.asarray(requested, dtype=np.int64)
    diverged = _first_divergence(
        wanted, opt_den.index_map, "requested"
    )
    if diverged is not None:
        return replace(
            cert, requested_sha=denotation_digest(wanted),
            matches_requested=False, counterexample=diverged,
        )
    # Equal maps have equal int64 bytes: the denotation's digest is the
    # request's.
    return replace(
        cert, requested_sha=cert.denotation_sha, matches_requested=True
    )


class SemanticChecker:
    """Per-pass translation validator for the pipeline's fixpoint loop.

    Denotes the input program once, then :meth:`check` denotes each
    rewrite and raises :class:`~repro.errors.SemanticValidationError`
    — with the pass blamed on the certificate — the moment a rewrite
    changes the index map.  Used by ``PassPipeline.run(...,
    validate=True)``.
    """

    def __init__(self, program: "KernelProgram") -> None:
        self._base = denote_program(program)
        self._raw_ops = len(program.ops)
        if not self._base.ok:
            cert = SemanticCertificate(
                engine=program.engine,
                n=int(program.n),
                width=int(program.width),
                pipeline=None,
                raw_ops=self._raw_ops,
                optimized_ops=self._raw_ops,
                denotation_sha=self._base.digest(),
                bijective=False,
                counterexample=self._base.failure,
            )
            raise SemanticValidationError(
                "cannot validate rewrites of a non-bijective program: "
                + cert.summary(),
                certificate=cert,
            )

    def check(
        self, pass_name: str, rewritten: "KernelProgram"
    ) -> None:
        """Accept ``rewritten`` if it denotes what the raw program does."""
        den = denote_program(rewritten)
        failure = den.failure or _first_divergence(
            self._base.index_map, den.index_map, "optimized-vs-raw"
        )
        if failure is None:
            return
        cert = SemanticCertificate(
            engine=rewritten.engine,
            n=int(rewritten.n),
            width=int(rewritten.width),
            pipeline=None,
            raw_ops=self._raw_ops,
            optimized_ops=len(rewritten.ops),
            denotation_sha=den.digest(),
            bijective=den.ok,
            matches_raw=False,
            blame=pass_name,
            counterexample=failure,
        )
        raise SemanticValidationError(cert.summary(), certificate=cert)
