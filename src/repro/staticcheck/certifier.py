"""Static conflict-freedom certification of scheduled plans.

The paper's central claim is that every one of the scheduled
permutation's 32 rounds is *regular*: shared rounds hit ``w`` distinct
banks per warp (conflict-free on the DMM), global rounds touch a single
address group per warp (fully coalesced on the UMM).  The simulator
prices those rounds; this module *proves* them regular.

:func:`certify_plan` reads the 32 address streams from the access-round
enumerator (:mod:`repro.ir.rounds`, the same stream the simulator
prices and the round interpreter executes), one kernel at a time, and
analyses each distinct address stream of a kernel once, per warp:
the multiset of banks ``addr mod w`` for shared rounds, the set of
address groups ``addr div w`` for global rounds.  Rounds sharing a
stream share its per-warp counts but keep their own verdicts.  The
result is a :class:`Certificate` — per-round verdicts plus, on
failure, a :class:`Counterexample` naming the kernel, round, block,
warp, bank and colliding lanes.

Only six of the 32 streams depend on the permutation.  The other 26
are :class:`~repro.ir.rounds.ShapeStream` s, pure functions of the
op parameters in their key, so one analysis answers every stream with
that key: within a certification each such stream is analysed once,
and a bounded per-process memo (:data:`SHAPE_MEMO_SIZE` entries)
keeps the verdict of every regular one, so a later certification at
the same shape builds and analyses only its six ``s``/``t`` streams
(``docs/theory.md`` §8).  An irregular shape stream is never kept, so
its counterexample is always derived from its addresses.

The counting screens every warp in O(lanes) and counts exactly only
the warps the screen flags.  A shared warp of ``w <= 64`` lanes is
conflict-free iff the OR of ``1 << bank`` over its lanes has all ``w``
bits set (``w`` lanes, ``w`` banks: pigeonhole); a global warp of a
power-of-two ``w`` touches one group iff ``OR ^ AND`` of its addresses
is below ``w`` (``docs/theory.md`` §9).  Flagged warps, and every
warp of a width the screen does not cover, are sorted and counted
exactly, so a verdict's ``stages`` and ``max_per_warp`` are exact
either way.  The module is deliberately independent of
:mod:`repro.machine.cost_model` (masks and sorts here vs. bincount
there), so the differential tests compare two independent derivations
of the same per-round quantities.

Certificates serialise to JSON and are embedded into plan files by
:func:`repro.core.io.save_plan`; a certificate binds itself to its plan
via the plan's payload checksum (``plan_sha``), so a certificate can
never vouch for a file it was not issued for.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CertificateError, StaticCheckError
from repro.ir.rounds import StaticRound, op_kernels, program_rounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduled import ScheduledPermutation
    from repro.ir.program import KernelProgram

#: Schema version of serialised certificates.
CERTIFICATE_VERSION = 1

#: Most shape-stream analyses the per-process memo keeps.  One plan
#: shape fills 6 entries (2 row-wise, 4 transpose), so this holds the
#: streams of about 40 shapes, each entry a key and three integers.
SHAPE_MEMO_SIZE = 256


def _warp_matrix(addresses: np.ndarray, width: int) -> np.ndarray:
    """View a flat address stream as ``(num_warps, width)``.

    Every plan round has a thread count divisible by the width (``n``
    is a multiple of ``w`` and block sizes are multiples of ``w``), so
    unlike the simulator's padding path this is a strict reshape.
    Integer streams keep their dtype (a ``uint16`` schedule is screened
    without first widening it); ``uint64`` and non-integer streams
    become ``int64``.
    """
    addresses = np.asarray(addresses)
    if addresses.dtype.kind not in "iu" or addresses.dtype == np.uint64:
        addresses = addresses.astype(np.int64)
    if width < 1:
        raise StaticCheckError(f"width must be >= 1, got {width}")
    if addresses.ndim != 1 or addresses.shape[0] % width != 0:
        raise StaticCheckError(
            f"address stream of {addresses.shape} threads does not "
            f"divide into warps of {width}"
        )
    return addresses.reshape(-1, width)


def _sorted_rows(values: np.ndarray, bound: int) -> np.ndarray:
    """``values`` (all in ``[0, bound)``) sorted along each row, in the
    smallest of ``uint16``/``uint32`` that holds them, so the sort moves
    2 or 4 bytes per lane instead of 8.  Not ``uint8``: NumPy's
    vectorised quicksort covers 16-bit and wider keys only, and byte
    rows sort several times slower."""
    for dtype in (np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max + 1:
            values = values.astype(dtype)
            break
    return np.sort(values, axis=1)


def _max_run_lengths(rows: np.ndarray) -> np.ndarray:
    """Per row of a row-sorted matrix, the length of its longest run
    of equal values: the exact multiplicity of its most repeated
    value."""
    num_rows, width = rows.shape
    # Consecutive lanes of a row keep a run going; a row's first lane
    # always starts one.
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    flat_starts = np.flatnonzero(starts)
    lengths = np.diff(flat_starts, append=rows.size)
    row_firsts = np.searchsorted(
        flat_starts, np.arange(num_rows, dtype=np.int64) * width
    )
    return np.maximum.reduceat(lengths, row_firsts)


def _is_power_of_two(width: int) -> bool:
    return width & (width - 1) == 0


def _bank_masks(warps: np.ndarray, width: int) -> np.ndarray:
    """Per warp (``width <= 64``), the OR of ``1 << bank`` over its
    lanes: bit ``k`` is set iff some lane hits bank ``k``."""
    dtype = np.uint32 if width <= 32 else np.uint64
    if _is_power_of_two(width):
        # The cast keeps an address's low bits (two's complement), so
        # ``& (w - 1)`` is still ``addr mod w`` for negative addresses
        # and for addresses of 2**32 and above.
        banks = warps.astype(dtype) & (width - 1)
    else:
        banks = (warps % width).astype(dtype)
    masks: np.ndarray = np.bitwise_or.reduce(1 << banks, axis=1)
    return masks


def shared_bank_multiplicities(
    addresses: np.ndarray, width: int
) -> np.ndarray:
    """Per-warp maximum bank multiplicity of a shared (DMM) round.

    Warp ``g``'s requests occupy ``k`` pipeline stages where ``k`` is
    the largest number of its lanes whose addresses share one bank
    (``addr mod w``).  ``1`` everywhere means conflict-free.

    For ``w <= 64`` a warp whose bank mask (:func:`_bank_masks`) has
    all ``w`` bits set hits ``w`` distinct banks and has multiplicity
    1.  Only the other warps (every warp when ``w > 64``) have their
    banks sorted and take the exact count, their longest run of equal
    banks.
    """
    warps = _warp_matrix(addresses, width)
    result = np.ones(warps.shape[0], dtype=np.int64)
    suspect: np.ndarray
    if width <= 64:
        full = (1 << width) - 1
        suspect = np.flatnonzero(_bank_masks(warps, width) != full)
    else:
        suspect = np.arange(warps.shape[0])
    if suspect.size:
        banks = _sorted_rows(warps[suspect] % width, width)
        result[suspect] = _max_run_lengths(banks)
    return result


def global_group_counts(addresses: np.ndarray, width: int) -> np.ndarray:
    """Per-warp distinct address-group count of a global (UMM) round.

    Warp ``g``'s requests occupy one stage per distinct group
    ``addr div w`` among its lanes.  ``1`` everywhere means fully
    coalesced.

    For a power-of-two ``w`` a warp's lanes share one group iff the
    OR and the AND of its addresses agree above the low ``log2 w``
    bits, i.e. ``OR ^ AND`` (read unsigned) is below ``w``; for other
    widths, iff every lane's group equals lane 0's.  Such a warp counts
    1; only the other warps are sorted and their distinct groups
    counted.
    """
    warps = _warp_matrix(addresses, width).astype(np.int64, copy=False)
    result = np.ones(warps.shape[0], dtype=np.int64)
    if _is_power_of_two(width):
        spread = np.bitwise_or.reduce(warps, axis=1) ^ \
            np.bitwise_and.reduce(warps, axis=1)
        mixed = np.flatnonzero(spread.view(np.uint64) >= width)
    else:
        groups = warps // width
        mixed = np.flatnonzero((groups != groups[:, :1]).any(axis=1))
    if mixed.size:
        rows = warps[mixed] // width
        low = rows.min()
        rows = _sorted_rows(rows - low, int(rows.max() - low) + 1)
        result[mixed] += np.count_nonzero(
            rows[:, 1:] != rows[:, :-1], axis=1
        )
    return result


@dataclass(frozen=True)
class RoundVerdict:
    """The certified cost profile of one static round.

    ``stages`` is the round's total pipeline-stage count on a single
    memory (sum over warps); ``max_per_warp`` is the worst warp's bank
    multiplicity (shared) or distinct-group count (global).  The round
    is regular — conflict-free or coalesced — iff ``ok``.
    """

    kernel: str
    index: int
    space: str
    kind: str
    array: str
    num_warps: int
    stages: int
    max_per_warp: int

    @property
    def ok(self) -> bool:
        return self.max_per_warp <= 1

    @property
    def classification(self) -> str:
        """The paper's Section III terminology for this round."""
        if not self.ok:
            return "casual"
        return "coalesced" if self.space == "global" else "conflict-free"


@dataclass(frozen=True)
class Counterexample:
    """A pinpointed violation of conflict-freedom / coalescing.

    For shared rounds, ``lanes`` are the warp lanes whose addresses
    collide in ``bank``; for global rounds, ``groups`` are the distinct
    address groups the warp touches (coalescing demands exactly one).
    ``block`` is the thread block owning the warp (shared rounds only).
    """

    kernel: str
    round_index: int
    space: str
    kind: str
    array: str
    warp: int
    lanes: tuple[int, ...]
    addresses: tuple[int, ...]
    block: int | None = None
    bank: int | None = None
    groups: tuple[int, ...] = ()

    def describe(self) -> str:
        where = f"{self.kernel} round {self.round_index} " \
                f"({self.space} {self.kind} {self.array})"
        if self.space == "shared":
            block = "" if self.block is None else f"block {self.block}, "
            lanes = ", ".join(str(lane) for lane in self.lanes)
            addrs = ", ".join(str(a) for a in self.addresses)
            return (
                f"{where}: {block}warp {self.warp}, lanes {lanes} all "
                f"hit bank {self.bank} (addresses {addrs})"
            )
        groups = ", ".join(str(g) for g in self.groups)
        return (
            f"{where}: warp {self.warp} touches {len(self.groups)} "
            f"address groups ({groups}) — coalescing requires one"
        )


def _shared_counterexample(
    rnd: StaticRound, width: int, per_warp: np.ndarray
) -> Counterexample:
    warp = int(np.argmax(per_warp > 1))
    warps = _warp_matrix(rnd.addresses, width)
    row = warps[warp]
    banks = row % width
    counts = np.bincount(banks, minlength=width)
    bank = int(np.argmax(counts))
    lanes = np.nonzero(banks == bank)[0]
    block = None
    if rnd.block_size is not None:
        block = warp // (rnd.block_size // width)
    return Counterexample(
        kernel=rnd.kernel,
        round_index=rnd.index,
        space=rnd.space,
        kind=rnd.kind,
        array=rnd.array,
        warp=warp,
        block=block,
        bank=bank,
        lanes=tuple(int(lane) for lane in lanes),
        addresses=tuple(int(row[lane]) for lane in lanes),
    )


def _global_counterexample(
    rnd: StaticRound, width: int, per_warp: np.ndarray
) -> Counterexample:
    warp = int(np.argmax(per_warp > 1))
    row = _warp_matrix(rnd.addresses, width)[warp]
    groups = np.unique(row // width)
    return Counterexample(
        kernel=rnd.kernel,
        round_index=rnd.index,
        space=rnd.space,
        kind=rnd.kind,
        array=rnd.array,
        warp=warp,
        lanes=tuple(range(row.shape[0])),
        addresses=tuple(int(a) for a in row),
        groups=tuple(int(g) for g in groups),
    )


def _per_warp(rnd: StaticRound, width: int) -> np.ndarray:
    """Per-warp bank multiplicities (shared) or group counts (global)."""
    if rnd.space == "shared":
        return shared_bank_multiplicities(rnd.addresses, width)
    return global_group_counts(rnd.addresses, width)


def _verdict_of(
    rnd: StaticRound, counts: tuple[int, int, int]
) -> RoundVerdict:
    """The verdict of ``rnd`` from ``(num_warps, stages,
    max_per_warp)``."""
    num_warps, stages, max_per_warp = counts
    return RoundVerdict(
        kernel=rnd.kernel, index=rnd.index, space=rnd.space,
        kind=rnd.kind, array=rnd.array, num_warps=num_warps,
        stages=stages, max_per_warp=max_per_warp,
    )


def _judge(
    rnd: StaticRound, width: int, per_warp: np.ndarray
) -> tuple[RoundVerdict, Counterexample | None]:
    """The verdict of ``rnd`` from its per-warp counts and, when the
    round is irregular, its first offending warp."""
    verdict = _verdict_of(rnd, (
        int(per_warp.shape[0]),
        int(per_warp.sum()),
        int(per_warp.max()) if per_warp.size else 0,
    ))
    if verdict.ok:
        return verdict, None
    if rnd.space == "shared":
        return verdict, _shared_counterexample(rnd, width, per_warp)
    return verdict, _global_counterexample(rnd, width, per_warp)


def analyze_round(
    rnd: StaticRound, width: int
) -> tuple[RoundVerdict, Counterexample | None]:
    """Certify one static round; returns its verdict and, when the
    round is irregular, the first offending warp as a counterexample."""
    return _judge(rnd, width, _per_warp(rnd, width))


class _ShapeMemo:
    """A bounded, thread-safe LRU map from a shape stream's analysis
    key to its regular verdict's ``(num_warps, stages,
    max_per_warp)``."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[Any, ...], tuple[int, int, int]] = (
            OrderedDict()
        )

    def get(self, key: tuple[Any, ...]) -> tuple[int, int, int] | None:
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
            return found

    def put(self, key: tuple[Any, ...], counts: tuple[int, int, int]) -> None:
        with self._lock:
            self._entries[key] = counts
            self._entries.move_to_end(key)
            while len(self._entries) > self._size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_SHAPE_MEMO = _ShapeMemo(SHAPE_MEMO_SIZE)


def _memo_key(rnd: StaticRound, width: int) -> tuple[Any, ...] | None:
    """Everything a shape round's per-warp counts depend on: its
    stream's key (the op parameters that fix its addresses), memory
    space, block size and the analysis width; ``None`` for a stream
    that depends on the permutation."""
    key = rnd.shape_key
    if key is None:
        return None
    return (key, rnd.space, rnd.block_size, width)


def _certify_kernels(
    kernels: Iterable[Iterable[StaticRound]],
    width: int,
    n: int,
    m: int,
) -> Certificate:
    """Certify a program kernel by kernel, analysing each distinct
    address stream once, and keep the *first* counterexample — in
    round order, the executor would hit it first.

    A row-wise kernel reads ``a``, ``s`` and ``t`` and writes ``b``
    through one index array, and both its shared reads use one
    ``tile`` array.  A round whose stream is an earlier round's takes
    that round's per-warp counts, which depend on nothing else; it
    still gets its own verdict and, if irregular, its own
    counterexample.  A permutation-dependent stream is matched by
    identity (same ``addresses`` object, ``space`` and
    ``block_size``) within its kernel.  A shape stream is matched by
    :func:`_memo_key` across the whole program, then in
    :data:`_SHAPE_MEMO`, which answers only regular streams: a shape
    stream it does not hold is built and analysed, and kept there
    when regular.
    """
    verdicts: list[RoundVerdict] = []
    counter: Counterexample | None = None
    shapes: dict[tuple[Any, ...], np.ndarray] = {}
    for rounds in kernels:
        seen: list[tuple[StaticRound, np.ndarray]] = []
        for rnd in rounds:
            key = _memo_key(rnd, width)
            per_warp: np.ndarray | None
            if key is None:
                per_warp = next(
                    (counts for prior, counts in seen
                     if prior.addresses is rnd.addresses
                     and prior.space == rnd.space
                     and prior.block_size == rnd.block_size),
                    None,
                )
                if per_warp is None:
                    per_warp = _per_warp(rnd, width)
                    seen.append((rnd, per_warp))
            else:
                per_warp = shapes.get(key)
                if per_warp is None:
                    known = _SHAPE_MEMO.get(key)
                    if known is not None:
                        verdicts.append(_verdict_of(rnd, known))
                        continue
                    per_warp = shapes[key] = _per_warp(rnd, width)
            verdict, bad = _judge(rnd, width, per_warp)
            if key is not None and verdict.ok:
                _SHAPE_MEMO.put(key, (
                    verdict.num_warps, verdict.stages, verdict.max_per_warp,
                ))
            verdicts.append(verdict)
            if counter is None and bad is not None:
                counter = bad
    return Certificate(
        n=n, m=m, width=width, rounds=tuple(verdicts),
        counterexample=counter,
    )


@dataclass(frozen=True)
class Certificate:
    """A static proof (or refutation) of a plan's regularity.

    ``ok`` iff every shared round is conflict-free *and* every global
    round is coalesced; otherwise ``counterexample`` pinpoints the
    first violation.  ``plan_sha`` binds the certificate to the payload
    checksum of the plan file it was issued for (``None`` for
    certificates not yet bound to a file).
    """

    n: int
    m: int
    width: int
    rounds: tuple[RoundVerdict, ...]
    counterexample: Counterexample | None = None
    plan_sha: str | None = None
    version: int = CERTIFICATE_VERSION

    @property
    def ok(self) -> bool:
        return self.counterexample is None and all(
            r.ok for r in self.rounds
        )

    @property
    def conflict_free(self) -> bool:
        """Every shared (DMM) round is bank-conflict-free."""
        return all(r.ok for r in self.rounds if r.space == "shared")

    @property
    def coalesced(self) -> bool:
        """Every global (UMM) round is single-group per warp."""
        return all(r.ok for r in self.rounds if r.space == "global")

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def bound_to(self, plan_sha: str) -> "Certificate":
        """A copy bound to a specific plan-file payload checksum."""
        return replace(self, plan_sha=plan_sha)

    def summary(self) -> str:
        """One- or two-line human-readable verdict."""
        shared = sum(1 for r in self.rounds if r.space == "shared")
        global_ = self.num_rounds - shared
        if self.ok:
            return (
                f"{self.num_rounds} rounds certified: {shared} shared "
                f"conflict-free, {global_} global coalesced "
                f"(n = {self.n}, w = {self.width})"
            )
        assert self.counterexample is not None
        return "NOT conflict-free: " + self.counterexample.describe()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        counter = None
        if self.counterexample is not None:
            c = self.counterexample
            counter = {
                "kernel": c.kernel,
                "round_index": c.round_index,
                "space": c.space,
                "kind": c.kind,
                "array": c.array,
                "warp": c.warp,
                "block": c.block,
                "bank": c.bank,
                "lanes": list(c.lanes),
                "addresses": list(c.addresses),
                "groups": list(c.groups),
            }
        return {
            "version": self.version,
            "n": self.n,
            "m": self.m,
            "width": self.width,
            "plan_sha": self.plan_sha,
            "rounds": [
                {
                    "kernel": r.kernel,
                    "index": r.index,
                    "space": r.space,
                    "kind": r.kind,
                    "array": r.array,
                    "num_warps": r.num_warps,
                    "stages": r.stages,
                    "max_per_warp": r.max_per_warp,
                }
                for r in self.rounds
            ],
            "counterexample": counter,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Certificate":
        if not isinstance(payload, dict):
            raise CertificateError(
                f"certificate payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            version = int(payload["version"])
            if version != CERTIFICATE_VERSION:
                raise CertificateError(
                    f"unsupported certificate version {version}; this "
                    f"build reads version {CERTIFICATE_VERSION}"
                )
            rounds = tuple(
                RoundVerdict(
                    kernel=str(r["kernel"]),
                    index=int(r["index"]),
                    space=str(r["space"]),
                    kind=str(r["kind"]),
                    array=str(r["array"]),
                    num_warps=int(r["num_warps"]),
                    stages=int(r["stages"]),
                    max_per_warp=int(r["max_per_warp"]),
                )
                for r in payload["rounds"]
            )
            raw = payload.get("counterexample")
            counter = None
            if raw is not None:
                counter = Counterexample(
                    kernel=str(raw["kernel"]),
                    round_index=int(raw["round_index"]),
                    space=str(raw["space"]),
                    kind=str(raw["kind"]),
                    array=str(raw["array"]),
                    warp=int(raw["warp"]),
                    block=(
                        None if raw.get("block") is None
                        else int(raw["block"])
                    ),
                    bank=(
                        None if raw.get("bank") is None
                        else int(raw["bank"])
                    ),
                    lanes=tuple(int(v) for v in raw["lanes"]),
                    addresses=tuple(int(v) for v in raw["addresses"]),
                    groups=tuple(int(v) for v in raw.get("groups", ())),
                )
            sha = payload.get("plan_sha")
            return cls(
                n=int(payload["n"]),
                m=int(payload["m"]),
                width=int(payload["width"]),
                plan_sha=None if sha is None else str(sha),
                rounds=rounds,
                counterexample=counter,
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(
                f"malformed certificate payload: {exc!r}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(
                f"certificate is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


def certify_rounds(
    rounds: Iterable[StaticRound],
    width: int,
    n: int,
    m: int,
) -> Certificate:
    """Certify a static round sequence (used by tests).  Consecutive
    rounds of one ``kernel`` label form a kernel whose shared streams
    are analysed once (:func:`_certify_kernels`); ``rounds`` is
    consumed once, one kernel at a time."""
    return _certify_kernels(
        (group for _, group in groupby(rounds, key=attrgetter("kernel"))),
        width, n, m,
    )


def certify_program(program: "KernelProgram") -> Certificate:
    """Statically certify any regular lowered kernel program.

    Works for every program whose ops carry full schedules (scheduled
    row-wise, tiled transpose, gather-scatter); raises
    :class:`~repro.errors.StaticCheckError` on programs containing
    irregular (casual) ops, which have no conflict-freedom claim to
    prove.  ``m`` in the resulting certificate is the row-wise tile
    side when the program has one, else 0.
    """
    from repro.ir.ops import RowwiseScatter

    for op in program.ops:
        if not op.regular:
            raise StaticCheckError(
                f"op {op.label!r} (kind {op.kind!r}) is not statically "
                "certifiable: only scheduled row-wise, tiled transpose "
                "and gather-scatter kernels have conflict-freedom claims "
                "to prove"
            )

    m = next(
        (op.m for op in program.ops
         if isinstance(op, RowwiseScatter) and op.regular),
        0,
    )
    width = int(program.width) or max(
        (getattr(op, "width", 0) for op in program.ops), default=0
    )
    if width < 1:
        raise StaticCheckError(
            f"program {program.engine!r} has no machine width; cannot "
            "partition address streams into warps"
        )
    # One kernel launch at a time, built lazily, so the whole
    # program's address arrays never coexist.
    return _certify_kernels(
        (kernel.rounds for kernel in op_kernels(program.ops)),
        width=width, n=int(program.n), m=int(m),
    )


def plan_rounds(plan: "ScheduledPermutation") -> tuple[StaticRound, ...]:
    """All 32 rounds of a planned scheduled permutation.

    Lowers the plan and enumerates its program; kernels appear in
    execution order (``step1.rowwise``, ``step2.transpose-in``,
    ``step2.rowwise``, ``step2.transpose-out``, ``step3.rowwise``) and
    round indices run 0..31.
    """
    rounds = program_rounds(plan.lower())
    _expect_32_rounds(len(rounds))
    return rounds


def _expect_32_rounds(count: int) -> None:
    if count != 32:
        raise StaticCheckError(
            f"expected 32 static rounds, derived {count} — the "
            "plan's kernel structure does not match the paper's program"
        )


def certify_plan(plan: "ScheduledPermutation") -> Certificate:
    """Statically certify a scheduled plan's 32 rounds.

    Returns a :class:`Certificate`; inspect ``certificate.ok`` (or the
    ``conflict_free`` / ``coalesced`` split) and, on failure,
    ``certificate.counterexample``.  Never raises on an irregular plan
    — refusal is the caller's policy (``save_plan`` refuses, the CLI
    reports).  The rounds of :func:`plan_rounds` are analysed one
    kernel at a time, so every round's address arrays never coexist
    (at n = 2²⁰ that lowers the peak RSS of three memory-path compiles
    by ~100 MiB), and each distinct address stream is analysed once.
    The three row-wise kernels share their two shape streams and the
    two transposes their four, so a first certification at a shape
    makes 12 analyses for the 32 rounds; once the shape memo holds
    those six, a certification at that shape builds and analyses only
    the six ``s``/``t`` streams.
    """
    cert = _certify_kernels(
        (kernel.rounds for kernel in op_kernels(plan.lower().ops)),
        width=int(plan.width), n=int(plan.n), m=int(plan.m),
    )
    _expect_32_rounds(cert.num_rounds)
    return cert
