"""Factor a kernel program's permutation into stripes + one exchange.

The factorisation computed here is the three-phase out-of-core scheme:

* **pre** — each of the ``d`` row stripes is permuted locally so its
  elements are grouped (stably) by destination stripe;
* **exchange** — the groups move between stripes as ``<= d**2``
  contiguous block transfers (the explicit column-exchange shuffle);
* **post** — each stripe permutes its arrivals to their final offsets.

All three factors are permutations, so the reassembled program is an
ordinary three-op :class:`~repro.ir.program.KernelProgram` that the
symbolic denotation machinery can compare against the whole program.
``shard_program`` refuses — with a counterexample — any decomposition
whose denotation differs from the original.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ShardRefutedError, ShardingError
from repro.ir.ops import CasualWrite
from repro.ir.program import KernelProgram
from repro.staticcheck.semantics import (
    SemanticCertificate,
    denote_program,
    validate_translation,
)

if TYPE_CHECKING:
    from repro.machine.params import MachineParams

__all__ = ["ExchangeSegment", "ShardedProgram", "shard_program"]


class ExchangeSegment(NamedTuple):
    """One contiguous block transfer of the column-exchange shuffle.

    ``length`` elements move from global position ``src_start`` (inside
    stripe ``src_stripe``) to global position ``dst_start`` (inside
    stripe ``dst_stripe``).  Offsets are element counts, not bytes.
    """

    src_stripe: int
    dst_stripe: int
    src_start: int
    dst_start: int
    length: int

    @property
    def crosses(self) -> bool:
        """True when the block moves between two different stripes."""
        return self.src_stripe != self.dst_stripe


@dataclass(eq=False)
class ShardedProgram:
    """A ``d``-stripe factorisation of one kernel program.

    ``pre``, ``exchange`` and ``post`` are destination-designated
    permutation arrays (``out[arr[i]] = a[i]``) whose composition
    equals the base program's denoted index map; ``pre`` and ``post``
    are block-diagonal over the stripes, so each stripe's share is an
    independent sub-program.  ``certificate`` carries the denotation
    proof :func:`shard_program` attached.
    """

    base: KernelProgram
    d: int
    stripe: int
    pre: np.ndarray
    exchange: np.ndarray
    post: np.ndarray
    segments: tuple[ExchangeSegment, ...]
    certificate: SemanticCertificate | None = None

    # ---------------------------------------------------------------- views

    @property
    def n(self) -> int:
        """Total number of elements (``d * stripe``)."""
        return self.d * self.stripe

    @property
    def engine(self) -> str:
        """Registry name of the engine the base program came from."""
        return self.base.engine

    @property
    def exchange_elements(self) -> int:
        """Elements that actually cross a stripe boundary."""
        return sum(seg.length for seg in self.segments if seg.crosses)

    @property
    def nbytes(self) -> int:
        """Resident bytes of every array the factorisation pins: the
        three phase maps and the base program's index maps (cache
        accounting)."""
        return (
            self.pre.nbytes + self.exchange.nbytes + self.post.nbytes
            + self.base.nbytes
        )

    @property
    def proven(self) -> bool:
        """True when a passing denotation certificate is attached."""
        return self.certificate is not None and self.certificate.ok

    def as_program(self) -> KernelProgram:
        """Reassemble the factorisation as one three-op program."""
        ops = (
            CasualWrite(label=f"shard.pre[d={self.d}]", p=self.pre),
            CasualWrite(label=f"shard.exchange[d={self.d}]", p=self.exchange),
            CasualWrite(label=f"shard.post[d={self.d}]", p=self.post),
        )
        return KernelProgram(
            engine=f"sharded[{self.d}]:{self.base.engine}",
            n=self.n,
            width=self.base.width,
            ops=ops,
            meta={
                "shard_d": self.d,
                "stripe": self.stripe,
                "exchange_elements": self.exchange_elements,
            },
        )

    def stripe_programs(self, phase: str = "pre") -> tuple[KernelProgram, ...]:
        """The ``d`` independent stripe-local sub-programs of a phase."""
        arr = self._phase_array(phase)
        programs = []
        for k in range(self.d):
            lo = k * self.stripe
            local = arr[lo : lo + self.stripe] - lo
            programs.append(
                KernelProgram(
                    engine=f"{self.base.engine}@stripe{k}.{phase}",
                    n=self.stripe,
                    width=self.base.width,
                    ops=(
                        CasualWrite(label=f"stripe{k}.{phase}", p=local),
                    ),
                )
            )
        return tuple(programs)

    def local_gather(self, phase: str, k: int) -> np.ndarray:
        """Gather index for stripe ``k``: ``out[t] = x[g[t]]``.

        The inverse of the stripe's local scatter — the form a
        streaming executor wants, because a gather can be evaluated in
        arbitrarily small output chunks against a memory-mapped input.
        """
        arr = self._phase_array(phase)
        if not 0 <= k < self.d:
            raise ShardingError(f"stripe index {k} out of range for d={self.d}")
        lo = k * self.stripe
        local = arr[lo : lo + self.stripe] - lo
        gather = np.empty(self.stripe, dtype=np.int64)
        gather[local] = np.arange(self.stripe, dtype=np.int64)
        return gather

    def _phase_array(self, phase: str) -> np.ndarray:
        if phase == "pre":
            return self.pre
        if phase == "post":
            return self.post
        raise ShardingError(
            f"phase must be 'pre' or 'post', got {phase!r}"
        )

    # ------------------------------------------------------------- evidence

    def verify(self) -> SemanticCertificate:
        """Re-prove ``denote(reassembled) == denote(whole)`` from scratch."""
        return validate_translation(self.base, self.as_program())

    def with_exchange(self, exchange: np.ndarray) -> "ShardedProgram":
        """Copy with a replacement shuffle and *no* certificate.

        Exists so tests (and the self-check report) can seed a broken
        exchange and watch :meth:`verify` refuse it.
        """
        return ShardedProgram(
            base=self.base,
            d=self.d,
            stripe=self.stripe,
            pre=self.pre,
            exchange=np.asarray(exchange, dtype=np.int64),
            post=self.post,
            segments=self.segments,
            certificate=None,
        )

    def digest(self) -> str:
        """Content digest over the factorisation arrays."""
        h = hashlib.sha256()
        h.update(b"shard-v1")
        h.update(str(self.d).encode("ascii"))
        h.update(str(self.n).encode("ascii"))
        for arr in (self.pre, self.exchange, self.post):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        return h.hexdigest()

    # ---------------------------------------------------------------- model

    def model_time(
        self, params: "MachineParams", element_cells: int = 1
    ) -> dict[str, int]:
        """Multi-DMM model time for streaming this factorisation.

        See :func:`repro.core.theory.sharded_time` for the cost terms.
        """
        from repro.core import theory

        return theory.sharded_time_breakdown(
            self.n,
            params.width,
            params.latency,
            d=self.d,
            exchange_elements=self.exchange_elements,
            element_cells=element_cells,
        )

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"ShardedProgram(engine={self.base.engine!r}, n={self.n}, "
            f"d={self.d}, stripe={self.stripe})",
            f"  exchange: {len(self.segments)} segments, "
            f"{self.exchange_elements} crossing elements",
            f"  proven: {self.proven}",
        ]
        return "\n".join(lines)


def shard_program(program: KernelProgram, d: int) -> ShardedProgram:
    """Factor ``program`` into ``d`` row stripes plus a column exchange.

    Denotes the program symbolically, groups each stripe's elements by
    destination stripe (phase *pre*), derives the contiguous exchange
    blocks, and places arrivals at final offsets (phase *post*).  The
    reassembled three-op program is then proved equal to the whole
    program's denotation; a failed proof raises
    :class:`~repro.errors.ShardRefutedError` carrying the refuting
    certificate.
    """
    if d < 1:
        raise ShardingError(f"shard count d must be >= 1, got {d}")
    if program.out_n != program.n:
        raise ShardingError(
            "only size-preserving programs can be sharded; "
            f"{program.engine!r} maps n={program.n} to out_n={program.out_n}"
        )
    if program.n % d != 0:
        raise ShardingError(f"shard count d={d} must divide n={program.n}")
    den = denote_program(program)
    if not den.ok:
        detail = den.failure.detail if den.failure is not None else "unknown"
        raise ShardingError(
            f"cannot shard {program.engine!r}: program does not denote "
            f"a total map ({detail})"
        )
    p = np.asarray(den.index_map, dtype=np.int64)
    n = int(p.shape[0])
    s = n // d

    dest_stripe = p // s
    pre = np.empty(n, dtype=np.int64)
    counts = np.empty((d, d), dtype=np.int64)
    for k in range(d):
        lo = k * s
        block = dest_stripe[lo : lo + s]
        # Stable grouping keeps within-group arrival order deterministic,
        # which the post phase relies on.
        order = np.argsort(block, kind="stable")
        pre[lo + order] = lo + np.arange(s, dtype=np.int64)
        counts[k] = np.bincount(block, minlength=d)

    # Block starts: source blocks are laid out j-major inside each
    # stripe, destination blocks k-major inside each stripe.
    src_start = np.zeros((d, d), dtype=np.int64)
    src_start[:, 1:] = np.cumsum(counts, axis=1)[:, :-1]
    src_start += (np.arange(d, dtype=np.int64) * s)[:, None]
    dst_start = np.zeros((d, d), dtype=np.int64)
    dst_start[1:, :] = np.cumsum(counts, axis=0)[:-1, :]
    dst_start += (np.arange(d, dtype=np.int64) * s)[None, :]

    exchange = np.empty(n, dtype=np.int64)
    segments = []
    for k in range(d):
        for j in range(d):
            length = int(counts[k, j])
            if length == 0:
                continue
            src = int(src_start[k, j])
            dst = int(dst_start[k, j])
            exchange[src : src + length] = np.arange(
                dst, dst + length, dtype=np.int64
            )
            segments.append(ExchangeSegment(k, j, src, dst, length))

    # Element i sits at exchange[pre[i]] after the shuffle and must
    # reach p[i]; both live in stripe p[i] // s, so post is stripe-local.
    post = np.empty(n, dtype=np.int64)
    post[exchange[pre]] = p

    sharded = ShardedProgram(
        base=program,
        d=d,
        stripe=s,
        pre=pre,
        exchange=exchange,
        post=post,
        segments=tuple(segments),
    )
    cert = sharded.verify()
    if not cert.ok:
        raise ShardRefutedError(
            f"sharding refuted for engine {program.engine!r} at d={d}: "
            f"{cert.summary()}",
            certificate=cert,
        )
    sharded.certificate = cert
    return sharded
