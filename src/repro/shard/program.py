"""Factor a kernel program's permutation into two stripe-aware gathers.

The out-of-core scheme moves data in two passes around one column
exchange:

* **pre** — each of the ``d`` row stripes is permuted locally so its
  elements are grouped (stably) by destination stripe;
* **exchange** — the groups move between stripes as ``<= d**2``
  contiguous block transfers (the explicit column-exchange shuffle);
* **post** — each stripe places its arrivals at their final offsets.

A :class:`ShardedProgram` stores exactly the two gathers a stream runs:
``gather_pre`` (the pre phase) and ``gather_post`` (the exchange and
the final placement fused into one map).  :func:`prove_sharding` checks
their composition against the permutation element by element;
:func:`shard_permutation` (from ``p``) and :func:`shard_program` (from
a program's denotation) run it on every build and refuse a wrong
sharding with the first wrong output position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ShardRefutedError, ShardingError
from repro.ir.program import KernelProgram
from repro.staticcheck.semantics import denote_program
from repro.util.validation import check_permutation

__all__ = [
    "ExchangeSegment",
    "ShardedProgram",
    "prove_sharding",
    "shard_permutation",
    "shard_program",
]


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


@dataclass(frozen=True, eq=False)
class ShardedProgram:
    """A ``d``-stripe sharding: the two gathers a stream runs.

    ``mid[q] = in[gather_pre[q]]`` groups every stripe's elements by
    destination stripe without leaving the stripe;
    ``out[q] = mid[gather_post[q]]`` performs the column exchange and
    the final placement at once, each output stripe reading only the
    ``segments`` that end in it.  Built by :func:`shard_program`, which
    proves ``gather_pre[gather_post] == p⁻¹`` before returning; both
    maps are read-only.
    """

    d: int
    stripe: int
    gather_pre: np.ndarray
    gather_post: np.ndarray
    segments: tuple[ExchangeSegment, ...]

    @property
    def n(self) -> int:
        """Total number of elements (``d * stripe``)."""
        return self.d * self.stripe

    @property
    def exchange_elements(self) -> int:
        """Elements that actually cross a stripe boundary."""
        return sum(seg.length for seg in self.segments if seg.crosses)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the two gather maps (cache accounting)."""
        return self.gather_pre.nbytes + self.gather_post.nbytes

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        return "\n".join(
            [
                f"ShardedProgram(n={self.n}, d={self.d}, "
                f"stripe={self.stripe})",
                f"  exchange: {len(self.segments)} segments, "
                f"{self.exchange_elements} crossing elements",
            ]
        )


def prove_sharding(sharded: ShardedProgram, p: np.ndarray) -> None:
    """Prove that streaming ``sharded`` computes ``out[p[i]] = a[i]``.

    Both maps must have ``n`` entries inside ``[0, n)``, and every
    output position ``q`` must read the element destined for it:
    ``p[gather_pre[gather_post[q]]] == q``.  That is the streamed
    result map compared with ``p⁻¹`` exactly, so a passing proof also
    makes both maps permutations.  Raises
    :class:`~repro.errors.ShardRefutedError` naming the first wrong
    output position otherwise.
    """
    n = sharded.n
    p = np.asarray(p)
    if p.shape != (n,):
        raise ShardRefutedError(
            f"sharding covers n={n} but the permutation has "
            f"shape {p.shape}"
        )
    for name, gather in (
        ("gather_pre", sharded.gather_pre),
        ("gather_post", sharded.gather_post),
    ):
        if gather.shape != (n,):
            raise ShardRefutedError(
                f"{name} has shape {gather.shape}, expected ({n},)"
            )
        if n and (int(gather.min()) < 0 or int(gather.max()) >= n):
            q = int(np.flatnonzero((gather < 0) | (gather >= n))[0])
            raise ShardRefutedError(
                f"{name}[{q}] = {int(gather[q])} lies outside [0, {n})",
                position=q,
            )
    wrong = p[sharded.gather_pre[sharded.gather_post]] != np.arange(n)
    if wrong.any():
        q = int(np.flatnonzero(wrong)[0])
        raise ShardRefutedError(
            f"sharding refuted at d={sharded.d}: output position {q} "
            "would not receive the element the permutation sends there",
            position=q,
        )


def _check_stripes(n: int, d: int) -> None:
    if d < 1:
        raise ShardingError(f"shard count d must be >= 1, got {d}")
    if n % d != 0:
        raise ShardingError(f"shard count d={d} must divide n={n}")


def shard_program(program: KernelProgram, d: int) -> ShardedProgram:
    """Shard ``program`` into ``d`` row stripes around a column exchange.

    Denotes the program once to get its permutation ``p`` (which
    proves ``p`` a bijection) and shards that as
    :func:`shard_permutation` does.
    """
    if program.out_n != program.n:
        raise ShardingError(
            "only size-preserving programs can be sharded; "
            f"{program.engine!r} maps n={program.n} to out_n={program.out_n}"
        )
    _check_stripes(program.n, d)
    den = denote_program(program)
    if not den.ok:
        detail = den.failure.detail if den.failure is not None else "unknown"
        raise ShardingError(
            f"cannot shard {program.engine!r}: program does not denote "
            f"a total map ({detail})"
        )
    return _shard(np.asarray(den.index_map, dtype=np.int64), d)


def shard_permutation(p: np.ndarray, d: int) -> ShardedProgram:
    """Shard the permutation ``p`` into ``d`` row stripes.

    Checks once that ``p`` is a permutation of ``0..n-1``
    (:class:`~repro.errors.NotAPermutationError` otherwise), groups
    each stripe's elements stably by destination stripe
    (``gather_pre``), lists the contiguous exchange blocks, and fuses
    the exchange with the final placement (``gather_post``).  The
    result is proved by :func:`prove_sharding` before it is returned.
    """
    p = check_permutation(p)
    _check_stripes(int(p.shape[0]), d)
    return _shard(p, d)


def _shard(p: np.ndarray, d: int) -> ShardedProgram:
    """The proved sharding of ``p``, an ``int64`` permutation whose
    length ``d`` divides."""
    n = int(p.shape[0])
    s = n // d
    dtype = np.dtype(np.uint32 if n <= 2**32 else np.int64)

    # Key stripe·d + destination stripe: a stable sort keeps every
    # stripe in place, groups it by destination and keeps the arrival
    # order within a group deterministic.
    key = (np.repeat(np.arange(0, d * d, d), s) + p // s).astype(
        np.min_scalar_type(d * d - 1)
    )
    gather_pre = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=d * d).reshape(d, d)
    # The element at mid position m must reach p[gather_pre[m]].
    gather_post = np.empty(n, dtype=dtype)
    gather_post[p[gather_pre]] = np.arange(n, dtype=dtype)
    gather_pre = gather_pre.astype(dtype)

    # Block starts: source blocks are laid out j-major inside each
    # stripe, destination blocks k-major inside each stripe.
    src_start = np.zeros((d, d), dtype=np.int64)
    src_start[:, 1:] = np.cumsum(counts, axis=1)[:, :-1]
    src_start += (np.arange(d, dtype=np.int64) * s)[:, None]
    dst_start = np.zeros((d, d), dtype=np.int64)
    dst_start[1:, :] = np.cumsum(counts, axis=0)[:-1, :]
    dst_start += (np.arange(d, dtype=np.int64) * s)[None, :]
    segments = tuple(
        ExchangeSegment(k, j, int(src_start[k, j]), int(dst_start[k, j]),
                        int(counts[k, j]))
        for k in range(d)
        for j in range(d)
        if counts[k, j]
    )

    gather_pre.setflags(write=False)
    gather_post.setflags(write=False)
    sharded = ShardedProgram(
        d=d,
        stripe=s,
        gather_pre=gather_pre,
        gather_post=gather_post,
        segments=segments,
    )
    prove_sharding(sharded, p)
    return sharded
