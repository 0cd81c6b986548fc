"""Sharded permutations: row stripes + one column exchange.

The paper's scheduled algorithm decomposes an arbitrary permutation of
a :math:`\\sqrt{n}\\times\\sqrt{n}` matrix into row-local steps around
one global column shuffle.  This package applies the same idea one
level up, across *DMMs* instead of warps: the permutation ``p`` a
size-preserving :class:`~repro.ir.program.KernelProgram` denotes is
split over ``d`` **row stripes** of ``n/d`` contiguous elements into

1. ``gather_pre`` — a stripe-local gather that groups each stripe's
   elements by destination stripe, and
2. ``gather_post`` — one gather that performs the column exchange and
   the final placement at once: each output stripe reads only the
   ``<= d`` contiguous :class:`ExchangeSegment` ranges that end in it.

These two maps are all a :class:`ShardedProgram` holds, and exactly
what the out-of-core :class:`~repro.exec.StreamingExecutor` runs.
:func:`shard_permutation` builds them from ``p`` (the planner's path)
and :func:`shard_program` from a program's denotation; both prove them
with :func:`prove_sharding` on every build — ``gather_pre[gather_post]
== p⁻¹``, element by element — and refuse a wrong sharding with the
first wrong output position (:class:`~repro.errors.ShardRefutedError`).
"""

from repro.shard.program import (
    ExchangeSegment,
    ShardedProgram,
    prove_sharding,
    shard_permutation,
    shard_program,
)

__all__ = [
    "ExchangeSegment",
    "ShardedProgram",
    "prove_sharding",
    "shard_permutation",
    "shard_program",
]
