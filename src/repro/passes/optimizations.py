"""Concrete optimization passes over the kernel-program IR.

Every pass here is semantics-preserving with respect to the
:class:`~repro.exec.reference.ReferenceExecutor` and only ever
*removes* rounds; the property tests in ``tests/passes`` pin both
claims for all nine registered engines.

The **default pipeline** (see :func:`repro.passes.default_pipeline`)
is deliberately conservative: it removes structure that is free on the
machine model (zero-round no-op pads/slices, adjacent transpose pairs,
adjacent row maps or casual chains that *compose* — including to the
identity).  It does **not** silently delete a standalone
data-dependent identity op (e.g. ``casual-write`` with ``p = id``):
such an op still costs real memory rounds on the HMM, and the repo's
cost tables (`conventional_time`, Table II) price exactly those
rounds.  Full identity elimination lives in :class:`DropIdentityOps`,
which the opt-in :func:`repro.passes.aggressive_pipeline` enables.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.ir.ops import (
    CasualRead,
    CasualWrite,
    CycleRotate,
    KernelOp,
    Pad,
    RowwiseScatter,
    Slice,
    Transpose,
)
from repro.ir.program import KernelProgram


def _with_ops(
    program: KernelProgram, ops: list[KernelOp]
) -> KernelProgram:
    """New program with ``ops``; stale cost annotations are dropped."""
    return replace(program, ops=tuple(ops), meta=None)


def _is_identity_1d(arr: np.ndarray) -> bool:
    return bool(np.array_equal(arr, np.arange(arr.shape[0])))


def _is_identity_rows(gamma: np.ndarray) -> bool:
    return bool((gamma == np.arange(gamma.shape[1])).all())


def _compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row map of scatter-by-``a`` then scatter-by-``b``:
    ``composed[r, c] = b[r, a[r, c]]``."""
    rows = np.arange(a.shape[0])[:, None]
    return np.asarray(b[rows, a])


class CancelAdjacentTransposes:
    """Remove adjacent ``transpose`` pairs of the same matrix size.

    ``T ∘ T = id`` for a square transpose regardless of tiling or
    diagonal slot rotation (those change the access *schedule*, not
    the value semantics), so back-to-back programs such as a
    permutation concatenated with its inverse lose 2 x 4 rounds per
    cancelled pair.
    """

    name = "cancel-transposes"

    def run(self, program: KernelProgram) -> KernelProgram:
        ops = program.ops
        out: list[KernelOp] = []
        i = 0
        changed = False
        while i < len(ops):
            op = ops[i]
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if (
                isinstance(op, Transpose)
                and isinstance(nxt, Transpose)
                and op.m == nxt.m
            ):
                i += 2
                changed = True
                continue
            out.append(op)
            i += 1
        return _with_ops(program, out) if changed else program


class SimplifyPadSlice:
    """Remove and merge no-op ``pad``/``slice`` resizing.

    Rules (all size-checked against the live size chain):

    * ``Pad(n, n)`` — zero growth — is dropped.
    * ``Slice(n)`` on an ``n``-element input is dropped.
    * ``Pad(n, N)`` immediately sliced back to ``k <= n`` elements
      never observes the padding: the pair becomes ``Slice(k)`` (or
      vanishes when ``k == n``).
    * Adjacent pads merge; adjacent slices keep only the tighter one.

    ``Slice`` *then* ``Pad`` is never touched: slicing discards data,
    so the pair is not a no-op even when the sizes round-trip.
    """

    name = "simplify-pad-slice"

    def run(self, program: KernelProgram) -> KernelProgram:
        ops = program.ops
        out: list[KernelOp] = []
        size = program.n
        i = 0
        changed = False
        while i < len(ops):
            op = ops[i]
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if isinstance(op, Pad) and op.padded_n == size:
                i += 1
                changed = True
                continue
            if isinstance(op, Slice) and op.n == size:
                i += 1
                changed = True
                continue
            if (
                isinstance(op, Pad)
                and isinstance(nxt, Slice)
                and nxt.n <= op.n
            ):
                # The slice never reaches the zero padding.
                if nxt.n < size:
                    out.append(nxt)
                size = nxt.n
                i += 2
                changed = True
                continue
            if isinstance(op, Pad) and isinstance(nxt, Pad):
                merged = Pad(
                    label=op.label, n=op.n, padded_n=nxt.padded_n
                )
                ops = ops[:i] + (merged,) + ops[i + 2:]
                changed = True
                continue
            if isinstance(op, Slice) and isinstance(nxt, Slice):
                merged = Slice(label=nxt.label, n=nxt.n)
                ops = ops[:i] + (merged,) + ops[i + 2:]
                changed = True
                continue
            out.append(op)
            size = op.out_size(size)
            i += 1
        return _with_ops(program, out) if changed else program


class FuseRowwiseSteps:
    """Fuse adjacent ``rowwise-scatter`` ops whose row maps compose.

    Two scatters over the same matrix shape compose to a single
    scatter with ``gamma[r, c] = g2[r, g1[r, c]]``.  When the
    composition is the identity the pair is dropped outright (this is
    what collapses a permutation composed with its inverse).  A
    non-identity composition is only materialised for *unscheduled*
    (casual, 3-round) scatters — fusing two scheduled 8-round kernels
    would need re-deriving the conflict-free ``s``/``t`` schedules, so
    scheduled pairs are left alone.
    """

    name = "fuse-rowwise"

    def run(self, program: KernelProgram) -> KernelProgram:
        ops = program.ops
        out: list[KernelOp] = []
        i = 0
        changed = False
        while i < len(ops):
            op = ops[i]
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if (
                isinstance(op, RowwiseScatter)
                and isinstance(nxt, RowwiseScatter)
                and op.gamma.shape == nxt.gamma.shape
            ):
                composed = _compose_rows(op.gamma, nxt.gamma)
                if _is_identity_rows(composed):
                    i += 2
                    changed = True
                    continue
                if not op.scheduled and not nxt.scheduled:
                    out.append(
                        RowwiseScatter(
                            label=f"{op.label}+{nxt.label}",
                            gamma=composed,
                            width=0,
                        )
                    )
                    i += 2
                    changed = True
                    continue
            out.append(op)
            i += 1
        return _with_ops(program, out) if changed else program


class FuseCasualChains:
    """Fuse adjacent casual writes, reads, or cycle rotations.

    ``b[p2[p1[i]]] = a[i]`` for write-after-write, ``b[i] =
    a[q1[q2[i]]]`` for read-after-read, and likewise for the
    cycle-following op.  Identity compositions are dropped.
    """

    name = "fuse-casual"

    def run(self, program: KernelProgram) -> KernelProgram:
        ops = program.ops
        out: list[KernelOp] = []
        i = 0
        changed = False
        while i < len(ops):
            op = ops[i]
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            fused = self._fuse_pair(op, nxt)
            if fused is not None:
                out.extend(fused)
                i += 2
                changed = True
                continue
            out.append(op)
            i += 1
        return _with_ops(program, out) if changed else program

    @staticmethod
    def _fuse_pair(
        op: KernelOp, nxt: KernelOp | None
    ) -> list[KernelOp] | None:
        """The replacement for a fusable pair, or None."""
        if (
            isinstance(op, CasualWrite)
            and isinstance(nxt, CasualWrite)
            and op.space == nxt.space
            and op.p.shape == nxt.p.shape
        ):
            composed = np.asarray(nxt.p[op.p])
            if _is_identity_1d(composed):
                return []
            return [
                CasualWrite(
                    label=f"{op.label}+{nxt.label}",
                    p=composed,
                    space=op.space,
                )
            ]
        if (
            isinstance(op, CasualRead)
            and isinstance(nxt, CasualRead)
            and op.space == nxt.space
            and op.q.shape == nxt.q.shape
        ):
            composed = np.asarray(op.q[nxt.q])
            if _is_identity_1d(composed):
                return []
            return [
                CasualRead(
                    label=f"{op.label}+{nxt.label}",
                    q=composed,
                    space=op.space,
                )
            ]
        if (
            isinstance(op, CycleRotate)
            and isinstance(nxt, CycleRotate)
            and op.p.shape == nxt.p.shape
        ):
            composed = np.asarray(nxt.p[op.p])
            if _is_identity_1d(composed):
                return []
            return [
                CycleRotate(
                    label=f"{op.label}+{nxt.label}", p=composed
                )
            ]
        return None


class DropIdentityOps:
    """Delete every op that provably permutes nothing.

    This is the full-strength identity elimination: a lone
    ``casual-write`` with ``p = id``, a ``cycle-rotate`` of the
    identity, a ``1 x 1`` transpose, an identity ``gather-scatter``,
    and so on.  It is **not** part of the default pipeline, because an
    identity kernel still costs its memory rounds on the HMM and the
    cost tables price those rounds; enable it explicitly via
    :func:`repro.passes.aggressive_pipeline` when modelled cost of
    identity traffic is not wanted.
    """

    name = "drop-identities"

    def run(self, program: KernelProgram) -> KernelProgram:
        out: list[KernelOp] = []
        size = program.n
        changed = False
        for op in program.ops:
            if self._is_identity(op, size):
                changed = True
                continue
            out.append(op)
            size = op.out_size(size)
        return _with_ops(program, out) if changed else program

    @staticmethod
    def _is_identity(op: KernelOp, size: int) -> bool:
        if isinstance(op, RowwiseScatter):
            return _is_identity_rows(op.gamma)
        if isinstance(op, Transpose):
            return op.m == 1
        if isinstance(op, (CasualWrite, CycleRotate)):
            return _is_identity_1d(op.p)
        if isinstance(op, CasualRead):
            return _is_identity_1d(op.q)
        if isinstance(op, Pad):
            return op.padded_n == size
        if isinstance(op, Slice):
            return op.n == size
        from repro.ir.ops import GatherScatter

        if isinstance(op, GatherScatter):
            return bool(
                np.array_equal(op.s, op.t)
                and np.array_equal(
                    np.sort(op.s), np.arange(op.s.shape[0])
                )
            )
        return False
