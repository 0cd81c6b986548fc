"""The access-round enumerator — the one description of every kernel.

Every address a kernel touches is a pure function of its IR op: the
``s``/``t`` schedules, the transpose geometry, the casual index arrays.
:func:`op_kernels` walks a sequence of ops and yields, per kernel
launch, its access rounds in execution order together with the kernel's
priced name and shared-memory footprint.  Four consumers read this one
stream, so none of them can drift from the others:

* **pricing** — :class:`repro.exec.simulator.SimulatorExecutor` charges
  it on :meth:`repro.machine.hmm.HMM.run_program`;
* **certification** — :mod:`repro.staticcheck.certifier` proves the
  rounds of :func:`program_rounds` conflict-free and coalesced;
* **race detection** — ``HMM(detect_races=True)`` screens the same
  write rounds while pricing;
* **the data-movement oracle** — :mod:`repro.exec.interpreter` moves
  a payload round by round; tests hold every engine's sealed ``apply``
  to its result, so the rounds we charge compute the answer.

Round streams per op kind (``a`` is the kernel's input, ``b`` its
output):

* scheduled row-wise (kernel ``rowwise``): read ``a``, read ``s``,
  write ``x[s]``, read ``t``, read ``x[tile]``, write ``y[t]``, read
  ``y[tile]``, write ``b`` — 8 rounds;
* tiled transpose (kernel ``transpose``): read ``a``, write ``tile``
  (diagonal slots), read ``tile``, write ``b`` — 4 rounds;
* unscheduled row-wise: read ``a``, read ``gamma``, casual write ``b``;
* untiled transpose: read ``a``, strided write ``b``;
* casual write (global or shared): read ``a``, read ``p``, write
  ``b[p]``;
* casual read: read ``q``, casual read ``a[q]``, write ``b``;
* gather-scatter (single DMM): shared reads of ``s``, ``t`` and
  ``a[s]``, shared write ``b[t]``;
* cycle rotate: read ``a``, casual write ``b[p]``;
* ``pad`` / ``slice``: no rounds (zero-cost resizing).

The paper's five-kernel program is row-wise, transpose, row-wise,
transpose, row-wise = 8 + 4 + 8 + 4 + 8 = 32 rounds.

Element widths: payload arrays (:data:`PAYLOAD_ARRAYS`) take the
payload dtype's cell count; index arrays keep their own dtype's, so a
narrowed schedule is charged at its stored width.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ValidationError
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
from repro.machine.cost_model import element_cells_of
from repro.machine.requests import AccessRound, Kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.program import KernelProgram

#: Arrays holding payload values.  Every other array in a stream is an
#: index array (``s``, ``t``, ``p``, ``q``, ``gamma``) whose values are
#: already the addresses of the kernel's later rounds.
PAYLOAD_ARRAYS = frozenset({"a", "b", "x", "y", "tile"})

#: Test seam for fault injection: when set (by
#: :class:`repro.resilience.FaultPlan` with ``scatter_collisions``),
#: every shared write round passes its ``(blocks, threads)`` address
#: matrix through this callable as the stream is enumerated — so an
#: injected write-write collision both damages the interpreted payload
#: and shows up as a race when the same stream is priced.
_scatter_fault_hook: Callable[[str, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class StaticRound:
    """One access round of the stream.

    ``addresses`` holds one address per thread (block-local for shared
    rounds, the convention of
    :class:`repro.machine.requests.AccessRound`); ``kernel`` is the op
    label and ``index`` the round's position in the whole program.
    """

    kernel: str
    index: int
    space: str
    kind: str
    array: str
    addresses: np.ndarray
    block_size: int | None = None
    element_cells: int = 1

    @property
    def num_threads(self) -> int:
        return int(self.addresses.shape[0])

    def label(self) -> str:
        """Identifier like ``"step1.rowwise[2] shared write x"``."""
        return f"{self.kernel}[{self.index}] {self.space} {self.kind} " \
               f"{self.array}"

    def to_access_round(self) -> AccessRound:
        """The machine-level :class:`AccessRound` the HMM charges."""
        return AccessRound(
            self.space, self.kind, self.addresses, self.array,  # type: ignore[arg-type]
            block_size=self.block_size,
            element_cells=self.element_cells,
        )


@dataclass(frozen=True)
class KernelRounds:
    """One kernel launch: its priced name, per-block shared footprint
    and rounds in execution order."""

    name: str
    shared_bytes: int
    rounds: tuple[StaticRound, ...]

    def to_kernel(self) -> Kernel:
        """The machine-level :class:`Kernel` the HMM charges."""
        return Kernel(
            self.name,
            tuple(r.to_access_round() for r in self.rounds),
            self.shared_bytes,
        )


def rowwise_shared_bytes(m: int, dtype: Any) -> int:
    """Shared memory per block of a row-wise kernel: the two row
    buffers ``x`` and ``y`` (this hits the GTX-680's 48 KB wall for
    ``sqrt(n) = 4096`` doubles: 2 * 4096 * 8 B = 64 KB)."""
    return 2 * m * np.dtype(dtype).itemsize


def transpose_shared_bytes(width: int, dtype: Any) -> int:
    """Shared memory per block of a tiled transpose: one ``w x w``
    tile."""
    return width * width * np.dtype(dtype).itemsize


#: (space, kind, array, addresses, block_size, element_cells)
_Access = tuple[str, str, str, np.ndarray, "int | None", int]


def _flat(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.int64).reshape(-1)


def _cells(arr: np.ndarray) -> int:
    return element_cells_of(np.asarray(arr).dtype)


def _op_accesses(
    op: KernelOp, dtype: Any
) -> tuple[str, int, list[_Access]]:
    """``(kernel name, shared bytes, accesses)`` of one round-bearing
    op, in execution order."""
    k = element_cells_of(dtype)
    if isinstance(op, RowwiseScatter):
        rows, m = op.rows, op.m
        idx = np.arange(rows * m, dtype=np.int64)
        if op.regular:
            assert op.s is not None and op.t is not None
            tile = np.tile(np.arange(m, dtype=np.int64), rows)
            return "rowwise", rowwise_shared_bytes(m, dtype), [
                ("global", "read", "a", idx, None, k),
                ("global", "read", "s", idx, None, _cells(op.s)),
                ("shared", "write", "x", _flat(op.s), m, k),
                ("global", "read", "t", idx, None, _cells(op.t)),
                ("shared", "read", "x", tile, m, k),
                ("shared", "write", "y", _flat(op.t), m, k),
                ("shared", "read", "y", tile, m, k),
                ("global", "write", "b", idx, None, k),
            ]
        dest = (idx // m) * m + _flat(op.gamma)
        return op.label, 0, [
            ("global", "read", "a", idx, None, k),
            ("global", "read", "gamma", idx, None, _cells(op.gamma)),
            ("global", "write", "b", dest, None, k),
        ]
    if isinstance(op, Transpose):
        if op.tiled:
            from repro.core.transpose import tile_addresses

            read, slot_write, slot_read, write = tile_addresses(
                op.m, op.width, op.diagonal
            )
            tile_threads = op.width * op.width
            return "transpose", transpose_shared_bytes(op.width, dtype), [
                ("global", "read", "a", read, None, k),
                ("shared", "write", "tile", slot_write, tile_threads, k),
                ("shared", "read", "tile", slot_read, tile_threads, k),
                ("global", "write", "b", write, None, k),
            ]
        idx = np.arange(op.m * op.m, dtype=np.int64)
        return op.label, 0, [
            ("global", "read", "a", idx, None, k),
            ("global", "write", "b", (idx % op.m) * op.m + idx // op.m,
             None, k),
        ]
    if isinstance(op, CasualWrite):
        n = int(op.p.shape[0])
        idx = np.arange(n, dtype=np.int64)
        space = op.space
        block = n if space == "shared" else None
        return op.label, 0, [
            (space, "read", "a", idx, block, k),
            (space, "read", "p", idx, block, _cells(op.p)),
            (space, "write", "b", _flat(op.p), block, k),
        ]
    if isinstance(op, CasualRead):
        idx = np.arange(int(op.q.shape[0]), dtype=np.int64)
        return op.label, 0, [
            ("global", "read", "q", idx, None, _cells(op.q)),
            ("global", "read", "a", _flat(op.q), None, k),
            ("global", "write", "b", idx, None, k),
        ]
    if isinstance(op, GatherScatter):
        n = int(op.s.shape[0])
        idx = np.arange(n, dtype=np.int64)
        return op.label, 0, [
            ("shared", "read", "s", idx, n, _cells(op.s)),
            ("shared", "read", "t", idx, n, _cells(op.t)),
            ("shared", "read", "a", _flat(op.s), n, k),
            ("shared", "write", "b", _flat(op.t), n, k),
        ]
    if isinstance(op, CycleRotate):
        idx = np.arange(int(op.p.shape[0]), dtype=np.int64)
        return op.label, 0, [
            ("global", "read", "a", idx, None, k),
            ("global", "write", "b", _flat(op.p), None, k),
        ]
    raise ValidationError(
        f"no access rounds are defined for op kind {op.kind!r}"
    )


def op_kernel(
    op: KernelOp, dtype: Any = np.float32, start: int = 0
) -> KernelRounds | None:
    """The kernel launch of one op (``None`` for ``pad``/``slice``).

    ``dtype`` is the payload dtype; ``start`` numbers the first round.
    """
    if isinstance(op, (Pad, Slice)):
        return None
    name, shared_bytes, accesses = _op_accesses(op, dtype)
    rounds: list[StaticRound] = []
    for offset, (space, kind, array, addresses, block, cells) in enumerate(
        accesses
    ):
        if (
            _scatter_fault_hook is not None
            and space == "shared" and kind == "write" and block
        ):
            addresses = np.asarray(
                _scatter_fault_hook(array, addresses.reshape(-1, block))
            ).reshape(-1)
        rounds.append(StaticRound(
            kernel=op.label, index=start + offset, space=space,
            kind=kind, array=array, addresses=addresses,
            block_size=block, element_cells=cells,
        ))
    return KernelRounds(name, shared_bytes, tuple(rounds))


def op_kernels(
    ops: Iterable[KernelOp], dtype: Any = np.float32
) -> Iterator[KernelRounds]:
    """Lazily enumerate the kernel launches of ``ops`` in order.

    Round indices run consecutively across all ops.  Kernels are built
    one at a time, so the address arrays of a large program never need
    to coexist in memory.
    """
    start = 0
    for op in ops:
        kernel = op_kernel(op, dtype, start)
        if kernel is not None:
            start += len(kernel.rounds)
            yield kernel


def program_rounds(
    program: KernelProgram, dtype: Any = np.float32
) -> tuple[StaticRound, ...]:
    """Every access round of a lowered kernel program, in order.

    Each op contributes its rounds under its own label (e.g.
    ``step1.rowwise``); ``pad``/``slice`` contribute none.
    """
    return tuple(
        rnd
        for kernel in op_kernels(program.ops, dtype)
        for rnd in kernel.rounds
    )
