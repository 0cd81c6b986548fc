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

Shape streams: of the 32 rounds, only the six shared writes through
``s`` and ``t`` have addresses that depend on the permutation.  The
scheduled row-wise ``arange`` and ``tile`` streams and all four
streams of a tiled transpose are :class:`ShapeStream` s, pure
functions of the op parameters in their ``key``, built on first use:
pricing, race detection and the interpreter read their full arrays
through :attr:`StaticRound.addresses` as before, while the certifier
can answer a stream by its key without building it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cache
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


class ShapeStream:
    """An address stream that is a pure function of op parameters.

    ``key`` names the stream and every parameter its addresses depend
    on, so two streams with equal keys hold equal addresses.  The
    array is built by ``build`` on first use of :attr:`array` and kept
    as long as the stream: the rounds of one kernel that share a
    stream share one array.
    """

    __slots__ = ("key", "_build", "_array")

    def __init__(
        self, key: tuple[Any, ...], build: Callable[[], np.ndarray]
    ) -> None:
        self.key = key
        self._build = build
        self._array: np.ndarray | None = None

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = self._build()
        return self._array


@dataclass(frozen=True)
class StaticRound:
    """One access round of the stream.

    ``source`` is the round's address stream: an array, or a
    :class:`ShapeStream` built on demand.  :attr:`addresses` holds one
    address per thread (block-local for shared rounds, the convention
    of :class:`repro.machine.requests.AccessRound`); ``kernel`` is the
    op label and ``index`` the round's position in the whole program.
    """

    kernel: str
    index: int
    space: str
    kind: str
    array: str
    source: np.ndarray | ShapeStream
    block_size: int | None = None
    element_cells: int = 1

    @property
    def addresses(self) -> np.ndarray:
        source = self.source
        return source.array if isinstance(source, ShapeStream) else source

    @property
    def shape_key(self) -> tuple[Any, ...] | None:
        """The key of a :class:`ShapeStream` source; ``None`` for a
        stream that depends on the permutation."""
        source = self.source
        return source.key if isinstance(source, ShapeStream) else None

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
_Access = tuple[
    str, str, str, "np.ndarray | ShapeStream", "int | None", int
]


def _flat(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a flat stream: a narrow unsigned index array (the
    ``uint16`` row-wise schedules) keeps its dtype, since every
    consumer either indexes with it or widens it itself; anything else
    becomes ``int64``."""
    arr = np.asarray(arr)
    if arr.dtype.kind != "u" or arr.dtype.itemsize > 4:
        arr = arr.astype(np.int64, copy=False)
    return arr.reshape(-1)


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
        if op.regular:
            assert op.s is not None and op.t is not None
            idx = ShapeStream(
                ("rowwise.idx", rows, m),
                lambda: np.arange(rows * m, dtype=np.int64),
            )
            tile = ShapeStream(
                ("rowwise.tile", rows, m),
                lambda: np.tile(np.arange(m, dtype=np.int64), rows),
            )
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
        idx = np.arange(rows * m, dtype=np.int64)
        dest = (idx // m) * m + _flat(op.gamma)
        return op.label, 0, [
            ("global", "read", "a", idx, None, k),
            ("global", "read", "gamma", idx, None, _cells(op.gamma)),
            ("global", "write", "b", dest, None, k),
        ]
    if isinstance(op, Transpose):
        if op.tiled:
            from repro.core.transpose import tile_addresses

            geometry = (op.m, op.width, op.diagonal)
            # One build yields all four streams, on the first demand.
            streams = cache(lambda: tile_addresses(*geometry))
            read, slot_write, slot_read, write = (
                ShapeStream(
                    ("transpose", *geometry, slot),
                    lambda slot=slot: streams()[slot],
                )
                for slot in range(4)
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
    hook = _scatter_fault_hook
    rounds: list[StaticRound] = []
    for offset, (space, kind, array, source, block, cells) in enumerate(
        accesses
    ):
        if hook is not None:
            # An armed hook may alter any shared write, so no stream
            # of this kernel keeps a key that could vouch for it.
            if isinstance(source, ShapeStream):
                source = source.array
            if space == "shared" and kind == "write" and block:
                source = np.asarray(
                    hook(array, source.reshape(-1, block))
                ).reshape(-1)
        rounds.append(StaticRound(
            kernel=op.label, index=start + offset, space=space,
            kind=kind, array=array, source=source,
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
    ``step1.rowwise``); ``pad``/``slice`` contribute none.  All rounds
    at once: a consumer that can take one kernel at a time iterates
    :func:`op_kernels` instead and never holds the program's address
    arrays together.
    """
    return tuple(
        rnd for kernel in op_kernels(program.ops, dtype)
        for rnd in kernel.rounds
    )
