"""Offline permutation inside one DMM (the paper's predecessor result).

Before scaling to the HMM, the authors solved offline permutation for
an array resident in a *single* DMM's shared memory (refs [8], [9] of
the paper; Section I summarises: the conventional algorithm takes 246 ns
and the conflict-free one 165 ns for 1024 floats on one GTX-680 SM —
1.5x, but capped at 4096 floats by the 48 KB shared memory).  This
module reproduces that system:

* :class:`DMMConventionalPermutation` — ``b[p[i]] = a[i]`` directly:
  one conflict-free read of ``a``, one of ``p``, and one *casual* write
  whose per-warp cost is the maximum bank multiplicity — the **bank
  distribution** ``B_w(P)`` (the DMM twin of the UMM's ``D_w``);
* :class:`DMMScheduledPermutation` — the conflict-free algorithm: a
  König colouring of the degree-``n/w`` bank multigraph
  (``i mod w -> p[i] mod w``) yields a thread schedule ``s`` (warp ``r``
  = the ``w`` elements of colour ``r``, lane = source bank) and
  ``t = p[s]``; then thread ``i`` performs ``b[t[i]] <- a[s[i]]`` —
  **4 conflict-free rounds** (read ``s``, read ``t``, read ``a[s]``,
  write ``b[t]``) for a total of ``4n/w`` time units against the
  conventional ``2n/w + B_w(P)`` (with ``B_w`` up to ``n``).

The same crossover logic as the HMM result applies one level down:
``B_w(identity) = n/w`` (conventional wins), ``B_w`` of a bank-worst
permutation is ``n`` (conflict-free wins ~``(2 + w)/4`` ×), and random
permutations sit at the expected max-load of ``w`` balls in ``w`` bins
(~3.4 at ``w = 32``), giving the modest but real ~1.3x the paper's
165 ns vs 246 ns reflects.
"""

from __future__ import annotations

import numpy as np

from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.coloring.verify import verify_edge_coloring
from repro.errors import SizeError, ValidationError
from repro.ir.engine import EngineBase
from repro.ir.ops import CasualWrite, GatherScatter
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.ir.rounds import program_rounds
from repro.machine.cost_model import shared_warp_stages
from repro.machine.dmm import DMM
from repro.util.arrays import smallest_index_dtype
from repro.util.validation import check_permutation


def bank_distribution(p: np.ndarray, width: int) -> int:
    """The DMM analogue of ``D_w``: total bank-conflict stages of the
    casual write ``b[p[i]] <- a[i]``.

    Sum over warps of the maximum number of destinations landing in one
    bank; ranges from ``n/w`` (conflict-free) to ``n`` (every warp
    fully serialised into one bank).
    """
    p = check_permutation(p)
    if width < 1:
        raise SizeError(f"width must be >= 1, got {width}")
    if p.shape[0] == 0:
        return 0
    if p.shape[0] % width != 0:
        raise SizeError(
            f"n = {p.shape[0]} must be a multiple of the width {width}"
        )
    return int(shared_warp_stages(p, width).sum())


def worst_case_bank_permutation(n: int, width: int) -> np.ndarray:
    """A permutation with maximal bank distribution ``B_w = n``.

    Sends warp ``k`` entirely into bank ``k mod w``:
    ``p[k*w + j] = j*w + (k mod w)`` rearranged within warps — every
    warp's ``w`` destinations share one bank.
    """
    if width < 1 or n % (width * width) != 0:
        raise SizeError(
            f"n = {n} must be a multiple of w² = {width * width}"
        )
    i = np.arange(n, dtype=np.int64)
    warp, lane = i // width, i % width
    # Destination bank = warp mod w; distinct cells via the lane and
    # the warp's "super-row".
    return (warp // width * width + lane) * width + warp % width


class _SingleDMMEngine(EngineBase):
    """Shared surface of the two single-DMM engines."""

    n: int
    width: int

    def time(self, machine: DMM | None = None) -> int:
        """Total DMM time of the kernel's shared rounds."""
        dmm = machine or DMM(self.width)
        return sum(
            dmm.round_time(r.addresses)
            for r in program_rounds(self.lower())
        )


@register_engine("dmm-conventional")
class DMMConventionalPermutation(_SingleDMMEngine):
    """Conventional permutation in one DMM: 3 rounds, one casual."""

    def __init__(self, p: np.ndarray, width: int = 32) -> None:
        p = check_permutation(p)
        if width < 1:
            raise SizeError(f"width must be >= 1, got {width}")
        if p.shape[0] % width != 0:
            raise SizeError(
                f"n = {p.shape[0]} must be a multiple of the width {width}"
            )
        self.p = p.astype(smallest_index_dtype(max(p.shape[0] - 1, 0)))
        self.width = width
        self.n = int(p.shape[0])

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32
    ) -> "DMMConventionalPermutation":
        """No planning beyond validation."""
        return cls(p, width=width)

    def lower(self) -> KernelProgram:
        return KernelProgram(
            engine="dmm-conventional",
            n=self.n,
            width=self.width,
            ops=(
                CasualWrite(
                    label="dmm-conventional", p=self.p, space="shared"
                ),
            ),
        )


@register_engine("dmm-scheduled")
class DMMScheduledPermutation(_SingleDMMEngine):
    """Conflict-free permutation in one DMM: 4 regular rounds.

    Planning builds the bank multigraph, colours it, and stores the
    thread schedule ``s`` (and ``t = p[s]``) exactly as ref [9]'s CUDA
    implementation does.
    """

    def __init__(self, s: np.ndarray, t: np.ndarray, width: int) -> None:
        self.s = s
        self.t = t
        self.width = width
        self.n = int(s.shape[0])

    @property
    def p(self) -> np.ndarray:
        """The permutation the schedule realises: ``p[s[i]] = t[i]``."""
        p = np.empty(self.n, dtype=np.int64)
        p[self.s.astype(np.int64)] = self.t.astype(np.int64)
        return p

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32
    ) -> "DMMScheduledPermutation":
        p = check_permutation(p)
        n = int(p.shape[0])
        if width < 1:
            raise SizeError(f"width must be >= 1, got {width}")
        if n % width != 0:
            raise SizeError(f"n = {n} must be a multiple of the width {width}")
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, width)
        i = np.arange(n, dtype=np.int64)
        graph = RegularBipartiteMultigraph.from_edges(
            i % width, p % width, width, width
        )
        colors = edge_coloring(graph)
        verify_edge_coloring(graph, colors, expect_colors=n // width)
        # Thread (warp r, lane b) handles the element of colour r whose
        # source bank is b: within each warp both the sources and (by
        # the matching property) the destinations hit distinct banks.
        s = np.empty(n, dtype=np.int64)
        s[colors * width + (i % width)] = i
        t = p[s]
        dtype = smallest_index_dtype(n - 1)
        return cls(s.astype(dtype), t.astype(dtype), width)

    def lower(self) -> KernelProgram:
        return KernelProgram(
            engine="dmm-scheduled",
            n=self.n,
            width=self.width,
            ops=(
                GatherScatter(label="dmm-scheduled", s=self.s, t=self.t),
            ),
        )

    @classmethod
    def from_program(
        cls, program: KernelProgram, p: np.ndarray
    ) -> "DMMScheduledPermutation":
        """Reconstruct bitwise from the carried schedule arrays."""
        del p
        if len(program.ops) != 1 or not isinstance(
            program.ops[0], GatherScatter
        ):
            raise ValidationError(
                "not a dmm-scheduled program: "
                f"{[op.kind for op in program.ops]}"
            )
        op = program.ops[0]
        return cls(op.s, op.t, width=program.width)
