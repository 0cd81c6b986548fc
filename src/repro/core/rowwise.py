"""Conflict-free row-wise permutation (paper Section VI).

Given per-row permutations ``gamma`` (the element in column ``i`` of
row ``j`` must move to column ``gamma[j, i]``), a naive in-shared-memory
permutation would suffer bank conflicts.  The paper removes them with a
König edge colouring:

1. For each row, build the **bank multigraph**: one edge
   ``(i mod w) -> (gamma[i] mod w)`` per element.  It is regular of
   degree ``m / w``, hence ``m/w``-edge-colourable (Theorem 6).
2. Let ``c(i)`` be the colour of element ``i`` and define
   ``alpha(i) = c(i) * w + (i mod w)``.  ``alpha`` is a permutation:
   within one colour the ``w`` edges leave distinct source banks.
3. The schedule arrays are ``s = alpha`` and
   ``t = gamma ∘ alpha⁻¹`` — stored, like the paper's implementation,
   as 16-bit integers in the global memory ("2-dimensional arrays of
   short int, since at most 16 bits are necessary").

The four-step kernel then performs (per row ``j``, thread ``i``):

* Step 1: ``x[s[j][i]] <- a[j][i]``    — write bank ``s[j][i] mod w =
  i mod w``: conflict-free;
* Step 2: ``t' <- t[j][i]``            — coalesced read;
* Step 3: ``y[t'] <- x[i]``            — read bank ``i mod w``
  conflict-free; write bank = the destination bank of thread ``i``'s
  colour-class matching edge: conflict-free;
* Step 4: ``b[j][i] <- y[i]``          — coalesced write.

Total: 3 coalesced global reads (``a``, ``s``, ``t``), 1 coalesced
global write (``b``), 2 conflict-free shared reads and 2 conflict-free
shared writes — exactly Table I's row.

When ``r·m + c ↦ r·m + gamma[r, c]`` is affine over GF(2) (every step
of an affine permutation's plan) and ``w`` is a power of two, the bank
colouring is the closed form of :mod:`repro.coloring.affine`, not an
Euler split, and ``s``/``t`` are affine maps built without a scatter
(``docs/theory.md`` §10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.coloring.affine import affine_colour_map
from repro.coloring.euler import fused_split, split_rows
from repro.errors import SchedulingError, SizeError
from repro.ir.ops import RowwiseScatter
from repro.ir.rounds import rowwise_shared_bytes
from repro.machine.hmm import HMM
from repro.machine.params import MachineParams
from repro.machine.trace import ProgramTrace
from repro.permutations.affine import AffineMap, detect_affine
from repro.util.arrays import flat_cells, smallest_index_dtype
from repro.util.validation import is_power_of_two


def _index_rows(gamma: np.ndarray) -> np.ndarray:
    """``gamma`` as a 2-D ``int64`` array; its rows are not checked."""
    gamma = np.asarray(gamma)
    if gamma.ndim != 2:
        raise SizeError(f"gamma must be 2-D, got shape {gamma.shape}")
    if not np.issubdtype(gamma.dtype, np.integer):
        raise SizeError(f"gamma must be integral, got dtype {gamma.dtype}")
    return gamma.astype(np.int64, copy=False)


def _check_row_permutations(gamma: np.ndarray) -> None:
    """Validate that every row of the ``int64`` ``gamma`` is a
    permutation of its columns."""
    m = gamma.shape[1]
    if m == 0:
        return
    # In range, and no (row, column) pair twice: m distinct columns per row.
    if (
        int(gamma.min()) < 0
        or int(gamma.max()) >= m
        or int(np.bincount(flat_cells(gamma).reshape(-1)).max()) > 1
    ):
        raise SchedulingError("every row of gamma must be a permutation of 0..m-1")


def _affine_rows(gamma: np.ndarray, width: int) -> AffineMap | None:
    """The flat map ``r·m + c ↦ gamma[r, c]`` as an
    :class:`~repro.permutations.affine.AffineMap`, or ``None`` when it
    is not affine or ``width`` is not a power of two.

    ``gamma`` is read block by block (a non-affine one after a few
    entries).
    """
    if not is_power_of_two(width):
        return None
    return detect_affine(gamma.reshape(-1))


@dataclass
class RowwiseSchedule:
    """A planned conflict-free row-wise permutation.

    Attributes
    ----------
    gamma:
        ``(rows, m)`` destination columns (``gamma[j, i]`` = where the
        element at ``(j, i)`` goes).
    s, t:
        The schedule arrays of Section VI, in the smallest sufficient
        unsigned dtype (``uint16`` for every size the paper uses).
    width:
        Machine width ``w``; ``m`` must be a multiple of it.
    """

    gamma: np.ndarray
    s: np.ndarray
    t: np.ndarray
    width: int

    @property
    def rows(self) -> int:
        return int(self.gamma.shape[0])

    @property
    def m(self) -> int:
        return int(self.gamma.shape[1])

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    @classmethod
    def plan(
        cls,
        gamma: np.ndarray,
        width: int,
        values: AffineMap | None = None,
    ) -> "RowwiseSchedule":
        """Build the ``s``/``t`` schedule from the row permutations.

        All rows are coloured in a single call: the per-row bank
        multigraphs are disjoint, so stacking them (row ``j``'s banks at
        node offset ``j*w``) yields one regular multigraph that one
        colouring call covers.

        ``values`` is ``gamma``'s flat map ``r·m + c ↦ gamma[r, c]``
        when the caller built ``gamma`` from it (an affine plan,
        ``docs/theory.md`` §10.1); ``gamma`` is then neither re-checked
        nor re-read.  Otherwise its rows are checked to be permutations
        and an affine ``gamma`` is detected here.  Any other ``gamma``
        whose degree ``m / width`` is a power of two is checked,
        coloured and scheduled by one compiled call
        (:meth:`_plan_split`) when the split kernel loaded.

        The colouring is not re-verified here.  An improper colour at a
        source bank makes ``s`` repeat a slot, so ``t[s] != gamma``
        and the program's denotation refuses it; one at a destination
        bank puts two lanes of a warp in one bank, and the static
        certifier refuses it (``docs/theory.md`` §8).
        """
        if values is None:
            gamma = _index_rows(gamma)
        rows, m = gamma.shape
        if width < 1:
            raise SizeError(f"width must be >= 1, got {width}")
        if m % width != 0:
            raise SizeError(
                f"row length m = {m} must be a multiple of the width {width}"
            )
        if values is None:
            values = _affine_rows(gamma, width)
            if values is None and fused_split(rows * m, m // width):
                return cls._plan_split(gamma, width)
            _check_row_permutations(gamma)
        if values is not None:
            return cls._plan_affine(gamma, values, width)
        cols = np.arange(m, dtype=np.int64)
        row_offset = (np.arange(rows, dtype=np.int64) * width)[:, None]
        left = (row_offset + (cols % width)[None, :]).reshape(-1)
        right = (row_offset + gamma % width).reshape(-1)
        graph = RegularBipartiteMultigraph.deferred(
            left, right, rows * width, m // width
        )
        with telemetry.span("rowwise.plan.coloring", rows=rows, m=m,
                            kernel="euler"):
            colors = edge_coloring(graph)
        return cls._from_colours(gamma, colors, width)

    @classmethod
    def _from_colours(
        cls, gamma: np.ndarray, colors: np.ndarray, width: int
    ) -> "RowwiseSchedule":
        """The schedule a bank colouring gives: ``s = alpha`` and ``t``
        by one scatter."""
        rows, m = gamma.shape
        cols = np.arange(m, dtype=np.int64)
        c = colors.reshape(rows, m)
        alpha = c * width + (cols % width)[None, :]
        if alpha.size and (int(alpha.min()) < 0 or int(alpha.max()) >= m):
            raise SchedulingError(
                f"bank colouring uses a colour outside 0..{m // width - 1}"
            )
        # t = gamma ∘ alpha⁻¹ row by row, i.e. t[r, alpha[r, c]] =
        # gamma[r, c]: one flat scatter.  A slot an improper colouring
        # leaves unhit keeps gamma[r, 0] (alpha⁻¹ read as 0 there), so
        # the broken schedule still reaches the proofs.
        dtype = smallest_index_dtype(max(m - 1, 0))
        t = np.empty((rows, m), dtype=dtype)
        t[:] = gamma[:, :1]
        t.reshape(-1)[flat_cells(alpha).reshape(-1)] = gamma.reshape(-1)
        return cls(
            gamma=gamma,
            s=alpha.astype(dtype),
            t=t,
            width=width,
        )

    @classmethod
    def _plan_split(
        cls, gamma: np.ndarray, width: int
    ) -> "RowwiseSchedule":
        """The schedule :func:`~repro.coloring.euler.edge_coloring` and
        :meth:`_from_colours` give, by one compiled call that checks
        each row, splits it as its own bank multigraph and writes
        ``s`` and ``t``."""
        rows, m = gamma.shape
        with telemetry.span("rowwise.plan.coloring", rows=rows, m=m,
                            kernel="euler"):
            s, t = split_rows(gamma, width)
        return cls(gamma=gamma, s=s, t=t, width=width)

    @classmethod
    def _plan_affine(
        cls, gamma: np.ndarray, values: AffineMap, width: int
    ) -> "RowwiseSchedule":
        """The schedule of an affine ``gamma`` in closed form
        (``docs/theory.md`` §10.1): ``s`` and ``t`` are affine maps of
        the flat index, each built by one doubling."""
        rows, m = gamma.shape
        lanes = width.bit_length() - 1
        row_bits = (rows * m - 1) ^ (m - 1)
        index = AffineMap.identity(len(values.columns))
        keep_rows = index.bits(row_bits)
        # The bank node of element i is its row bits plus its low
        # log2(w) bits, and that of its destination the same bits of
        # r·m + gamma[r, c].
        banks = row_bits | (width - 1)
        with telemetry.span("rowwise.plan.coloring", rows=rows, m=m,
                            kernel="affine"):
            colour = affine_colour_map(keep_rows ^ values, banks, banks)
        # s = colour·w + (c mod w), and t = gamma ∘ (r·m + s)⁻¹: the
        # slot map is a bijection exactly when the colouring is proper
        # at every source bank.
        s = colour.bits(m // width - 1, -lanes) ^ index.bits(width - 1)
        slots = (keep_rows ^ s).inverse()
        if slots is None:
            raise SchedulingError(
                "the closed-form bank colouring is not proper"
            )
        dtype = smallest_index_dtype(max(m - 1, 0))
        return cls(
            gamma=gamma,
            s=s.index_map(dtype).reshape(rows, m),
            t=values.compose(slots).index_map(dtype).reshape(rows, m),
            width=width,
        )

    def shared_bytes(self, dtype) -> int:
        """Shared memory per block: the two row buffers ``x`` and ``y``.

        This is the quantity that hits the GTX-680's 48 KB wall for
        ``sqrt(n) = 4096`` doubles (2 * 4096 * 8 B = 64 KB).
        """
        return rowwise_shared_bytes(self.m, dtype)

    @property
    def op(self) -> RowwiseScatter:
        """The kernel as an IR op (its rounds come from
        :mod:`repro.ir.rounds`)."""
        return RowwiseScatter(
            label="rowwise", gamma=self.gamma, width=self.width,
            s=self.s, t=self.t,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Apply the row-wise permutation to ``mat`` (shape ``(rows, m)``).

        Moves the data through the kernel's eight access rounds, so the
        result is produced by the very ``s``/``t`` schedule that the
        simulator charges.
        """
        from repro.exec.interpreter import run_op

        mat = np.asarray(mat)
        if mat.shape != (self.rows, self.m):
            raise SizeError(
                f"matrix must have shape ({self.rows}, {self.m}), got {mat.shape}"
            )
        return run_op(self.op, mat.reshape(-1)).reshape(self.rows, self.m)

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        """Charge the row-wise kernel on an HMM and return the trace."""
        from repro.exec.simulator import price_ops

        return price_ops("rowwise", (self.op,), machine, dtype)
