"""Global three-step decomposition of a permutation (paper Section VII).

Any permutation ``p`` of ``n = m²`` elements, viewed on the ``m x m``
matrix, factors into

    row-wise (gamma1)  ∘  column-wise (delta)  ∘  row-wise (gamma3)

The factorisation comes from König's theorem applied to the **row
multigraph**: nodes are the ``m`` source rows and the ``m`` destination
rows; each element contributes the edge (its source row -> its
destination row).  The multigraph is ``m``-regular, hence
``m``-edge-colourable, and the colour of an element is the
*intermediate column* it is routed through:

1. edges at one source-row node carry ``m`` distinct colours, so
   "move the element with colour k to column k" is a valid row
   permutation (``gamma1``),
2. edges of one colour form a perfect matching, so the ``m`` elements
   sitting in column ``k`` after step 1 have ``m`` distinct destination
   rows — "move to your destination row" is a valid column permutation
   (``delta``),
3. the elements arriving in destination row ``r`` have distinct
   destination columns, so the final row permutation (``gamma3``) is
   valid.

Figure 6 of the paper walks a 4 x 4 example; the test suite replays it
against this implementation.

A GF(2)-affine ``p`` (bit reversal, transpose, ...) is coloured in
closed form, ``colour(i) = C·i`` (:mod:`repro.coloring.affine`,
``docs/theory.md`` §10), and its three families are affine maps built
without a scatter (§10.1); every other ``p`` takes the Euler split.
For a power-of-two ``m`` one compiled call splits and scatters
(:func:`~repro.coloring.euler.split_global`); otherwise the row
multigraph is coloured by :func:`~repro.coloring.edge_coloring` and
the families are scattered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.coloring.affine import affine_colour_map
from repro.coloring.euler import fused_split, split_global
from repro.errors import SchedulingError
from repro.permutations.affine import AffineMap, detect_affine
from repro.util.validation import check_permutation, isqrt_exact


@dataclass(frozen=True)
class ThreeStepDecomposition:
    """The three per-row/per-column permutation families.

    Attributes
    ----------
    gamma1:
        ``(m, m)``; ``gamma1[r, c]`` = intermediate column (colour) of
        the element starting at ``(r, c)``.
    delta:
        ``(m, m)``; ``delta[k, r]`` = destination row of the element
        sitting at ``(r, k)`` after step 1 (indexed by column ``k``).
    gamma3:
        ``(m, m)``; ``gamma3[r, k]`` = final column of the element
        sitting at ``(r, k)`` after step 2.
    colors:
        Length-``n`` colour (= intermediate column) per source element.
    maps:
        For an affine ``p``, the flat maps ``r·m + c -> gamma[r, c]``
        of ``gamma1``, ``delta`` and ``gamma3`` that built the arrays;
        :class:`~repro.core.rowwise.RowwiseSchedule` plans each step
        from them.  ``None`` otherwise.
    """

    gamma1: np.ndarray
    delta: np.ndarray
    gamma3: np.ndarray
    colors: np.ndarray
    maps: tuple[AffineMap, AffineMap, AffineMap] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def m(self) -> int:
        return int(self.gamma1.shape[0])

    def route(self, p: np.ndarray) -> None:
        """Check the decomposition routes every element of ``p`` home.

        Symbolically replays the three steps on indices and raises
        :class:`~repro.errors.SchedulingError` on any mismatch — a test
        oracle, also run by :meth:`ScheduledPermutation.inverse`; a
        compile and :func:`~repro.core.io.load_plan` prove the same fact
        by denoting the lowered program (``docs/theory.md`` §8).
        """
        m = self.m
        n = m * m
        i = np.arange(n, dtype=np.int64)
        src_row, src_col = i // m, i % m
        # Step 1: within the source row, move to the colour column.
        col1 = self.gamma1[src_row, src_col]
        # Step 2: within that column, move to the destination row.
        row2 = self.delta[col1, src_row]
        # Step 3: within the destination row, move to the final column.
        col3 = self.gamma3[row2, col1]
        final = row2 * m + col3
        if not np.array_equal(final, np.asarray(p, dtype=np.int64)):
            raise SchedulingError(
                "three-step decomposition does not realise the permutation"
            )


def decompose(p: np.ndarray) -> ThreeStepDecomposition:
    """Factor permutation ``p`` (length a perfect square) into the three
    steps of the scheduled algorithm."""
    return decompose_checked(check_permutation(p))


def decompose_checked(p: np.ndarray) -> ThreeStepDecomposition:
    """:func:`decompose` for a caller that holds the ``int64`` array
    :func:`~repro.util.validation.check_permutation` returned, so ``p``
    is not checked again."""
    n = p.shape[0]
    m = isqrt_exact(n, "len(p)")
    if m == 0:
        empty = np.empty((0, 0), dtype=np.int64)
        return ThreeStepDecomposition(
            empty, empty, empty, np.empty(0, dtype=np.int64)
        )
    with telemetry.span("plan.decompose", n=int(n), m=m):
        return _decompose_inner(p, n, m)


def _decompose_inner(p: np.ndarray, n: int, m: int) -> ThreeStepDecomposition:
    affine = detect_affine(p)
    if affine is not None:
        return _decompose_affine(affine, m)
    if fused_split(n, m):
        return _decompose_split(p, m)
    dst_row, dst_col = np.divmod(p, m)
    src_row = np.repeat(np.arange(m, dtype=np.int64), m)
    graph = RegularBipartiteMultigraph.deferred(src_row, dst_row, m, m)
    with telemetry.span("plan.decompose.coloring", kernel="euler"):
        colors = edge_coloring(graph)
    return _from_colours(p, colors, m, dst_row, dst_col)


def _decompose_split(p: np.ndarray, m: int) -> ThreeStepDecomposition:
    """The decomposition :func:`edge_coloring` and :func:`_from_colours`
    give, by one compiled call that colours the row multigraph and
    scatters ``delta`` and ``gamma3``."""
    with telemetry.span("plan.decompose.coloring", kernel="euler"):
        colors, delta, gamma3 = split_global(p, m)
    return ThreeStepDecomposition(
        gamma1=colors.reshape(m, m), delta=delta, gamma3=gamma3,
        colors=colors,
    )


def _from_colours(
    p: np.ndarray,
    colors: np.ndarray,
    m: int,
    dst_row: np.ndarray,
    dst_col: np.ndarray,
) -> ThreeStepDecomposition:
    """The decomposition a global colouring gives, built by two
    scatters; ``dst_row, dst_col = divmod(p, m)``."""
    # gamma1[r, c] = colour of element (r, c): elements are enumerated
    # row-major, so this is just a reshape.
    gamma1 = colors.reshape(m, m)

    # delta[k, r] = destination row of the element with colour k in
    # source row r.  Each (colour, source row) pair occurs exactly once
    # when the colouring is proper; the colouring is not re-verified
    # here: an improper one leaves a row of gamma1 or delta that is no
    # permutation, which RowwiseSchedule.plan refuses (docs/theory.md
    # §8).
    key = gamma1 * m
    key += np.arange(m, dtype=np.int64)[:, None]
    delta = np.empty((m, m), dtype=np.int64)
    delta.reshape(-1)[key.reshape(-1)] = dst_row

    # gamma3[r_d, k] = destination column of the element with colour k
    # arriving in destination row r_d.  Each (colour, dest row) pair
    # occurs exactly once (colour classes are perfect matchings).
    key = p - dst_col
    key += colors
    gamma3 = np.empty((m, m), dtype=np.int64)
    gamma3.reshape(-1)[key] = dst_col

    return ThreeStepDecomposition(
        gamma1=gamma1, delta=delta, gamma3=gamma3, colors=colors
    )


def _decompose_affine(p: AffineMap, m: int) -> ThreeStepDecomposition:
    """The decomposition of an affine ``p`` in closed form
    (``docs/theory.md`` §10.1): each of ``gamma1``, ``delta`` and
    ``gamma3`` is an affine map of its flat index ``r·m + c``, built by
    one doubling, with no scatter."""
    h = m.bit_length() - 1
    rows = (p.n - 1) ^ (m - 1)
    with telemetry.span("plan.decompose.coloring", kernel="affine"):
        colour = affine_colour_map(p, rows, rows)
    index = AffineMap.identity(2 * h)
    # i -> k(i)·m + row(i) and i -> row(p(i))·m + k(i), with k the
    # colour: bijections exactly when the colouring is proper at the
    # source and at the destination rows.
    by_colour = (colour.bits(m - 1, -h) ^ index.bits(rows, h)).inverse()
    by_destination = (p.bits(rows) ^ colour).inverse()
    if by_colour is None or by_destination is None:
        raise SchedulingError(
            "the closed-form global colouring is not proper"
        )
    # delta[k, r] = row(p(i)) and gamma3[row(p(i)), k] = col(p(i)) for
    # the element i of colour k in source row r.
    maps = (
        colour,
        p.compose(by_colour).bits(rows, h),
        p.compose(by_destination).bits(m - 1),
    )
    colors = colour.index_map()
    return ThreeStepDecomposition(
        gamma1=colors.reshape(m, m),
        delta=maps[1].index_map().reshape(m, m),
        gamma3=maps[2].index_map().reshape(m, m),
        colors=colors,
        maps=maps,
    )
