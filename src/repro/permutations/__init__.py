"""Permutation generators and algebra.

This subpackage provides the workload side of the reproduction:

* :mod:`repro.permutations.named` — the five permutations the paper
  evaluates (identical, shuffle, random, bit-reversal, transpose),
* :mod:`repro.permutations.families` — additional structured families
  used by extra benchmarks and property tests,
* :mod:`repro.permutations.ops` — permutation algebra (inverse,
  composition, cycle structure, parity),
* :mod:`repro.permutations.matrix_view` — index <-> (row, column)
  helpers for the matrix view used by the scheduled algorithm,
* :mod:`repro.permutations.affine` — detection of permutations that
  are affine maps over GF(2).

All permutations follow the paper's *destination-designated* convention:
``p[i]`` is the destination of element ``i``, i.e. ``b[p[i]] = a[i]``.
"""

from repro.permutations.named import (
    PAPER_PERMUTATIONS,
    bit_reversal,
    identical,
    named_permutation,
    random_permutation,
    shuffle,
    transpose_permutation,
)
from repro.permutations.families import (
    block_swap,
    butterfly,
    gray_code,
    reversal,
    rotation,
    stride,
    tiled_transpose,
    unshuffle,
)
from repro.permutations.ops import (
    apply_permutation,
    compose,
    cycle_lengths,
    cycles,
    invert,
    order,
    parity,
    random_derangement,
)
from repro.permutations.affine import AffineMap, detect_affine
from repro.permutations.matrix_view import (
    from_row_col,
    to_row_col,
)
from repro.permutations.networks import (
    all_to_all_blocks,
    hypercube_step,
    shear,
    snake,
    torus_shift,
)

__all__ = [
    "AffineMap",
    "PAPER_PERMUTATIONS",
    "all_to_all_blocks",
    "apply_permutation",
    "bit_reversal",
    "block_swap",
    "butterfly",
    "compose",
    "cycle_lengths",
    "cycles",
    "detect_affine",
    "from_row_col",
    "gray_code",
    "hypercube_step",
    "identical",
    "invert",
    "named_permutation",
    "order",
    "parity",
    "random_derangement",
    "random_permutation",
    "reversal",
    "rotation",
    "shear",
    "shuffle",
    "snake",
    "stride",
    "tiled_transpose",
    "to_row_col",
    "torus_shift",
    "transpose_permutation",
    "unshuffle",
]
