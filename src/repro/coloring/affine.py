"""Closed-form König colourings for GF(2)-affine maps.

Let ``q(i) = A·i ⊕ c`` be a bijection of ``N``-bit indices (an
:class:`~repro.permutations.affine.AffineMap`) and join, for every
``i``, the left node ``i & left_mask`` to the right node ``q(i) &
right_mask``.  The planner's graphs have this form whenever the
permutation is affine: the global row multigraph (both masks the row
bits) and the stacked bank multigraphs (the row bits plus the low
``log2 w`` bits).

The edges at one left node are a coset of ``U = {x : x & left_mask =
0}``; since ``q(i) ⊕ q(i') = A·(i ⊕ i')``, those at one right node are a
coset of ``W = {x : A·x & right_mask = 0}``.  A linear ``C`` whose
kernel ``K`` meets neither ``U`` nor ``W`` is injective on every such
coset, so ``colour(i) = C·i`` is a proper colouring.  When ``dim U =
dim W`` (the graph is regular) such a ``K`` always exists: with ``D =
U ∩ W``, ``U = U' ⊕ D`` and ``W = W' ⊕ D``, pair the bases of ``U'``
and ``W'`` into ``u'ⱼ ⊕ w'ⱼ`` and add a complement ``E`` of ``U + W``
(``docs/theory.md`` §10).  Then ``K ⊕ U`` is the whole space, and
``C·x`` is the coordinate vector, on the unit basis of ``U``, of the
``U`` part of ``x``: exactly ``2**dim U`` colours, the degree.

Vectors are Python ``int`` bit masks and the linear algebra is
``O(N³)`` bit operations on ``N <= 63`` bits.  The planner keeps ``C``
as a map and derives every plan array from it; ``C.index_map()``
builds the colours by XOR doubling in ``O(n)``.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import ColoringError
from repro.permutations.affine import AffineMap, Echelon

__all__ = ["affine_colour_map"]


def _kernel(images: list[int]) -> list[int]:
    """A basis of ``{x : XOR of images[k] over the bits k of x = 0}``."""
    echelon = Echelon()
    kernel = []
    for k, image in enumerate(images):
        rest, combo = echelon.reduce(image, 1 << k)
        if rest:
            echelon.insert(rest, combo)
        else:
            kernel.append(combo)
    return kernel


def _combine(basis: list[int], combo: int) -> int:
    """XOR of ``basis[j]`` over the bits ``j`` of ``combo``."""
    out = 0
    for j, vector in enumerate(basis):
        if combo >> j & 1:
            out ^= vector
    return out


def _extend(base: list[int], vectors: list[int]) -> list[int]:
    """The members of ``vectors`` that extend the span of ``base`` to
    that of both, each independent of ``base`` and those before it."""
    echelon = Echelon()
    for vector in base:
        echelon.insert(vector)
    return [vector for vector in vectors if echelon.insert(vector)]


def _colour_columns(
    q: AffineMap, left_mask: int, right_mask: int
) -> tuple[int, ...]:
    """The columns of ``C`` (``C·eₖ`` as a bit mask) for the graph
    described in the module docstring."""
    bits = len(q.columns)
    free = [k for k in range(bits) if not left_mask >> k & 1]
    unit = [1 << k for k in free]
    other = _kernel([column & right_mask for column in q.columns])
    if len(unit) != len(other):
        raise ColoringError(
            f"the graph is not regular: left cosets have 2**{len(unit)} "
            f"edges, right cosets 2**{len(other)}"
        )
    # D = U ∩ W: the x in U with A·x & right_mask = 0.
    images = [q.columns[k] & right_mask for k in free]
    common = [_combine(unit, combo) for combo in _kernel(images)]
    kernel = [
        u ^ w for u, w in zip(_extend(common, unit), _extend(common, other))
    ]
    # E: unit vectors that extend U + W to the whole space.
    kernel += _extend([*unit, *other], [1 << k for k in range(bits)])
    # K ⊕ U is the whole space: express each unit vector in the basis
    # K then U, and keep its coordinates on U.
    basis = Echelon()
    for j, vector in enumerate((*kernel, *unit)):
        basis.insert(vector, 1 << j)
    return tuple(
        basis.reduce(1 << k)[1] >> len(kernel) for k in range(bits)
    )


def affine_colour_map(
    q: AffineMap, left_mask: int, right_mask: int
) -> AffineMap:
    """The colouring ``colour(i) = C·i`` of the multigraph with one edge
    ``i & left_mask -> q(i) & right_mask`` per index ``i``, as a linear
    map.

    ``C`` has ``2**k`` colours for the ``k`` index bits outside
    ``left_mask`` (the degree); no two edges at a node share one.
    Raises :class:`~repro.errors.ColoringError` when the graph is not
    regular (``q`` is then no bijection).
    """
    degree = 1 << (len(q.columns) - (left_mask & (q.n - 1)).bit_count())
    with telemetry.span("coloring.affine", edges=q.n, degree=degree):
        return AffineMap(_colour_columns(q, left_mask, right_mask), 0)

