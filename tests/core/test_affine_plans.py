"""Closed-form plans and denotations of GF(2)-affine permutations.

An affine ``p`` is planned from bit matrices: ``gamma1``, ``delta``,
``gamma3`` and every ``s``/``t`` are affine maps of their flat index,
each built by one doubling (``docs/theory.md`` §10.1).  These tests pin
that the arrays are exactly the ones the scatters build from the same
colourings, dtype for dtype, and that the closed-form denotation of
the lowered program is exactly the walk's (§8, §10.2), for every affine
family at every feasible size and width.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.coloring.affine import affine_colour_map
from repro.core import scheduler
from repro.core.rowwise import RowwiseSchedule, _affine_rows
from repro.core.scheduled import ScheduledPermutation
from repro.ir.ops import RowwiseScatter
from repro.permutations.affine import AffineMap, detect_affine
from repro.permutations.families import (
    block_swap,
    butterfly,
    gray_code,
    reversal,
    tiled_transpose,
    unshuffle,
)
from repro.permutations.named import (
    bit_reversal,
    identical,
    random_permutation,
    shuffle,
    transpose_permutation,
)
from repro.permutations.networks import (
    all_to_all_blocks,
    hypercube_step,
    snake,
)
from repro.staticcheck import semantics
from repro.telemetry import Tracer

FAMILIES = {
    "identical": identical,
    "shuffle": shuffle,
    "bit-reversal": bit_reversal,
    "transpose": transpose_permutation,
    "unshuffle": unshuffle,
    "gray-code": gray_code,
    "reversal": reversal,
    "butterfly": lambda n: butterfly(n, 1),
    "block-swap": lambda n: block_swap(n, 4),
    "tiled-transpose": lambda n: tiled_transpose(n, 2),
    "hypercube-step": lambda n: hypercube_step(n, 1),
    "snake": snake,
    "all-to-all-blocks": lambda n: all_to_all_blocks(n, 4),
}

#: (n, w) for n = 2^4 .. 2^12 a square and w in {2, ..., 32} dividing
#: its side.
SHAPES = [
    (1 << bits, width)
    for bits in range(4, 13, 2)
    for width in (2, 4, 8, 16, 32)
    if (1 << bits // 2) % width == 0
]

CASES = [
    pytest.param(family, n, width, id=f"{family}-{n}-w{width}")
    for family in FAMILIES
    for n, width in SHAPES
]


def _scatter_built(p, width):
    """The plan the scatters build from the closed-form colourings:
    ``delta``/``gamma3`` by scattering ``p``'s rows and columns, ``t``
    by scattering ``gamma`` through ``alpha``."""
    n = p.shape[0]
    m = 1 << (n.bit_length() - 1) // 2
    rows = (n - 1) ^ (m - 1)
    colors = affine_colour_map(detect_affine(p), rows, rows).index_map()
    dst_row, dst_col = np.divmod(p, m)
    d = scheduler._from_colours(p, colors, m, dst_row, dst_col)
    steps = []
    for gamma in (d.gamma1, d.delta, d.gamma3):
        index = AffineMap.identity(n.bit_length() - 1)
        q = index.bits(rows) ^ _affine_rows(gamma, width)
        banks = rows | (width - 1)
        bank_colours = affine_colour_map(q, banks, banks).index_map()
        steps.append(
            RowwiseSchedule._from_colours(gamma, bank_colours, width)
        )
    return d, steps


def _arrays(d, steps):
    out = {"gamma1": d.gamma1, "delta": d.delta, "gamma3": d.gamma3,
           "colors": d.colors}
    for k, step in enumerate(steps, 1):
        out[f"s{k}"], out[f"t{k}"] = step.s, step.t
    return out


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_is_affine(family):
    assert detect_affine(FAMILIES[family](1 << 12)) is not None


@pytest.mark.parametrize("family, n, width", CASES)
def test_closed_form_plan_is_the_scatter_built_plan(family, n, width):
    p = FAMILIES[family](n)
    plan = ScheduledPermutation.plan(p, width=width)
    assert plan.decomposition.maps is not None
    closed = _arrays(plan.decomposition,
                     (plan.step1, plan.step2.rowwise, plan.step3))
    built = _arrays(*_scatter_built(p, width))
    for name, array in built.items():
        assert closed[name].dtype == array.dtype, name
        assert closed[name].shape == array.shape, name
        assert np.array_equal(closed[name], array), name


@pytest.mark.parametrize("family, n, width", CASES)
def test_closed_form_denotation_is_the_walk(family, n, width):
    program = ScheduledPermutation.plan(FAMILIES[family](n),
                                        width=width).lower()
    closed = semantics._denote_affine(program)
    walked = semantics._denote_walk(program)
    assert closed is not None and walked.ok
    assert closed.ops == walked.ops
    assert closed.index_map.dtype == walked.index_map.dtype
    assert np.array_equal(closed.index_map, walked.index_map)
    assert closed.failure is None
    assert closed.describe() == walked.describe()


def _route(program):
    tracer = Tracer()
    with telemetry.use_tracer(tracer):
        den = semantics.denote_program(program)
    (span,) = [s for s in tracer.spans if s.name == "staticcheck.denote"]
    return den, span.attributes["route"]


def test_affine_program_never_walks(monkeypatch):
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(semantics, "_denote_op", walk)
    p = bit_reversal(1 << 10)
    den, route = _route(ScheduledPermutation.plan(p, width=8).lower())
    assert route == "affine"
    assert den.ok and np.array_equal(den.index_map, p)


def test_random_program_walks():
    p = random_permutation(1 << 10, seed=1)
    den, route = _route(ScheduledPermutation.plan(p, width=8).lower())
    assert route == "walk"
    assert den.ok and np.array_equal(den.index_map, p)


def _with_op(program, index, **arrays):
    ops = list(program.ops)
    op = ops[index]
    ops[index] = RowwiseScatter(
        label=op.label, width=op.width,
        gamma=arrays.get("gamma", op.gamma),
        s=arrays.get("s", op.s), t=arrays.get("t", op.t),
    )
    return type(program)(engine=program.engine, n=program.n,
                         width=program.width, ops=tuple(ops))


def _wrong_programs():
    """Programs of a bit-reversal plan (m = 32) the closed form must
    not accept, each named."""
    program = ScheduledPermutation.plan(bit_reversal(1 << 10),
                                        width=8).lower()
    step3 = program.ops[4]
    swapped = step3.gamma.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    yield "ts-not-gamma", _with_op(program, 4, t=step3.t ^ 1)
    yield "gamma-not-affine", _with_op(program, 4, gamma=swapped)
    yield "gamma-out-of-range", _with_op(program, 4, gamma=step3.gamma + 32)
    yield "s-out-of-range", _with_op(
        program, 4, s=step3.s.astype(np.int64) + 32)
    # t∘s = gamma, but gamma drops bit 0: no row is a permutation.
    yield "gamma-singular", _with_op(
        program, 4, gamma=step3.gamma & 30, t=step3.t & 30)


@pytest.mark.parametrize("why, program", list(_wrong_programs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_refuted_algebra_falls_back_to_the_walk(why, program):
    assert semantics._denote_affine(program) is None
    den, route = _route(program)
    walked = semantics._denote_walk(program)
    assert route == "walk" and not den.ok
    assert den.failure == walked.failure
    assert np.array_equal(den.index_map, walked.index_map)


def test_affine_program_that_is_not_p_is_refused_as_the_walk_does():
    """Every array affine and ``t∘s = gamma``, but ``gamma3`` is off by
    one bit: the closed form denotes it, and the requested-map proof
    names the same element the walk's map does."""
    p = bit_reversal(1 << 10)
    program = ScheduledPermutation.plan(p, width=8).lower()
    step3 = program.ops[4]
    wrong = _with_op(program, 4, gamma=step3.gamma ^ 1, t=step3.t ^ 1)
    assert semantics._denote_affine(wrong) is not None
    closed = semantics.validate_translation(wrong, wrong, requested=p)
    assert not closed.ok and closed.counterexample.stage == "requested"
    walked = semantics._denote_walk(wrong)
    assert np.array_equal(
        semantics._denote_affine(wrong).index_map, walked.index_map
    )
    assert closed.counterexample.index == int(
        np.flatnonzero(walked.index_map != p)[0]
    )
