"""Property-based proof that sealing preserves semantics everywhere.

Three independent oracles must agree on every input: the
:class:`~repro.exec.sealed.SealedExecutor` (one flat gather), the
:class:`~repro.exec.reference.ReferenceExecutor` replaying the full
program, and the symbolic :func:`denote_program` index map.  Coverage
axes: random fuzz programs (the ``tests.ir.strategies`` generator),
every registered engine x the three paper families, payload dtypes,
batch mode, and the out-of-core stripe sharding (its two gathers
compose to the sealed gather)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.reference import ReferenceExecutor
from repro.exec.sealed import SealedExecutor
from repro.ir.registry import engine_names, get_engine
from repro.passes import default_pipeline, seal_program
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.shard import shard_program
from repro.staticcheck.semantics import denote_program
from tests.ir.strategies import kernel_programs

_WIDTH = 32
_FAMILIES = {
    "bit-reversal": bit_reversal,
    "transpose": transpose_permutation,
    "random": lambda n: random_permutation(n, seed=5),
}
_DTYPES = (np.float32, np.float64, np.int32, np.int64, np.uint8)


@settings(max_examples=40, deadline=None)
@given(program=kernel_programs(), data=st.data())
def test_sealed_equals_denotation_and_replay(program, data):
    sealed = seal_program(program)
    den = denote_program(program)
    assert den.ok
    assert np.array_equal(sealed.scatter, den.index_map)

    dtype = data.draw(st.sampled_from(_DTYPES), label="dtype")
    rng = np.random.default_rng(0)
    a = (rng.random(program.n) * 100).astype(dtype)
    sealed_out = SealedExecutor().run(sealed, a)
    replay_out = ReferenceExecutor().run(program, a)
    np.testing.assert_array_equal(sealed_out, replay_out)
    expected = np.empty_like(a)
    expected[den.index_map] = a
    np.testing.assert_array_equal(sealed_out, expected)

    batch = np.stack([a, a[::-1].copy()])
    stacked = SealedExecutor().run_batch(sealed, batch)
    np.testing.assert_array_equal(stacked[0], sealed_out)
    np.testing.assert_array_equal(
        stacked[1], SealedExecutor().run(sealed, batch[1])
    )


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_engine_family_seals_exactly(engine, family):
    n = 1024
    p = _FAMILIES[family](n)
    plan = get_engine(engine).plan(p, width=_WIDTH)
    program = default_pipeline().run(plan.lower())
    sealed = seal_program(program, requested=p)
    sealed.verify()
    assert np.array_equal(sealed.scatter, p)

    a = np.random.default_rng(1).random(n).astype(np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    np.testing.assert_array_equal(
        SealedExecutor().run(sealed, a), expected
    )
    np.testing.assert_array_equal(
        ReferenceExecutor().run(program, a), expected
    )


@pytest.mark.parametrize("d", (2, 4))
def test_sharded_gathers_match_the_sealed_gather(d):
    """The stripe sharding's two gathers compose to exactly the base
    program's sealed gather — the sharded stream and the flat gather
    are the same permutation."""
    n = 4096
    p = random_permutation(n, seed=9)
    plan = get_engine("scheduled").plan(p, width=_WIDTH)
    program = default_pipeline().run(plan.lower())
    sharded = shard_program(program, d)
    sealed_base = seal_program(program)
    assert np.array_equal(
        sharded.gather_pre[sharded.gather_post], sealed_base.gather
    )

    a = np.random.default_rng(2).random(n)
    np.testing.assert_array_equal(
        a[sharded.gather_pre][sharded.gather_post],
        ReferenceExecutor().run(program, a),
    )
