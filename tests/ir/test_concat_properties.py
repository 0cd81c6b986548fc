"""Property tests: composition and sharding preserve denotation.

Reuses the fuzz generator from :mod:`tests.ir.strategies` — every
generated program denotes a bijection by construction — and checks two
composition laws end to end through the machinery that guards them:

* ``concat_programs(f, g)`` then the default pass pipeline is
  translation-valid: the optimized composite denotes exactly what the
  raw concatenation denotes, for any pair of same-size fuzz programs
  (the pipeline may fuse or cancel across the seam; it must never
  change the function).
* ``shard_program`` shards any regular program into two gathers
  whose composition reproduces the original's denotation — the proof
  the shard layer runs is checked here against fuzz programs rather
  than the curated engine lowerings.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.program import concat_programs
from repro.passes import default_pipeline
from repro.staticcheck.semantics import denote_program, validate_translation
from tests.ir.strategies import PROGRAM_SIZES, build_program

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIZES = st.sampled_from(PROGRAM_SIZES)
NUM_OPS = st.integers(min_value=1, max_value=4)


@settings(max_examples=40, deadline=None)
@given(seed_a=SEEDS, seed_b=SEEDS, n=SIZES, ops_a=NUM_OPS,
       ops_b=NUM_OPS, padded=st.booleans())
def test_concat_then_pipeline_preserves_denotation(
    seed_a, seed_b, n, ops_a, ops_b, padded
):
    first = build_program(seed=seed_a, n=n, num_ops=ops_a,
                          padded=padded)
    second = build_program(seed=seed_b, n=n, num_ops=ops_b,
                           padded=False)
    raw = concat_programs(first, second)
    optimized = default_pipeline().run(raw)
    cert = validate_translation(raw, optimized)
    assert cert.ok, cert.summary()


@settings(max_examples=40, deadline=None)
@given(seed_a=SEEDS, seed_b=SEEDS, n=SIZES, ops_a=NUM_OPS,
       ops_b=NUM_OPS)
def test_concat_denotes_composition(seed_a, seed_b, n, ops_a, ops_b):
    """The concatenation's denotation is g ∘ f of the parts'."""
    first = build_program(seed=seed_a, n=n, num_ops=ops_a,
                          padded=False)
    second = build_program(seed=seed_b, n=n, num_ops=ops_b,
                           padded=False)
    composed = denote_program(concat_programs(first, second))
    f = denote_program(first).index_map
    g = denote_program(second).index_map
    assert np.array_equal(composed.index_map, g[f])


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.sampled_from((4, 16, 30, 64)),
       num_ops=NUM_OPS, d=st.sampled_from((1, 2)))
def test_shard_of_fuzz_program_preserves_denotation(seed, n, num_ops, d):
    from repro.shard import shard_program

    program = build_program(seed=seed, n=n, num_ops=num_ops,
                            padded=False)
    sharded = shard_program(program, d)
    index_map = denote_program(program).index_map
    # Streaming reads out[q] = a[gather_pre[gather_post[q]]]: every
    # output position must receive the element the program sends there.
    read = sharded.gather_pre[sharded.gather_post]
    assert np.array_equal(index_map[read], np.arange(n))
    a = np.arange(n, dtype=np.float64) + 0.5
    expected = np.empty_like(a)
    expected[index_map] = a
    assert np.array_equal(a[sharded.gather_pre][sharded.gather_post],
                          expected)
