"""Property-based executor differential over random programs.

Reuses the ``tests.ir.strategies`` generator: the reference executor,
the round interpreter (which moves data through the enumerated access
rounds), the sealed gather and the symbolic denotation are four
independent implementations of "what does this program do to data"; on
every random bijective program they must agree exactly.
"""

import numpy as np
from hypothesis import given, settings

from repro.exec.interpreter import RoundInterpreter
from repro.exec.reference import ReferenceExecutor
from repro.exec.sealed import SealedExecutor
from repro.passes import seal_program
from repro.staticcheck.semantics import denote_program
from tests.ir.strategies import kernel_programs


@settings(max_examples=40, deadline=None)
@given(program=kernel_programs())
def test_reference_batch_and_denotation_agree(program):
    n = program.n
    rng = np.random.default_rng(0)
    a = rng.random(n).astype(np.float64)
    single = ReferenceExecutor().run(program, a)
    np.testing.assert_array_equal(RoundInterpreter().run(program, a), single)

    batch = rng.random((3, n)).astype(np.float64)
    batch[0] = a
    stacked = np.stack(
        [ReferenceExecutor().run(program, row) for row in batch]
    )
    np.testing.assert_array_equal(stacked[0], single)
    np.testing.assert_array_equal(
        SealedExecutor().run_batch(seal_program(program), batch), stacked
    )

    den = denote_program(program)
    assert den.ok, den.describe()
    expected = np.empty_like(batch)
    expected[:, den.index_map] = batch
    np.testing.assert_array_equal(stacked, expected)


@settings(max_examples=25, deadline=None)
@given(program=kernel_programs(allow_padded=False))
def test_denotation_composes_with_itself(program):
    """Running the program twice permutes by the square of its map."""
    den = denote_program(program)
    assert den.ok
    a = np.arange(program.n, dtype=np.float64)
    once = ReferenceExecutor().run(program, a)
    twice = ReferenceExecutor().run(program, once)
    expected = np.empty_like(a)
    expected[den.index_map[den.index_map]] = a
    np.testing.assert_array_equal(twice, expected)
