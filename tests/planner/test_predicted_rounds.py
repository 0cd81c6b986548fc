"""A compile's round prediction is the lowered program's access-round
count, stamped at sealing, and it does not depend on the permutation:
the values below pin every registered engine at n = 4096, w = 32."""

import numpy as np
import pytest

from repro.core.padded import PaddedScheduledPermutation
from repro.ir.registry import engine_names
from repro.permutations.named import bit_reversal, random_permutation
from repro.planner import Planner

_ROUNDS = {
    "d-designated": 3,
    "s-designated": 3,
    "dmm-conventional": 3,
    "cpu-naive": 3,
    "scheduled": 32,
    "padded": 32,
    "dmm-scheduled": 4,
    "cpu-blocked": 13,
    "cpu-inplace": 2,
}

_FAMILIES = {
    "bit-reversal": bit_reversal,
    "random": lambda n: random_permutation(n, seed=0),
    "identity": lambda n: np.arange(n, dtype=np.int64),
}

_CASES = [(engine, 4096) for engine in _ROUNDS] + [("padded", 2048)]


def test_every_engine_is_pinned():
    assert set(_ROUNDS) == set(engine_names())


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize(("engine", "n"), _CASES)
def test_predicted_rounds(engine, n, family):
    p = _FAMILIES[family](n)
    compiled = Planner().compile(p, engine=engine, width=32)
    assert compiled.predicted_rounds() == _ROUNDS[engine]


@pytest.mark.parametrize("n", [4096, 2048])
def test_padded_program_round_trips(n):
    # 4096 = 64^2 needs no padding (the bare five kernels); 2048 pads
    # to 4096 (pad + five kernels + slice).
    p = random_permutation(n, seed=1)
    plan = PaddedScheduledPermutation.plan(p, width=32)
    program = plan.lower()
    assert (program.ops[0].kind == "pad") == (n == 2048)
    back = PaddedScheduledPermutation.from_program(program, p)
    assert back.n == n and back.padded_n == 4096
    a = np.arange(n, dtype=np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    np.testing.assert_array_equal(back.apply(a), expected)
