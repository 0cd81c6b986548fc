"""Pricing contract: every closed-form ``predict`` equals the priced
access-round stream.

For each registered engine whose ``predict`` returns a value, the
closed form (Table I / Lemma 4 arithmetic) must equal ``simulate``'s
HMM time exactly — on every family and payload width, including the
padded engine at a non-square size.
"""

import numpy as np
import pytest

from repro.ir.registry import engine_names, get_engine
from repro.machine.params import MachineParams
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)

PARAMS = MachineParams(width=32, latency=100, num_dmms=4)
SQUARE_N = 64 * 64
NON_SQUARE_N = 3000

FAMILIES = {
    "bit-reversal": lambda n: bit_reversal(n),
    "transpose": lambda n: transpose_permutation(n),
    "random": lambda n: random_permutation(n, seed=21),
}

PRICED_ENGINES = ("scheduled", "d-designated", "s-designated", "padded")


def _cases():
    for engine in PRICED_ENGINES:
        for family in sorted(FAMILIES):
            for dtype in (np.float32, np.float64):
                yield engine, family, SQUARE_N, dtype
        if engine == "padded":
            # Bit-reversal and transpose need a power-of-two square.
            yield engine, "random", NON_SQUARE_N, np.float32
            yield engine, "random", NON_SQUARE_N, np.float64


def test_priced_engines_are_exactly_the_predicting_ones():
    p = random_permutation(SQUARE_N, seed=1)
    predicting = {
        name for name in engine_names()
        if get_engine(name).predict(p, PARAMS) is not None
    }
    assert predicting == set(PRICED_ENGINES)


@pytest.mark.parametrize(
    "engine,family,n,dtype", list(_cases()),
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_predict_equals_simulate(engine, family, n, dtype):
    p = FAMILIES[family](n)
    cls = get_engine(engine)
    predicted = cls.predict(p, PARAMS, dtype)
    assert predicted is not None
    simulated = cls.plan(p, width=PARAMS.width).simulate(PARAMS, dtype)
    assert predicted == simulated.time
