"""Non-affine permutations are planned exactly as before the closed-form
colourings: the colours and every ``s``/``t`` schedule array of a
random plan hash to the values the Euler-split planner produced for
them (``width = 8``, ``p = random_permutation(n, seed=n)``), and the
width-32 plans hash to the values that planner gave them before the
split kernel built the plan arrays itself.  The digests cover the
array dtypes too."""

import hashlib

import numpy as np
import pytest

from repro.core.padded import PaddedScheduledPermutation
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation

#: n -> SHA-256 of the plan's arrays; "padded-5000" plans n = 5000
#: through PaddedScheduledPermutation and hashes its inner plan.
EXPECTED = {
    1 << 10: "a8176b30b29bf10f468eab2b38d01c5e34b582066782ae1d70da3ca20a9eddf3",
    1 << 12: "5807c07847e02057aaf734d7fa59137e30a9fe43b318acc348962225e51cdc46",
    1 << 14: "f83435891b30863e8f9cb4f71c559a2dfc6061b1075fee73fbdcdb6c3c2333b4",
    1 << 16: "49bb6e7b1a04bedd97d515b2b8aa21ce9d3650bb4f18d1d3997f3a3be938d984",
    1 << 18: "058fcf78257e242159a57aba78c6c322fccf10a04c74eadb866b6e8db82a56c6",
    96 * 96: "f765bc7793a7bc89d445fe27b0d2e88aa4c6980b13c55c8d3f394e6056c9b22c",
    "padded-5000":
        "40c70851ddac25ea46962672b6f018f84f6df4050e3e6bcc0a9b943d54794378",
}

#: n -> SHA-256 of the ``width = 32`` plan's arrays.
EXPECTED_WIDTH_32 = {
    1 << 14: "9d663d154c2af17da94f6d18345a0a49336392cfb0bef101f8c09ab046212c29",
    1 << 18: "a5cbd0c5ebafd83cbb09d662c19a9e8e42cf7eeb94c2800b13f005c250c8783b",
}


def _digest(plan):
    h = hashlib.sha256()
    for arr in (
        plan.decomposition.colors, plan.step1.s, plan.step1.t,
        plan.step2.rowwise.s, plan.step2.rowwise.t,
        plan.step3.s, plan.step3.t,
    ):
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(EXPECTED), ids=str)
def test_random_plan_is_bit_identical(case):
    if case == "padded-5000":
        plan = PaddedScheduledPermutation.plan(
            random_permutation(5000, seed=5000), width=8
        ).inner
    else:
        plan = ScheduledPermutation.plan(
            random_permutation(case, seed=case), width=8
        )
    assert _digest(plan) == EXPECTED[case]


@pytest.mark.parametrize("n", list(EXPECTED_WIDTH_32))
def test_width_32_plan_is_bit_identical(n):
    plan = ScheduledPermutation.plan(random_permutation(n, seed=n), width=32)
    assert _digest(plan) == EXPECTED_WIDTH_32[n]
