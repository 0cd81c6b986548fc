"""The shape memo can never vouch for a round it did not see.

Of a plan's 32 address streams only the six ``s``/``t`` writes depend
on the permutation; the certifier keeps the regular verdicts of the
other streams per shape (``certifier._SHAPE_MEMO``).  These tests hold
every certificate byte-identical with the memo emptied and warm, and
to a memo-free reference built round by round with ``analyze_round``:
the stored reference certificates, the golden plan, a set of corrupted
plans, an irregular shape stream, and plans whose shared writes an
armed ``FaultPlan`` damages.  They also certify two shapes from four
threads at once, and more shapes than the memo's bound.
"""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro.core.io import load_plan
from repro.core.scheduled import ScheduledPermutation
from repro.ir.ops import Transpose
from repro.ir.program import KernelProgram
from repro.ir.rounds import program_rounds
from repro.permutations.named import bit_reversal, random_permutation
from repro.resilience import FaultPlan
from repro.staticcheck import (
    Certificate,
    analyze_round,
    certifier,
    certify_plan,
    certify_program,
    plan_rounds,
)
from tests.staticcheck.test_certifier_counting import (
    REFERENCE,
    _reference_plans,
)
from tests.staticcheck.test_golden_plan import GOLDEN


def empty_and_warm(certify):
    """``certify()`` from an emptied memo, then again with the memo
    warm from that call, as two JSON strings."""
    certifier._SHAPE_MEMO.clear()
    empty = certify().to_json()
    assert len(certifier._SHAPE_MEMO) > 0
    return empty, certify().to_json()


def reference(rounds, width, n, m):
    """The certificate of ``rounds`` with every round analysed on its
    own addresses: no stream shared, no memo."""
    verdicts, counter = [], None
    for rnd in rounds:
        verdict, bad = analyze_round(rnd, width)
        verdicts.append(verdict)
        if counter is None:
            counter = bad
    return Certificate(n=n, m=m, width=width, rounds=tuple(verdicts),
                       counterexample=counter).to_json()


def plan_reference(plan):
    return reference(plan_rounds(plan), int(plan.width), int(plan.n),
                     int(plan.m))


def test_stored_reference_certificates():
    stored = json.loads(REFERENCE.read_text())
    for name, plan in _reference_plans().items():
        empty, warm = empty_and_warm(lambda plan=plan: certify_plan(plan))
        assert empty == warm == stored[name], name


def test_golden_plan():
    plan = load_plan(GOLDEN)
    embedded = plan.certificate
    empty, warm = empty_and_warm(
        lambda: certify_plan(plan).bound_to(embedded.plan_sha)
    )
    assert empty == warm == embedded.to_json()
    certifier._SHAPE_MEMO.clear()
    assert load_plan(GOLDEN).certificate.to_json() == embedded.to_json()


def _corrupted_plans():
    """``(name, plan)``: clean plans, then one ``s`` or ``t`` lane of
    each row-wise step sent to another lane's address, at the first,
    a middle and the last block, for a random and a bit-reversal
    permutation."""
    n, width = 1024, 8
    for family, p in (("random", random_permutation(n, seed=21)),
                      ("bit-reversal", bit_reversal(n))):
        plan = ScheduledPermutation.plan(p, width=width)
        yield f"{family} clean", plan
        steps = {
            "step1": (plan.step1, lambda r: dataclasses.replace(
                plan, step1=r)),
            "step2": (plan.step2.rowwise, lambda r: dataclasses.replace(
                plan, step2=dataclasses.replace(plan.step2, rowwise=r))),
            "step3": (plan.step3, lambda r: dataclasses.replace(
                plan, step3=r)),
        }
        for step, (rowwise, rebuild) in steps.items():
            for array in ("s", "t"):
                for block, lane, other in ((0, 1, 0), (13, 9, 14),
                                           (31, 31, 24)):
                    bad = getattr(rowwise, array).copy()
                    bad[block, lane] = bad[block, other]
                    yield (
                        f"{family} {step}.{array}[{block}, {lane}]",
                        rebuild(dataclasses.replace(
                            rowwise, **{array: bad})),
                    )


CORRUPTED = list(_corrupted_plans())


@pytest.mark.parametrize("name, plan", CORRUPTED,
                         ids=[name for name, _ in CORRUPTED])
def test_corrupted_plan_counterexamples(name, plan):
    empty, warm = empty_and_warm(lambda: certify_plan(plan))
    assert empty == warm == plan_reference(plan)
    refused = json.loads(empty)["counterexample"] is not None
    assert refused == (not name.endswith("clean"))


def test_irregular_shape_stream_keeps_its_counterexample():
    """A naive (non-diagonal) transpose's tile read is a shape stream
    with a ``w``-way bank conflict: the memo never keeps it, so its
    counterexample is derived afresh every time."""
    m, width = 64, 8
    program = KernelProgram("t", m * m, width, (
        Transpose(label="tr", m=m, width=width, diagonal=False),
    ))
    empty, warm = empty_and_warm(lambda: certify_program(program))
    assert empty == warm == reference(program_rounds(program), width,
                                      m * m, 0)
    assert json.loads(empty)["counterexample"]["round_index"] == 2


@pytest.mark.parametrize("collisions", [1, 3])
def test_fault_hook_bypasses_a_warm_memo(collisions):
    """``scatter_collisions=1`` damages step 1's ``x[s]`` write; with 3
    the third shared write, the first transpose's tile write (a shape
    stream), is damaged too.  Either is refused where it is, with the
    same certificate from an empty memo and from a warm one."""
    plan = ScheduledPermutation.plan(random_permutation(4096, seed=9),
                                     width=8)
    certifier._SHAPE_MEMO.clear()
    with FaultPlan(seed=1, scatter_collisions=collisions):
        cold = certify_plan(plan).to_json()
    clean = certify_plan(plan)          # warms the memo
    assert clean.ok
    with FaultPlan(seed=1, scatter_collisions=collisions):
        warm = certify_plan(plan).to_json()
    with FaultPlan(seed=1, scatter_collisions=collisions):
        assert warm == cold == plan_reference(plan)
    refused = Certificate.from_json(warm)
    assert refused.counterexample.round_index == 2
    bad = [r.index for r in refused.rounds if not r.ok]
    assert bad == ([2] if collisions == 1 else [2, 5, 9])


def test_threads_certifying_two_shapes_get_the_serial_results():
    """Four threads (more than this suite's cores), two per shape, with
    a short switch interval so they interleave inside the memo."""
    plans = [
        ScheduledPermutation.plan(random_permutation(4096, seed=1), width=8),
        ScheduledPermutation.plan(bit_reversal(1024), width=4),
    ]
    serial = [plan_reference(plan) for plan in plans]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            certifier._SHAPE_MEMO.clear()
            barrier = threading.Barrier(4)
            results: list = [None] * 4

            def certify(i):
                barrier.wait(timeout=30)
                results[i] = [certify_plan(plans[i % 2]).to_json()
                              for _ in range(3)]

            threads = [threading.Thread(target=certify, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == [[serial[i % 2]] * 3 for i in range(4)]
            # 6 shape streams per shape, none lost or duplicated.
            assert len(certifier._SHAPE_MEMO) == 12
    finally:
        sys.setswitchinterval(interval)


def test_more_shapes_than_the_bound_leave_the_memo_at_its_bound():
    certifier._SHAPE_MEMO.clear()
    shapes = [(width * k, width) for width in (2, 3, 4)
              for k in range(1, 31)]
    # Each tiled transpose holds 4 shape streams, all regular.
    assert 4 * len(shapes) > certifier.SHAPE_MEMO_SIZE
    for m, width in shapes:
        program = KernelProgram("t", m * m, width, (
            Transpose(label="tr", m=m, width=width),
        ))
        cert = certify_program(program)
        assert cert.ok
        assert cert.to_json() == reference(program_rounds(program), width,
                                           m * m, 0)
        assert len(certifier._SHAPE_MEMO) <= certifier.SHAPE_MEMO_SIZE
    assert len(certifier._SHAPE_MEMO) == certifier.SHAPE_MEMO_SIZE
    # The evicted shapes are analysed again, to the same verdicts.
    first = KernelProgram("t", 4, 2, (Transpose(label="tr", m=2, width=2),))
    assert certify_program(first).to_json() == reference(
        program_rounds(first), 2, 4, 0)


def test_plan_rounds_still_carry_full_arrays():
    """Pricing, race detection and the interpreter read every shape
    stream in full."""
    plan = ScheduledPermutation.plan(random_permutation(1024, seed=2),
                                     width=8)
    rounds = plan_rounds(plan)
    keyed = [rnd for rnd in rounds if rnd.shape_key is not None]
    assert len(keyed) == 32 - 6
    for rnd in rounds:
        assert rnd.addresses.shape == (plan.n,)
    assert np.array_equal(rounds[0].addresses, np.arange(plan.n))
