"""The certifier's per-warp counting against a brute-force reference.

``shared_bank_multiplicities`` and ``global_group_counts`` screen every
warp (a bank bitmask for ``w <= 64``, ``OR ^ AND`` of the addresses for
a power-of-two ``w``) and count exactly only the warps the screen
flags.  These tests pin both to a per-warp ``Counter`` / ``set``
reference on random streams, planted conflicts, one-bank warps, warps
with exactly one repeated bank, the screen's edge widths
(1, 2, 3, 32, 33, 64), negative addresses and addresses of 2**32 and
above, and ``int16``/``uint16``/``int64`` address arrays; they pin
whole certificates to references stored in ``tests/data`` and to the
reference counts of a width-64 plan; and they check that a regular
plan never reaches the exact count.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import bit_reversal, random_permutation
from repro.staticcheck import (
    certifier,
    certify_plan,
    global_group_counts,
    plan_rounds,
    shared_bank_multiplicities,
)

REFERENCE = Path(__file__).resolve().parents[1] / "data" / \
    "reference_certificates.json"


def _warps(addresses, width):
    flat = [int(a) for a in np.asarray(addresses).ravel()]
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def reference_multiplicities(addresses, width):
    return [max(Counter(a % width for a in warp).values())
            for warp in _warps(addresses, width)]


def reference_group_counts(addresses, width):
    return [len({a // width for a in warp})
            for warp in _warps(addresses, width)]


def assert_matches_reference(addresses, width):
    banks = shared_bank_multiplicities(addresses, width)
    groups = global_group_counts(addresses, width)
    assert banks.dtype == groups.dtype == np.int64
    assert banks.tolist() == reference_multiplicities(addresses, width)
    assert groups.tolist() == reference_group_counts(addresses, width)


@st.composite
def streams(draw):
    """``(addresses, width)``: a random stream of whole warps."""
    width = draw(st.integers(1, 40))
    warps = draw(st.integers(0, 12))
    span = draw(st.sampled_from([1, 2, width, 4 * width, 64 * width]))
    addresses = np.array(
        draw(st.lists(st.integers(0, span * width), min_size=warps * width,
                      max_size=warps * width)),
        dtype=np.int64,
    )
    return addresses, width


@st.composite
def planted(draw):
    """A conflict-free, coalesced stream with some lanes overwritten by
    another lane's address (a duplicated scatter target)."""
    width = draw(st.integers(2, 40))
    warps = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.arange(warps, dtype=np.int64)[:, None] * width
    lanes = np.stack([rng.permutation(width) for _ in range(warps)])
    addresses = (base + lanes).reshape(-1)
    for _ in range(draw(st.integers(1, 3 * warps))):
        dst, src = draw(st.integers(0, addresses.size - 1)), \
            draw(st.integers(0, addresses.size - 1))
        addresses[dst] = addresses[src]
    return addresses, width


@settings(max_examples=200, deadline=None)
@given(streams())
def test_random_streams_match_reference(case):
    assert_matches_reference(*case)


@settings(max_examples=200, deadline=None)
@given(planted())
def test_planted_conflicts_match_reference(case):
    assert_matches_reference(*case)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 39),
       st.integers(0, 2**32 - 1))
def test_all_lanes_in_one_bank(width, warps, bank, seed):
    rng = np.random.default_rng(seed)
    bank %= width
    addresses = bank + width * rng.integers(0, 50, size=warps * width)
    assert shared_bank_multiplicities(addresses, width).tolist() == \
        [width] * warps
    assert_matches_reference(addresses, width)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 6, 7, 12, 24, 31, 32, 33]),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_uint16_schedules_match_reference(width, warps, seed):
    """Row-wise schedules store ``s``/``t`` as ``uint16``."""
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 2**16, size=warps * width).astype(np.uint16)
    assert_matches_reference(addresses, width)
    wide = addresses.astype(np.int64)
    assert np.array_equal(shared_bank_multiplicities(addresses, width),
                          shared_bank_multiplicities(wide, width))
    assert np.array_equal(global_group_counts(addresses, width),
                          global_group_counts(wide, width))


#: The screen's edge widths: the trivial warp, the smallest power of
#: two, a width with no bitwise group test, the full ``uint32`` mask,
#: one past it, and the full ``uint64`` mask.
EDGE_WIDTHS = (1, 2, 3, 32, 33, 64)

#: Warp bases far from zero: negative, just below and at 2**32, and
#: beyond, so no narrowing of the addresses themselves can be assumed.
BASES = (0, -7, -(2**40) - 5, 2**32 - 40, 2**32, 2**40 + 3)


@st.composite
def edge_streams(draw):
    """Whole warps at an edge width, each one of four shapes: distinct
    banks, all lanes in one bank, exactly one repeated bank, or random
    offsets; every warp sits at a base from ``BASES``."""
    width = draw(st.sampled_from(EDGE_WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    warps = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from(BASES))
        shape = draw(st.sampled_from(
            ("distinct", "one-bank", "one-repeat", "random")
        ))
        spread = width * rng.integers(0, 3, size=width)
        if shape == "distinct":
            lanes = rng.permutation(width) + spread
        elif shape == "one-bank":
            lanes = int(rng.integers(0, width)) + width * \
                rng.integers(-3, 3, size=width)
        elif shape == "one-repeat":
            lanes = rng.permutation(width) + spread
            if width > 1:
                src, dst = rng.choice(width, size=2, replace=False)
                lanes[dst] = lanes[src] + width
        else:
            lanes = rng.integers(-4 * width, 4 * width, size=width)
        warps.append(base + lanes.astype(np.int64))
    return np.concatenate(warps), width


@settings(max_examples=300, deadline=None)
@given(edge_streams())
def test_edge_widths_and_far_addresses_match_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("width", EDGE_WIDTHS)
@pytest.mark.parametrize("base", BASES)
def test_screen_shapes_match_reference(width, base):
    """One warp of each shape, at every edge width and base."""
    rng = np.random.default_rng(width)
    distinct = rng.permutation(width)
    one_bank = 1 % width + width * np.arange(width)
    one_repeat = distinct.copy()
    if width > 1:
        one_repeat[width - 1] = one_repeat[0] + 2 * width
    addresses = base + np.concatenate([distinct, one_bank, one_repeat])
    banks = shared_bank_multiplicities(addresses, width).tolist()
    assert banks == [1, width, 1 if width == 1 else 2]
    assert_matches_reference(addresses, width)


@pytest.mark.parametrize("dtype", (np.int16, np.uint16, np.int64))
@pytest.mark.parametrize("width", EDGE_WIDTHS)
def test_index_dtypes_match_reference(dtype, width):
    rng = np.random.default_rng(width)
    info = np.iinfo(dtype)
    low, high = max(int(info.min), -(2**15)), min(int(info.max), 2**15)
    addresses = rng.integers(low, high, size=8 * width).astype(dtype)
    # Warp 0 conflict-free and coalesced, warp 1 in one bank.
    addresses[:width] = np.arange(width, dtype=dtype)
    addresses[width:2 * width] = width * np.arange(width, dtype=dtype)
    assert_matches_reference(addresses, width)
    wide = addresses.astype(np.int64)
    assert np.array_equal(shared_bank_multiplicities(addresses, width),
                          shared_bank_multiplicities(wide, width))
    assert np.array_equal(global_group_counts(addresses, width),
                          global_group_counts(wide, width))


def _width64_plans():
    plan = ScheduledPermutation.plan(random_permutation(128 * 128, seed=3),
                                     width=64)
    bad_s = plan.step1.s.copy()
    bad_s[5, 70] = bad_s[5, 64]
    bad = dataclasses.replace(
        plan, step1=dataclasses.replace(plan.step1, s=bad_s)
    )
    return {"clean": plan, "planted": bad}


@pytest.mark.parametrize("name", ("clean", "planted"))
def test_width64_certificate_equals_reference_counts(name):
    plan = _width64_plans()[name]
    cert = certify_plan(plan)
    for rnd, verdict in zip(plan_rounds(plan), cert.rounds, strict=True):
        count = (reference_multiplicities if rnd.space == "shared"
                 else reference_group_counts)
        per_warp = count(rnd.addresses, 64)
        assert verdict.stages == sum(per_warp), rnd.label()
        assert verdict.max_per_warp == max(per_warp), rnd.label()
    assert cert.ok == (name == "clean")
    if name == "planted":
        counter = cert.counterexample
        assert (counter.kernel, counter.round_index) == ("step1.rowwise", 2)
        assert counter.warp == 5 * 2 + 1
        assert counter.lanes == (0, 6)


#: Benchmark size: n = 2**18, w = 32, so m = 512 and 16 warps per row.
GUARD_N, GUARD_W = 1 << 18, 32


@pytest.fixture(scope="module")
def guard_plan():
    return ScheduledPermutation.plan(bit_reversal(GUARD_N), width=GUARD_W)


def _refuse(*_args):
    raise AssertionError("a regular warp reached the exact count")


def test_regular_plan_never_reaches_the_exact_count(guard_plan,
                                                    monkeypatch):
    monkeypatch.setattr(certifier, "_sorted_rows", _refuse)
    monkeypatch.setattr(certifier, "_max_run_lengths", _refuse)
    cert = certify_plan(guard_plan)
    assert cert.ok and cert.num_rounds == 32


def _planted_swap(plan, row=7, lane=3):
    """``plan`` with ``s[row, lane]`` swapped with the first entry of
    warp 1 of that row whose bank differs: still a permutation of the
    row, but warps 0 and 1 of step 1's shared write each gain a
    repeated bank.  Returns the plan and the expected counterexample
    fields, derived from ``s`` alone."""
    s = plan.step1.s.astype(np.int64)
    w = GUARD_W
    other = next(j for j in range(w, 2 * w)
                 if s[row, j] % w != s[row, lane] % w)
    bad_s = plan.step1.s.copy()
    bad_s[row, [lane, other]] = bad_s[row, [other, lane]]
    bank = int(s[row, other] % w)
    lanes = tuple(int(j) for j in range(w)
                  if int(bad_s[row, j]) % w == bank)
    bad = dataclasses.replace(
        plan, step1=dataclasses.replace(plan.step1, s=bad_s)
    )
    m = plan.m
    warp = row * (m // w)
    return bad, {"kernel": "step1.rowwise", "round_index": 2,
                 "warp": warp, "block": row, "bank": bank, "lanes": lanes}


def test_planted_swap_refused_with_exact_counterexample(guard_plan,
                                                        monkeypatch):
    bad, expected = _planted_swap(guard_plan)
    rows_counted = []
    real = certifier._max_run_lengths

    def spy(rows):
        rows_counted.append(rows.shape[0])
        return real(rows)

    monkeypatch.setattr(certifier, "_max_run_lengths", spy)
    cert = certify_plan(bad)
    assert not cert.ok and not cert.conflict_free and cert.coalesced
    counter = cert.counterexample
    assert {key: getattr(counter, key) for key in expected} == expected
    assert len(expected["lanes"]) == 2
    # Only the two warps the swap touched took the exact count.
    assert rows_counted == [2]
    bad_round = cert.rounds[2]
    assert (bad_round.max_per_warp, bad_round.stages) == \
        (2, bad_round.num_warps + 2)


def test_empty_stream():
    empty = np.zeros(0, dtype=np.int64)
    assert shared_bank_multiplicities(empty, 8).shape == (0,)
    assert global_group_counts(empty, 8).shape == (0,)


def _reference_plans():
    plan = ScheduledPermutation.plan(random_permutation(1024, seed=13),
                                     width=32)
    bad_s = plan.step1.s.copy()
    bad_s[3, 17] = bad_s[3, 0]
    bad = dataclasses.replace(
        plan, step1=dataclasses.replace(plan.step1, s=bad_s)
    )
    return {"clean": plan, "planted": bad}


def test_certificates_equal_stored_references():
    """Byte-identical certificates, counterexample included.  The
    references were written by the scatter-add counting this module's
    early-exit counting replaced."""
    stored = json.loads(REFERENCE.read_text())
    plans = _reference_plans()
    assert sorted(stored) == sorted(plans)
    for name, plan in plans.items():
        assert certify_plan(plan).to_json() == stored[name], name
    assert json.loads(stored["planted"])["counterexample"] is not None
