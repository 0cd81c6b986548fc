"""The certifier's per-warp counting against a brute-force reference.

``shared_bank_multiplicities`` and ``global_group_counts`` sort each
warp and count exactly only the warps that repeat a bank or span more
than one group.  These tests pin both to a per-warp ``Counter`` /
``set`` reference on random streams, planted conflicts, one-bank warps,
widths that are not powers of two and ``uint16`` address arrays, and
pin whole certificates to references stored in ``tests/data``.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation
from repro.staticcheck import (
    certify_plan,
    global_group_counts,
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
