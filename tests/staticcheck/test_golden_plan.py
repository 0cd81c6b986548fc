"""The checked-in golden files must stay loadable, certified and exact.

``tests/data/golden_plan.npz`` is a committed plan file (format
version 3; random permutation, ``seed=0``, ``n=256``, ``width=4``)
written by ``save_plan`` with both embedded certificates.  It pins
three things at once: the on-disk format (a format change that can't
read old files fails here first), the certificate chain (load
re-validates the embedded proofs), and planning determinism
(re-planning the same seed must reproduce the stored schedule bit for
bit).  A deliberate change of colouring algorithm changes the colours:
check that the old file still loads, re-certifies and permutes, then
rewrite it with ``save_plan(path, ScheduledPermutation.plan(
random_permutation(256, seed=0), width=4))``.

``tests/data/golden_sidecar.sealed.npz`` is the sealed sidecar a
disk-backed ``Planner.compile`` of the same permutation writes (sealed
version 1); it pins the sidecar format the same way.
"""

import zipfile
from pathlib import Path

import numpy as np

from repro.core.io import load_plan, load_sealed
from repro.core.scheduled import ScheduledPermutation
from repro.permutations.named import random_permutation
from repro.staticcheck import certify_plan

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "golden_plan.npz"
GOLDEN_SIDECAR = DATA / "golden_sidecar.sealed.npz"


def test_golden_plan_loads_with_certificate():
    # Written before plan files stored incompressible members: every
    # member is deflated, and it still loads.
    with zipfile.ZipFile(GOLDEN) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_DEFLATED
        }
    plan = load_plan(GOLDEN)
    assert plan.n == 256 and plan.width == 4
    cert = plan.certificate
    assert cert is not None and cert.ok
    assert cert.num_rounds == 32
    assert cert.plan_sha is not None


def test_golden_plan_recertifies_identically():
    plan = load_plan(GOLDEN)
    fresh = certify_plan(plan)
    assert fresh.ok
    assert fresh.rounds == plan.certificate.rounds


def test_golden_plan_matches_fresh_planning():
    plan = load_plan(GOLDEN)
    fresh = ScheduledPermutation.plan(
        random_permutation(256, seed=0), width=4
    )
    assert np.array_equal(plan.p, fresh.p)
    assert np.array_equal(plan.decomposition.colors,
                          fresh.decomposition.colors)
    for got, want in (
        (plan.step1, fresh.step1),
        (plan.step2.rowwise, fresh.step2.rowwise),
        (plan.step3, fresh.step3),
    ):
        assert got.s.dtype == want.s.dtype
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.t, want.t)


def test_golden_plan_carries_semantic_certificate():
    plan = load_plan(GOLDEN)
    sem = plan.semantic_certificate
    assert sem is not None and sem.ok
    assert sem.plan_sha == plan.certificate.plan_sha


def test_golden_plan_still_permutes():
    plan = load_plan(GOLDEN)
    a = np.arange(256.0)
    expected = np.empty_like(a)
    expected[plan.p] = a
    assert np.array_equal(plan.apply(a), expected)


def test_golden_sidecar_loads_and_denotes_p():
    sealed = load_sealed(GOLDEN_SIDECAR)
    p = random_permutation(256, seed=0)
    assert np.array_equal(sealed.scatter, p)
    assert sealed.engine == "scheduled" and sealed.width == 4
    cert = sealed.certificate
    assert cert is not None and cert.ok
    assert cert.denotation_sha == sealed.meta["denotation_sha"]
    assert sealed.meta["predicted_rounds"] == 32
    assert len(sealed.meta["fingerprint"]) == 64
    assert sealed.meta["pipeline"].startswith("default@v1(")
