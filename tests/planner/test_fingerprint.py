"""Fingerprint tests: stability, content-addressing, and sensitivity
to every compile-relevant input."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.planner import permutation_digest, plan_fingerprint
from repro.permutations.named import bit_reversal, random_permutation


class TestPermutationDigest:
    def test_deterministic(self):
        p = random_permutation(256, seed=1)
        assert permutation_digest(p) == permutation_digest(p.copy())

    def test_dtype_invariant(self):
        p = random_permutation(64, seed=2)
        assert permutation_digest(p.astype(np.int32)) == \
            permutation_digest(p.astype(np.int64))

    def test_content_sensitive(self):
        a = random_permutation(64, seed=0)
        b = random_permutation(64, seed=1)
        assert permutation_digest(a) != permutation_digest(b)

    def test_length_sensitive(self):
        # identity of length 4 vs length 8 share a byte prefix; the
        # length must still separate them.
        assert permutation_digest(np.arange(4)) != \
            permutation_digest(np.arange(8))

    def test_non_contiguous_view_ok(self):
        p = bit_reversal(64)
        doubled = np.repeat(p, 2)[::2]
        assert permutation_digest(doubled) == permutation_digest(p)

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            permutation_digest(np.arange(16).reshape(4, 4))


class TestPlanFingerprint:
    def test_stable(self):
        d = permutation_digest(bit_reversal(64))
        assert plan_fingerprint(d, "scheduled", 32) == \
            plan_fingerprint(d, "scheduled", 32)

    def test_engine_sensitive(self):
        d = permutation_digest(bit_reversal(64))
        assert plan_fingerprint(d, "scheduled", 32) != \
            plan_fingerprint(d, "padded", 32)

    def test_width_sensitive(self):
        d = permutation_digest(bit_reversal(64))
        assert plan_fingerprint(d, "scheduled", 32) != \
            plan_fingerprint(d, "scheduled", 16)
