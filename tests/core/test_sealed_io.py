"""Sealed sidecar persistence: save/load round trip, checksum
enforcement, version gating, narrow delta encoding, and stored vs
deflated members."""

import re
import struct
import zipfile

import numpy as np
import pytest

from repro.core.io import (
    load_plan,
    load_sealed,
    plan_checksum,
    save_plan,
    save_sealed,
)
from repro.errors import PlanCorruptionError, PlanVersionError
from repro.ir.registry import get_engine
from repro.passes import default_pipeline, seal_program
from repro.permutations.named import bit_reversal, random_permutation

_N, _WIDTH = 4096, 32


def _sealed(p=None, engine="scheduled"):
    if p is None:
        p = bit_reversal(_N)
    plan = get_engine(engine).plan(p, width=_WIDTH)
    program = default_pipeline().run(plan.lower())
    return seal_program(program, requested=p, fingerprint="a" * 64)


class TestRoundTrip:
    def test_save_load_preserves_maps_and_meta(self, tmp_path):
        sealed = _sealed()
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, sealed)
        back = load_sealed(path)
        assert np.array_equal(back.scatter, sealed.scatter)
        assert np.array_equal(back.gather, sealed.gather)
        assert back.engine == sealed.engine
        assert back.width == sealed.width
        assert back.meta["fingerprint"] == "a" * 64
        assert "pipeline" not in back.meta
        assert back.meta["predicted_rounds"] == 32
        assert (back.meta["denotation_sha"]
                == sealed.meta["denotation_sha"])

    def test_sidecar_is_much_smaller_than_plan(self, tmp_path):
        p = bit_reversal(_N)
        plan = get_engine("scheduled").plan(p, width=_WIDTH)
        plan_path = tmp_path / "plan.npz"
        save_plan(plan_path, plan)
        sealed_path = tmp_path / "plan.sealed.npz"
        save_sealed(sealed_path, _sealed(p))
        # Delta + zigzag + min_scalar_type narrowing: the near-sorted
        # gather compresses far below the full schedule arrays.
        assert sealed_path.stat().st_size < (
            plan_path.stat().st_size / 2
        )

    def test_random_permutation_round_trips(self, tmp_path):
        p = random_permutation(_N, seed=11)
        sealed = _sealed(p)
        path = tmp_path / "r.sealed.npz"
        save_sealed(path, sealed)
        assert np.array_equal(load_sealed(path).scatter, p)


class TestRejection:
    def test_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        delta = arrays["gather_delta"].copy()
        delta[7] ^= 1
        arrays["gather_delta"] = delta
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        arrays["sealed_version"] = np.int64(99)
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanVersionError):
            load_sealed(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {
                k: np.asarray(data[k]) for k in data.files
                if k != "gather_delta"
            }
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    def test_stripped_and_rechecksummed_key_named(self, tmp_path):
        # A payload key removed and the checksum recomputed over what
        # is left: the checksum passes, the required-key check does not.
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {
                k: np.asarray(data[k]) for k in data.files
                if k != "denotation_sha"
            }
        from repro.core.io import SEALED_METADATA_KEYS

        arrays["checksum"] = np.str_(plan_checksum({
            k: v for k, v in arrays.items()
            if k not in SEALED_METADATA_KEYS
        }))
        np.savez_compressed(path, **arrays)
        with pytest.raises(PlanCorruptionError, match="denotation_sha"):
            load_sealed(path)

    def test_legacy_plan_sha_key_is_ignored(self, tmp_path):
        # Sidecars of older builds carry a plan_sha metadata key that
        # bound them to a plan file; it is outside the checksum, and
        # loading ignores it.
        path = tmp_path / "x.sealed.npz"
        sealed = _sealed()
        save_sealed(path, sealed)
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        arrays["plan_sha"] = np.str_("f" * 64)
        np.savez_compressed(path, **arrays)
        back = load_sealed(path)
        assert np.array_equal(back.scatter, sealed.scatter)
        assert "plan_sha" not in back.meta

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        path.write_bytes(b"not a zipfile")
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)


    @pytest.mark.parametrize("gather", ["not-inverse", "repeats"])
    def test_non_inverse_pair_is_written_then_refused(self, tmp_path,
                                                      gather):
        """save_sealed does not re-prove what it writes; load_sealed
        refuses a hand-built pair whose gather is not its scatter's
        inverse."""
        from repro.ir.sealed import SealedProgram, invert_permutation

        p = random_permutation(_N, seed=4)
        bad = invert_permutation(p)
        if gather == "not-inverse":
            bad[[0, 1]] = bad[[1, 0]]
        else:
            bad[0] = bad[1]
        sealed = SealedProgram("scheduled", _WIDTH, p, gather=bad)
        path = tmp_path / "bad.sealed.npz"
        save_sealed(path, sealed)
        assert path.exists()
        message = (
            "decoded sealed map digests" if gather == "not-inverse"
            else f"decoded sealed gather: index map repeats {bad[1]} "
                 "(at 0 and 1); it is no permutation"
        )
        with pytest.raises(PlanCorruptionError, match=re.escape(message)):
            load_sealed(path)


    def test_failed_inverse_proof_is_a_corruption(self, tmp_path,
                                                  monkeypatch):
        """A gather that repeats an index inverts to a scatter with an
        unwritten slot, whose content can match the stored digest;
        the mutual-inverse proof then refuses the file, and that
        refusal is a corruption like every other."""
        from repro.errors import ValidationError
        from repro.ir.sealed import SealedProgram

        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())

        def refute(self):
            raise ValidationError("sealed gather is not the inverse")

        monkeypatch.setattr(SealedProgram, "verify", refute)
        with pytest.raises(PlanCorruptionError, match="not the inverse"):
            load_sealed(path)


class TestDeltaNarrowing:
    def test_identityish_gather_stores_narrow_deltas(self, tmp_path):
        # A near-identity permutation has deltas of ~1: the stored
        # zigzag array must narrow below int64.
        p = np.arange(_N, dtype=np.int64)
        p[0], p[1] = p[1], p[0]
        sealed = _sealed(p, engine="cpu-naive")
        path = tmp_path / "near.sealed.npz"
        save_sealed(path, sealed)
        with np.load(path) as data:
            stored = np.asarray(data["gather_delta"])
        assert stored.dtype.itemsize < 8
        assert np.array_equal(load_sealed(path).scatter, p)

    def test_checksum_covers_every_payload_key(self, tmp_path):
        path = tmp_path / "x.sealed.npz"
        save_sealed(path, _sealed())
        with np.load(path) as data:
            arrays = {k: np.asarray(data[k]) for k in data.files}
        from repro.core.io import SEALED_METADATA_KEYS

        payload = {
            k: v for k, v in arrays.items()
            if k not in SEALED_METADATA_KEYS
        }
        assert plan_checksum(payload) == str(arrays["checksum"])


class TestMemberCompression:
    """A sidecar member is deflated only when a probe of its head shows
    deflate pays: a random map's deltas are stored, an affine map's
    deflated, and both kinds load and re-prove."""

    @staticmethod
    def _delta_member(path):
        with zipfile.ZipFile(path) as archive:
            return archive.getinfo("gather_delta.npy")

    @pytest.mark.parametrize("family, compress_type", [
        ("random", zipfile.ZIP_STORED),
        ("bit-reversal", zipfile.ZIP_DEFLATED),
    ])
    def test_delta_member_kind_and_reload(self, tmp_path, family,
                                          compress_type):
        p = (random_permutation(_N, seed=11) if family == "random"
             else bit_reversal(_N))
        sealed = _sealed(p)
        path = tmp_path / f"{family}.sealed.npz"
        save_sealed(path, sealed)
        info = self._delta_member(path)
        assert info.compress_type == compress_type
        if compress_type == zipfile.ZIP_DEFLATED:
            assert info.compress_size < info.file_size / 10
        back = load_sealed(path)
        assert np.array_equal(back.scatter, p)
        assert np.array_equal(back.gather, sealed.gather)

    def test_flipped_byte_in_a_stored_member_is_refused(self, tmp_path):
        path = tmp_path / "r.sealed.npz"
        save_sealed(path, _sealed(random_permutation(_N, seed=11)))
        info = self._delta_member(path)
        assert info.compress_type == zipfile.ZIP_STORED
        raw = bytearray(path.read_bytes())
        # The member's bytes follow its local header: 30 fixed bytes,
        # then the name and the extra field.
        header = info.header_offset
        name_len, extra_len = struct.unpack(
            "<HH", raw[header + 26:header + 30]
        )
        start = header + 30 + name_len + extra_len
        raw[start + info.compress_size // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(PlanCorruptionError):
            load_sealed(path)

    @pytest.mark.parametrize("family, compress_type", [
        ("random", zipfile.ZIP_STORED),
        ("bit-reversal", zipfile.ZIP_DEFLATED),
    ])
    def test_plan_file_members_follow_the_same_rule(self, tmp_path, family,
                                                    compress_type):
        """A plan file's schedule arrays are stored or deflated by the
        same probe: a random plan's ``t`` barely deflates, an affine
        plan's repeats itself, and both files load."""
        p = (random_permutation(_N, seed=11) if family == "random"
             else bit_reversal(_N))
        path = tmp_path / "plan.npz"
        save_plan(path, get_engine("scheduled").plan(p, width=_WIDTH))
        with zipfile.ZipFile(path) as archive:
            assert archive.getinfo("op0.t.npy").compress_type \
                == compress_type
            # The certificates are text and always deflate.
            assert archive.getinfo("certificate.npy").compress_type \
                == zipfile.ZIP_DEFLATED
        assert np.array_equal(load_plan(path).p, p)
