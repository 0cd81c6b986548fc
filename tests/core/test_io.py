"""Tests for schedule persistence (save_plan / load_plan)."""

import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from repro.core.io import FORMAT_VERSION, load_plan, save_plan
from repro.core.scheduled import ScheduledPermutation
from repro.errors import PlanCorruptionError, ValidationError
from repro.machine.params import MachineParams
from repro.permutations.named import random_permutation
from repro.staticcheck import certify_plan, denote_program


@pytest.fixture
def plan():
    return ScheduledPermutation.plan(
        random_permutation(256, seed=5), width=4
    )


class TestRoundtrip:
    def test_apply_identical_after_reload(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        loaded = load_plan(path)
        a = np.random.default_rng(0).random(256)
        assert np.array_equal(loaded.apply(a), plan.apply(a))
        assert np.array_equal(loaded.p, plan.p)
        assert loaded.width == plan.width

    def test_path_without_suffix_gains_npz(self, plan, tmp_path):
        save_plan(tmp_path / "plan", plan)
        assert [f.name for f in tmp_path.iterdir()] == ["plan.npz"]
        assert np.array_equal(load_plan(tmp_path / "plan.npz").p, plan.p)

    def test_archive_is_an_npz_of_deflated_or_stored_members(
        self, plan, tmp_path
    ):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert infos
        for info in infos:
            assert info.filename.endswith(".npy")
            assert info.compress_type in (zipfile.ZIP_DEFLATED,
                                          zipfile.ZIP_STORED)
        with np.load(path) as data:
            assert {"checksum", "library_version"} <= set(data.files)

    def test_simulate_identical_after_reload(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        loaded = load_plan(path)
        machine = MachineParams(width=4, latency=9, num_dmms=2,
                                shared_capacity=None)
        assert loaded.simulate(machine).time == plan.simulate(machine).time

    def test_schedule_arrays_preserved_bitwise(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        loaded = load_plan(path)
        assert np.array_equal(loaded.step1.s, plan.step1.s)
        assert np.array_equal(loaded.step3.t, plan.step3.t)
        assert loaded.step1.s.dtype == plan.step1.s.dtype

    def test_loaded_plan_is_verified(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        loaded = load_plan(path)
        loaded.decomposition.route(plan.p)
        den = denote_program(loaded.lower())
        assert den.ok and np.array_equal(den.index_map, plan.p)
        assert certify_plan(loaded).ok


class TestEngineRoundtrips:
    """Format v3 persists any registered engine, not just scheduled."""

    @pytest.mark.parametrize(
        "name",
        ["padded", "d-designated", "s-designated", "dmm-conventional",
         "dmm-scheduled", "cpu-blocked", "cpu-inplace", "cpu-naive"],
    )
    def test_engine_plan_roundtrips(self, name, tmp_path):
        from repro.ir.registry import get_engine

        n = 200 if name == "padded" else 256
        p = random_permutation(n, seed=9)
        engine = get_engine(name).plan(p, width=4)
        path = tmp_path / f"{name}.npz"
        save_plan(path, engine)
        loaded = load_plan(path)
        assert type(loaded).engine_name == name
        a = np.random.default_rng(4).random(n)
        expected = np.empty_like(a)
        expected[p] = a
        assert np.array_equal(loaded.apply(a.copy()), expected)
        assert np.array_equal(np.asarray(loaded.p), p)

    def test_padded_keeps_certificate(self, tmp_path):
        from repro.core.padded import PaddedScheduledPermutation

        plan = PaddedScheduledPermutation.plan(
            random_permutation(200, seed=2), width=4
        )
        path = tmp_path / "padded.npz"
        save_plan(path, plan)
        loaded = load_plan(path)
        cert = loaded.inner.certificate
        assert cert is not None and cert.ok
        assert cert.num_rounds == 32


class TestErrors:
    def test_save_rejects_non_plan(self, tmp_path):
        with pytest.raises(ValidationError):
            save_plan(tmp_path / "x.npz", "not a plan")

    def test_save_names_the_unregistered_type(self, tmp_path):
        class HomemadePlan:
            pass

        with pytest.raises(ValidationError, match="HomemadePlan"):
            save_plan(tmp_path / "x.npz", HomemadePlan())

    def test_save_points_at_register_engine(self, tmp_path):
        with pytest.raises(ValidationError, match="register_engine"):
            save_plan(tmp_path / "x.npz", object())

    def test_version_mismatch_rejected(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        contents["format_version"] = np.int64(FORMAT_VERSION + 1)
        np.savez_compressed(path, **contents)
        with pytest.raises(ValidationError):
            load_plan(path)

    def test_corrupted_schedule_detected(self, plan, tmp_path):
        """A tampered s array must fail verification at load."""
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        s1 = contents["op0.s"].copy()
        s1[0, 0], s1[0, 1] = s1[0, 1], s1[0, 0]
        contents["op0.s"] = s1
        np.savez_compressed(path, **contents)
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            load_plan(path)


class TestAtomicWrite:
    def test_failed_save_over_a_plan_keeps_the_old_file(
        self, plan, tmp_path, monkeypatch
    ):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        before = path.read_bytes()
        real = np.lib.format.write_array
        written = []

        def fail_after_first_member(*args, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array",
                            fail_after_first_member)
        other = ScheduledPermutation.plan(
            random_permutation(256, seed=6), width=4
        )
        with pytest.raises(OSError, match="disk full"):
            save_plan(path, other)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert np.array_equal(load_plan(path).p, plan.p)
        assert [f.name for f in tmp_path.iterdir()] == ["plan.npz"]

    def test_crash_before_replace_leaves_the_old_plan(self, plan, tmp_path):
        """A writer killed between its temporary write and
        ``os.replace`` leaves the old plan readable, and a later save
        to the same path succeeds."""
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        child = (
            "import os, sys\n"
            "from repro.core.io import save_plan\n"
            "from repro.core.scheduled import ScheduledPermutation\n"
            "from repro.permutations.named import random_permutation\n"
            "def killed(src, dst):\n"
            "    assert os.path.getsize(src) > 0\n"
            "    os._exit(17)\n"
            "os.replace = killed\n"
            "save_plan(sys.argv[1], ScheduledPermutation.plan(\n"
            "    random_permutation(256, seed=6), width=4))\n"
            "os._exit(1)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", child, str(path)],
                              env=env, timeout=120)
        assert done.returncode == 17
        leftovers = [f.name for f in tmp_path.iterdir()
                     if f.name != "plan.npz"]
        assert len(leftovers) == 1 and leftovers[0].endswith(".tmp")
        assert np.array_equal(load_plan(path).p, plan.p)
        other = ScheduledPermutation.plan(
            random_permutation(256, seed=6), width=4
        )
        save_plan(path, other)
        assert np.array_equal(load_plan(path).p, other.p)


def _rewrite(path, mutate):
    with np.load(path) as data:
        contents = {k: data[k] for k in data.files}
    mutate(contents)
    np.savez_compressed(path, **contents)


class TestCertificate:
    def test_certificate_roundtrips(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        assert plan.certificate is not None and plan.certificate.ok
        loaded = load_plan(path)
        cert = loaded.certificate
        assert cert is not None and cert.ok
        assert cert.num_rounds == 32
        assert cert.rounds == plan.certificate.rounds

    def test_certify_false_omits_certificate(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan, certify=False)
        with np.load(path) as data:
            assert "certificate" not in data.files
        assert load_plan(path).certificate is None

    def test_certificate_bound_to_payload(self, plan, tmp_path):
        # Splicing a certificate from one file into another must fail:
        # the embedded plan_sha no longer matches the payload checksum.
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        save_plan(a, plan)
        other = ScheduledPermutation.plan(
            random_permutation(256, seed=6), width=4
        )
        save_plan(b, other)
        with np.load(a) as data:
            stolen = data["certificate"]
        _rewrite(b, lambda c: c.update(certificate=stolen))
        with pytest.raises(PlanCorruptionError, match="belong together"):
            load_plan(b)

    def test_malformed_certificate_rejected(self, plan, tmp_path):
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        _rewrite(
            path, lambda c: c.update(certificate=np.str_("{not json"))
        )
        with pytest.raises(PlanCorruptionError):
            load_plan(path)

    def test_refuses_to_save_conflicted_plan(self, plan, tmp_path):
        import dataclasses

        bad_s = plan.step1.s.copy()
        bad_s[0, 1] = bad_s[0, 0]
        bad = dataclasses.replace(
            plan, step1=dataclasses.replace(plan.step1, s=bad_s)
        )
        from repro.errors import CertificateError
        with pytest.raises(CertificateError, match="refusing to save"):
            save_plan(tmp_path / "bad.npz", bad)
        # certify=False is the explicit escape hatch for such plans —
        # but load still notices the schedule is broken.
        save_plan(tmp_path / "bad2.npz", bad, certify=False)
        with pytest.raises(PlanCorruptionError):
            load_plan(tmp_path / "bad2.npz")


class TestLoadedPlanIsTheStoredProgram:
    """``load_plan`` proves the engine it returns, and that engine
    lowers to exactly the program its file stores."""

    def test_forged_transpose_arrangement_refused(self, plan, tmp_path):
        """A file whose transposes claim the naive shared arrangement,
        re-checksummed with both certificates re-bound, must not load
        as a plan with diagonal transposes: the rebuilt plan is
        re-certified and its conflicts refuse the file."""
        import json

        from repro.core.io import plan_checksum

        path = tmp_path / "plan.npz"
        save_plan(path, plan)

        def forge(contents):
            contents["op1.diagonal"] = np.bool_(False)
            contents["op3.diagonal"] = np.bool_(False)
            checksum = plan_checksum(contents)
            contents["checksum"] = np.str_(checksum)
            for key in ("certificate", "semantic_certificate"):
                cert = json.loads(str(contents[key]))
                cert["plan_sha"] = checksum
                contents[key] = np.str_(json.dumps(cert))

        _rewrite(path, forge)
        with pytest.raises(PlanCorruptionError, match="conflict-free"):
            load_plan(path)

    def test_certificate_on_an_uncertifiable_engine_refused(
        self, plan, tmp_path
    ):
        import json

        from repro.ir.registry import get_engine

        source, target = tmp_path / "sched.npz", tmp_path / "d.npz"
        save_plan(source, plan)
        save_plan(target, get_engine("d-designated").plan(plan.p, width=4))
        with np.load(source) as data:
            cert = json.loads(str(data["certificate"]))
        with np.load(target) as data:
            cert["plan_sha"] = str(data["checksum"])
        _rewrite(target, lambda c: c.update(
            certificate=np.str_(json.dumps(cert))
        ))
        with pytest.raises(PlanCorruptionError,
                           match="32-round certificate"):
            load_plan(target)

    def test_relabelled_op_refused(self, plan, tmp_path):
        from repro.core.io import plan_checksum

        path = tmp_path / "plan.npz"
        save_plan(path, plan, certify=False)

        def relabel(contents):
            contents["op1.label"] = np.str_("renamed")
            contents["checksum"] = np.str_(plan_checksum(contents))

        _rewrite(path, relabel)
        with pytest.raises(PlanCorruptionError, match="different program"):
            load_plan(path)


class TestProvenance:
    def test_roundtrip(self, plan, tmp_path):
        from repro.core.io import read_plan_provenance

        path = tmp_path / "plan.npz"
        save_plan(path, plan,
                  provenance={"pipeline": "default@v1(x)",
                              "fingerprint": "ab" * 32})
        assert read_plan_provenance(path) == {
            "pipeline": "default@v1(x)", "fingerprint": "ab" * 32,
        }
        # Provenance is advisory: the plan itself loads unchanged.
        loaded = load_plan(path)
        assert np.array_equal(loaded.p, plan.p)

    def test_absent_provenance_reads_empty(self, plan, tmp_path):
        from repro.core.io import read_plan_provenance

        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        assert read_plan_provenance(path) == {}

    def test_unknown_provenance_key_rejected(self, plan, tmp_path):
        with pytest.raises(ValidationError, match="wibble"):
            save_plan(tmp_path / "p.npz", plan,
                      provenance={"wibble": "x"})

    def test_partial_provenance_allowed(self, plan, tmp_path):
        from repro.core.io import read_plan_provenance

        path = tmp_path / "plan.npz"
        save_plan(path, plan, provenance={"pipeline": "default@v1(x)"})
        assert read_plan_provenance(path) == {
            "pipeline": "default@v1(x)"
        }

    def test_unreadable_file_raises_corruption(self, tmp_path):
        from repro.core.io import read_plan_provenance

        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"not a zip")
        with pytest.raises(PlanCorruptionError):
            read_plan_provenance(bad)

    def test_provenance_not_part_of_checksum(self, plan, tmp_path):
        # Two saves differing only in provenance still verify; the
        # checksum covers the payload, not the advisory metadata.
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        save_plan(a, plan)
        save_plan(b, plan, provenance={"pipeline": "p@v1(x)"})
        assert np.array_equal(load_plan(a).p, load_plan(b).p)
