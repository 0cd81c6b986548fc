"""Certifier unit tests: analysis primitives, verdicts, serialisation."""

import dataclasses

import numpy as np
import pytest

from repro.core.scheduled import ScheduledPermutation
from repro.errors import CertificateError, StaticCheckError
from repro.ir.rounds import program_rounds
from repro.permutations.named import bit_reversal, random_permutation
from repro.staticcheck import (
    CERTIFICATE_VERSION,
    Certificate,
    StaticRound,
    analyze_round,
    certify_plan,
    certify_rounds,
    global_group_counts,
    plan_rounds,
    shared_bank_multiplicities,
)


def corrupt_step1(plan, block=0, lane=1):
    """A copy of ``plan`` with one step-1 scatter address duplicated."""
    bad_s = plan.step1.s.copy()
    bad_s[block, lane] = bad_s[block, 0]
    return dataclasses.replace(
        plan, step1=dataclasses.replace(plan.step1, s=bad_s)
    )


class TestPrimitives:
    def test_identity_stream_is_conflict_free(self):
        addrs = np.arange(64)
        assert shared_bank_multiplicities(addrs, 8).tolist() == [1] * 8

    def test_constant_stream_max_multiplicity(self):
        addrs = np.zeros(16, dtype=np.int64)
        assert shared_bank_multiplicities(addrs, 8).tolist() == [8, 8]

    def test_same_bank_different_addresses_conflict(self):
        # 0 and 8 share bank 0 at width 8.
        addrs = np.array([0, 8, 2, 3, 4, 5, 6, 7])
        assert shared_bank_multiplicities(addrs, 8).tolist() == [2]

    def test_coalesced_stream_single_group(self):
        addrs = np.arange(64)
        assert global_group_counts(addrs, 8).tolist() == [1] * 8

    def test_strided_stream_counts_groups(self):
        # Stride-8 at width 8: every lane its own group.
        addrs = np.arange(8) * 8
        assert global_group_counts(addrs, 8).tolist() == [8]

    def test_permuted_within_group_still_coalesced(self):
        addrs = np.array([3, 1, 0, 2, 7, 5, 4, 6])
        assert global_group_counts(addrs, 8).tolist() == [1]

    def test_ragged_stream_rejected(self):
        with pytest.raises(StaticCheckError):
            shared_bank_multiplicities(np.arange(10), 8)

    def test_bad_width_rejected(self):
        with pytest.raises(StaticCheckError):
            global_group_counts(np.arange(8), 0)


class TestAnalyzeRound:
    def _round(self, addrs, space="shared", block=8):
        return StaticRound(
            kernel="k", index=0, space=space, kind="write", array="x",
            source=np.asarray(addrs, dtype=np.int64),
            block_size=block if space == "shared" else None,
        )

    def test_ok_round_has_no_counterexample(self):
        verdict, counter = analyze_round(self._round(np.arange(8)), 8)
        assert verdict.ok and counter is None
        assert verdict.classification == "conflict-free"
        assert verdict.stages == verdict.num_warps == 1

    def test_shared_counterexample_names_bank_and_lanes(self):
        verdict, counter = analyze_round(
            self._round([0, 8, 2, 3, 4, 5, 6, 7]), 8
        )
        assert not verdict.ok and verdict.classification == "casual"
        assert counter.bank == 0
        assert counter.lanes == (0, 1)
        assert counter.addresses == (0, 8)
        assert counter.block == 0
        assert "bank 0" in counter.describe()

    def test_global_counterexample_lists_groups(self):
        rnd = self._round(np.arange(8) * 8, space="global")
        verdict, counter = analyze_round(rnd, 8)
        assert not verdict.ok
        assert counter.groups == tuple(range(8))
        assert "coalescing requires one" in counter.describe()


class TestCertifyPlan:
    @pytest.fixture(scope="class")
    def plan(self):
        return ScheduledPermutation.plan(
            random_permutation(1024, seed=0), width=32
        )

    def test_sound_plan_certifies(self, plan):
        cert = certify_plan(plan)
        assert cert.ok and cert.conflict_free and cert.coalesced
        assert cert.num_rounds == 32
        assert cert.n == 1024 and cert.m == 32 and cert.width == 32
        assert "32 rounds certified" in cert.summary()

    def test_round_structure(self, plan):
        cert = certify_plan(plan)
        shared = [r for r in cert.rounds if r.space == "shared"]
        global_ = [r for r in cert.rounds if r.space == "global"]
        assert len(shared) == 16 and len(global_) == 16
        kernels = {r.kernel for r in cert.rounds}
        assert kernels == {
            "step1.rowwise", "step2.transpose-in", "step2.rowwise",
            "step2.transpose-out", "step3.rowwise",
        }
        assert [r.index for r in cert.rounds] == list(range(32))

    def test_bit_reversal_certifies(self):
        plan = ScheduledPermutation.plan(bit_reversal(1024), width=32)
        assert certify_plan(plan).ok

    def test_corrupted_schedule_produces_counterexample(self, plan):
        cert = certify_plan(corrupt_step1(plan))
        assert not cert.ok
        assert cert.coalesced          # only a shared round was broken
        assert not cert.conflict_free
        c = cert.counterexample
        assert c.kernel == "step1.rowwise" and c.round_index == 2
        assert c.space == "shared" and c.array == "x"
        assert "NOT conflict-free" in cert.summary()

    def test_first_counterexample_wins(self, plan):
        # Corrupt step1 and step3; the reported witness is step1's.
        bad = corrupt_step1(plan)
        bad_s3 = bad.step3.s.copy()
        bad_s3[0, 1] = bad_s3[0, 0]
        bad = dataclasses.replace(
            bad, step3=dataclasses.replace(bad.step3, s=bad_s3)
        )
        cert = certify_plan(bad)
        assert cert.counterexample.kernel == "step1.rowwise"
        casual = [r for r in cert.rounds if not r.ok]
        assert {r.kernel for r in casual} == {
            "step1.rowwise", "step3.rowwise",
        }


class TestSerialisation:
    @pytest.fixture(scope="class")
    def cert(self):
        plan = ScheduledPermutation.plan(
            random_permutation(256, seed=1), width=4
        )
        return certify_plan(plan)

    def test_roundtrip(self, cert):
        assert Certificate.from_json(cert.to_json()) == cert

    def test_roundtrip_with_counterexample(self):
        plan = corrupt_step1(
            ScheduledPermutation.plan(
                random_permutation(256, seed=2), width=4
            )
        )
        cert = certify_plan(plan)
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        assert again.counterexample == cert.counterexample

    def test_bound_to(self, cert):
        bound = cert.bound_to("abc123")
        assert bound.plan_sha == "abc123" and cert.plan_sha is None
        assert bound.rounds == cert.rounds

    def test_version_pinned(self, cert):
        payload = cert.to_dict()
        assert payload["version"] == CERTIFICATE_VERSION
        payload["version"] = 99
        with pytest.raises(CertificateError):
            Certificate.from_dict(payload)

    def test_malformed_json_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_json("not json at all {")

    def test_missing_keys_rejected(self):
        with pytest.raises(CertificateError):
            Certificate.from_dict({"version": CERTIFICATE_VERSION})


class TestCertifyRounds:
    def test_explicit_rounds(self):
        rounds = [
            StaticRound(
                kernel="k", index=0, space="global", kind="read",
                array="a", source=np.arange(16),
            ),
        ]
        cert = certify_rounds(rounds, width=4, n=16, m=4)
        assert cert.ok and cert.num_rounds == 1

    def test_plan_rounds_count(self):
        plan = ScheduledPermutation.plan(
            random_permutation(256, seed=3), width=4
        )
        rounds = plan_rounds(plan)
        assert len(rounds) == 32
        assert all(r.addresses.min() >= 0 for r in rounds)


class TestCertifyProgram:
    """IR-level certification: any regular program, not just scheduled."""

    def test_scheduled_program_certifies(self):
        plan = ScheduledPermutation.plan(
            random_permutation(256, seed=4), width=4
        )
        from repro.staticcheck import certify_program, program_rounds

        program = plan.lower()
        cert = certify_program(program)
        assert cert.ok and cert.num_rounds == 32
        assert len(program_rounds(program)) == 32
        # The IR path and the plan path prove the same rounds.
        assert cert.rounds == certify_plan(plan).rounds

    def test_dmm_scheduled_program_certifies(self):
        from repro.ir.registry import get_engine
        from repro.staticcheck import certify_program

        engine = get_engine("dmm-scheduled").plan(
            random_permutation(256, seed=4), width=4
        )
        cert = certify_program(engine.lower())
        assert cert.ok and cert.num_rounds == 4

    def test_irregular_program_refused(self):
        from repro.ir.ops import CasualWrite
        from repro.ir.program import KernelProgram
        from repro.staticcheck import certify_program

        p = random_permutation(16, seed=4)
        program = KernelProgram(
            engine="x", n=16, width=4,
            ops=(CasualWrite(label="cw", p=p),),
        )
        with pytest.raises(StaticCheckError, match="certifiable"):
            certify_program(program)

    def test_widthless_program_refused(self):
        from repro.ir.ops import GatherScatter
        from repro.ir.program import KernelProgram
        from repro.staticcheck import certify_program

        s = np.arange(16)
        program = KernelProgram(
            engine="x", n=16, width=0,
            ops=(GatherScatter(label="gs", s=s, t=s),),
        )
        with pytest.raises(StaticCheckError, match="width"):
            certify_program(program)


class TestOneAnalysisPerStream:
    """Rounds that share an address stream share one analysis.  A
    row-wise kernel's 8 rounds read 4 streams (the index array behind
    ``a``, ``s``, ``t`` and ``b``, then ``s``, ``tile`` and ``t``), a
    tiled transpose's 4 rounds read 4.  Only ``s`` and ``t`` depend on
    the permutation: the index array and ``tile`` are shared by the
    three row-wise kernels and the transpose streams by both
    transposes, and the shape memo keeps their regular verdicts."""

    N, W = 4096, 8                  # m = 64: 8 warps per row

    @pytest.fixture(scope="class")
    def plan(self):
        return ScheduledPermutation.plan(
            random_permutation(self.N, seed=5), width=self.W
        )

    @pytest.fixture
    def calls(self, monkeypatch):
        """Analyser calls by memory space, from an empty shape memo."""
        from repro.staticcheck import certifier

        certifier._SHAPE_MEMO.clear()
        calls = {"shared": 0, "global": 0}

        def counting(space, analyse):
            def wrapped(addresses, width):
                calls[space] += 1
                return analyse(addresses, width)
            return wrapped

        monkeypatch.setattr(
            certifier, "shared_bank_multiplicities",
            counting("shared", certifier.shared_bank_multiplicities),
        )
        monkeypatch.setattr(
            certifier, "global_group_counts",
            counting("global", certifier.global_group_counts),
        )
        return calls

    def test_32_rounds_take_12_analyses_then_6(self, plan, calls):
        cert = certify_plan(plan)
        # 6 s/t streams, the rows' index array and tile, and the 4
        # streams of a transpose.
        assert calls == {"shared": 9, "global": 3}
        assert cert.ok and cert.num_rounds == 32
        calls.update({"shared": 0, "global": 0})
        # The same shape again: only the 6 s/t streams.
        assert certify_plan(plan).to_json() == cert.to_json()
        assert calls == {"shared": 6, "global": 0}
        # Every round still gets the verdict of its own analysis.
        assert cert.rounds == tuple(
            analyze_round(rnd, self.W)[0] for rnd in plan_rounds(plan)
        )

    @pytest.mark.parametrize("n, w", [(1024, 8), (4096, 4)])
    def test_another_n_or_w_takes_its_own_analyses(self, plan, calls, n, w):
        certify_plan(plan)
        calls.update({"shared": 0, "global": 0})
        other = ScheduledPermutation.plan(random_permutation(n, seed=5),
                                          width=w)
        cert = certify_plan(other)
        assert calls == {"shared": 9, "global": 3}
        assert cert.rounds == tuple(
            analyze_round(rnd, w)[0] for rnd in plan_rounds(other)
        )

    def test_another_diagonal_takes_its_own_analyses(self, plan, calls):
        from repro.ir.ops import Transpose
        from repro.ir.program import KernelProgram
        from repro.staticcheck import certify_program

        certify_plan(plan)
        m = plan.m

        def transpose(diagonal):
            return KernelProgram("t", m * m, self.W, (Transpose(
                label="tr", m=m, width=self.W, diagonal=diagonal,
            ),))

        for diagonal, conflicts in ((False, [2]), (True, [])):
            calls.update({"shared": 0, "global": 0})
            program = transpose(diagonal)
            cert = certify_program(program)
            # The diagonal transpose's streams are the plan's.
            assert calls == (
                {"shared": 0, "global": 0} if diagonal
                else {"shared": 2, "global": 2}
            )
            assert [r.index for r in cert.rounds if not r.ok] == conflicts
            assert cert.rounds == tuple(
                analyze_round(rnd, self.W)[0]
                for rnd in program_rounds(program)
            )

    @pytest.mark.parametrize("array, round_index", [("s", 26), ("t", 29)])
    def test_planted_step3_conflict_is_refused_where_it_is(
        self, plan, array, round_index
    ):
        """Step 3's ``s`` and ``t`` each feed one shared write stream;
        a lane sent to another lane's bank is refused there alone."""
        block, lane, other = 5, 19, 17  # lanes 3 and 1 of warp 2
        bad = getattr(plan.step3, array).copy()
        bad[block, lane] = bad[block, other]
        cert = certify_plan(dataclasses.replace(
            plan, step3=dataclasses.replace(plan.step3, **{array: bad})
        ))
        assert [r.index for r in cert.rounds if not r.ok] == [round_index]
        c = cert.counterexample
        assert (c.kernel, c.round_index, c.space, c.kind) == (
            "step3.rowwise", round_index, "shared", "write"
        )
        warps_per_row = plan.m // self.W
        assert c.block == block
        assert c.warp == block * warps_per_row + lane // self.W
        assert c.lanes == (other % self.W, lane % self.W)
        assert c.bank == int(bad[block, other]) % self.W
