"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestCost:
    def test_default(self, capsys):
        out = _run(capsys, "cost", "--n", "1024", "--width", "8",
                   "--latency", "10", "--dmms", "2")
        assert "d-designated" in out
        assert "scheduled" in out
        assert "lower bound" in out
        assert "D_w(P)" in out

    def test_double(self, capsys):
        out32 = _run(capsys, "cost", "--n", "1024", "--width", "8",
                     "--perm", "identical", "--dtype", "float32")
        out64 = _run(capsys, "cost", "--n", "1024", "--width", "8",
                     "--perm", "identical", "--dtype", "float64")
        assert out32 != out64    # doubles cost more

    def test_padded_odd_size(self, capsys):
        out = _run(capsys, "cost", "--n", "1000", "--width", "8",
                   "--perm", "random", "--padded")
        assert "scheduled" in out

    def test_all_named_permutations(self, capsys):
        for perm in ("identical", "shuffle", "random", "bit-reversal",
                     "transpose"):
            out = _run(capsys, "cost", "--n", "256", "--width", "4",
                       "--perm", perm, "--latency", "5")
            assert perm in out


class TestPlanVerify:
    def test_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "plan.npz")
        out = _run(capsys, "plan", "--perm", "random", "--n", "256",
                   "--width", "4", "--out", path)
        assert "saved to" in out
        out = _run(capsys, "verify-plan", path)
        assert "plan OK" in out
        assert "n = 256" in out

    def test_verify_reports_file_size_and_load_time(self, capsys,
                                                    tmp_path):
        import os

        path = str(tmp_path / "plan.npz")
        _run(capsys, "plan", "--perm", "random", "--n", "256",
             "--width", "4", "--out", path)
        out = _run(capsys, "verify-plan", path)
        assert f"file: {os.path.getsize(path)} bytes on disk" in out
        assert "loaded and verified in" in out
        assert " ms" in out

    def test_verify_reports_proofs_and_certificate(self, capsys,
                                                   tmp_path):
        path = str(tmp_path / "plan.npz")
        _run(capsys, "plan", "--perm", "random", "--n", "256",
             "--width", "4", "--out", path)
        out = _run(capsys, "verify-plan", path)
        assert ("proved on load: the rebuilt plan lowers to the stored "
                "program, which denotes the stored p, and all 32 rounds "
                "are conflict-free or coalesced") in out
        assert "certificate: 32 rounds certified" in out
        assert "bound to payload" in out

    def test_verify_without_certificate_says_so(self, capsys, tmp_path):
        from repro.core.io import save_plan
        from repro.core.scheduled import ScheduledPermutation
        from repro.permutations.named import random_permutation

        path = tmp_path / "plan.npz"
        save_plan(path, ScheduledPermutation.plan(
            random_permutation(256, seed=5), width=4
        ), certify=False)
        out = _run(capsys, "verify-plan", str(path))
        assert "certificate: none embedded" in out


class TestProfile:
    def test_phase_table_and_footer(self, capsys):
        out = _run(capsys, "profile", "bit-reversal", "--n", "1024",
                   "--width", "8")
        for phase in ("scheduled.plan", "plan_io.save", "plan_io.load",
                      "engine.apply", "scheduled.simulate"):
            assert phase in out
        assert "coloring.affine" in out       # colouring visible in tree
        assert "span counts:" in out
        assert "scheduled.plan = 1" in out
        assert "model: time" in out           # TraceMetrics footer

    def test_trace_out_is_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.telemetry import validate_chrome_trace

        path = tmp_path / "trace.json"
        out = _run(capsys, "profile", "bit-reversal", "--n", "1024",
                   "--width", "8", "--trace-out", str(path))
        assert "wrote Chrome trace" in out
        obj = json.loads(path.read_text())
        validate_chrome_trace(obj)
        names = {e["name"] for e in obj["traceEvents"]}
        for expected in ("scheduled.plan", "plan.decompose.coloring",
                         "engine.apply", "engine.seal", "plan_io.save",
                         "plan_io.load"):
            assert expected in names

    def test_events_out_round_trips(self, capsys, tmp_path):
        from repro.telemetry import read_jsonl

        path = tmp_path / "events.jsonl"
        out = _run(capsys, "profile", "bit-reversal", "--n", "1024",
                   "--width", "8", "--events-out", str(path))
        assert "wrote JSONL event log" in out
        events = read_jsonl(path)
        assert {e["type"] for e in events} == {"span"}

    def test_model_time_column_matches_simulate(self, capsys):
        out = _run(capsys, "profile", "bit-reversal", "--n", "1024",
                   "--width", "8", "--latency", "16", "--dmms", "4")
        from repro.core.scheduled import ScheduledPermutation
        from repro.machine.params import MachineParams
        from repro.permutations.named import bit_reversal

        expected = ScheduledPermutation.plan(
            bit_reversal(1024), width=8
        ).simulate(MachineParams(width=8, latency=16, num_dmms=4)).time
        assert f"model_time={expected}" in out


class TestTelemetryFlag:
    def test_cost_appends_summary(self, capsys):
        out = _run(capsys, "cost", "--n", "256", "--width", "4",
                   "--latency", "5", "--telemetry")
        assert "telemetry:" in out
        assert "span scheduled.plan = 1" in out
        assert "scheduled.plan" in out

    def test_demo_without_flag_has_no_summary(self, capsys):
        out = _run(capsys, "demo")
        assert "telemetry:" not in out


class TestVerifyPlanRejection:
    """A corrupt/unreadable plan exits 1 with a one-line diagnostic."""

    def _saved_plan(self, tmp_path):
        from repro.core.io import save_plan
        from repro.core.scheduled import ScheduledPermutation
        from repro.permutations.named import random_permutation

        path = tmp_path / "plan.npz"
        save_plan(path, ScheduledPermutation.plan(
            random_permutation(256, seed=5), width=4
        ))
        return path

    @pytest.mark.parametrize(
        "mode", ["bit-flip", "truncate", "delete-key", "stale-version"]
    )
    def test_corrupt_plan_exits_1(self, tmp_path, mode):
        from repro.resilience import FaultPlan

        path = self._saved_plan(tmp_path)
        FaultPlan(seed=9).corrupt_plan_file(path, mode)
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-plan", str(path)])
        # SystemExit with a string message == exit status 1.
        message = excinfo.value.code
        assert isinstance(message, str)
        assert message.startswith("verify-plan: REJECTED:")
        assert "\n" not in message
        assert str(path) in message

    @pytest.mark.parametrize(
        "mode", ["bit-flip", "truncate", "delete-key", "stale-version"]
    )
    def test_corrupt_sidecar_exits_1(self, tmp_path, mode):
        from repro.core.io import save_sealed
        from repro.ir.sealed import SealedProgram
        from repro.permutations.named import random_permutation
        from repro.resilience import FaultPlan

        path = tmp_path / "x.sealed.npz"
        save_sealed(path, SealedProgram(
            "scheduled", 4, random_permutation(256, seed=5)
        ))
        FaultPlan(seed=9).corrupt_plan_file(path, mode)
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-plan", str(path)])
        message = excinfo.value.code
        assert isinstance(message, str)
        assert message.startswith("verify-plan: REJECTED:")
        assert "\n" not in message
        assert str(path) in message

    def test_missing_file_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-plan", str(tmp_path / "nope.npz")])
        assert "REJECTED" in excinfo.value.code

    def test_good_plan_still_ok(self, capsys, tmp_path):
        path = self._saved_plan(tmp_path)
        out = _run(capsys, "verify-plan", str(path))
        assert "plan OK" in out


class TestCheck:
    def test_package_is_clean(self, capsys):
        out = _run(capsys, "check")
        assert "check OK" in out
        assert "REP101" in out

    def test_findings_exit_1(self, tmp_path):
        bad = tmp_path / "repro" / "apps" / "thing.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\n"
                       "x = np.zeros(4, dtype=np.int8)\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(bad)])
        message = excinfo.value.code
        assert isinstance(message, str)
        assert message.startswith("check: FAILED: 1 finding(s)")
        assert "REP103" in message

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "apps" / "thing.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\n"
                       "x = np.zeros(4, dtype=np.int8)\n")
        # Filtering to an unrelated rule turns the failure into a pass.
        out = _run(capsys, "check", str(bad), "--rule", "REP101")
        assert "check OK" in out

    def test_unknown_rule_exits_1(self):
        with pytest.raises(SystemExit):
            main(["check", "--rule", "REP999"])

    def test_missing_path_exits_1(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["check", str(tmp_path / "nope")])


def _count_denotations(monkeypatch):
    """Every ``denote_program`` call, including the semantic checker's."""
    import repro.staticcheck.semantics as semantics

    calls = []
    original = semantics.denote_program

    def counting(program):
        calls.append(program)
        return original(program)

    monkeypatch.setattr(semantics, "denote_program", counting)
    return calls


class TestCheckSemantics:
    """``check --semantics`` denotes the lowered program (the table,
    the pipeline's validation, the certificate) and nothing else: no
    default-pipeline rewrite applies to a five-kernel program."""

    def test_plan_file(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "plan.npz")
        _run(capsys, "plan", "--perm", "random", "--n", "1024",
             "--width", "8", "--out", path)
        calls = _count_denotations(monkeypatch)
        out = _run(capsys, "check", "--semantics", path)
        assert "denotation of" in out
        assert "check --semantics OK" in out
        # load_plan re-proves the stored program; the check denotes
        # the reloaded plan's lowering.
        assert len({id(program) for program in calls}) == 2

    def test_named_permutation(self, capsys, monkeypatch):
        calls = _count_denotations(monkeypatch)
        out = _run(capsys, "check", "--semantics", "bit-reversal",
                   "--n", "1024", "--width", "8")
        assert "check --semantics OK" in out
        assert len({id(program) for program in calls}) == 1


class TestFigures:
    def test_fig3(self, capsys):
        out = _run(capsys, "fig3", "--latency", "5")
        assert "warp W0" in out
        assert "t=7" in out       # DMM: 3 stages + 5 - 1

    def test_fig4(self, capsys):
        out = _run(capsys, "fig4")
        assert "[1,3]" in out     # the rotated second row

    def test_fig6_final_matrix_sorted(self, capsys):
        out = _run(capsys, "fig6")
        assert "After Step 3" in out
        final = out.strip().splitlines()[-4:]
        assert final[0].split() == ["(0,0)", "(0,1)", "(0,2)", "(0,3)"]
        assert final[3].split() == ["(3,0)", "(3,1)", "(3,2)", "(3,3)"]

    def test_fig6_input_matches_paper(self, capsys):
        out = _run(capsys, "fig6")
        lines = out.splitlines()
        start = lines.index("Input:") + 1
        assert lines[start].split() == ["(3,0)", "(3,1)", "(2,0)", "(2,1)"]
        assert lines[start + 1].split() == ["(0,1)", "(0,0)", "(0,3)", "(1,3)"]
        assert lines[start + 2].split() == ["(0,2)", "(1,2)", "(1,1)", "(3,2)"]
        assert lines[start + 3].split() == ["(1,0)", "(3,3)", "(2,3)", "(2,2)"]


class TestRecommend:
    def test_hard_permutation_gets_scheduled(self, capsys):
        out = _run(capsys, "recommend", "--perm", "bit-reversal",
                   "--n", "16384")
        assert "recommended engine: scheduled" in out
        assert "predicted time units" in out

    def test_easy_permutation_gets_conventional(self, capsys):
        out = _run(capsys, "recommend", "--perm", "identical",
                   "--n", "16384")
        assert "recommended engine: d-designated" in out

    def test_infeasible_size_explains(self, capsys):
        # n = 2048 is a multiple of 32 but not a valid square size.
        out = _run(capsys, "recommend", "--perm", "random", "--n", "2048")
        assert "infeasible" in out


class TestDemo:
    def test_demo_correct(self, capsys):
        out = _run(capsys, "demo")
        assert "correct = True" in out
        assert "speedup" in out


class TestRoundtripRows:
    def test_optimized_roundtrip_is_strictly_cheaper(self, capsys):
        out = _run(capsys, "cost", "--n", "1024", "--width", "8",
                   "--perm", "bit-reversal", "--roundtrip")
        assert "roundtrip raw" in out
        assert "roundtrip optimized" in out
        raw_row = next(line for line in out.splitlines()
                       if line.startswith("roundtrip raw"))
        opt_row = next(line for line in out.splitlines()
                       if line.startswith("roundtrip optimized"))
        raw_rounds = int(raw_row.split()[2])
        opt_rounds = int(opt_row.split()[2])
        assert opt_rounds < raw_rounds
        assert opt_rounds == 0   # full transpose-pair cancellation

    def test_roundtrip_with_padded(self, capsys):
        out = _run(capsys, "cost", "--n", "1000", "--width", "8",
                   "--perm", "random", "--padded", "--roundtrip")
        assert "roundtrip optimized" in out


class TestCacheDir:
    def test_cost_reports_cache_stats(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _run(capsys, "cost", "--n", "1024", "--width", "8",
                    "--cache-dir", cache)
        assert "1 cold plan(s)" in cold
        warm = _run(capsys, "cost", "--n", "1024", "--width", "8",
                    "--cache-dir", cache)
        assert "1 sealed hit(s)" in warm
        # Pricing needs the program, which the sealed handle re-plans
        # from the sidecar's scatter map.
        assert "1 cold plan(s)" in warm

    def test_plan_resolves_via_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        path = str(tmp_path / "plan.npz")
        cold = _run(capsys, "plan", "--perm", "bit-reversal",
                    "--n", "256", "--width", "4", "--out", path,
                    "--cache-dir", cache)
        assert "resolved via cold plan" in cold
        warm = _run(capsys, "plan", "--perm", "bit-reversal",
                    "--n", "256", "--width", "4", "--out", path,
                    "--cache-dir", cache)
        assert "resolved via sealed sidecar" in warm
        # The cache holds one sealed sidecar, which verifies on its own.
        (sidecar,) = (tmp_path / "cache").iterdir()
        assert sidecar.name.endswith(".sealed.npz")
        out = _run(capsys, "verify-plan", str(sidecar))
        assert out.startswith("sealed OK")
        assert "binding" not in out

    def test_profile_reports_cache_stats(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        out = _run(capsys, "profile", "random", "--n", "256",
                   "--width", "4", "--cache-dir", cache)
        assert "plan cache" in out
        assert "1 cold plan(s)" in out


class TestProvenance:
    def test_planned_file_carries_provenance(self, capsys, tmp_path):
        path = str(tmp_path / "plan.npz")
        _run(capsys, "plan", "--perm", "random", "--n", "256",
             "--width", "4", "--out", path)
        out = _run(capsys, "verify-plan", path)
        (line,) = [x for x in out.splitlines()
                   if x.startswith("provenance:")]
        assert line.startswith("provenance: fingerprint ")
        assert "pipeline" not in line

    def test_unstamped_file_says_none_recorded(self, capsys, tmp_path):
        from repro.core.io import save_plan
        from repro.core.scheduled import ScheduledPermutation
        from repro.permutations.named import random_permutation

        plan = ScheduledPermutation.plan(
            random_permutation(256, seed=0), width=4
        )
        path = tmp_path / "bare.npz"
        save_plan(path, plan)
        out = _run(capsys, "verify-plan", str(path))
        assert "provenance: none recorded" in out

    def test_older_sidecar_still_shows_its_pipeline(self, capsys):
        from pathlib import Path

        golden = (Path(__file__).parent / "data"
                  / "golden_sidecar.sealed.npz")
        out = _run(capsys, "verify-plan", str(golden))
        (line,) = [x for x in out.splitlines()
                   if x.startswith("provenance:")]
        assert line.startswith("provenance: fingerprint ")
        assert "; pipeline default@v1(" in line


class TestServeDemo:
    def test_serves_correctly_and_reports_stats(self, capsys):
        out = _run(capsys, "serve-demo", "--n", "256", "--width", "4",
                   "--requests", "2")
        assert "all outputs correct = True" in out
        assert "fingerprint" in out
        assert "warmed 3 plan(s)" in out
        assert "cold_plans" in out
        assert "memory_hits" in out

    def test_explicit_cache_dir_persists(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        _run(capsys, "serve-demo", "--n", "256", "--width", "4",
             "--requests", "1", "--cache-dir", cache)
        again = _run(capsys, "serve-demo", "--n", "256", "--width", "4",
                     "--requests", "1", "--cache-dir", cache)
        # Warm restarts resolve from the sealed sidecars.
        hits = next(line for line in again.splitlines()
                    if "sealed_hits" in line)
        assert hits.split()[-1] == "3"

    def test_concurrent_mode(self, capsys):
        out = _run(capsys, "serve-demo", "--concurrent",
                   "--n", "1024", "--width", "32",
                   "--requests", "20", "--clients", "2",
                   "--workers", "2")
        assert "concurrent serving core" in out
        assert "wrong answers  0" in out
        assert "availability >= 99% = True" in out
        assert "health:" in out
        assert "SERVING DEMO FAILED" not in out

    def test_concurrent_chaos_mode(self, capsys):
        out = _run(capsys, "serve-demo", "--concurrent", "--chaos",
                   "--n", "1024", "--width", "32",
                   "--requests", "60", "--clients", "3",
                   "--workers", "2")
        assert "chaos = True" in out
        assert "wrong answers  0" in out
        assert "all outputs correct = True" in out
        assert "cold plans while serving = 0" in out

    def test_chaos_requires_concurrent(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-demo", "--chaos"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_plan_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])


class TestShardFlag:
    def test_cost_with_d_appends_scaling_table(self, capsys):
        out = _run(capsys, "cost", "--n", "1024", "--width", "8",
                   "--perm", "bit-reversal", "--d", "4")
        assert "out-of-core sharding" in out
        assert "exchange time" in out
        for d in ("1", "2", "4", "8"):
            assert d in out

    def test_cost_without_d_has_no_table(self, capsys):
        out = _run(capsys, "cost", "--n", "1024", "--width", "8",
                   "--perm", "bit-reversal")
        assert "out-of-core sharding" not in out

    def test_profile_with_d_appends_scaling_table(self, capsys):
        out = _run(capsys, "profile", "bit-reversal", "--n", "1024",
                   "--width", "8", "--d", "2")
        assert "out-of-core sharding" in out

    def test_plan_with_d_stamps_and_verify_reports(self, capsys,
                                                   tmp_path):
        path = str(tmp_path / "plan.npz")
        out = _run(capsys, "plan", "--perm", "bit-reversal", "--n",
                   "256", "--width", "4", "--out", path, "--d", "4")
        assert "sharded at d = 4: proven" in out
        assert "shard fingerprint" in out
        out = _run(capsys, "verify-plan", path)
        assert "sharding: proven at d = 4" in out

    def test_plan_without_d_verify_says_nothing(self, capsys, tmp_path):
        path = str(tmp_path / "plan.npz")
        _run(capsys, "plan", "--perm", "bit-reversal", "--n", "256",
             "--width", "4", "--out", path)
        out = _run(capsys, "verify-plan", path)
        assert "sharding" not in out

    def test_plan_with_indivisible_d_exits_1(self, tmp_path):
        with pytest.raises(SystemExit, match="refused"):
            main(["plan", "--perm", "bit-reversal", "--n", "256",
                  "--width", "4", "--out",
                  str(tmp_path / "plan.npz"), "--d", "3"])
