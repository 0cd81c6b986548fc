"""Tests for the all-in-one smoke report."""

from repro.report import _CHECKS, run_report


def test_report_passes():
    text, ok = run_report()
    assert ok
    assert text.count("PASS") == len(_CHECKS)
    assert "FAIL" not in text


def test_report_times_every_check():
    text, _ok = run_report()
    pass_lines = [line for line in text.splitlines()
                  if line.startswith("  PASS")]
    assert len(pass_lines) == len(_CHECKS)
    for line in pass_lines:
        assert line.rstrip().endswith("ms]")


def test_report_footer_has_slowest_check_and_counters():
    text, _ok = run_report()
    assert "slowest check:" in text
    assert "ms total)" in text
    assert "telemetry:" in text
    assert "scheduled.plan=" in text


def test_report_covers_every_artefact_class():
    labels = " ".join(label for label, _ in _CHECKS)
    for artefact in ("Table I", "Table II", "Table III", "Figure 3",
                     "Figure 4", "Figure 6"):
        assert artefact in labels


def test_cli_report(capsys):
    from repro.cli import main

    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "all claims verified" in out
