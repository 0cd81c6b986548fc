"""Smoke test of the benchmark harness, in ``--quick`` mode (< 60 s).

Not part of the tier-1 suite (which collects ``tests/`` only); run it
explicitly:

    PYTHONPATH=src python -m pytest benchmarks/harness/test_harness.py -q
"""

import pytest

from benchmarks.harness.cli import run_once
from benchmarks.harness.single import load_spec
from benchmarks.harness.workloads import WORKLOADS

SPEC = load_spec()


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "layers"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    out = run_once(workload, seed=3, seconds=None, trace=trace,
                   quick=True)
    assert out["returncode"] == 0, out["stderr"]
    result = out["result"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_a_corrupted_served_output_fails_the_run():
    out = run_once("serve-hot", seed=3, seconds=None, trace=False,
                   quick=True, corrupt=True)
    assert out["returncode"] != 0
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] > 1
