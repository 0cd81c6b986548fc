"""The pipeline emits the spans and span attributes the profile
relies on."""

import numpy as np

from repro import telemetry
from repro.core.io import load_plan, save_plan
from repro.core.scheduled import ScheduledPermutation
from repro.machine.params import MachineParams
from repro.permutations.named import bit_reversal, random_permutation


def _run_pipeline(tmp_path):
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        plan = ScheduledPermutation.plan(bit_reversal(256), width=8)
        path = tmp_path / "plan.npz"
        save_plan(path, plan)
        plan = load_plan(path)
        plan.apply(np.arange(256.0, dtype=np.float32))
        trace = plan.simulate(
            MachineParams(width=8, latency=16, num_dmms=4)
        )
    return tracer, trace


def test_phase_spans_cover_the_pipeline(tmp_path):
    tracer, _trace = _run_pipeline(tmp_path)
    names = {s.name for s in tracer.spans}
    for expected in (
        "scheduled.plan", "plan.decompose", "plan.decompose.coloring",
        "coloring.affine", "scheduled.plan.step1", "scheduled.plan.step2",
        "scheduled.plan.step3", "plan_io.save", "plan_io.load",
        "plan_io.verify", "engine.apply", "engine.seal",
        "scheduled.simulate", "hmm.kernel",
    ):
        assert expected in names, f"missing span {expected!r}"
    # The first apply seals the plan inside its own span.
    (apply_span,) = tracer.find("engine.apply")
    (seal,) = tracer.find("engine.seal")
    assert seal.parent_id == apply_span.span_id


def test_model_time_attributes_match_trace(tmp_path):
    tracer, trace = _run_pipeline(tmp_path)
    (simulate,) = tracer.find("scheduled.simulate")
    assert simulate.attributes["model_time"] == trace.time
    assert simulate.attributes["model_rounds"] == trace.num_rounds
    # Kernel spans partition the same model time.
    kernel_time = sum(s.attributes["model_time"]
                     for s in tracer.find("hmm.kernel"))
    assert kernel_time == trace.time


def test_counters_cover_planning_and_io(tmp_path):
    tracer, _trace = _run_pipeline(tmp_path)
    counts = telemetry.span_counts(tracer)
    assert counts["scheduled.plan"] == 1
    assert counts["plan_io.save"] == 1
    assert counts["plan_io.load"] == 1
    assert counts["coloring.affine"] >= 1
    edges = sum(s.attributes["edges"] for s in tracer.find("coloring.affine"))
    assert edges >= 256


def test_coloring_spans_name_their_kernel():
    """Bit-reversal is coloured in closed form and a random permutation
    by the Euler split; both report under the same planner spans."""
    for p, kernel, leaf in (
        (bit_reversal(256), "affine", "coloring.affine"),
        (random_permutation(256, seed=0), "euler", "coloring.euler"),
    ):
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            ScheduledPermutation.plan(p, width=8)
        spans = [*tracer.find("plan.decompose.coloring"),
                 *tracer.find("rowwise.plan.coloring")]
        assert len(spans) == 4
        assert {s.attributes["kernel"] for s in spans} == {kernel}
        leaves = tracer.find(leaf)
        assert len(leaves) == 4
        assert {s.parent_id for s in leaves} == {s.span_id for s in spans}
        assert sum(s.attributes["edges"] for s in leaves) == 4 * 256


def test_rejected_load_is_counted(tmp_path):
    import pytest

    from repro.errors import PlanIntegrityError

    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a plan at all")
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        with pytest.raises(PlanIntegrityError):
            load_plan(path)
    rejected = [s for s in tracer.find("plan_io.load")
                if "error" in s.attributes]
    assert len(rejected) == 1
    (load_span,) = tracer.find("plan_io.load")
    assert "error" in load_span.attributes


def test_hmm_run_kernel_bridges_model_time():
    from repro.machine.hmm import HMM
    from repro.machine.requests import AccessRound, Kernel

    hmm = HMM(MachineParams(width=4, latency=5, num_dmms=2))
    kernel = Kernel(
        "probe",
        (AccessRound("global", "read", np.arange(8), "a"),),
        0,
    )
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        trace = hmm.run_kernel(kernel)
    (span,) = tracer.find("hmm.kernel")
    assert span.attributes["model_time"] == trace.time
    assert span.attributes["model_rounds"] == trace.num_rounds
    assert span.attributes["model_time"] == trace.time
