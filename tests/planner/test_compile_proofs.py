"""A cold compile proves two facts, on every planner: one denotation of
the raw program (a bijection equal to ``p``) and the 32-round
conflict-free/coalesced certificate.  Planning itself no longer
re-verifies colourings or re-routes ``p``; these tests seed each kind
of improper colouring ``docs/theory.md`` §8 argues about and check that
a proof (or the cheap row-permutation check) refuses it at compile, on
the memory path and the disk path alike, before anything is cached or
written."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import repro.coloring
import repro.coloring.verify
import repro.core.dmm_permutation
import repro.core.rowwise
import repro.core.scheduled
import repro.core.scheduler
import repro.passes.seal
import repro.staticcheck.certifier as certifier
import repro.staticcheck.semantics as semantics
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduled import ScheduledPermutation
from repro.core.scheduler import ThreeStepDecomposition
from repro.errors import (
    CertificateError,
    SchedulingError,
    SemanticValidationError,
)
from repro.permutations.affine import AffineMap
from repro.permutations.named import bit_reversal, random_permutation
from repro.planner import Planner

_N, _WIDTH = 1024, 8          # m = 32: per-row bank graphs of degree 4


def _swap_two_colours(graph, colors, side):
    """Swap the colours of two edges at the first ``side`` node whose
    edges reach two different nodes on the other side.  The node stays
    proper; both far endpoints now see a colour twice."""
    nodes, far = ((graph.left, graph.right) if side == "source"
                  else (graph.right, graph.left))
    for node in range(int(nodes.max()) + 1):
        edges = np.flatnonzero(nodes == node)
        other = edges[far[edges] != far[edges[0]]]
        if other.size:
            e1, e2 = int(edges[0]), int(other[0])
            swapped = colors.copy()
            swapped[[e1, e2]] = colors[[e2, e1]]
            return swapped
    raise AssertionError("no node with two distinct far endpoints")


def _mutate_colouring(monkeypatch, module, side):
    """Corrupt the first colouring ``module`` computes."""
    real = module.edge_coloring
    calls = []

    def mutant(graph):
        colors = real(graph)
        calls.append(graph)
        return (_swap_two_colours(graph, colors, side)
                if len(calls) == 1 else colors)

    monkeypatch.setattr(module, "edge_coloring", mutant)


def _mutate_gamma3(monkeypatch, mutate):
    real = repro.core.scheduled.decompose_checked

    def mutant(p):
        d = real(p)
        gamma3 = d.gamma3.copy()
        mutate(gamma3)
        return dataclasses.replace(d, gamma3=gamma3)

    monkeypatch.setattr(repro.core.scheduled, "decompose_checked", mutant)


def _wrong_entry(gamma3):
    gamma3[0, 0] = gamma3[0, 1]


def _swapped_entries(gamma3):
    gamma3[0, [0, 1]] = gamma3[0, [1, 0]]


#: name -> (install, the error a compile raises).  The error names the
#: check that refuses the mutant first.
MUTANTS = {
    # Destination rows see a colour twice: a colour class (a row of
    # delta) repeats a destination row.
    "global-source-row-swap": (
        lambda mp: _mutate_colouring(mp, repro.core.scheduler, "source"),
        SchedulingError,
    ),
    # Source rows see a colour twice: a row of gamma1 repeats a column.
    "global-destination-row-swap": (
        lambda mp: _mutate_colouring(mp, repro.core.scheduler,
                                     "destination"),
        SchedulingError,
    ),
    # Destination banks see a colour twice: two lanes of one warp
    # write one bank in step 3.
    "bank-source-side-swap": (
        lambda mp: _mutate_colouring(mp, repro.core.rowwise, "source"),
        CertificateError,
    ),
    # Source banks see a colour twice: s repeats a slot, so the kernel
    # does not route gamma.
    "bank-destination-side-swap": (
        lambda mp: _mutate_colouring(mp, repro.core.rowwise,
                                     "destination"),
        SemanticValidationError,
    ),
    "gamma3-wrong-entry": (
        lambda mp: _mutate_gamma3(mp, _wrong_entry),
        SchedulingError,
    ),
    # Still a row permutation, so only the denotation sees it.
    "gamma3-swapped-entries": (
        lambda mp: _mutate_gamma3(mp, _swapped_entries),
        SemanticValidationError,
    ),
}


def _swap_in_table(colors, left, right, side):
    """``_swap_two_colours`` on the graph with edges ``left -> right``,
    or ``None`` when no ``side`` node has two different far nodes."""
    graph = SimpleNamespace(
        left=np.unique(left, return_inverse=True)[1],
        right=np.unique(right, return_inverse=True)[1],
    )
    try:
        return _swap_two_colours(graph, colors, side)
    except AssertionError:
        return None


def _mutate_affine_global(monkeypatch, side):
    """Swap two colours in the colour table (``gamma1``) of the first
    closed-form decomposition; returns a list that records the firing.

    An affine plan's colours reach it only as arrays built from the
    colour map, so this is where a corrupted colouring can enter."""
    real = repro.core.scheduler._decompose_affine
    fired = []

    def mutant(q, m):
        d = real(q, m)
        h = m.bit_length() - 1
        i = np.arange(q.n, dtype=np.int64)
        swapped = (None if fired else _swap_in_table(
            d.colors, i >> h, q.index_map() >> h, side))
        if swapped is None:
            return d
        fired.append(repro.core.scheduler)
        return dataclasses.replace(d, gamma1=swapped.reshape(m, m),
                                   colors=swapped)

    monkeypatch.setattr(repro.core.scheduler, "_decompose_affine", mutant)
    return fired


def _mutate_affine_banks(monkeypatch, side):
    """Swap two colours (``s = colour·w + lane``) in the ``s`` array of
    the first closed-form row-wise schedule that admits a swap."""
    real = RowwiseSchedule._plan_affine
    fired = []

    def mutant(cls, gamma, values, width):
        schedule = real(gamma, values, width)
        if fired:
            return schedule
        rows, m = gamma.shape
        s = schedule.s.astype(np.int64).reshape(-1)
        row = np.repeat(np.arange(rows, dtype=np.int64) * width, m)
        lane = np.arange(rows * m, dtype=np.int64) % width
        swapped = _swap_in_table(s // width, row + lane,
                                 row + gamma.reshape(-1) % width, side)
        if swapped is None:
            return schedule
        fired.append(repro.core.rowwise)
        bad = (swapped * width + lane).astype(schedule.s.dtype)
        return dataclasses.replace(schedule, s=bad.reshape(rows, m))

    monkeypatch.setattr(RowwiseSchedule, "_plan_affine",
                        classmethod(mutant))
    return fired


def _naive_colour_map(monkeypatch, module):
    """Replace ``module``'s closed-form colouring by an affine one that
    is proper at every source node only: the colour of edge ``i`` is
    its index bits outside the left mask, so a left node sees each
    colour once, a right node need not."""
    fired = []

    def naive(q, left_mask, right_mask):
        fired.append(module)
        free = [k for k in range(len(q.columns)) if not left_mask >> k & 1]
        columns = [0] * len(q.columns)
        for j, k in enumerate(free):
            columns[k] = 1 << j
        return AffineMap(tuple(columns), 0)

    monkeypatch.setattr(module, "affine_colour_map", naive)
    return fired


#: The closed-form colourings of a bit-reversal plan, corrupted as the
#: Euler colourings are above.  A swap lands in one array only, which
#: then disagrees with the arrays built from the true colour map, so
#: the denotation refuses every swap: the closed-form route finds the
#: array not affine and the walk finds ``t[s] != gamma``.  An affine
#: colouring that is improper at the destinations leaves a singular
#: ``row(p(i))·m + colour(i)`` map for the global graph (the plan
#: refuses it) and a bank conflict for a bank graph (the certifier
#: refuses it).
AFFINE_MUTANTS = {
    "affine-global-source-row-swap": (
        lambda mp: _mutate_affine_global(mp, "source"),
        SemanticValidationError,
    ),
    "affine-global-destination-row-swap": (
        lambda mp: _mutate_affine_global(mp, "destination"),
        SemanticValidationError,
    ),
    "affine-bank-source-side-swap": (
        lambda mp: _mutate_affine_banks(mp, "source"),
        SemanticValidationError,
    ),
    "affine-bank-destination-side-swap": (
        lambda mp: _mutate_affine_banks(mp, "destination"),
        SemanticValidationError,
    ),
    "affine-global-improper-at-destinations": (
        lambda mp: _naive_colour_map(mp, repro.core.scheduler),
        SchedulingError,
    ),
    "affine-bank-improper-at-destinations": (
        lambda mp: _naive_colour_map(mp, repro.core.rowwise),
        CertificateError,
    ),
}


@pytest.fixture
def p():
    return random_permutation(_N, seed=3)


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_refused_at_compile(mutant, disk, p, tmp_path,
                                   monkeypatch):
    install, error = MUTANTS[mutant]
    install(monkeypatch)
    planner = Planner(cache_dir=tmp_path if disk else None)
    with pytest.raises(error):
        planner.compile(p, width=_WIDTH)
    assert planner.stats()["memory_entries"] == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
@pytest.mark.parametrize("mutant", sorted(AFFINE_MUTANTS))
def test_affine_mutant_refused_at_compile(mutant, disk, tmp_path,
                                          monkeypatch):
    install, error = AFFINE_MUTANTS[mutant]
    fired = install(monkeypatch)
    planner = Planner(cache_dir=tmp_path if disk else None)
    with pytest.raises(error) as refused:
        planner.compile(bit_reversal(_N), width=_WIDTH)
    assert fired
    if error is SemanticValidationError:
        detail = refused.value.certificate.counterexample.detail
        assert "does not route gamma" in detail
    assert planner.stats()["memory_entries"] == 0
    assert list(tmp_path.iterdir()) == []


class TestEachCaseHasItsProof:
    """The case analysis of ``docs/theory.md`` §8, one proof at a time:
    the mutant plans, and the named proof alone refuses it."""

    def test_improper_source_bank_refused_by_denotation(
        self, p, monkeypatch
    ):
        _mutate_colouring(monkeypatch, repro.core.rowwise, "destination")
        plan = ScheduledPermutation.plan(p, width=_WIDTH)
        den = semantics.denote_program(plan.lower())
        assert not den.ok
        assert "does not route gamma" in den.failure.detail
        s = plan.step1.s
        assert any(np.unique(row).size < row.size for row in s)

    def test_improper_destination_bank_refused_by_certifier_only(
        self, p, monkeypatch
    ):
        _mutate_colouring(monkeypatch, repro.core.rowwise, "source")
        plan = ScheduledPermutation.plan(p, width=_WIDTH)
        den = semantics.denote_program(plan.lower())
        assert den.ok and np.array_equal(den.index_map, p)
        cert = certifier.certify_plan(plan)
        assert not cert.ok and not cert.conflict_free
        assert cert.counterexample.kernel == "step1.rowwise"

    @pytest.mark.parametrize("side", ["source", "destination"])
    def test_improper_global_colouring_refused_by_row_check(
        self, side, p, monkeypatch
    ):
        _mutate_colouring(monkeypatch, repro.core.scheduler, side)
        with pytest.raises(SchedulingError, match="permutation"):
            ScheduledPermutation.plan(p, width=_WIDTH)

    def test_misrouting_gamma3_refused_by_denotation_only(
        self, p, monkeypatch
    ):
        _mutate_gamma3(monkeypatch, _swapped_entries)
        plan = ScheduledPermutation.plan(p, width=_WIDTH)
        assert certifier.certify_plan(plan).ok
        den = semantics.denote_program(plan.lower())
        assert den.ok and not np.array_equal(den.index_map, p)
        with pytest.raises(SchedulingError):
            plan.decomposition.route(p)


def _count(monkeypatch, owners, name):
    """Count calls to ``name`` through every module in ``owners`` that
    holds a reference to it."""
    calls = []
    real = getattr(owners[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_cold_compile_runs_exactly_two_proofs(disk, p, tmp_path,
                                              monkeypatch):
    denotations = _count(monkeypatch, (semantics, repro.passes.seal),
                         "denote_program")
    certificates = _count(monkeypatch, (certifier,), "certify_plan")
    colourings = _count(
        monkeypatch,
        (repro.coloring.verify, repro.coloring,
         repro.core.dmm_permutation),
        "verify_edge_coloring",
    )
    routes = _count(monkeypatch, (ThreeStepDecomposition,), "route")
    planner = Planner(cache_dir=tmp_path if disk else None)
    compiled = planner.compile(p, width=_WIDTH)
    assert planner.stats()["cold_plans"] == 1
    assert (len(denotations), len(certificates)) == (1, 1)
    assert (len(colourings), len(routes)) == (0, 0)
    a = np.arange(_N, dtype=np.float32)
    expected = np.empty_like(a)
    expected[p] = a
    assert np.array_equal(compiled.apply(a), expected)


def _affine_but_wrong(program, gamma_bit, t_bit):
    """Step 3 of ``program`` with ``gamma ^ gamma_bit`` and ``t ^
    t_bit``: every array stays affine."""
    ops = list(program.ops)
    op = ops[4]
    ops[4] = dataclasses.replace(op, gamma=op.gamma ^ gamma_bit,
                                 t=op.t ^ t_bit)
    return dataclasses.replace(program, ops=tuple(ops))


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
@pytest.mark.parametrize("gamma_bit, t_bit, stage", [
    (0, 1, "denotation"),     # t∘s != gamma
    (1, 1, "requested"),      # t∘s == gamma, the composition != p
], ids=["t-after-s-not-gamma", "composition-not-p"])
def test_affine_but_wrong_lowering_refused_with_the_walks_counterexample(
    gamma_bit, t_bit, stage, disk, tmp_path, monkeypatch
):
    p = bit_reversal(_N)
    real = ScheduledPermutation.lower
    monkeypatch.setattr(
        ScheduledPermutation, "lower",
        lambda self: _affine_but_wrong(real(self), gamma_bit, t_bit),
    )
    planner = Planner(cache_dir=tmp_path if disk else None)
    with pytest.raises(SemanticValidationError) as refused:
        planner.compile(p, width=_WIDTH)
    assert list(tmp_path.iterdir()) == []
    got = refused.value.certificate
    assert got.counterexample.stage == stage
    program = ScheduledPermutation.plan(p, width=_WIDTH).lower()
    monkeypatch.setattr(semantics, "_denote_affine", lambda program: None)
    walked = semantics.validate_translation(program, program, requested=p)
    assert got.to_dict() == walked.to_dict()
