"""Partial, single-shift, and sequential placement through invariant
subspaces, plus the planning helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from poleplace import (
    AssignmentPlan,
    Spectrum,
    StateSpace,
    eigenvalues,
    paired_plan,
    place_ackermann,
    place_partial,
    place_sequential,
    place_simon_mitter,
)
from poleplace.errors import (
    InvariantEigenvalueError,
    MatchingError,
    RankDeficiencyError,
    ValidationError,
)
from poleplace import linalg, subspace
from poleplace.cli import _dense_system, _draw_targets
from poleplace.linalg import condition_number, real_schur
from poleplace.placement import controllability_matrix
from poleplace.subspace import plan_targets
from poleplace.verify import spectrum_distance


def diag_system():
    return StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 1.0])


def random_controllable(rng, n):
    for _ in range(50):
        sys = StateSpace(A=rng.uniform(-1, 1, (n, n)), b=rng.uniform(-1, 1, n))
        if abs(np.linalg.det(controllability_matrix(sys))) > 1e-4:
            return sys
    raise AssertionError("no controllable draw")


def closed(sys, k):
    return sys.A + np.outer(sys.b, k)


# ---------------------------------------------------------------------------
# place_partial


def test_partial_moves_first_eigenvalue():
    gain = place_partial(diag_system(), [1.0], [-5.0])
    assert_allclose(gain.k, [-6.0, 0.0], atol=1e-12)
    assert gain.method == "partial"
    assert gain.diagnostics.step_kappas == (1.0,)
    assert spectrum_distance(
        eigenvalues(closed(diag_system(), gain.k)), Spectrum([-5.0, 2.0])
    ) <= 1e-10


def test_partial_moves_second_eigenvalue():
    gain = place_partial(diag_system(), [2.0], [-3.0])
    assert_allclose(gain.k, [0.0, -5.0], atol=1e-12)


def test_partial_keeps_the_rest():
    rng = np.random.default_rng(211)
    done = 0
    while done < 10:
        sys = random_controllable(rng, 6)
        spec = list(eigenvalues(sys.A))
        reals = [z for z in spec if z.imag == 0.0]
        if not reals:
            continue
        move = [max(reals, key=lambda z: z.real)]
        kept = list(Spectrum(spec).minus(Spectrum(move)))
        gain = place_partial(sys, move, [-4.0])
        want = Spectrum(kept + [-4.0])
        assert spectrum_distance(eigenvalues(closed(sys, gain.k)), want) <= 1e-6
        assert gain.diagnostics.charpoly_residual is not None
        done += 1


def test_partial_moving_everything_matches_full_placement():
    rng = np.random.default_rng(223)
    for _ in range(5):
        sys = random_controllable(rng, 4)
        targets = Spectrum(sorted(rng.uniform(-3, -0.5, 4)))
        gain = place_partial(sys, eigenvalues(sys.A), targets)
        ref = place_ackermann(sys, targets)
        scale = max(1.0, float(np.max(np.abs(ref.k))))
        assert np.max(np.abs(gain.k - ref.k)) <= 1e-6 * scale


def test_partial_moves_complex_pair():
    A = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    sys = StateSpace(A=A, b=[1.0, 1.0, 1.0])
    gain = place_partial(sys, [2j, -2j], [-1 + 1j, -1 - 1j])
    want = Spectrum([-1 + 1j, -1 - 1j, -1.0])
    assert spectrum_distance(eigenvalues(closed(sys, gain.k)), want) <= 1e-8


def test_partial_validates_sizes():
    with pytest.raises(ValidationError):
        place_partial(diag_system(), [1.0], [-1.0, -2.0])


def test_partial_rank_deficiency():
    # eigenvalue 3 is untouched by b, so the pair {2, 3} cannot be
    # assigned together
    sys = StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 0.0])
    with pytest.raises(RankDeficiencyError) as info:
        place_partial(sys, [2.0, 3.0], [-2.0, -3.0])
    assert "rank" in str(info.value)


# ---------------------------------------------------------------------------
# place_simon_mitter


def test_simon_mitter_shift():
    gain = place_simon_mitter(diag_system(), 1.0, -5.0)
    assert_allclose(gain.k, [-6.0, 0.0], atol=1e-12)
    assert gain.method == "simon_mitter"


def test_simon_mitter_null_shift_is_exact_zero():
    gain = place_simon_mitter(diag_system(), 2.0, 2.0)
    assert np.all(gain.k == 0.0)


def test_simon_mitter_rejects_complex():
    with pytest.raises(ValidationError):
        place_simon_mitter(diag_system(), 1j, -1.0)
    with pytest.raises(ValidationError):
        place_simon_mitter(diag_system(), 1.0, -1 + 1j)


def test_simon_mitter_invariant_eigenvalue():
    # b = 0 is orthogonal to every left eigenvector
    for b in ([0.0, 1.0], [0.0, 0.0]):
        sys = StateSpace(A=np.diag([1.0, 2.0]), b=b)
        with pytest.raises(InvariantEigenvalueError):
            place_simon_mitter(sys, 1.0, -5.0)


def test_one_value_steps_skip_the_condition_estimate(monkeypatch):
    # the r x r matrix of a one-value step is a nonzero scalar, whose
    # condition is exactly 1
    def refuse(*args, **kwargs):
        raise AssertionError("condition_number called")

    sizes = []

    def counted(A, *args, **kwargs):
        sizes.append(np.shape(A))
        return real_schur(A, *args, **kwargs)

    monkeypatch.setattr(subspace, "condition_number", refuse)
    monkeypatch.setattr(linalg, "real_schur", counted)
    monkeypatch.setattr(subspace, "real_schur", counted)
    sys = diag_system()
    assert place_partial(sys, [2.0], [-4.0]).diagnostics.step_kappas == (1.0,)
    assert place_simon_mitter(sys, 1.0, -5.0).diagnostics.step_kappas == (1.0,)
    sizes.clear()
    gain, _ = place_sequential(sys, AssignmentPlan((((1.0,), (-1.0,)), ((2.0,), (-3.0,)))))
    assert gain.diagnostics.step_kappas == (1.0, 1.0)
    # nor do they reduce their 1x1 leading block again
    assert sizes == [(2, 2)]


def test_simon_mitter_agrees_with_partial():
    rng = np.random.default_rng(227)
    done = 0
    while done < 10:
        sys = random_controllable(rng, 5)
        reals = [z.real for z in eigenvalues(sys.A) if z.imag == 0.0]
        if not reals:
            continue
        mu = max(reals)
        a = place_simon_mitter(sys, mu, -6.0)
        b = place_partial(sys, [mu], [-6.0])
        scale = max(1.0, float(np.max(np.abs(b.k))))
        assert np.max(np.abs(a.k - b.k)) <= 1e-6 * scale
        done += 1


# ---------------------------------------------------------------------------
# plans


def test_paired_plan_all_real_pairs_by_modulus():
    plan = paired_plan(
        StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 1.0]),
        [-1.0, -2.0, -3.0],
    )
    got = [(tuple(m), tuple(t)) for m, t in plan.groups]
    assert got == [((3.0,), (-3.0,)), ((2.0,), (-2.0,)), ((1.0,), (-1.0,))]


def test_paired_plan_pair_to_pair():
    A = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    plan = paired_plan(StateSpace(A=A, b=[1.0, 1.0, 1.0]), [-1 + 1j, -1 - 1j, -5.0])
    assert len(plan.groups) == 2
    assert plan.groups[0][1] == Spectrum([-1 + 1j, -1 - 1j])
    assert plan.groups[1][1] == Spectrum([-5.0])


def test_paired_plan_pair_onto_two_reals():
    A = np.array([[0.0, -2.0], [2.0, 0.0]])
    plan = paired_plan(StateSpace(A=A, b=[1.0, 0.0]), [-3.0, -4.0])
    assert len(plan.groups) == 1
    assert plan.groups[0][1] == Spectrum([-3.0, -4.0])


def test_paired_plan_two_reals_onto_pair():
    plan = paired_plan(diag_system(), [-1 + 1j, -1 - 1j])
    assert len(plan.groups) == 1
    assert plan.groups[0][0] == Spectrum([1.0, 2.0])


def test_paired_plan_groups_stay_small():
    rng = np.random.default_rng(229)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        sys = random_controllable(rng, n)
        vals = []
        while len(vals) < n:
            if n - len(vals) >= 2 and rng.uniform() < 0.5:
                z = complex(rng.uniform(-3, -0.5), rng.uniform(0.1, 2))
                vals += [z, z.conjugate()]
            else:
                vals.append(complex(rng.uniform(-3, -0.5)))
        plan = paired_plan(sys, vals)
        assert all(len(m) <= 2 for m, _ in plan.groups)
        assert sum(len(m) for m, _ in plan.groups) == n
        assert plan_targets(sys, plan) == Spectrum(vals)


def test_paired_plan_validates_count():
    with pytest.raises(ValidationError):
        paired_plan(diag_system(), [-1.0])


def test_plan_targets_replay():
    sys = diag_system()
    plan = AssignmentPlan((((1.0,), (-1.0,)), ((2.0,), (-3.0,))))
    assert plan_targets(sys, plan) == Spectrum([-1.0, -3.0])


def test_plan_targets_later_group_can_remove_placed_value():
    cases = [
        (
            diag_system(),
            AssignmentPlan((((1.0,), (-1.0,)), ((-1.0,), (-4.0,)))),
            Spectrum([-4.0, 2.0]),
        ),
        (
            StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 1.0]),
            AssignmentPlan((
                ((1.0,), (-1.0,)),
                ((-1.0, 2.0), (-4 + 1j, -4 - 1j)),
                ((3.0,), (-2.0,)),
            )),
            Spectrum([-4 + 1j, -4 - 1j, -2.0]),
        ),
    ]
    for sys, plan, want in cases:
        assert plan_targets(sys, plan) == want
        gain, _ = place_sequential(sys, plan)
        assert gain.diagnostics.charpoly_residual <= 1e-8
        assert spectrum_distance(eigenvalues(closed(sys, gain.k)), want) <= 1e-8


def test_assignment_plan_validation():
    with pytest.raises(ValidationError):
        AssignmentPlan((((), ()),))
    with pytest.raises(ValidationError):
        AssignmentPlan((((1.0,), (-1.0, -2.0)),))


# ---------------------------------------------------------------------------
# place_sequential


def test_sequential_two_real_steps():
    sys = diag_system()
    plan = AssignmentPlan((((1.0,), (-1.0,)), ((2.0,), (-3.0,))))
    gain, records = place_sequential(sys, plan)
    assert_allclose(gain.k, [8.0, -15.0], atol=1e-10)
    assert gain.method == "sequential"
    assert [r.step for r in records] == [1, 2]
    assert_allclose(records[0].gain, [-2.0, 0.0], atol=1e-12)
    assert_allclose(records[1].gain, [10.0, -15.0], atol=1e-10)
    assert spectrum_distance(records[0].spectrum_after, Spectrum([-1.0, 2.0])) <= 1e-10
    assert spectrum_distance(records[1].spectrum_after, Spectrum([-1.0, -3.0])) <= 1e-10
    assert gain.diagnostics.step_kappas == (1.0, 1.0)
    assert gain.diagnostics.charpoly_residual <= 1e-8


def test_sequential_record_shapes():
    sys = diag_system()
    plan = AssignmentPlan((((1.0,), (-1.0,)),))
    _, records = place_sequential(sys, plan)
    rec = records[0]
    assert rec.basis.shape == (2, 1)
    assert rec.compression.shape == (1, 1)
    assert rec.selector.shape == (1,)
    assert rec.gain.shape == (2,)
    assert rec.kappa >= 1.0
    assert len(rec.spectrum_after) == 2


def test_sequential_paired_plan_lands_on_targets():
    rng = np.random.default_rng(233)
    done = 0
    while done < 8:
        n = int(rng.integers(3, 8))
        sys = random_controllable(rng, n)
        targets = Spectrum([complex(v) for v in sorted(rng.uniform(-3, -0.5, n))])
        plan = paired_plan(sys, targets)
        try:
            gain, records = place_sequential(sys, plan)
        except RankDeficiencyError:
            continue
        assert gain.diagnostics.charpoly_residual <= 1e-6
        assert spectrum_distance(eigenvalues(closed(sys, gain.k)), targets) <= 1e-5
        assert max(r.basis.shape[1] for r in records) <= 2
        assert gain.diagnostics.step_kappas == tuple(r.kappa for r in records)
        done += 1


def test_sequential_failure_carries_step_and_records():
    sys = StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 0.0])
    plan = AssignmentPlan((((1.0,), (-1.0,)), ((2.0, 3.0), (-2.0, -3.0))))
    with pytest.raises(RankDeficiencyError) as info:
        place_sequential(sys, plan)
    assert info.value.step == 2
    assert len(info.value.records) == 1
    assert info.value.records[0].step == 1


def test_sequential_unknown_move_fails_in_replay():
    sys = diag_system()
    plan = AssignmentPlan((((1.0,), (-1.0,)), ((5.0,), (-2.0,))))
    with pytest.raises(MatchingError):
        place_sequential(sys, plan)


def test_sequential_rejects_empty_plan():
    with pytest.raises(ValidationError):
        place_sequential(diag_system(), AssignmentPlan(()))


def test_sequential_kappa_is_condition_of_step_solve():
    sys = diag_system()
    plan = AssignmentPlan((((1.0,), (-1.0,)),))
    _, records = place_sequential(sys, plan)
    assert records[0].kappa == condition_number(np.array([[1.0]]))


@pytest.mark.parametrize("entropy", [[0, 16, 2], [0, 20, 4]], ids=["n16", "n20"])
def test_sequential_completes_on_compare_draws(entropy):
    # `compare --seed 0` draws; re-matching each step's group against a
    # recomputed closed-loop spectrum failed here at steps 9 and 10
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    sys, _, _ = _dense_system(rng, entropy[1])
    plan = paired_plan(sys, _draw_targets(rng, entropy[1]))
    gain, records = place_sequential(sys, plan)
    assert len(records) == len(plan.groups)
    assert gain.diagnostics.charpoly_residual <= 1e-6


def test_sequential_loop_takes_one_schur_form(monkeypatch):
    # the whole call, expected spectrum and closing diagnostics included,
    # takes the Schur form of A once; only the r x r leading blocks of the
    # steps are reduced again
    n = 8
    sizes = []

    def counted(A, *args, **kwargs):
        sizes.append(np.shape(A))
        return real_schur(A, *args, **kwargs)

    sys = random_controllable(np.random.default_rng(239), n)
    plan = paired_plan(sys, [-0.5 - 0.25 * i for i in range(n)])
    assert len(plan.groups) >= 4
    monkeypatch.setattr(linalg, "real_schur", counted)
    monkeypatch.setattr(subspace, "real_schur", counted, raising=False)
    gain, records = place_sequential(sys, plan)
    assert len(records) == len(plan.groups)
    assert sizes.count((n, n)) == 1
    assert gain.diagnostics.charpoly_residual <= 1e-6


def test_sequential_steps_freeze_the_blocks_they_do_not_move():
    # a step's reorder swaps only the blocks up to its last selected one and
    # its feedback touches only the leading block, so every block behind
    # them keeps its eigenvalues bitwise
    rng = np.random.default_rng(241)
    frozen = 0
    for n in (4, 7, 10, 13, 16):
        sys, _, _ = _dense_system(rng, n)
        plan = paired_plan(sys, _draw_targets(rng, n))
        _, records = place_sequential(sys, plan)
        tol = linalg._match_tol(sys.A)
        before = list(eigenvalues(sys.A))
        for (move, _), rec in zip(plan.groups, records):
            last = max(linalg._match_values(list(move), before, tol))
            tail = np.array(before[last + 1 :], dtype=complex)
            after = np.array(list(rec.spectrum_after), dtype=complex)
            assert after[len(after) - len(tail) :].tobytes() == tail.tobytes()
            frozen += len(tail)
            before = list(rec.spectrum_after)
    assert frozen >= 50
