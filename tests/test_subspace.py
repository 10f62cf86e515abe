"""Partial, single-shift, and sequential placement through invariant
subspaces, plus the planning helpers."""

import dataclasses

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
    place_bass_gura,
    place_eigenpair,
    place_partial,
    place_sequential,
    place_simon_mitter,
)
from poleplace.errors import (
    AmbiguousMatchError,
    InvariantEigenvalueError,
    MatchingError,
    PolePlacementError,
    RankDeficiencyError,
    ValidationError,
)
from poleplace import linalg, placement, subspace
from poleplace.cli import _dense_system, _draw_targets
from poleplace.linalg import condition_number, max_abs, real_schur
from poleplace.subspace import plan_targets
from poleplace.verify import assemble_diagnostics, spectrum_distance


def diag_system():
    return StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 1.0])


def random_controllable(rng, n):
    for _ in range(50):
        sys = StateSpace(A=rng.uniform(-1, 1, (n, n)), b=rng.uniform(-1, 1, n))
        if abs(np.linalg.det(sys._controllability)) > 1e-4:
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


def _check_partial_keeps_unmoved(n, want, seed, assume):
    # one draw of the property below; ``assume`` rejects an invalid draw
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, n)
    spec = list(eigenvalues(A))
    gap = min(abs(spec[i] - spec[j]) for i in range(n) for j in range(i + 1, n))
    assume(gap >= 0.1)
    reps = list(rng.permutation([z for z in spec if z.imag >= 0.0]))
    moved = []
    for z in reps:
        if len(moved) >= min(want, n - 1):
            break
        moved += [z, z.conjugate()] if z.imag > 0.0 else [z]
    assume(len(moved) < n)
    to = [-1.5 - 0.35 * i for i in range(len(moved))]
    gain = place_partial(StateSpace(A, b), Spectrum(moved), Spectrum(to))
    with mpmath.workdps(30):
        M = mpmath.matrix([[mpmath.mpf(A[i, j]) + mpmath.mpf(b[i]) * mpmath.mpf(gain.k[j])
                            for j in range(n)] for i in range(n)])
        left = [complex(z) for z in mpmath.eig(M, left=False, right=False)]
    for z in Spectrum(spec).minus(Spectrum(moved)):
        near = min(range(len(left)), key=lambda i: abs(left[i] - z))
        assert abs(left.pop(near) - z) <= 1e-7


def test_partial_property_keeps_unmoved_eigenvalues():
    # criterion 3 over drawn systems: the eigenvalues a partial placement
    # does not move stay within 1e-7 in the closed loop.  The closed loop
    # A + b k^T is formed and solved in 30 digits: in doubles, its rounding
    # alone moves a kept eigenvalue by about eps kappa(lambda) |b| |k|,
    # which reached 3.6e-4 at |k| = 1.9e6 (n = 9, seed 1901877801) where
    # the exact closed loop is 2.4e-9 off
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pytest.importorskip("mpmath")

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.integers(3, 10), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def check(n, want, seed):
        _check_partial_keeps_unmoved(n, want, seed, hypothesis.assume)

    check()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 26: a kept eigenvalue with kappa(lambda) near 1e9 "
                          "drifts past the fixed 1e-7 bound")
@pytest.mark.parametrize("n, want, seed", [(10, 5, 442397033), (8, 6, 3585876319),
                                           (10, 6, 37399284), (9, 5, 30694),
                                           (10, 4, 517)])
def test_partial_property_recorded_draws(n, want, seed):
    # draws of the property above that break its bound, by 2.4e-6, 1.9e-7,
    # 1.1e-6, 1.2e-7 and 1.25e-7, so the known defect shows on every run
    def assume(valid):
        if not valid:
            pytest.fail("not a valid draw of the property")

    _check_partial_keeps_unmoved(n, want, seed, assume)


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
    with pytest.raises(ValidationError):
        place_partial(diag_system(), [], [])
    # more values than the system has is an input error, not a failed match
    with pytest.raises(ValidationError):
        place_partial(diag_system(), [1.0, 1.0, 2.0], [-1.0, -2.0, -3.0])


@pytest.mark.parametrize("method", ["partial", "simon-mitter", "sequential"])
def test_partial_diagnostics_score_the_plan_targets(method):
    # every group method scores its gain against plan_targets of its plan:
    # partial moves a pair, or a real when there is none, simon-mitter a
    # real, and sequential the pair and then the real
    rng = np.random.default_rng(229)
    scored = 0
    for _ in range(10):
        sys = random_controllable(rng, 6)
        spec = list(eigenvalues(sys.A))
        pairs = [z for z in spec if z.imag > 0.0]
        reals = [z for z in spec if z.imag == 0.0]
        groups = []
        if pairs and method != "simon-mitter":
            groups.append(([pairs[0], pairs[0].conjugate()], [-1 + 2j, -1 - 2j]))
        if reals and not (method == "partial" and groups):
            groups.append(([reals[0]], [-4.0]))
        if not groups:
            continue
        plan = AssignmentPlan(tuple(groups))
        if method == "partial":
            gain = place_partial(sys, *groups[0])
        elif method == "simon-mitter":
            gain = place_simon_mitter(sys, reals[0], -4.0)
        else:
            gain, _ = place_sequential(sys, plan)
        want = assemble_diagnostics(
            sys, gain.k, plan_targets(sys, plan),
            step_kappas=gain.diagnostics.step_kappas,
        )
        assert repr(gain.diagnostics) == repr(want)
        scored += 1
    assert scored >= 5


def test_partial_rank_deficiency():
    # eigenvalue 3 is untouched by b, so the pair {2, 3} cannot be
    # assigned together
    sys = StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 0.0])
    with pytest.raises(RankDeficiencyError) as info:
        place_partial(sys, [2.0, 3.0], [-2.0, -3.0])
    assert "rank" in str(info.value)


def test_small_steps_on_scalars_agree_with_the_matrix_route(monkeypatch):
    # a one- or two-value step solves, evaluates p(X) and estimates kappa
    # on Python floats, and calls none of the matrix routines the
    # placement core runs on the compressed pair (X, U^T b); it agrees
    # with the core to rounding, and refuses a rank-deficient step: a
    # zero U^T b at the omega^T b gate, two values with their rank
    rng = np.random.default_rng(257)
    cases = []
    for trial in range(300):
        r = 1 + trial % 2
        U = np.linalg.qr(rng.standard_normal((6, r)))[0]
        b = rng.uniform(-1, 1, 6)
        X = rng.uniform(-2, 2, (r, r))
        if r == 1:
            to = Spectrum([rng.uniform(-3, 0)])
        elif trial % 4 == 1:
            z = complex(rng.uniform(-3, 0), rng.uniform(0.1, 2))
            to = Spectrum([z, z.conjugate()])
        else:
            to = Spectrum(list(rng.uniform(-3, 0, 2)))
        cases.append((b, U, X, to))

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix routine was called")

    for name in ("krylov", "_factor", "_substitute", "eval_matrix", "monic_from_roots",
                 "condition_number"):
        monkeypatch.setattr(placement, name, refuse)
    got = [subspace._gain_on_split(*case) for case in cases]
    singular = []
    for b, r, error in (([1.0, 0.0], 2, RankDeficiencyError),
                        ([0.0, 1.0], 1, InvariantEigenvalueError)):
        with pytest.raises(error) as info:
            subspace._gain_on_split(np.array(b), np.eye(2)[:, :r], np.diag([1.0, 2.0])[:r, :r],
                                    Spectrum([-1.0, -2.0][:r]))
        singular.append(str(info.value))
    monkeypatch.undo()
    assert singular == [
        "controllability restricted to the moved subspace has rank 1 < 2; "
        "these eigenvalues cannot be assigned together",
        "omega^T b = 0.000e+00 is negligible against |omega||b| = 1.000e+00; "
        "this eigenvalue is invariant under feedback through b",
    ]
    for (b, U, X, to), (k, g, kappa) in zip(cases, got):
        r = len(X)
        step = StateSpace(X, U.T @ b)
        g_want = placement._row(step, to, to)
        # eta with C_X^T eta = e_r, the core's selector: the scale of g
        eta_want = linalg.solve_linear(step._controllability.T, np.eye(r)[r - 1])
        P = placement.eval_matrix(placement.monic_from_roots(to), X)
        kappa_want = step._kappa
        tol = 64 * linalg.EPS * kappa_want
        assert max_abs(g - g_want) <= tol * max_abs(P) * max_abs(eta_want)
        assert k.tobytes() == (U @ g).tobytes()
        if r == 1:
            assert kappa == 1.0
        else:
            assert abs(kappa - kappa_want) <= tol * kappa_want


def test_steps_of_more_than_two_values_run_the_placement_core():
    # an r > 2 step is placement._row on the compressed pair (X, U^T b),
    # with every target pulled: gain, row and kappa bitwise
    rng = np.random.default_rng(263)
    for trial in range(40):
        n, r = 4 + trial % 5, 3 + trial % 3
        r = min(r, n)
        U = np.linalg.qr(rng.standard_normal((n, r)))[0]
        b = rng.uniform(-1, 1, n)
        X = rng.uniform(-2, 2, (r, r))
        to = Spectrum(list(rng.uniform(-3, 0, r)))
        k, g, kappa = subspace._gain_on_split(b, U, X, to)
        step = StateSpace(X, U.T @ b)
        assert g.tobytes() == placement._row(step, to, to).tobytes()
        assert k.tobytes() == (U @ g).tobytes()
        assert kappa == step._kappa


def test_rank_deficient_step_carries_the_core_rank_estimate():
    # moving {2, 3, 4} of diag(1, 2, 3, 4) with b = (1, 1, 1, 0): b cannot
    # reach the mode at 4, and the compressed pair's controller-Hessenberg
    # form shows two controllable states
    sys = StateSpace(A=np.diag([1.0, 2.0, 3.0, 4.0]), b=[1.0, 1.0, 1.0, 0.0])
    with pytest.raises(RankDeficiencyError) as info:
        place_partial(sys, [2.0, 3.0, 4.0], [-2.0, -3.0, -4.0])
    assert "rank estimate 2 < 3" in str(info.value)
    assert info.value.step == 1 and info.value.records == ()


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


def test_simon_mitter_is_one_split_and_one_gate():
    # the Simon-Mitter gain is bitwise place_partial's one-value step; and
    # an omega orthogonal to b meets one gate, which Simon-Mitter and the
    # eigenpair method pass with the same message
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(1, 6), st.integers(0, 2**32 - 1),
                      st.floats(-4.0, 4.0))
    def check(n, seed, lam):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        reals = [z.real for z in eigenvalues(A) if z.imag == 0.0]
        hypothesis.assume(reals)
        mu = reals[0]
        try:
            u = linalg.invariant_split(A, [mu]).U[:, 0]
        except PolePlacementError as exc:
            with pytest.raises(type(exc)):
                place_simon_mitter(StateSpace(A, b), mu, lam)
            return
        gain = place_simon_mitter(StateSpace(A, b), mu, lam)
        partial = place_partial(StateSpace(A, b), [mu], [lam])
        assert gain.k.tobytes() == partial.k.tobytes()
        unreachable = StateSpace(A, b - (b @ u) * u)
        with pytest.raises(InvariantEigenvalueError) as shifted:
            place_simon_mitter(unreachable, mu, lam)
        with pytest.raises(InvariantEigenvalueError) as paired:
            place_eigenpair(unreachable, u, lam)
        assert str(shifted.value) == str(paired.value)

    check()


def test_one_value_steps_skip_the_condition_estimate(monkeypatch):
    # the r x r matrix of a one-value step is a nonzero scalar, whose
    # condition is exactly 1
    def refuse(*args, **kwargs):
        raise AssertionError("condition_number called")

    sizes = []

    def counted(A, *args, **kwargs):
        sizes.append(np.shape(A))
        return real_schur(A, *args, **kwargs)

    sys, fresh = diag_system(), diag_system()
    sys._kappa, fresh._kappa  # the diagnostics' kappa of C, stored per system
    monkeypatch.setattr(placement, "condition_number", refuse)
    monkeypatch.setattr(linalg, "real_schur", counted)
    monkeypatch.setattr(placement, "real_schur", counted)
    assert place_partial(sys, [2.0], [-4.0]).diagnostics.step_kappas == (1.0,)
    assert place_simon_mitter(sys, 1.0, -5.0).diagnostics.step_kappas == (1.0,)
    sizes.clear()
    # a fresh system: the open-loop form is taken once per system
    gain, _ = place_sequential(
        fresh, AssignmentPlan((((1.0,), (-1.0,)), ((2.0,), (-3.0,))))
    )
    assert gain.diagnostics.step_kappas == (1.0, 1.0)
    # nor do they reduce their 1x1 leading block again
    assert sizes == [(2, 2)]


def test_simon_mitter_lands_on_the_target_from_a_rounded_request():
    # mu1 = 1.0 matches the computed eigenvalue 1 + 3e-7 within the
    # matching tolerance; the shift starts from the computed value, so the
    # exactly formed closed loop has -4 to 1e-12, not -4 + 3e-7
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    A = Q @ np.diag([1.0 + 3e-7, -2.0, 0.5, 3.0]) @ Q.T
    b = rng.standard_normal(4)
    k = place_simon_mitter(StateSpace(A, b), 1.0, -4.0).k
    with mpmath.workdps(40):
        M = mpmath.matrix(A.tolist()) + mpmath.matrix(b.tolist()) * mpmath.matrix(k.tolist()).T
        landed = min(mpmath.eig(M, left=False, right=False), key=lambda z: abs(z + 4))
        assert abs(landed + 4) <= 1e-12


def test_one_value_step_that_b_cannot_reach_names_the_gate():
    # the ill-conditioned pool at n = 48 (A = Q diag(-u) Q^T, u uniform on
    # [0.5, 2], b standard normal, real targets on [-3, -1]): after 20
    # steps the carried form's U^T b is exactly 0 for the next value
    n = 48
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ Q.T
    b = rng.standard_normal(n)
    sys = StateSpace(A, b)
    with pytest.raises(InvariantEigenvalueError) as info:
        place_sequential(sys, paired_plan(sys, rng.uniform(-3.0, -1.0, n)))
    assert info.value.step == 21 and len(info.value.records) == 20
    assert str(info.value).startswith("omega^T b = 0.000e+00 is negligible")


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


def test_paired_plan_moves_a_jordan_pair_in_one_step():
    # the matcher cannot tell the two computed copies of a repeated
    # eigenvalue apart, so the plan moves them together
    sys = StateSpace(A=[[1.0, 1.0], [0.0, 1.0]], b=[0.0, 1.0])
    plan = paired_plan(sys, [-1.0, -2.0])
    assert [(tuple(m), tuple(t)) for m, t in plan.groups] == [((1.0, 1.0), (-2.0, -1.0))]
    gain, records = place_sequential(sys, plan)
    assert gain.k.tolist() == [-6.0, -5.0]
    assert len(records) == 1
    assert gain.diagnostics.charpoly_residual == 0.0


def test_paired_plan_moves_a_perturbed_jordan_pair_in_one_step():
    # the pair's computed eigenvalues 1 +- 1e-7 differ, and no invariant
    # subspace splits them; the plan merges them and the step's matcher
    # takes them as one cluster
    from families import JORDAN_PAIR

    A, b, targets = JORDAN_PAIR
    sys = StateSpace(A, b)
    plan = paired_plan(sys, targets)
    assert len(plan.groups) == 1 and plan.groups[0][1] == Spectrum(targets)
    gain, records = place_sequential(sys, plan)
    assert gain.k.tolist() == pytest.approx([-6.0, -5.0], rel=1e-14)
    assert len(records) == 1
    assert gain.diagnostics.charpoly_residual <= 2.3e-16


def test_sequential_on_the_jordan_family_never_finds_a_cluster_ambiguous():
    # perturbed Jordan blocks of size 2 and 3 (tests/families.py): the plan
    # and the matcher share one rule for values too close to tell apart,
    # so every draw places or ends in a typed error other than
    # AmbiguousMatchError, which 97 of seeds 0-599 raised under two rules
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from families import JORDAN_PAIR, jordan_family

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(jordan_family(st))
    @hypothesis.example(JORDAN_PAIR)
    def check(draw):
        A, b, targets = draw
        sys = StateSpace(A, b)
        try:
            gain, _ = place_sequential(sys, paired_plan(sys, targets))
        except PolePlacementError as exc:
            assert not isinstance(exc, AmbiguousMatchError), exc
        else:
            assert np.isfinite(gain.k).all()

    check()


@pytest.mark.parametrize("seed", [1060, 1195, 1238])
def test_close_family_gains_off_the_exact_gain_warn(seed):
    # close-family draws (tests/families.py) whose sequential gain is off
    # the exact gain by 1.6e-6, 1.5e-6 and 2.6e-6, with kappa(C) under the
    # 1e8 gate: the charpoly_residual warning is the one that says so
    from families import close_draw
    from test_verify import _exact_gain, _forward_error

    A, b, targets = close_draw(seed)
    sys = StateSpace(A, b)
    gain, _ = place_sequential(sys, paired_plan(sys, targets))
    assert _forward_error(gain.k, _exact_gain(A, b, targets, 40 + 2 * len(b))) > 1e-6
    d = gain.diagnostics
    assert d.kappa_controllability < 1e8
    assert d.warnings == (f"charpoly_residual {d.charpoly_residual:.3e} exceeds 1e-06; "
                          "poleplace verify rejects this gain",)


def test_paired_plan_moves_an_integrator_chain_in_one_step():
    # the chain's spectrum is 0 with multiplicity n: one step of size n
    for n in (4, 8, 12):
        sys = StateSpace(A=np.eye(n, k=1), b=np.eye(n)[-1])
        targets = [-1.0 - i / (n - 1) for i in range(n)]
        plan = paired_plan(sys, targets)
        assert len(plan.groups) == 1 and plan.groups[0][1] == Spectrum(targets)
        gain, _ = place_sequential(sys, plan)
        assert gain.diagnostics.charpoly_residual == 0.0


def test_paired_plan_merged_step_on_a_repeated_mode_b_cannot_split():
    # A = I: b reaches one direction of the repeated eigenvalue's
    # eigenspace, and the merged step says so
    sys = StateSpace(A=np.eye(2), b=[1.0, 1.0])
    with pytest.raises(RankDeficiencyError, match="rank 1 < 2"):
        place_sequential(sys, paired_plan(sys, [-1.0, -2.0]))


def test_paired_plan_leaves_out_an_uncontrollable_mode_that_is_a_target():
    # b cannot reach the mode at 3, but 3 is a target, so the plan leaves
    # it out and the steps place 1 and 2 with no feedback on it: the gain
    # of the controllable part, which a step (3 -> 3) refused at its
    # omega^T b gate
    sys = StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 0.0])
    plan = paired_plan(sys, [-1.0, -2.0, 3.0])
    assert [(tuple(m), tuple(t)) for m, t in plan.groups] == [((2.0,), (-2.0,)),
                                                             ((1.0,), (-1.0,))]
    assert plan_targets(sys, plan) == Spectrum([3.0, -2.0, -1.0])
    gain, records = place_sequential(sys, plan)
    assert_allclose(gain.k, [6.0, -12.0, 0.0], rtol=0.0, atol=1e-13)
    assert len(records) == 2 and gain.diagnostics.charpoly_residual <= 1e-14
    # with every value left out no step would remain, so the plan keeps
    # them and its step says why b cannot move them
    sys = StateSpace(A=np.eye(2), b=[1.0, 0.0])
    with pytest.raises(RankDeficiencyError, match="rank 1 < 2"):
        place_sequential(sys, paired_plan(sys, [1.0, 1.0]))


def test_paired_plan_leaves_out_an_unreachable_target_pair_with_its_partner():
    # b = e3 cannot reach the rotation's pair +-2i, and the target pair
    # lies within _match_tol(A) = 4e-6 of it, so both halves leave and one
    # real step remains
    A = [[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    sys = StateSpace(A=A, b=[0.0, 0.0, 1.0])
    plan = paired_plan(sys, [1e-9 + 2j, 1e-9 - 2j, -5.0])
    assert [(tuple(m), tuple(t)) for m, t in plan.groups] == [((1.0,), (-5.0,))]
    gain, _ = place_sequential(sys, plan)
    assert spectrum_distance(eigenvalues(closed(sys, gain.k)), Spectrum([2j, -2j, -5.0])) < 1e-12


def test_paired_plan_moves_every_value_b_can_reach():
    # a reachable value 1e-9 from its target still takes its step, which
    # places it to rounding; an unreachable direction of a repeated
    # eigenvalue asked for twice leaves with its reachable twin, while one
    # asked for once moves; a reachable spectrum asked for as it stands
    # keeps every group, each with no feedback to add
    sys = StateSpace(A=np.diag([1.0, 2.0, 3.0]), b=[1.0, 1.0, 1.0])
    plan = paired_plan(sys, [-1.0, -2.0, 3.0 + 1e-9])
    assert len(plan.groups) == 3
    gain, _ = place_sequential(sys, plan)
    assert spectrum_distance(eigenvalues(closed(sys, gain.k)),
                             Spectrum([-1.0, -2.0, 3.0 + 1e-9])) < 1e-12
    sys = StateSpace(A=np.diag([1.0, 1.0, 2.0]), b=[1.0, 0.0, 1.0])
    plan = paired_plan(sys, [1.0, 1.0, -2.0])
    assert [(tuple(m), tuple(t)) for m, t in plan.groups] == [((2.0,), (-2.0,))]
    gain, _ = place_sequential(sys, plan)
    assert spectrum_distance(eigenvalues(closed(sys, gain.k)), Spectrum([1.0, 1.0, -2.0])) < 1e-12
    plan = paired_plan(sys, [1.0, -1.0, -2.0])
    assert sorted(len(m) for m, _ in plan.groups) == [1, 2]
    sys = diag_system()
    plan = paired_plan(sys, [1.0, 2.0])
    assert [(tuple(m), tuple(t)) for m, t in plan.groups] == [((2.0,), (2.0,)), ((1.0,), (1.0,))]
    assert_allclose(place_sequential(sys, plan)[0].k, [0.0, 0.0], atol=1e-15)


def test_paired_plan_and_steps_build_checked_spectra():
    # the plan's groups and the steps' spectra skip the self-conjugacy
    # check; on perfbench's seed-1 dense pool they are the spectra the
    # check builds, value for value and in order
    from test_verify import _load_perfbench

    def assert_checked(spec):
        values = spec.values
        checked = Spectrum(list(values))
        assert spec == checked
        assert type(values) is tuple and all(type(z) is complex for z in values)
        assert np.array(values).tobytes() == np.array(checked.values).tobytes()

    steps = 0
    for case in _load_perfbench("inputs").dense_pool(1, 24):
        sys = StateSpace(case.A, case.b)
        plan = paired_plan(sys, case.targets)
        for move, to in plan.groups:
            assert_checked(move)
            assert_checked(to)
        try:
            _, records = place_sequential(sys, plan)
        except PolePlacementError as exc:
            records = exc.records
        for rec in records:
            assert_checked(rec.spectrum_after)
        steps += len(records)
    assert steps >= 800


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
    # planning, the whole sequential call (expected spectrum and closing
    # diagnostics included) and plan_targets share one Schur form of A,
    # stored on the system; only the r x r leading blocks of the steps are
    # reduced again, and no spectrum of A is computed beside it
    n = 8
    schur_sizes, eig_sizes = [], []

    def counted_schur(A, *args, **kwargs):
        schur_sizes.append(np.shape(A))
        return real_schur(A, *args, **kwargs)

    def counted_eigenvalues(A):
        eig_sizes.append(np.shape(A))
        return eigenvalues(A)

    for mod in (linalg, placement, subspace):
        monkeypatch.setattr(mod, "real_schur", counted_schur, raising=False)
        monkeypatch.setattr(mod, "eigenvalues", counted_eigenvalues, raising=False)
    sys = random_controllable(np.random.default_rng(239), n)
    plan = paired_plan(sys, [-0.5 - 0.25 * i for i in range(n)])
    assert len(plan.groups) >= 4
    gain, records = place_sequential(sys, plan)
    expected = plan_targets(sys, plan)
    assert len(records) == len(plan.groups)
    assert schur_sizes.count((n, n)) == 1
    assert eig_sizes.count((n, n)) == 0
    assert spectrum_distance(records[-1].spectrum_after, expected) <= 1e-6
    assert gain.diagnostics.charpoly_residual <= 1e-6


def _sequential_bytes(sys, targets):
    """Everything a paired sequential run returns, as exact bytes."""
    plan = paired_plan(sys, targets)
    gain, records = place_sequential(sys, plan)
    out = [repr(plan.groups), gain.k.tobytes(), repr(gain.diagnostics),
           repr(plan_targets(sys, plan))]
    for rec in records:
        out.append((rec.step, rec.kappa, repr(rec.spectrum_after)))
        out.extend(a.tobytes() for a in (rec.basis, rec.gain))
    return out


def test_stored_schur_form_gives_the_fresh_results():
    # a system whose open-loop form is already stored gives byte-equal
    # plans, gains, step records, diagnostics and plan targets; that form
    # cannot go stale, since A, b and its Q and T are read-only
    rng = np.random.default_rng(251)
    for n in (3, 6, 9, 12):
        sys, _, _ = _dense_system(rng, n)
        targets = _draw_targets(rng, n)
        first = _sequential_bytes(sys, targets)
        stored = vars(sys)["_schur"]
        assert _sequential_bytes(sys, targets) == first
        assert sys._schur is stored
        fresh = StateSpace(sys.A, sys.b)
        assert "_schur" not in vars(fresh)
        assert repr(fresh) == repr(sys)
        assert _sequential_bytes(fresh, targets) == first
        for arr in (sys.A, sys.b, stored.Q, stored.T):
            assert not arr.flags.writeable


def test_state_space_arrays_are_read_only():
    A = np.diag([1.0, 2.0])
    sys = StateSpace(A=A, b=[1.0, 1.0])
    with pytest.raises(ValueError):
        sys.A[0, 0] = 5.0
    with pytest.raises(ValueError):
        sys.b[1] = 5.0
    with pytest.raises(ValueError):
        sys.A += 1.0
    # the system holds copies: the caller's array stays writeable
    A[0, 0] = 3.0
    assert sys.A[0, 0] == 1.0
    # the open-loop record is stored on first use, read-only, and no part
    # of the system's value: the only fields, which repr and == read, are
    # A and b
    stored = ("_schur", "_hessenberg", "_polynomial", "_controllability", "_factored",
              "_canonical", "_kappa")
    assert set(vars(sys)) == {"A", "b"}
    plan_targets(sys, AssignmentPlan((((1.0,), (-1.0,)),)))
    place_bass_gura(sys, [-1.0, -2.0])
    assert set(vars(sys)) == {"A", "b", *stored}
    assert [f.name for f in dataclasses.fields(StateSpace)] == ["A", "b"]
    assert repr(sys) == repr(StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 1.0]))
    scalar = StateSpace([[2.0]], [1.0])
    place_bass_gura(scalar, [-1.0])
    assert {"_polynomial", "_hessenberg"} <= set(vars(scalar))
    assert scalar == StateSpace([[2.0]], [1.0])
    # the stored arrays are shared by every gain on the system
    record, form = sys._polynomial, sys._hessenberg
    for arr in (record.p.coeffs, record.words, record.digits, record.grids,
                sys._controllability, *sys._factored, sys._schur.Q, sys._schur.T, sys._canonical,
                form.H, form.V, form.T):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        form.H = np.zeros((2, 2))


def test_sequential_steps_freeze_the_blocks_they_do_not_move():
    # a step's reorder swaps only the blocks up to its last selected one and
    # its feedback touches only the leading block, so every block behind
    # them keeps its eigenvalues bitwise, from the blocks of the system's
    # stored Schur form on
    rng = np.random.default_rng(241)
    frozen = 0
    for n in (4, 7, 10, 13, 16):
        sys, _, _ = _dense_system(rng, n)
        plan = paired_plan(sys, _draw_targets(rng, n))
        _, records = place_sequential(sys, plan)
        tol = linalg._match_tol(sys.A)
        before = [z for blk in sys._schur.blocks for z in blk.eigenvalues]
        for (move, _), rec in zip(plan.groups, records):
            last = max(linalg._match_values(list(move), before, tol))
            tail = np.array(before[last + 1 :], dtype=complex)
            after = np.array(list(rec.spectrum_after), dtype=complex)
            assert after[len(after) - len(tail) :].tobytes() == tail.tobytes()
            frozen += len(tail)
            before = list(rec.spectrum_after)
    assert frozen >= 50
