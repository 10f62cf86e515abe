import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from poleplace import (
    Spectrum,
    StateSpace,
    controller_canonical,
    eigenvalues,
    place_ackermann,
    place_bass_gura,
    place_eigenpair,
    place_general,
)
from poleplace.errors import (
    InvariantEigenvalueError,
    NumericalError,
    UncontrollableError,
    ValidationError,
)
from poleplace import linalg, placement, poly, subspace, verify
from poleplace.cli import _dense_system, _draw_targets
from poleplace.verify import spectrum_distance

from families import (
    diag_system,
    double_integrator,
    load_perfbench,
    random_controllable,
    seed1_dense_gains,
)


def similarity(sys):
    """``T = C @ inv(C_c)``, the similarity onto the canonical pair."""
    return linalg.solve_linear(controller_canonical(sys).T, sys._controllability.T).T


def companion_pair(sys):
    """The canonical pair ``(A_c, b_c)`` whose Krylov matrix is ``C_c``."""
    n = sys.n
    A_c = np.eye(n, k=1)
    A_c[n - 1] = -sys._polynomial.p.coeffs[:n]
    return A_c, np.eye(n)[n - 1]


def omega(sys, gamma):
    """``C^{-T} C_c^T gamma``, the map ``placement._row`` applies to gamma:
    bitwise its solve against the stored factors of ``C^T``."""
    return linalg.solve_linear(sys._controllability.T, controller_canonical(sys).T @ gamma)


# ---------------------------------------------------------------------------
# StateSpace and canonical form


def test_state_space_validation():
    with pytest.raises(ValidationError):
        StateSpace(A=np.zeros((2, 3)), b=np.zeros(2))
    with pytest.raises(ValidationError):
        StateSpace(A=np.eye(2), b=np.zeros(3))
    with pytest.raises(ValidationError):
        StateSpace(A=[[np.inf, 0.0], [0.0, 1.0]], b=[1.0, 0.0])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_state_space_equality_and_hash_follow_a_and_b(n):
    # value equality on A and b, with -0.0 equal to 0.0 in both ==
    # and hash; the stored record, filled on one side only, is in neither
    rng = np.random.default_rng(n)
    A = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, n)
    A[0, 0] = 0.0
    flipped = A.copy()
    flipped[0, 0] = -0.0
    sys, twin = StateSpace(A, b), StateSpace(flipped, b.copy())
    other_A, other_b = A.copy(), b.copy()
    other_A[-1, -1] += 1.0
    other_b[-1] += 1.0
    for filled in (False, True):
        if filled:
            sys._schur, sys._canonical, sys._kappa  # fill the record
            assert {"_schur", "_polynomial", "_canonical", "_kappa"} <= set(vars(sys))
        assert sys == twin and twin == sys
        assert hash(sys) == hash(twin)
        assert len({sys, twin}) == 1
        assert sys != StateSpace(other_A, b)
        assert sys != StateSpace(A, other_b)
        assert sys != (A, b)


def test_controllability_matrix_double_integrator():
    C = double_integrator()._controllability
    assert np.array_equal(C, [[0.0, 1.0], [1.0, 0.0]])


def test_controller_canonical_fixed_point():
    # the double integrator already is its own canonical form
    sys = double_integrator()
    assert np.array_equal(controller_canonical(sys), [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(similarity(sys), np.eye(2))
    assert np.array_equal(sys._polynomial.p.coeffs, [0.0, 0.0, 1.0])


def test_controller_canonical_diagonal():
    sys = diag_system()
    assert np.array_equal(controller_canonical(sys), [[0.0, 1.0], [1.0, 3.0]])
    assert np.array_equal(similarity(sys), [[-2.0, 1.0], [-1.0, 1.0]])


def test_controller_canonical_similarity():
    rng = np.random.default_rng(101)
    for n in (2, 4, 6):
        sys = random_controllable(rng, n)
        T = similarity(sys)
        A_c, b_c = companion_pair(sys)
        assert np.array_equal(linalg.krylov(A_c, b_c), controller_canonical(sys))
        # A T = T A_c and b = T b_c pin down the similarity
        assert np.max(np.abs(sys.A @ T - T @ A_c)) <= 1e-8 * max(
            1.0, np.max(np.abs(T))
        )
        assert_allclose(T @ b_c, sys.b, atol=1e-10)


def test_stored_canonical_form_is_read_only():
    # the system keeps one canonical form and hands it to every caller, so
    # no caller can write into it, and a gain after an attempt is unchanged
    sys = random_controllable(np.random.default_rng(269), 5)
    targets = Spectrum([-1.0, -2.0, -3.0, -1 + 1j, -1 - 1j])
    pulled = Spectrum([-1 + 1j, -1 - 1j])
    before = [place_bass_gura(sys, targets).k.tobytes(),
              place_general(sys, targets, pulled).k.tobytes()]
    C_c = controller_canonical(sys)
    assert controller_canonical(sys) is C_c
    for arr in (sys._controllability, C_c, sys._polynomial.p.coeffs):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        sys._controllability[0, 0] = 5.0
    with pytest.raises(ValueError):
        sys._polynomial.p.coeffs[0] = 5.0
    with pytest.raises(ValueError):
        C_c += 1.0
    after = [place_bass_gura(sys, targets).k.tobytes(),
             place_general(sys, targets, pulled).k.tobytes()]
    assert after == before


# ---------------------------------------------------------------------------
# canonical-frame rows


def test_omega_vector_double_integrator():
    w = omega(double_integrator(), np.array([2.0, 3.0]))
    assert np.array_equal(w, [2.0, 3.0])


def test_omega_vector_unit_projection_on_b():
    # any monic degree n-1 coefficient vector maps to omega with omega.b = 1
    rng = np.random.default_rng(107)
    for n in (2, 3, 5):
        sys = random_controllable(rng, n)
        gamma = np.append(rng.uniform(-2, 2, n - 1), 1.0)
        w = omega(sys, gamma)
        assert abs(w @ sys.b - 1.0) <= 1e-9


def test_omega_vector_uncontrollable():
    # the map reads the stored factors of C^T, which refuse this pair
    sys = StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 0.0])
    with pytest.raises(UncontrollableError) as info:
        sys._factored
    assert "rank estimate" in str(info.value)


# ---------------------------------------------------------------------------
# single-eigenvalue move


def test_place_eigenpair_moves_one_eigenvalue():
    gain = place_eigenpair(diag_system(), [1.0, 0.0], -5.0)
    assert np.array_equal(gain.k, [-6.0, 0.0])
    assert gain.method == "eigenpair"
    closed = diag_system().A + np.outer([1.0, 1.0], gain.k)
    assert spectrum_distance(eigenvalues(closed), Spectrum([-5.0, 2.0])) <= 1e-12


def test_place_eigenpair_zero_move_is_exact_zero():
    gain = place_eigenpair(diag_system(), [1.0, 0.0], 1.0)
    assert np.all(gain.k == 0.0)


def test_place_eigenpair_generalized_selector():
    # the coefficient-mapped selector row assigns the whole spectrum
    gain = place_eigenpair(double_integrator(), [2.0, 1.0], -1.0)
    assert np.array_equal(gain.k, [-2.0, -3.0])


def test_place_eigenpair_keeps_other_eigenvalues():
    rng = np.random.default_rng(109)
    for _ in range(10):
        n = 5
        D = np.diag(np.arange(1.0, n + 1.0))
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        A = S @ D @ np.linalg.inv(S)
        i = int(rng.integers(0, n))
        omega = np.linalg.inv(S)[i]
        b = rng.uniform(0.5, 1.5, n)
        if abs(omega @ b) < 0.1:
            continue
        gain = place_eigenpair(StateSpace(A=A, b=b), omega, -7.0)
        want = [-7.0 if j == i else j + 1.0 for j in range(n)]
        closed = A + np.outer(b, gain.k)
        assert spectrum_distance(eigenvalues(closed), Spectrum(want)) <= 1e-6


def test_place_eigenpair_invariant_mode():
    sys = StateSpace(A=np.diag([1.0, 2.0]), b=[0.0, 1.0])
    with pytest.raises(InvariantEigenvalueError):
        place_eigenpair(sys, [1.0, 0.0], -5.0)


@pytest.mark.parametrize("b, omega", [([0.0, 0.0], [1.0, 0.0]), ([1.0, 1.0], [0.0, 0.0])])
def test_place_eigenpair_refuses_a_zero_scale(b, omega):
    # b = 0 or omega = 0 makes omega^T b and its scale both zero; the gate
    # must refuse it rather than divide by zero into a nan gain
    sys = StateSpace(A=np.diag([1.0, 2.0]), b=b)
    with pytest.raises(InvariantEigenvalueError):
        place_eigenpair(sys, omega, -1.0)


def test_place_eigenpair_validates_shape():
    with pytest.raises(ValidationError):
        place_eigenpair(diag_system(), [1.0, 0.0, 0.0], -5.0)


# ---------------------------------------------------------------------------
# full-spectrum methods


def test_bass_gura_double_integrator():
    gain = place_bass_gura(double_integrator(), [-1.0, -2.0])
    assert_allclose(gain.k, [-2.0, -3.0], atol=1e-12)
    assert gain.method == "bass_gura"


def test_bass_gura_complex_targets():
    gain = place_bass_gura(double_integrator(), [-1 + 1j, -1 - 1j])
    assert_allclose(gain.k, [-2.0, -2.0], atol=1e-12)


def test_bass_gura_diagonal():
    gain = place_bass_gura(diag_system(), [-1.0, -2.0])
    assert_allclose(gain.k, [6.0, -12.0], atol=1e-10)


def test_bass_gura_diagnostics_filled():
    gain = place_bass_gura(double_integrator(), [-1.0, -2.0])
    d = gain.diagnostics
    assert d.kappa_controllability >= 1.0
    assert d.charpoly_residual is not None and d.charpoly_residual <= 1e-10
    assert d.spectrum_residual is not None and d.spectrum_residual <= 1e-10
    assert d.warnings == ()


def test_bass_gura_errors():
    with pytest.raises(UncontrollableError):
        place_bass_gura(StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 0.0]), [-1.0, -2.0])
    with pytest.raises(ValidationError):
        place_bass_gura(double_integrator(), [-1.0])
    with pytest.raises(ValidationError):
        place_bass_gura(double_integrator(), [-1 + 1j, -2.0])


def test_ackermann_examples():
    assert_allclose(
        place_ackermann(double_integrator(), [-1.0, -2.0]).k, [-2.0, -3.0], atol=1e-12
    )
    assert_allclose(
        place_ackermann(double_integrator(), [-1 + 1j, -1 - 1j]).k,
        [-2.0, -2.0],
        atol=1e-12,
    )


def test_ackermann_identity_targets_leave_gain_tiny():
    # targets equal to the open-loop spectrum make p(A) the
    # Cayley-Hamilton zero, so the gain collapses with it
    rng = np.random.default_rng(113)
    for n in (2, 3, 4):
        sys = random_controllable(rng, n)
        gain = place_ackermann(sys, eigenvalues(sys.A))
        bound = 1e-8 * max(1.0, float(np.max(np.abs(sys.A)))) ** n
        assert np.max(np.abs(gain.k)) <= bound


def test_general_endpoints_are_bitwise():
    rng = np.random.default_rng(127)
    for n in (2, 3, 5):
        sys = random_controllable(rng, n)
        targets = Spectrum(sorted(rng.uniform(-3, -0.5, n)))
        g0 = place_general(sys, targets, Spectrum([]))
        gn = place_general(sys, targets, targets)
        assert np.array_equal(g0.k, place_bass_gura(sys, targets).k)
        assert np.array_equal(gn.k, place_ackermann(sys, targets).k)


def test_general_intermediate_pull_agrees():
    rng = np.random.default_rng(131)
    for _ in range(10):
        sys = random_controllable(rng, 4)
        vals = sorted(rng.uniform(-3, -0.5, 4))
        targets = Spectrum(vals)
        mid = place_general(sys, targets, Spectrum(vals[:2]))
        ref = place_bass_gura(sys, targets)
        scale = max(1.0, float(np.max(np.abs(ref.k))))
        assert np.max(np.abs(mid.k - ref.k)) <= 1e-6 * scale
        assert mid.method == "general"


def test_full_spectrum_gains_are_the_omega_map_then_the_pulled_product():
    # every Bass-Gura, Ackermann and general gain is the paper's formula one
    # step after another: gamma from the targets left at the coefficient
    # level (p - f with nothing pulled, -f otherwise, so -e_1 with
    # everything pulled), mapped to omega^T = gamma^T C_c C^{-1}, then the
    # pulled product, byte for byte on perfbench's seed-1 dense pool (24
    # cases per size)

    def route(sys, targets, pulled):
        n = sys.n
        rest = targets.minus(pulled) if len(pulled) else targets
        f = poly.monic_from_roots(rest).coeffs
        if f.size > n:
            f = (f - sys._polynomial.p.coeffs)[:n]
        gamma = np.zeros(n)
        gamma[: f.size] = 0.0 - f
        k = omega(sys, gamma)
        if len(pulled):
            k = poly.eval_matrix(poly.monic_from_roots(pulled), sys.A).T @ k
        return k

    pool = load_perfbench("inputs").dense_pool(1, 24)
    runs = [run for run in seed1_dense_gains() if run[2] != "sequential"]
    assert len(runs) == 3 * len(pool)
    for case, trio in zip(pool, zip(*[iter(runs)] * 3)):
        targets = trio[0][1]
        pulled = {"bass_gura": Spectrum([]), "ackermann": targets,
                  "general": Spectrum(case.pulled)}
        for sys, _, method, k in trio:
            assert isinstance(k, np.ndarray), (case.n, method, k)
            assert route(sys, targets, pulled[method]).tobytes() == k.tobytes(), (case.n, method)
    # both full pulls on a diagonal pair, where -e_1 maps to the row -e_n
    targets = Spectrum([-1.0, -2.0])
    for gain in (place_ackermann(diag_system(), targets),
                 place_general(diag_system(), targets, Spectrum([-2.0, -1.0]))):
        assert_allclose(gain.k, [6.0, -12.0], atol=1e-10)


def test_general_validates_pulled_subset():
    for pulled in ([-3.0], [-1.0, -1.0]):
        with pytest.raises(ValidationError, match="pulled values must be a sub-multiset"):
            place_general(double_integrator(), [-1.0, -2.0], pulled)


@pytest.mark.parametrize("scale", [100, 200])
def test_out_of_range_systems_raise_named_numerical_errors(scale):
    # a valid n = 12 system and its targets scaled by 2**scale: the
    # characteristic coefficients and the Krylov columns leave the float
    # range, and every method names the open-loop record, which its one
    # route reads first, with no RuntimeWarning
    rng = np.random.default_rng(12)
    sys = StateSpace(np.ldexp(rng.uniform(-1.0, 1.0, (12, 12)), scale),
                     rng.uniform(-1.0, 1.0, 12))
    targets = Spectrum([np.ldexp(-1.0 - 0.1 * j, scale) for j in range(12)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for place in (place_bass_gura, place_ackermann,
                      lambda s, t: place_general(s, t, t.values[:4])):
            with pytest.raises(NumericalError, match="characteristic polynomial coefficient"):
                place(sys, targets)


def test_full_methods_place_complex_pairs():
    rng = np.random.default_rng(137)
    for _ in range(5):
        sys = random_controllable(rng, 4)
        targets = Spectrum([-1 + 2j, -1 - 2j, -3.0, -0.5])
        for gain in (
            place_bass_gura(sys, targets),
            place_ackermann(sys, targets),
            place_general(sys, targets, Spectrum([-1 + 2j, -1 - 2j])),
        ):
            closed = sys.A + np.outer(sys.b, gain.k)
            assert spectrum_distance(eigenvalues(closed), targets) <= 1e-6


# ---------------------------------------------------------------------------
# the open-loop record stored on the system


def test_full_spectrum_methods_share_one_open_loop_record(monkeypatch):
    # Bass-Gura, Ackermann and a split between them on one system, over two
    # rounds, run the trace recurrence once, on (A, b), form the
    # controllability matrix once and take its condition number once; each
    # gain's charpoly_residual is read off that record.  The system's one
    # Hessenberg reduction builds its controller-Hessenberg form, n - 1
    # reflectors on (A, b), and each gain's closed-loop spectrum hands that
    # form's closed loop, Hessenberg already, to the Schur engine's core
    # once, with no reflector applied on the way
    drawn = random_controllable(np.random.default_rng(271), 6)
    sys = StateSpace(drawn.A, drawn.b)  # nothing stored yet
    targets = Spectrum([-1.0, -2.0, -3.0, -4.0, -1 + 1j, -1 - 1j])
    pulled = Spectrum([-1 + 1j, -1 - 1j])
    calls, applied = Counter(), Counter()
    inside = []
    householder = linalg._householder

    def counted(name, fn):
        def wrapped(M, *args, **kwargs):
            # condition_number sees only the controllability matrix; the
            # others see A (open loop) or another matrix: a closed loop, or
            # the companion matrix whose Krylov matrix is the canonical C_c
            if name != "condition_number":
                loop = "open-loop " if np.array_equal(M, sys.A) else "other "
                if name in ("krylov", "_controller_hessenberg") and loop == "open-loop ":
                    assert np.array_equal(args[0], sys.b)
                calls[loop + name] += 1
            else:
                calls[name] += 1
            inside.append(name)
            try:
                return fn(M, *args, **kwargs)
            finally:
                inside.pop()

        return wrapped

    def reflecting(x):
        # beta = 0 is a skip: the column has nothing to annihilate
        v, beta, alpha = householder(x)
        if beta != 0.0 and inside and inside[-1] in ("_controller_hessenberg",
                                                     "_hessenberg_eigenvalues"):
            applied[inside[-1]] += 1
        return v, beta, alpha

    for name, fn in (("open_loop_record", poly.open_loop_record),
                     ("char_poly", poly.char_poly),
                     ("krylov", linalg.krylov),
                     ("condition_number", linalg.condition_number),
                     ("eigenvalues", linalg.eigenvalues),
                     ("_hessenberg_eigenvalues", linalg._hessenberg_eigenvalues),
                     ("_controller_hessenberg", linalg._controller_hessenberg)):
        for mod in (poly, linalg, placement, subspace, verify):
            monkeypatch.setattr(mod, name, counted(name, fn), raising=False)
    monkeypatch.setattr(linalg, "_householder", reflecting)
    for rounds in (1, 2):
        place_bass_gura(sys, targets)
        place_ackermann(sys, targets)
        place_general(sys, targets, pulled)
        assert calls == {
            "open-loop open_loop_record": 1,
            "open-loop krylov": 1,
            "other krylov": 1,
            "condition_number": 1,
            "open-loop _controller_hessenberg": 1,
            "other _hessenberg_eigenvalues": 3 * rounds,
        }
        assert applied == {"_controller_hessenberg": 5}


def _full_spectrum_bytes(make, targets, pulled):
    """The three full-spectrum gains and their diagnostics as exact bytes,
    each on the system ``make()`` returns."""
    gains = (place_bass_gura(make(), targets), place_ackermann(make(), targets),
             place_general(make(), targets, pulled))
    return [(g.k.tobytes(), repr(g.diagnostics)) for g in gains]


_STORED = ("_schur", "_polynomial", "_controllability", "_canonical", "_kappa")


def test_stored_open_loop_record_gives_the_fresh_results():
    # a system that already holds its open-loop record gives gains and
    # diagnostics byte-equal to a fresh system for every call; each stored
    # value is computed on first use, then read back as the same object
    rng = np.random.default_rng(263)
    for n in (3, 4, 6, 8, 11, 14, 17, 20):
        sys, _, _ = _dense_system(rng, n)
        targets = _draw_targets(rng, n)
        # conjugates share their real part, so this subset is self-conjugate
        pulled = Spectrum([z for z in targets if z.real > -1.5])
        fresh = StateSpace(sys.A, sys.b)
        assert not set(_STORED) & set(vars(fresh))
        want = _full_spectrum_bytes(lambda: StateSpace(sys.A, sys.b), targets, pulled)
        assert _full_spectrum_bytes(lambda: sys, targets, pulled) == want
        stored = {name: vars(sys)[name] for name in ("_polynomial", "_controllability",
                                                     "_canonical", "_kappa")}
        assert _full_spectrum_bytes(lambda: sys, targets, pulled) == want
        for name, value in stored.items():
            assert getattr(sys, name) is value
        assert controller_canonical(sys) is stored["_canonical"]
        assert repr(sys) == repr(fresh)


def test_stored_open_loop_record_keeps_the_uncontrollable_message():
    # an uncontrollable system raises the same error on a second call,
    # with its canonical form stored, as on a fresh system
    A, b = np.diag([1.0, 1.0, 2.0]), [1.0, 1.0, 1.0]
    targets = Spectrum([-1.0, -2.0, -3.0])
    sys = StateSpace(A, b)
    for place in (
        lambda s: place_bass_gura(s, targets),
        lambda s: place_ackermann(s, targets),
        lambda s: place_general(s, targets, Spectrum([-2.0])),
    ):
        messages = []
        for s in (sys, sys, StateSpace(A, b)):
            with pytest.raises(UncontrollableError) as info:
                place(s)
            messages.append(str(info.value))
        assert messages == [messages[0]] * 3
    assert {"_controllability", "_canonical"} <= set(vars(sys))


def test_uncontrollable_refusal_reports_the_controllable_dimension():
    # elimination breaks down at column 1 on both diagonal systems, a lower
    # bound; the controller-Hessenberg form shows the controllable
    # subspace, of dimension 3 and 2, and the eigenvalues of its trailing
    # block, the modes b cannot reach.  Every formula that inverts C, on
    # every call, raises the same message.  b = e1 reaches one mode, and
    # b = 0 none.  In the lower triangular pair e1^T A = -0.5 e1^T and
    # e1^T b = 0, so one mode is exactly out of reach; the reduction leaves
    # its coupling at 2.8e-15 max|H|, rounding of its own, not a mode.
    # The modes are read at A's scale, so the first system scaled by 2**40
    # names modes 2**40 times as large; a rotation b cannot reach names
    # its conjugate pair.
    cases = [(np.diag([1.0, 1.0, 1.0, 2.0, 3.0]), np.ones(5), 3, "1, 1"),
             (np.diag([1.0, 1.0, 2.0]), np.ones(3), 2, "1"),
             (np.diag([1.0, 2.0, 3.0]), [1.0, 0.0, 0.0], 1, "2, 3"),
             (np.diag([1.0, 2.0, 3.0]), np.zeros(3), 0, "1, 2, 3"),
             ([[-0.5, 0.0, 0.0], [0.3, 0.2, 0.0], [0.1, -0.4, 0.6]], [0.0, 0.4, 1.0], 2,
              "-0.5"),
             (np.ldexp(np.diag([1.0, 1.0, 1.0, 2.0, 3.0]), 40), np.ones(5), 3,
              "1.09951e+12, 1.09951e+12"),
             ([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]], [0.0, 0.0, 1.0], 1,
              "0+1j, 0-1j")]
    for A, b, dimension, modes in cases:
        sys = StateSpace(A, b)
        n = sys.n
        targets = Spectrum([-float(i + 1) for i in range(n)])
        messages = set()
        for _ in range(2):
            for call in (lambda: place_bass_gura(sys, targets),
                         lambda: place_ackermann(sys, targets),
                         lambda: place_general(sys, targets, Spectrum([-1.0]))):
                with pytest.raises(UncontrollableError) as info:
                    call()
                messages.add(str(info.value))
        assert messages == {"controllability matrix is singular to working precision; "
                            f"rank estimate {dimension} < {n}; uncontrollable modes {modes}"}
        with pytest.raises(linalg.SingularMatrixError) as info:
            linalg.solve_linear(sys._controllability.T, np.ones(n))
        assert info.value.column <= dimension


def test_full_spectrum_methods_factor_C_once_per_system(monkeypatch):
    # Bass-Gura, Ackermann and general, twice each on one system, solve
    # against the one factorization of C^T the system stores
    factored = []
    factor = placement._factor

    def counted(LU, limit):
        factored.append(LU.shape)
        return factor(LU, limit)

    monkeypatch.setattr(placement, "_factor", counted)
    sys = random_controllable(np.random.default_rng(331), 6)
    targets = Spectrum([-1.0, -2.0, -3.0, -4.0, -1 + 1j, -1 - 1j])
    pulled = Spectrum([-1 + 1j, -1 - 1j])
    for _ in range(2):
        place_bass_gura(sys, targets)
        place_ackermann(sys, targets)
        place_general(sys, targets, pulled)
    assert factored == [(6, 6)]


def test_stored_factor_solves_are_bitwise_solve_linear():
    # every solve against the stored factors is bitwise solve_linear(C.T,
    # rhs), for one right-hand side or several; a system whose C it
    # refuses raises UncontrollableError on each read of the factors,
    # with the same message every time
    rng = np.random.default_rng(337)
    systems = [StateSpace(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n))
               for n in range(1, 21) for _ in range(3)]
    systems.append(StateSpace(np.diag([1.0, 1.0, 2.0]), np.ones(3)))
    outcomes = Counter()
    for sys in systems:
        n, C = sys.n, sys._controllability
        for rhs in (rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, 3)), np.eye(n)[n - 1]):
            try:
                want = linalg.solve_linear(C.T, rhs)
            except linalg.SingularMatrixError:
                messages = []
                for _ in range(2):
                    with pytest.raises(UncontrollableError) as info:
                        sys._factored
                    messages.append(str(info.value))
                assert messages[0] == messages[1]
                outcomes["refused"] += 1
                continue
            assert linalg._substitute(*sys._factored, rhs).tobytes() == want.tobytes()
            outcomes["solved"] += 1
    assert outcomes == {"solved": 180, "refused": 3}
