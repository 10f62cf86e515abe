"""Verification oracles: the two independent residual routes and the
bottleneck spectrum metric.  The rank-one determinant identity behind the
polynomial route is checked by acceptance criterion 6 and by the record
tests in test_poly."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import poleplace
from poleplace import (
    Spectrum,
    StateSpace,
    charpoly_residual,
    eigenvalues,
    place_bass_gura,
    spectrum_distance,
)
from poleplace.errors import (
    ConvergenceError,
    PolePlacementError,
    ValidationError,
)
from poleplace.poly import Polynomial, monic_from_roots
from poleplace.verify import assemble_diagnostics

from families import (
    double_integrator,
    exact_gain,
    forward_error,
    load_perfbench,
    random_controllable,
    seed1_dense_gains,
)


# ---------------------------------------------------------------------------
# closed loop and coefficient residual


def test_closed_loop_double_integrator():
    # with W = [[0, -1], [-1, 0]], the loop A + b k^T = [[0, 1], [-2, -3]]
    # reads W^T (A + b k^T) W = [[-3, -2], [1, 0]] in controller-Hessenberg
    # coordinates, formed without rounding
    M, e = double_integrator()._hessenberg.closed_loop(np.array([-2.0, -3.0]))
    assert e == 0
    assert np.array_equal(M, [[-3.0, -2.0], [1.0, 0.0]])


def test_verify_checks_the_targets_and_then_the_gain(tmp_path, capsys):
    # `poleplace verify` checks the targets, then the gain, once for both
    # halves of the closed-loop check the diagnostics share
    import json

    from poleplace import cli

    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 2, "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0]}))
    plan, three = tmp_path / "p.json", tmp_path / "p3.json"
    plan.write_text(json.dumps({"poles": ["-1", "-2"]}))
    three.write_text(json.dumps({"poles": ["-1", "-2", "-3"]}))
    for poles, gain, message in ((plan, "1,2,3", "gain has shape (3,), expected (2,)"),
                                 (plan, "nan,0", "gain must have finite entries"),
                                 (three, "1,2,3", "3 targets for an order-2 system")):
        assert cli.main(["verify", "--system", str(system), "--plan", str(poles),
                         "--gain=" + gain]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")


def test_charpoly_residual_exact_placement():
    sys = double_integrator()
    assert charpoly_residual(sys, [-2.0, -3.0], [-1.0, -2.0]) <= 1e-15


def test_charpoly_residual_zero_gain_against_shifted_targets():
    # achieved s^2 vs wanted s^2+3s+2, scaled per coefficient
    assert charpoly_residual(double_integrator(), [0.0, 0.0], [-1.0, -2.0]) == 1.0


def test_charpoly_residual_small_coefficients_use_absolute_scale():
    sys = StateSpace(A=[[0.0]], b=[1.0])
    assert charpoly_residual(sys, [0.0], [-0.5]) == 0.5


def _exact_loop(A, b, k, berkowitz):
    """Descending exact coefficients of det(sI - A - b k^T), the loop formed
    without rounding and scaled to integers for Berkowitz, and the exact
    c_j and x_j = M_{j-1} b of the open loop (x_1 = b,
    x_{j+1} = A x_j + c_j b)."""

    def as_integers(M):
        # M = ints / 2**e, exactly
        e = max(Fraction(v).denominator for row in M for v in row).bit_length() - 1
        return [[int(Fraction(v) * 2**e) for v in row] for row in M], e

    n = len(b)
    fa, fb, fk = ([Fraction(v) for v in row] for row in (A.ravel(), b, k))
    loop, e = as_integers([[fa[i * n + j] + fb[i] * fk[j] for j in range(n)] for i in range(n)])
    loop = [Fraction(c, 2 ** (e * j)) for j, c in enumerate(berkowitz(loop))]
    (A_int, b_int), (ea, eb) = zip(*(as_integers(M) for M in (A.tolist(), [b.tolist()])))
    b_int = b_int[0]
    C = berkowitz(A_int)  # c_j = C[j] / 2**(ea j)
    X = [b_int]  # x_j = X[j-1] / 2**(ea (j-1) + eb)
    for j in range(1, n):
        X.append([sum(a * v for a, v in zip(row, X[-1])) + C[j] * bi
                  for row, bi in zip(A_int, b_int)])
    c = [Fraction(v, 2 ** (ea * j)) for j, v in enumerate(C)]
    xs = [[Fraction(v, 2 ** (ea * j + eb)) for v in x] for j, x in enumerate(X)]
    return loop, c, xs


def test_charpoly_residual_is_the_exact_loop_residual_property():
    # charpoly_residual against the same residual of the exactly formed loop
    # (Berkowitz on A + b k^T in integers) and the same float targets'
    # polynomial, within its docstring's bound: per coefficient half an ulp
    # plus |c_j error| + ||k||_1 ||x_j error||_inf, the errors of the
    # stored record against the exact open loop
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 10))
        grade = np.ldexp(1.0, draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)))
        entries = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n)))
        A = grade[:, None] * entries.reshape(n, n)
        b = grade * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        targets = draw(st.lists(st.floats(-3.0, -0.1), min_size=n, max_size=n))
        k = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        k *= 10.0 ** draw(st.floats(-2.0, 8.0))
        if draw(st.booleans()):
            try:
                k = place_bass_gura(StateSpace(A, b), targets).k
            except PolePlacementError:
                pass
        hypothesis.assume(np.any(b != 0.0))
        return A, b, k, targets

    berkowitz = load_perfbench("oracle").berkowitz

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        A, b, k, targets = case
        sys = StateSpace(A, b)
        got = charpoly_residual(sys, k, targets)
        loop, c, xs = _exact_loop(A, b, k, berkowitz)
        want = monic_from_roots(targets).coeffs[::-1]
        record = sys._polynomial
        achieved = record.closed_loop(k).coeffs[::-1]
        norm_k = sum(abs(Fraction(v)) for v in k.tolist())
        exact, tol = Fraction(0), Fraction(0)
        for j in range(1, len(b) + 1):
            den = max(Fraction(1), abs(Fraction(want[j])))
            exact = max(exact, abs(loop[j] - Fraction(want[j])) / den)
            c_rec = sum(Fraction(w) for w in record.words[j - 1].tolist())
            c_rec *= Fraction(2) ** (record.shift * j)
            window = record.digits.shape[1]
            unit = Fraction(2) ** int(record.grids[j - 1] - window * record.beta)
            x_rec = [unit * sum(int(d) << ((window - 1 - l) * record.beta)
                                for l, d in enumerate(record.digits[j - 1, :, i].tolist()))
                     for i in range(len(b))]
            x_err = max(abs(u - v) for u, v in zip(x_rec, xs[j - 1]))
            bound = abs(c_rec - c[j]) + norm_k * x_err
            # half an ulp of the coefficient, and of the residual's own
            # subtraction and division
            ulps = Fraction(2.0**-52) * (abs(Fraction(achieved[j])) + abs(Fraction(want[j])))
            tol = max(tol, (bound + ulps) / den)
        assert abs(Fraction(got) - exact) <= tol + Fraction(2.0**-51) * exact

    check()


def test_charpoly_residual_validates_count():
    with pytest.raises(ValidationError):
        charpoly_residual(double_integrator(), [0.0, 0.0], [-1.0])


# ---------------------------------------------------------------------------
# spectrum distance


def test_spectrum_distance_identical_is_zero():
    s = Spectrum([-1.0, -2 + 1j, -2 - 1j])
    assert spectrum_distance(s, s) == 0.0


def test_spectrum_distance_singletons():
    assert spectrum_distance(Spectrum([-1.0]), Spectrum([-3.0])) == 2.0


def test_spectrum_distance_picks_best_pairing():
    got = Spectrum([0.0, 10.0])
    want = Spectrum([10.1, -0.2])
    assert_allclose(spectrum_distance(got, want), 0.2)


def test_spectrum_distance_symmetric():
    rng = np.random.default_rng(301)
    for _ in range(10):
        a = Spectrum(rng.uniform(-5, 5, 5))
        b = Spectrum(rng.uniform(-5, 5, 5))
        assert spectrum_distance(a, b) == spectrum_distance(b, a)


def test_spectrum_distance_matches_brute_force():
    rng = np.random.default_rng(307)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        a = [complex(v) for v in rng.uniform(-5, 5, n)]
        b = [complex(v) for v in rng.uniform(-5, 5, n)]
        want = min(
            max(abs(x - y) for x, y in zip(a, perm))
            for perm in itertools.permutations(b)
        )
        assert_allclose(spectrum_distance(Spectrum(a), Spectrum(b)), want, rtol=1e-12)


def test_spectrum_distance_greedy_tail_is_upper_bound():
    rng = np.random.default_rng(311)
    a = [complex(v) for v in rng.uniform(-5, 5, 14)]
    b = [complex(v) for v in rng.uniform(-5, 5, 14)]
    d = spectrum_distance(Spectrum(a), Spectrum(b))
    lower = max(min(abs(x - y) for y in b) for x in a)
    assert math.isfinite(d)
    assert d >= lower - 1e-15


def test_spectrum_distance_is_exact_above_twelve_values():
    # nearest-first pairing takes 1 with 0.9 and is left with |0 - 2| = 2
    pad = [100.0 * (i + 1) for i in range(12)]
    assert spectrum_distance(Spectrum([0.0, 1.0] + pad), Spectrum([0.9, 2.0] + pad)) == 1.0


def _random_spectrum(rng, n, grid):
    vals = []
    while len(vals) < n:
        if n - len(vals) >= 2 and rng.random() < 0.5:
            z = complex(*np.round(rng.uniform(-3, 3, 2) / grid) * grid)
            z = complex(z.real, abs(z.imag) + grid)
            vals += [z, z.conjugate()]
        else:
            vals.append(complex(np.round(rng.uniform(-3, 3) / grid) * grid))
    return vals


def test_spectrum_distance_property_against_scipy_matching():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")

    def perfect(allowed):
        match = csgraph.maximum_bipartite_matching(
            sparse.csr_matrix(allowed), perm_type="column"
        )
        return bool(np.all(match >= 0))

    # a coarse grid makes ties and near-ties, which is where greedy fails
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(13, 40),
        st.sampled_from([0.5, 0.05, 1e-9]),
        st.integers(0, 2**32 - 1),
    )
    def check(n, grid, seed):
        rng = np.random.default_rng(seed)
        got = _random_spectrum(rng, n, grid)
        want = _random_spectrum(rng, n, grid)
        dist = spectrum_distance(Spectrum(got), Spectrum(want))
        d = np.abs(np.array(got)[:, None] - np.array(want)[None, :])
        assert perfect(d <= dist)
        below = d[d < dist]
        if below.size:
            assert not perfect(d <= below.max())

    check()


def test_spectrum_distance_property_permutation_invariant():
    # the distance is a property of the two multisets, not of their order
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(1, 40),
        st.sampled_from([0.5, 0.05, 1e-9]),
        st.integers(0, 2**32 - 1),
    )
    def check(n, grid, seed):
        rng = np.random.default_rng(seed)
        got = _random_spectrum(rng, n, grid)
        want = _random_spectrum(rng, n, grid)
        dist = spectrum_distance(Spectrum(got), Spectrum(want))
        for a, b in ((rng.permutation(got), want), (got, rng.permutation(want)),
                     (rng.permutation(got), rng.permutation(want))):
            assert spectrum_distance(Spectrum(a), Spectrum(b)) == dist

    check()


def test_bisection_loads_no_masked_arrays():
    # the bisection path's distinct distances come from a sort, not from
    # np.unique, whose first call in a process imports numpy.ma: in a fresh
    # interpreter a bisection (both values nearest 0.05) leaves it as the
    # imports did (numpy before 2.0 loads it with numpy itself)
    script = ("import sys; from poleplace import spectrum_distance; "
              "before = 'numpy.ma' in sys.modules; "
              "print(spectrum_distance([0, 0.1], [0.05, 1])); "
              "print(before == ('numpy.ma' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(poleplace.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.9\nTrue\n", "")


def test_spectrum_distance_size_mismatch():
    with pytest.raises(ValidationError):
        spectrum_distance(Spectrum([-1.0]), Spectrum([-1.0, -2.0]))


def test_bottleneck_property_against_every_pairing():
    # at n <= 6 every one-to-one pairing can be tried: the matcher's
    # distance is the least largest distance over all of them, its pairing
    # attains it, and when each value's nearest request (its first row
    # minimum) is a different one, the pairing is the greedy one, closest
    # remaining pair first
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from poleplace.verify import _bottleneck

    def greedy(d):
        n = d.shape[0]
        work, pairing = d.copy(), [-1] * n
        for _ in range(n):
            i, j = divmod(int(np.argmin(work)), n)
            pairing[i] = j
            work[i, :] = np.inf
            work[:, j] = np.inf
        return pairing

    # a coarse grid gives repeated values and exact ties; a value with an
    # imaginary part brings its conjugate along
    grid = st.builds(complex, st.integers(-3, 3), st.integers(0, 2))
    values = st.lists(grid, min_size=1, max_size=4).map(
        lambda zs: [w for z in zs for w in ((z, z.conjugate()) if z.imag else (z,))][:6])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(values, values, st.sampled_from([1.0, 0.5, 1e-9]))
    @hypothesis.example([1.0, 2.0], [1.0, 2.0], 1.0)
    @hypothesis.example([0.0, 0.0, 1.0], [0.0, 1.0, 1.0], 1.0)
    def check(got, want, scale):
        n = min(len(got), len(want))
        got = [z * scale for z in got[:n]]
        want = [z * scale for z in want[:n]]
        d = np.abs(np.array(got)[:, None] - np.array(want)[None, :])
        best = min(max(d[i, j] for i, j in enumerate(perm))
                   for perm in itertools.permutations(range(n)))
        distance, pairing = _bottleneck(got, want)
        assert distance == best
        assert sorted(pairing) == list(range(n))
        assert max(d[i, j] for i, j in enumerate(pairing)) == best
        if len(set(d.argmin(axis=1).tolist())) == n:
            assert pairing == greedy(d)

    check()


# ---------------------------------------------------------------------------
# diagnostics assembly


def test_diagnostics_without_targets_leaves_residuals_unset():
    sys = double_integrator()
    d = assemble_diagnostics(sys, np.array([0.0, 0.0]))
    assert d.charpoly_residual is None
    assert d.spectrum_residual is None
    assert d.step_kappas == ()
    assert d.warnings == ()


def test_diagnostics_with_targets_fills_residuals():
    sys = double_integrator()
    d = assemble_diagnostics(sys, np.array([-2.0, -3.0]), Spectrum([-1.0, -2.0]))
    assert d.charpoly_residual <= 1e-12
    assert d.spectrum_residual <= 1e-8
    assert d.warnings == ()


def test_diagnostics_warn_on_a_residual_verify_rejects(tmp_path, capsys):
    # the gain k = (-2, -3 + 4e-6) misses the coefficient 3 of s^2 + 3s + 2
    # by 1.3e-6 relative: its diagnostics warn against the one limit that
    # `poleplace verify` applies, and verify fails it
    import json

    from poleplace import cli
    from poleplace.verify import RESIDUAL_LIMIT

    sys = double_integrator()
    k = np.array([-2.0, -3.0 + 4e-6])
    d = assemble_diagnostics(sys, k, Spectrum([-1.0, -2.0]))
    assert RESIDUAL_LIMIT < d.charpoly_residual < 2 * RESIDUAL_LIMIT
    assert d.warnings == (f"charpoly_residual {d.charpoly_residual:.3e} exceeds 1e-06; "
                          "poleplace verify rejects this gain",)
    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 2, "A": sys.A.tolist(), "b": sys.b.tolist()}))
    plan = tmp_path / "p.json"
    plan.write_text(json.dumps({"poles": ["-1", "-2"]}))
    assert cli.main(["verify", "--system", str(system), "--plan", str(plan),
                     "--gain=" + ",".join(map(repr, k.tolist()))]) == 1
    assert "FAIL: charpoly_residual > 1e-06" in capsys.readouterr().out


def test_both_closed_loop_checks_seed_their_shifts_from_the_request(monkeypatch, tmp_path, capsys):
    # assemble_diagnostics and `poleplace verify` compute the closed-loop
    # spectrum through one helper, which hands the request, scaled as the
    # closed loop is, to the QR iteration; the loop comes from the
    # system's controller-Hessenberg form, so the reduction before the
    # iteration applies no reflector of its own
    import json

    from poleplace import cli, linalg

    seen, applied = [], []
    francis, householder = linalg._francis_upper, linalg._householder

    def recording(HQ, near=()):
        seen.append(list(near))
        return francis(HQ, near)

    def reflecting(x):
        v, beta, alpha = householder(x)
        if beta != 0.0:
            applied.append(x.size)
        return v, beta, alpha

    def scaled_back(near):
        shift = math.frexp(list(targets)[0].real)[1] - math.frexp(near[0].real)[1]
        return [complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in near]

    monkeypatch.setattr(linalg, "_francis_upper", recording)
    monkeypatch.setattr(linalg, "_householder", reflecting)
    sys = random_controllable(np.random.default_rng(41), 6)
    targets = Spectrum([-1.0, -2.0, complex(-1.0, 1.0), complex(-1.0, -1.0), -3.0, -4.0])
    gain = place_bass_gura(sys, targets)
    assert len(seen) == 1 and scaled_back(seen[0]) == list(targets)
    # once per system: the form's reflector on b and its reduction of the
    # reflected A; the condition number's QR of C is numpy's
    per_system = [6, 5, 4, 3, 2]
    assert applied == per_system
    place_bass_gura(sys, targets)
    assert len(seen) == 2 and applied == per_system
    M, e = sys._hessenberg.closed_loop(gain.k)
    assert e == 0
    assert gain.diagnostics.spectrum_residual == spectrum_distance(
        eigenvalues(M.T, near=targets), targets)
    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 6, "A": sys.A.tolist(), "b": sys.b.tolist()}))
    plan = tmp_path / "p.json"
    plan.write_text(json.dumps({"poles": [cli.format_pole(z) for z in targets]}))
    assert cli.main(["verify", "--system", str(system), "--plan", str(plan),
                     "--gain=" + ",".join(repr(float(v)) for v in gain.k)]) == 0
    assert len(seen) == 4 and scaled_back(seen[3]) == list(targets)
    # the CLI's fresh system builds its own form, and verify takes no
    # condition number: no reflector per gain
    assert applied == per_system + [6, 5, 4, 3, 2]
    printed = capsys.readouterr().out
    assert f"spectrum_residual  {gain.diagnostics.spectrum_residual:.6e}" in printed


def test_closed_loop_check_reduces_nothing(monkeypatch):
    # a loop formed in controller-Hessenberg coordinates is Hessenberg, so
    # its check computes no reflector at all, not even one to skip; any
    # other matrix is still reduced, and eigenvalues agrees with
    # real_schur's blocks to rounding (2.3e-16 max|A| measured) either way
    from poleplace import linalg, real_schur
    from poleplace.verify import _closed_loop_spectrum

    rng = np.random.default_rng(347)
    sys = random_controllable(rng, 8)
    targets = Spectrum([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -1 + 1j, -1 - 1j])
    gain = place_bass_gura(sys, targets)
    calls = []
    householder = linalg._householder
    monkeypatch.setattr(linalg, "_householder", lambda x: calls.append(x.size) or householder(x))
    spectrum = _closed_loop_spectrum(sys, gain.k, targets)
    assert calls == []
    assert spectrum_distance(spectrum, targets) == gain.diagnostics.spectrum_residual
    M, _ = sys._hessenberg.closed_loop(gain.k)
    for A in (M.T, rng.uniform(-1, 1, (7, 7)), np.triu(rng.uniform(-1, 1, (6, 6)), -1)):
        calls.clear()
        values = list(eigenvalues(A))
        reduced = bool(calls)
        assert reduced == bool(np.tril(A.T, -2).any())
        blocks = [z for blk in real_schur(A).blocks for z in blk.eigenvalues]
        assert spectrum_distance(values, blocks) <= 1e-12 * linalg.max_abs(A)


def test_closed_loop_check_runs_the_engine_of_eigenvalues():
    # the check hands its loop M, Hessenberg as formed, straight to the
    # Schur engine's core; eigenvalues validates, transposes and scales M,
    # finds nothing to reduce and runs the same core, so on dense loops at
    # n = 4-20 the two spectra are bitwise equal, value for value in order
    from poleplace.verify import _closed_loop_spectrum

    rng = np.random.default_rng(1)
    for n in (4, 8, 12, 16, 20):
        for _ in range(3):
            sys = random_controllable(rng, n)
            pairs = n // 4
            values = [complex(re, s * im) for re, im in zip(-rng.uniform(0.1, 3.0, pairs),
                                                            rng.uniform(0.1, 3.0, pairs))
                      for s in (1, -1)]
            targets = Spectrum(values + list(-rng.uniform(0.1, 3.0, n - 2 * pairs)))
            gain = place_bass_gura(sys, targets)
            M, e = sys._hessenberg.closed_loop(gain.k)
            assert e == 0
            got = _closed_loop_spectrum(sys, gain.k, targets)
            want = eigenvalues(M.T, near=targets)
            assert np.array(list(got)).tobytes() == np.array(list(want)).tobytes()


@pytest.mark.parametrize("n, index", [(12, 6), (12, 12), (16, 5)])
def test_spectrum_residual_tracks_the_exactly_formed_loop(n, index):
    # seed-1 benchmark systems whose Bass-Gura loop, formed in doubles,
    # reads a spectrum_residual 2e4-2e5 times that of the exactly formed
    # loop (30-digit mpmath eigenvalues of A + b k^T); formed in
    # controller-Hessenberg coordinates, where the rounding perturbs k
    # only, the check reads within 4x of the exact loop's
    mpmath = pytest.importorskip("mpmath")
    from poleplace.verify import _bottleneck

    case = load_perfbench("inputs").dense_case(1, n, index)
    sys = StateSpace(case.A, case.b)
    targets = Spectrum(case.targets)
    gain = place_bass_gura(sys, targets)
    with mpmath.workdps(30):
        M = mpmath.matrix([[mpmath.mpf(case.A[i, j]) + mpmath.mpf(case.b[i]) * mpmath.mpf(gain.k[j])
                            for j in range(n)] for i in range(n)])
        exact = [complex(z) for z in mpmath.eig(M, left=False, right=False)]
    # mpmath's real eigenvalues carry imaginary parts near 1e-30, which the
    # matching reads as distance
    truth = _bottleneck(exact, list(targets))[0]
    rounded = spectrum_distance(eigenvalues(sys.A + np.outer(sys.b, gain.k), near=targets),
                                targets)
    assert rounded >= 100.0 * truth
    assert truth / 4.0 <= gain.diagnostics.spectrum_residual <= 4.0 * truth


def test_gains_and_charpoly_residual_do_not_depend_on_the_spectrum_route(monkeypatch):
    # on the seed 1-3 benchmark pools (the first 6 dense cases per size),
    # every gain and charpoly_residual hashes to the same bytes as with the
    # closed loop formed in doubles for the spectrum and each target
    # polynomial built afresh for the residual; only spectrum_residual moves
    import hashlib

    from poleplace import linalg, placement, poly, verify
    from poleplace import place_ackermann, place_general

    inputs = load_perfbench("inputs")
    pools = [inputs.dense_pool(seed, 6) for seed in (1, 2, 3)]

    def digests():
        gains, spectra = hashlib.sha256(), hashlib.sha256()
        for case in itertools.chain(*pools):
            sys = StateSpace(case.A, case.b)
            targets, pulled = Spectrum(case.targets), Spectrum(case.pulled)
            for place in (lambda: place_bass_gura(sys, targets),
                          lambda: place_ackermann(sys, targets),
                          lambda: place_general(sys, targets, pulled)):
                try:
                    gain = place()
                except PolePlacementError as exc:
                    gains.update(repr(exc).encode())
                    continue
                gains.update(gain.k.tobytes())
                gains.update(gain.diagnostics.charpoly_residual.hex().encode())
                spectra.update(gain.diagnostics.spectrum_residual.hex().encode())
        return gains.hexdigest(), spectra.hexdigest()

    stored_route = digests()
    monkeypatch.setattr(verify, "_closed_loop_spectrum", lambda sys, k, targets:
                        linalg.eigenvalues(sys.A + np.outer(sys.b, k), near=targets))
    for mod in (placement, verify):
        monkeypatch.setattr(mod, "monic_from_roots",
                            lambda roots: poly.monic_from_roots(Spectrum(roots)))
    rounded_route = digests()
    assert stored_route[0] == rounded_route[0]
    assert stored_route[1] != rounded_route[1]


@pytest.mark.parametrize("m", [1e13, 1e16])
def test_far_targets_return_the_gain_when_the_check_cannot_converge(m, tmp_path, capsys):
    # targets -m (1 + 0.01 i) on a dense n = 12 pair: the gain is computed,
    # but the closed-loop check's QR iteration runs out of its 480 sweeps;
    # the gain comes back with spectrum_residual None and a warning naming
    # the check and its budget, after the one its charpoly_residual earns,
    # from the library and from `poleplace place` (exit 0), and compare
    # calls the row "warn", not "ok"
    import json

    from poleplace import cli
    from poleplace.verify import _closed_loop_spectrum

    rng = np.random.default_rng(3)
    A, b = rng.uniform(-1, 1, (12, 12)), rng.uniform(-1, 1, 12)
    sys = StateSpace(A, b)
    targets = Spectrum([-m * (1 + 0.01 * i) for i in range(12)])
    gain = place_bass_gura(sys, targets)
    diag = gain.diagnostics
    assert diag.spectrum_residual is None
    assert diag.charpoly_residual is not None
    assert len(diag.warnings) == 2
    assert diag.warnings[0].startswith(f"charpoly_residual {diag.charpoly_residual:.3e} exceeds")
    assert "closed-loop spectrum check ran out of sweeps" in diag.warnings[1]
    assert "within 480 sweeps" in diag.warnings[1]
    # the check itself still raises; only the diagnostics take it as a warning
    with pytest.raises(ConvergenceError):
        _closed_loop_spectrum(sys, gain.k, targets)
    assert cli._compare_row(12, 0, "bass-gura", sys, targets)["status"] == "warn"

    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 12, "A": A.tolist(), "b": b.tolist()}))
    plan = tmp_path / "p.json"
    plan.write_text(json.dumps({"poles": [repr(z.real) for z in targets]}))
    capsys.readouterr()
    assert cli.main(["place", "--system", str(system), "--plan", str(plan),
                     "--method", "bass-gura"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.array(report["k"]).tobytes() == gain.k.tobytes()
    assert report["diagnostics"]["spectrum_residual"] is None
    assert report["diagnostics"]["warnings"] == list(diag.warnings)


def test_diagnostics_warns_on_ill_conditioned_controllability():
    sys = StateSpace(A=np.diag(np.arange(1.0, 9.0)), b=np.ones(8))
    d = assemble_diagnostics(sys, np.zeros(8))
    assert d.kappa_controllability > 1e8
    assert len(d.warnings) == 1
    assert "condition number" in d.warnings[0]


# ---------------------------------------------------------------------------
# the two routes agree on real placements


def test_routes_agree_on_random_placements():
    rng = np.random.default_rng(317)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        sys = random_controllable(rng, n)
        # well separated targets keep the root conditioning harmless
        base = np.linspace(-3.0, -0.5, n) + rng.uniform(-0.05, 0.05, n)
        targets = Spectrum([complex(v) for v in base])
        gain = place_bass_gura(sys, targets)
        cres = charpoly_residual(sys, gain.k, targets)
        sres = spectrum_distance(eigenvalues(sys.A + np.outer(sys.b, gain.k)), targets)
        assert cres <= 1e-7
        assert sres <= 1e-6


# ---------------------------------------------------------------------------
# forward error against the exact gain


# median forward error per method and size on the seed-1 dense pool (six
# cases at n = 4, 8 and 12, one at n = 20), as measured when the gains
# were last changed; the test allows ten times as much
FORWARD_ERRORS = {
    "bass_gura": {4: 3.55e-16, 8: 1.10e-14, 12: 1.43e-13, 20: 2.35e-13},
    "ackermann": {4: 4.31e-16, 8: 6.16e-15, 12: 1.73e-13, 20: 3.92e-13},
    "general": {4: 4.67e-16, 8: 2.69e-15, 12: 1.85e-14, 20: 5.85e-15},
    "sequential": {4: 1.35e-15, 8: 2.47e-14, 12: 2.68e-13, 20: 6.67e-13},
}


def test_forward_error_against_the_exact_gain():
    mpmath = pytest.importorskip("mpmath")
    from poleplace import paired_plan, place_ackermann, place_general, place_sequential

    inputs = load_perfbench("inputs")
    cases = [inputs.dense_case(1, n, i) for n in (4, 8, 12) for i in range(6)]
    cases.append(inputs.dense_case(1, 20, 0))
    # 60 digits are far more than the data needs: a 100-digit run agrees
    probe = cases[12]
    k60 = exact_gain(probe.A, probe.b, probe.targets, 60)
    k100 = exact_gain(probe.A, probe.b, probe.targets, 100)
    with mpmath.workdps(100):
        assert mpmath.norm(k60 - k100) <= mpmath.mpf(10) ** -50 * mpmath.norm(k100)
    errors = {method: {} for method in FORWARD_ERRORS}
    for case in cases:
        sys, targets = StateSpace(case.A, case.b), Spectrum(case.targets)
        exact = exact_gain(case.A, case.b, case.targets, 60)
        gains = {
            "bass_gura": place_bass_gura(sys, targets).k,
            "ackermann": place_ackermann(sys, targets).k,
            "general": place_general(sys, targets, Spectrum(case.pulled)).k,
            "sequential": place_sequential(sys, paired_plan(sys, targets))[0].k,
        }
        for method, k in gains.items():
            errors[method].setdefault(case.n, []).append(forward_error(k, exact))
    for method, by_size in FORWARD_ERRORS.items():
        for n, reading in by_size.items():
            assert np.median(errors[method][n]) <= 10.0 * reading, (method, n)


def test_known_answer_pairs_at_n24_to_64():
    # perfbench's verify-large pairs A = Q L Q^T - b k^T with the exact k
    # (seed 1, even indices): placing L's spectrum has the answer k.  The
    # baseline a better placement core must beat: Bass-Gura and Ackermann
    # refuse every pair, whose Krylov matrix fails its pivot test, and
    # sequential assignment on the paired plan returns each gain with only
    # the condition-number warning, off k by 1.5e-14 to 7.1e-10 when this
    # test was written
    from poleplace import paired_plan, place_ackermann, place_sequential
    from poleplace.errors import UncontrollableError

    inputs = load_perfbench("inputs")
    for n in (24, 32, 48, 64):
        for index in (0, 2):
            case = inputs.verify_case(1, n, index)
            sys, targets = StateSpace(case.A, case.b), Spectrum(case.targets)
            for place in (place_bass_gura, place_ackermann):
                with pytest.raises(UncontrollableError, match="too badly scaled for the Krylov route"):
                    place(sys, targets)
            gain, _ = place_sequential(sys, paired_plan(sys, targets))
            (warning,) = gain.diagnostics.warnings
            assert warning.startswith("controllability matrix condition number")
            error = np.linalg.norm(gain.k - case.k) / np.linalg.norm(case.k)
            assert error <= 1e-8, (n, index)


def _minus_at_00a20b7(self, other):
    """``Spectrum.minus`` as it stood at 00a20b7: a containment test, then
    a pass over ``self`` and a validated Spectrum."""
    if other.counter() - self.counter():
        raise ValidationError("cannot remove values that are not in the spectrum")
    take = other.counter()
    kept = []
    for z in self.values:
        if take.get(z, 0) > 0:
            take[z] -= 1
        else:
            kept.append(z)
    return Spectrum(kept)


def _closed_loop_at_00a20b7(record, k):
    """``OpenLoopRecord.closed_loop`` as it stood at 00a20b7, reading only
    the record's public arrays: every array formed per gain, one list
    concatenation per coefficient, and a validated Polynomial."""
    n, window = record.digits.shape[:2]
    k = np.asarray(k, dtype=float)
    beta = record.beta
    top = math.frexp(float(np.abs(k).max()))[1]
    rest, slices = np.ldexp(k, beta - top), []
    while rest.any():
        slices.append(np.rint(rest))
        rest -= slices[-1]
        rest *= 2.0**beta
    dots = record.digits @ np.array(slices).reshape(-1, n).T
    word_lead = np.frexp(record.words[:, 0])[1] + record.shift * np.arange(1, n + 1)
    word_lead = np.where(record.words[:, 0] != 0.0, word_lead, np.iinfo(np.int64).min)
    dot_lead = record.grids + (top + math.ceil(math.log2(n)) + 1)
    lead = np.maximum(word_lead, dot_lead)
    steps = beta * (np.arange(window)[:, None] + np.arange(len(slices)) + 2)
    words = np.ldexp(record.words, (record.shift * np.arange(1, n + 1) - lead)[:, None])
    dots = np.ldexp(-dots, (record.grids + top - lead)[:, None, None] - steps)
    desc = [math.ldexp(math.fsum(w + d), e)
            for w, d, e in zip(words.tolist(), dots.reshape(n, -1).tolist(), lead.tolist())]
    return Polynomial(desc[::-1] + [1.0])


def test_seed1_gains_and_closed_loop_polynomials_match_00a20b7_bitwise(monkeypatch):
    # every seed-1 dense-pool gain equals, byte for byte, the gain placed
    # in the same process through 00a20b7's Spectrum.minus (each sequential
    # match clusters its own request, as at 00a20b7), and the exactly
    # formed closed loop of each gain, and of each stored k of the seed-1
    # verify pool, has the coefficient bytes of 00a20b7's closed_loop; all
    # in one process, so the comparison holds on any BLAS
    runs = seed1_dense_gains()
    with monkeypatch.context() as patch:
        patch.setattr(Spectrum, "minus", _minus_at_00a20b7)
        reference = seed1_dense_gains.__wrapped__()
    assert len(runs) == len(reference) == 480
    loops = []
    for (sys, _, method, k), (_, _, ref_method, ref_k) in zip(runs, reference):
        assert method == ref_method
        if isinstance(k, str):
            assert k == ref_k
            continue
        assert isinstance(ref_k, np.ndarray) and k.tobytes() == ref_k.tobytes(), method
        loops.append((sys, k))
    for case in load_perfbench("inputs").verify_pool(1):
        loops.append((StateSpace(case.A, case.b), case.k))
    for sys, k in loops:
        got = sys._polynomial.closed_loop(k).coeffs
        assert got.tobytes() == _closed_loop_at_00a20b7(sys._polynomial, k).coeffs.tobytes()


# the largest bottleneck distance, over max|lambda|, between the closed-loop
# check's spectrum and scipy's eigenvalues of the same loop, over the 360
# seed-1 full-dense gains, at 00a20b7; the test allows ten times as much
SCIPY_SPECTRUM_READING = 1.864e-3


def test_closed_loop_spectrum_agrees_with_scipy_on_the_same_loop():
    # scipy is the third oracle: its eigenvalues of the loop 2**e M the
    # check forms in controller-Hessenberg coordinates.  The placed loops
    # are ill conditioned, so the two read the same poles to 1e-3 relative
    scipy_linalg = pytest.importorskip("scipy.linalg")
    from poleplace.verify import _bottleneck, _checked_loop

    worst = 0.0
    for sys, targets, method, k in seed1_dense_gains():
        if method == "sequential":
            continue
        _, achieved, _ = _checked_loop(sys, k, targets)
        M, e = sys._hessenberg.closed_loop(k)
        reference = scipy_linalg.eigvals(np.ldexp(M, e))
        distance = _bottleneck(list(achieved), list(reference))[0]
        worst = max(worst, distance / np.abs(reference).max())
    assert worst <= 10.0 * SCIPY_SPECTRUM_READING


@pytest.mark.parametrize("index", [3, 5, 6, 12, 22])
def test_rounded_exact_gain_passes_verify_where_its_rounded_loop_fails(index, tmp_path, capsys):
    # seed-1 n = 20 benchmark systems: k* rounded to doubles places the
    # targets to a charpoly_residual of 4.5e-11 or less, read exactly off
    # the open-loop record, while perfbench's residual of the loop
    # A + b k^T rounded to doubles reads 1.25e-6 to 1.8e-4 on the same gain
    import json

    from poleplace import cli

    case = load_perfbench("inputs").dense_case(1, 20, index)
    k = [float(v) for v in exact_gain(case.A, case.b, case.targets, 60)]
    assert load_perfbench("oracle").closed_loop_residual(case.A, case.b, k, case.targets) > 1e-6
    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 20, "A": case.A.tolist(), "b": case.b.tolist()}))
    plan = tmp_path / "p.json"
    plan.write_text(json.dumps({"poles": [cli.format_pole(z) for z in case.targets]}))
    assert cli.main(["verify", "--system", str(system), "--plan", str(plan),
                     "--gain=" + ",".join(map(repr, k))]) == 0
    printed = capsys.readouterr().out
    assert float(printed.split("charpoly_residual")[1].split()[0]) <= 1e-9


def _check_general_formula_with_kept_pulled(n, seed, pair, assume):
    # the paper's identities: pulling the kept open-loop values mu into
    # prod(A - mu I) annihilates their right eigenvectors, so
    # place_general(kept + to, pulled=kept) keeps them, and its exact gain
    # is that of place_partial(move, to); Simon-Mitter is the case of one
    # real value, n - 1 pulled.  Each side's forward error against that
    # exact gain (taken with the kept values as computed) stays within
    # 100 times the general gain's, or n eps when that is smaller
    from poleplace import place_general, place_partial, place_simon_mitter

    rng = np.random.default_rng(seed)
    sys = StateSpace(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n))
    assume(sys._kappa <= 1e8)
    values = list(eigenvalues(sys.A))
    if pair:
        upper = [z for z in values if z.imag > 0.0]
        assume(upper)
        w = complex(rng.uniform(-3, 0), rng.uniform(0.1, 2))
        move, to = [upper[0], upper[0].conjugate()], [w, w.conjugate()]
    else:
        reals = [z for z in values if z.imag == 0.0]
        assume(reals)
        move, to = [reals[0]], [complex(rng.uniform(-3, 0))]
    kept = list(Spectrum(values).minus(Spectrum(move)))
    try:
        general = place_general(sys, kept + to, kept).k
        sides = [place_partial(sys, move, to).k]
        if not pair:
            sides.append(place_simon_mitter(sys, move[0].real, to[0].real).k)
    except PolePlacementError:
        assume(False)
    exact = exact_gain(sys.A, sys.b, Spectrum(kept + to), 60)
    bound = 100.0 * max(forward_error(general, exact), n * np.finfo(float).eps)
    for k in sides:
        assert forward_error(k, exact) <= bound


def test_partial_and_simon_mitter_are_the_general_formula_with_the_kept_values_pulled():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.booleans())
    def check(n, seed, pair):
        _check_general_formula_with_kept_pulled(n, seed, pair, hypothesis.assume)

    check()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the partial gain's forward error passes the fixed floor of "
                          "100 n eps when the general gain's is below n eps")
@pytest.mark.parametrize("n, seed, pair", [(5, 38, False)])
def test_general_formula_recorded_draws(n, seed, pair):
    # a draw of the property above that breaks its bound: the partial
    # gain's forward error is 1.30e-13 against 100 n eps = 1.11e-13, where
    # the general gain's is below n eps; recorded so the known defect
    # shows on every run
    def assume(valid):
        if not valid:
            pytest.fail("not a valid draw of the property")

    _check_general_formula_with_kept_pulled(n, seed, pair, assume)
