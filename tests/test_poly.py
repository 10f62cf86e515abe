"""Polynomial and spectrum layer: construction, the trace recurrence, and
matrix evaluation."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from poleplace import Polynomial, Spectrum, char_poly, monic_from_roots
from poleplace.errors import ValidationError
from poleplace import poly
from poleplace.poly import eval_matrix


# ---------------------------------------------------------------------------
# Polynomial / Spectrum containers


def test_polynomial_degree_and_monic():
    q = Polynomial([2.0, 3.0, 1.0])
    assert q.degree == 2
    assert q.is_monic
    assert not Polynomial([1.0, 2.0]).is_monic


def test_polynomial_equality_is_exact():
    assert Polynomial([1.0, 2.0]) == Polynomial([1, 2])
    assert Polynomial([1.0, 2.0]) != Polynomial([1.0, 2.0 + 1e-15])


def test_polynomial_rejects_bad_coefficients():
    with pytest.raises(ValidationError):
        Polynomial([])
    with pytest.raises(ValidationError):
        Polynomial([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError):
        Polynomial([1.0, np.nan])


def test_spectrum_requires_exact_conjugate_partner():
    Spectrum([1 + 2j, 1 - 2j])
    with pytest.raises(ValidationError):
        Spectrum([1j])
    with pytest.raises(ValidationError):
        Spectrum([1 + 2j, 1 - 2.0000001j])


def test_spectrum_multiset_semantics():
    s = Spectrum([-1, -1, -2])
    assert len(s) == 3
    assert s.counter()[complex(-1)] == 2
    assert s == Spectrum([-2, -1, -1])
    assert s.contains(Spectrum([-1, -2]))
    assert not s.contains(Spectrum([-3]))
    assert s.minus(Spectrum([-1])) == Spectrum([-1, -2])
    with pytest.raises(ValidationError):
        s.minus(Spectrum([-5]))


def test_spectrum_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Spectrum([np.inf])


# ---------------------------------------------------------------------------
# monic_from_roots


def test_monic_from_roots_real_pair():
    q = monic_from_roots([-1.0, -2.0])
    assert np.array_equal(q.coeffs, [2.0, 3.0, 1.0])


def test_monic_from_roots_complex_pair():
    q = monic_from_roots([-1 + 1j, -1 - 1j])
    assert np.array_equal(q.coeffs, [2.0, 2.0, 1.0])


def test_monic_from_roots_empty_is_one():
    q = monic_from_roots([])
    assert np.array_equal(q.coeffs, [1.0])


def test_monic_from_roots_order_independent():
    a = monic_from_roots([-3.0, -1 + 2j, -1 - 2j, -0.5])
    b = monic_from_roots([-0.5, -1 - 2j, -3.0, -1 + 2j])
    assert a == b


def test_monic_from_roots_rejects_unpaired_complex():
    with pytest.raises(ValidationError):
        monic_from_roots([-1 + 1j])


def test_monic_from_roots_residual_at_roots():
    rng = np.random.default_rng(7)
    for _ in range(40):
        half = rng.integers(0, 4)
        nreal = int(rng.integers(0, 5))
        roots = []
        for _ in range(half):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            roots += [z, z.conjugate()]
        roots += [complex(rng.uniform(-3, 3)) for _ in range(nreal)]
        if not roots:
            continue
        q = monic_from_roots(roots)
        bound = 1e-9 * (1.0 + max(abs(z) for z in roots)) ** q.degree
        for z in roots:
            assert abs(npoly.polyval(z, q.coeffs)) <= bound


# ---------------------------------------------------------------------------
# char_poly


def test_char_poly_double_integrator():
    q = char_poly([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(q.coeffs, [0.0, 0.0, 1.0])


def test_char_poly_diagonal():
    q = char_poly(np.diag([1.0, 2.0]))
    assert np.array_equal(q.coeffs, [2.0, -3.0, 1.0])


def test_char_poly_extreme_scales():
    # Slice grids sit far below the entries; near the ends of the double
    # range they must neither overflow nor underflow.
    big = char_poly(np.diag([1e300, 2.0]))
    assert np.array_equal(big.coeffs, [2e300, -float(Fraction(1e300) + 2), 1.0])
    tiny = char_poly([[1e-300, 2e-300], [0.0, 3e-300]])
    trace = Fraction(1e-300) + Fraction(3e-300)
    assert np.array_equal(tiny.coeffs, [0.0, -float(trace), 1.0])


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValidationError):
        char_poly(np.zeros((2, 3)))


def test_char_poly_matches_roots_of_spectrum():
    # Independent route: Schur eigenvalues expanded back into coefficients.
    from poleplace import eigenvalues

    rng = np.random.default_rng(11)
    for _ in range(15):
        A = rng.uniform(-1, 1, (6, 6))
        got = char_poly(A).coeffs
        want = monic_from_roots(eigenvalues(A)).coeffs
        den = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / den) <= 1e-8


def test_char_poly_orthogonal_similarity_invariant():
    rng = np.random.default_rng(23)
    for n in (3, 5, 8, 10):
        A = rng.uniform(-2, 2, (n, n))
        Q, _ = np.linalg.qr(rng.uniform(-1, 1, (n, n)))
        got = char_poly(Q.T @ A @ Q).coeffs
        want = char_poly(A).coeffs
        den = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / den) <= 1e-8


def _char_poly_rational(rows):
    # Same trace recurrence over exact rationals; the independent check
    # here is of the floating-point, not the algebra.
    n = len(rows)
    A = [[Fraction(int(v)) for v in row] for row in rows]
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    desc = [Fraction(1)]
    for k in range(1, n + 1):
        C = [
            [sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(C[i][i] for i in range(n)) / k
        desc.append(c)
        M = C
        for i in range(n):
            M[i][i] += c
    return desc[::-1]


def test_char_poly_exact_on_integer_matrices():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.integers(-4, 5, (6, 6))
        exact = _char_poly_rational(A.tolist())
        got = char_poly(A.astype(float)).coeffs
        assert np.array_equal(got, [float(c) for c in exact])


def test_char_poly_survives_large_feedback_row():
    # A + b k^T with |k| ~ 1e3 drives the intermediates of the recurrence
    # far above the coefficients; plain double arithmetic loses them, the
    # digit state of the recurrence must still round to the exact integer
    # answer.
    rng = np.random.default_rng(47)
    for _ in range(5):
        A = rng.integers(-4, 5, (6, 6))
        b = rng.integers(0, 2, 6)
        b[0] = 1
        k = rng.integers(-1024, 1025, 6)
        Abar = A + np.outer(b, k)
        exact = _char_poly_rational(Abar.tolist())
        got = char_poly(Abar.astype(float)).coeffs
        assert np.array_equal(got, [float(c) for c in exact])


def _load_oracle():
    # perfbench's exact Berkowitz polynomial, which shares no code with
    # the package.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_char_poly_exact_on_nonnormal_closed_loop():
    # Q L Q^T - b k^T: a closed loop with a known spectrum, non-normal
    # through the feedback term.  The recurrence cancels hard at n = 48;
    # a two-word state gets three coefficients wrong here.
    n = 48
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    L = np.zeros((n, n))
    for i in range(0, n, 2):
        re, im = -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        L[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
    A = Q @ L @ Q.T - np.outer(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    exact = _load_oracle().char_poly_exact(A)
    assert np.array_equal(char_poly(A).coeffs, [float(c) for c in exact[::-1]])


def test_char_poly_exact_on_integer_feedback_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def closed_loops(draw):
        n = draw(st.integers(1, 8))
        entries = st.integers(-(2**8), 2**8)
        A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
        b = np.array(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
        gains = st.integers(-(2**10), 2**10)
        k = np.array(draw(st.lists(gains, min_size=n, max_size=n)))
        return A.reshape(n, n) + np.outer(b, k)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(closed_loops())
    def check(M):
        exact = _char_poly_rational(M.tolist())
        assert np.array_equal(char_poly(M.astype(float)).coeffs, [float(c) for c in exact])

    check()


def _load_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look themselves up there
    spec.loader.exec_module(inputs)
    return inputs


def _exact_coeffs(M):
    return np.array([float(c) for c in _load_oracle().char_poly_exact(M)[::-1]])


def test_slice_plan_keeps_every_group_and_carry_exact():
    # the bound of the comment in poly.py, for every plan char_poly can pick
    for n in (1, 2, 3, 4, 8, 16, 20, 24, 32, 48, 64, 100, 256, 1000):
        for spread in (0, 21, 200, 1074):
            beta, window, levels, rounds = poly._slice_plan(n, spread)
            assert (window - 1) * beta >= poly._WINDOW_BITS
            assert levels == window + spread // beta
            h = 2.0 ** (beta - 1) * poly._DIGIT_SLACK
            assert n * 2.0**beta * h * (levels + 1) / 2 <= 2.0**52
    # the worst case itself, on BLAS: every slice and digit at its bound,
    # the largest group summed in floating point and in integers
    n = 64
    beta, window, levels, rounds = poly._slice_plan(n, 0)
    h = int(2.0 ** (beta - 1) * poly._DIGIT_SLACK)
    A_stack = np.full((levels * n, n), 2 ** (beta - 1), dtype=np.int64)
    A_stack[-n:] = 2**beta  # A_0, which meets D_{levels-1}
    E = np.full((n, levels * n), h, dtype=np.int64)
    E[::3] *= -1
    group = E.astype(float) @ A_stack.astype(float)
    exact = E @ A_stack
    assert np.abs(exact).max() <= 2**52
    assert np.array_equal(group, exact.astype(float))
    # carries: from levels just below 2**53 every digit below the top ends
    # within h and the value of each column is unchanged
    rng = np.random.default_rng(3)
    digits = rng.integers(-(2**53) + 1, 2**53, (levels + 2, 5)).astype(float)
    digits[0] = 0.0
    value = [sum(int(d) << (beta * (len(digits) - 1 - t)) for t, d in enumerate(col))
             for col in digits.T]
    poly._carry(digits, beta, rounds)
    assert np.abs(digits[1:]).max() <= h
    assert value == [sum(int(d) << (beta * (len(digits) - 1 - t)) for t, d in enumerate(col))
                     for col in digits.T]


def test_char_poly_pads_the_top_when_c_k_lies_far_above_a_column(monkeypatch):
    # x (x**2 - 2**-60 x + 1): M_1's first column is -2**-60 e_0, while
    # c_2 = 1 lies 60 bits above it, beyond the two levels of top padding
    padding = []
    top_padding = poly._top_padding

    def recorded(bits, beta):
        padding.append(top_padding(bits, beta))
        return padding[-1]

    monkeypatch.setattr(poly, "_top_padding", recorded)
    A = np.zeros((3, 3))
    A[1:, 1:] = [[2.0**-60, 1.0], [-1.0, 0.0]]
    got = char_poly(A).coeffs
    assert max(padding[1:]) > padding[0] == 2
    assert np.array_equal(got, [0.0, 1.0, -(2.0**-60), 1.0])
    assert np.array_equal(got, _exact_coeffs(A))


def test_char_poly_keeps_rows_2_to_the_200_below_the_largest(monkeypatch):
    # Row 1's products lie 200 bits below row 0's, past the L levels that
    # the largest row needs; the extra group levels keep them exact.
    # Without them (the plan of a matrix with no spread) every draw is off.
    rng = np.random.default_rng(17)
    draws = [np.ldexp(rng.uniform(-1, 1, (2, 2)), [[0], [-200]]) for _ in range(6)]
    draws += [M[::-1, ::-1] for M in draws]
    beta = poly._slice_plan(2, 200)[0]
    assert poly._slice_plan(2, 200)[2] == poly._slice_plan(2, 0)[2] + 200 // beta
    for M in draws:
        assert np.array_equal(char_poly(M).coeffs, _exact_coeffs(M))
    plan = poly._slice_plan
    monkeypatch.setattr(poly, "_slice_plan", lambda n, spread: plan(n, 0))
    for M in draws:
        assert not np.array_equal(char_poly(M).coeffs, _exact_coeffs(M))


def test_char_poly_diagonal_spread_across_150_bits():
    # 1e-45 lies ~150 bits below the other entries, and c_1 = -(3 + 1e-45)
    # needs ~205 bits, more than a column window; the constant coefficient
    # -2e-45 still comes out within 1e-13 of its size
    got = char_poly(np.diag([1.0, 1e-45, 2.0])).coeffs
    assert np.array_equal(got[1:], [2.0, -3.0, 1.0])
    assert abs(got[0] + 2e-45) <= 1e-13 * 2e-45


@pytest.mark.parametrize("seed, index, parent_error", [
    (1, 8, 5.0e-16), (1, 9, 2.2e-12), (2, 1, 2.8e-5), (2, 8, 1.4e-12),
])
def test_char_poly_open_loops_at_n64_against_the_exact_polynomial(seed, index, parent_error):
    # The verify-large open loops at n = 64 of seeds 1-2 on which the
    # three-word state of the previous char_poly was off the exact
    # polynomial by parent_error (largest relative coefficient error); the
    # digit state matches it on three and is closer on the fourth.  On
    # every other matrix of those pools, open and closed loop, and of the
    # seed 1-2 dense pools, the two gave the same bits.
    A = _load_inputs().verify_case(seed, 64, index).A
    exact = _exact_coeffs(A)
    got = char_poly(A).coeffs
    error = np.max(np.abs(got - exact) / np.abs(exact))
    assert error < parent_error
    if (seed, index) != (2, 1):
        assert np.array_equal(got, exact)
    else:
        assert error <= 2e-9


def test_char_poly_cayley_hamilton():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4, 6):
        A = rng.uniform(-1, 1, (n, n))
        R = eval_matrix(char_poly(A), A)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(A)))) ** n
        assert np.max(np.abs(R)) <= bound


# ---------------------------------------------------------------------------
# matrix evaluation


def test_eval_matrix_double_integrator():
    q = Polynomial([2.0, 3.0, 1.0])
    R = eval_matrix(q, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(R, [[2.0, 3.0], [0.0, 2.0]])


def test_eval_matrix_constant():
    R = eval_matrix(Polynomial([5.0]), np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(R, 5.0 * np.eye(3))


def test_eval_matrix_rejects_nonsquare():
    with pytest.raises(ValidationError):
        eval_matrix(Polynomial([1.0]), np.zeros((2, 3)))
