"""Polynomial and spectrum layer: construction, the trace recurrence, and
matrix evaluation."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from poleplace import Polynomial, Spectrum, char_poly, monic_from_roots
from poleplace.errors import NumericalError, ValidationError
from poleplace import poly
from poleplace.poly import eval_matrix

from families import load_perfbench


# ---------------------------------------------------------------------------
# Polynomial / Spectrum containers


def test_polynomial_degree_and_monic():
    # ascending storage: coeffs[j] multiplies x**j, so the degree is
    # size - 1 and a monic polynomial ends in an exact 1.0
    assert Polynomial([2.0, 3.0, 1.0]).coeffs.tolist() == [2.0, 3.0, 1.0]
    q = monic_from_roots([0.1, 0.3, -0.7])
    assert q.coeffs.size == 4
    assert q.coeffs[-1] == 1.0


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
    assert not Spectrum([-1, -2]).counter() - s.counter()
    assert Spectrum([-3]).counter() - s.counter()
    assert s.minus(Spectrum([-1])) == Spectrum([-1, -2])
    # one pass: each removed value takes its first occurrence, the rest
    # keep their order
    pairs = Spectrum([-1, -1 + 1j, -2, -1 - 1j, -1])
    assert pairs.minus(Spectrum([-1 - 1j, -1, -1 + 1j])).values == (-2 + 0j, -1 + 0j)
    for absent in ([-5], [-1, -1, -1]):
        with pytest.raises(ValidationError, match="cannot remove values that are not in the"):
            s.minus(Spectrum(absent))


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


def test_monic_from_roots_beyond_float_range_is_numerical_error():
    # valid targets whose polynomial leaves the float range: a typed
    # numerical failure naming the coefficient, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"coefficient of x\*\*0 overflows"):
            monic_from_roots([1e30] * 12)
        with pytest.raises(NumericalError, match="overflows the float range"):
            monic_from_roots([1e200 + 1e200j, 1e200 - 1e200j])


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
        bound = 1e-9 * (1.0 + max(abs(z) for z in roots)) ** len(roots)
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


def test_char_poly_coefficient_overflow_is_a_numerical_error():
    # a coefficient past the float range is named, with no RuntimeWarning
    # on the way: at n = 12 and scale 2**100 the constant one is ~2**1200
    A = np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (100, 200):
            with pytest.raises(NumericalError, match=r"coefficient of x\*\*0 overflows"):
                char_poly(np.ldexp(A, scale))
        # 1e300 squared is past the range as well
        with pytest.raises(NumericalError, match=r"coefficient of x\*\*0 overflows"):
            char_poly(np.diag([1e300, 1e300]))


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
    exact = load_perfbench("oracle").char_poly_exact(A)
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


def _exact_coeffs(M):
    return np.array([float(c) for c in load_perfbench("oracle").char_poly_exact(M)[::-1]])


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
    poly._carry(digits, beta, rounds, np.empty_like(digits[1:]))
    assert np.abs(digits[1:]).max() <= h
    assert value == [sum(int(d) << (beta * (len(digits) - 1 - t)) for t, d in enumerate(col))
                     for col in digits.T]


def _far_column_matrix():
    # x (x**2 - 2**-60 x + 1): M_1's first column is -2**-60 e_0, while
    # c_2 = 1 lies 60 bits above it, beyond the two levels of top padding
    A = np.zeros((3, 3))
    A[1:, 1:] = [[2.0**-60, 1.0], [-1.0, 0.0]]
    return A


def test_char_poly_pads_the_top_when_c_k_lies_far_above_a_column(monkeypatch):
    # Every carry runs over the levels of the state its step works on, pad
    # + levels of them: the group sums' carry (3-D) at the start of a step,
    # c_k's carry-in on the diagonal (2-D) after it.  The first step has
    # pad0 = 2.  c_2 must be carried into a state grown mid-step, and step
    # 3 must start padded, since x_2 = M_1 e_0 = -2**-60 e_0 lies as far
    # below c_2 b.
    carries = []
    carry = poly._carry

    def recorded(digits, *args):
        carries.append((digits.ndim, digits.shape[0]))
        return carry(digits, *args)

    monkeypatch.setattr(poly, "_carry", recorded)
    A = _far_column_matrix()
    got = char_poly(A).coeffs
    beta, _, levels, _ = poly._slice_plan(3, 0)
    assert poly._top_padding(math.log2(3), beta) == 2
    assert carries[0] == (3, levels + 2)
    assert max(h for ndim, h in carries if ndim == 2) > levels + 2
    assert max(h for ndim, h in carries[1:] if ndim == 3) > levels + 2
    assert np.array_equal(got, [0.0, 1.0, -(2.0**-60), 1.0])
    assert np.array_equal(got, _exact_coeffs(A))


def test_char_poly_refuses_top_padding_beyond_its_state(monkeypatch):
    # the state holds the top padding of a column far_bits below c_k's
    # grid; a smaller bound must make the far column's step raise rather
    # than read the state from its far end
    beta, window, _, _ = poly._slice_plan(3, 0)
    far_bits = (window + 1) * beta + math.ceil(math.log2(3)) + 3
    top_padding = poly._top_padding
    monkeypatch.setattr(poly, "_top_padding", lambda bits, beta: (
        top_padding(0, beta) if bits == far_bits else top_padding(bits, beta)))
    with pytest.raises(NumericalError, match="top padding"):
        char_poly(_far_column_matrix())


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
    A = load_perfbench("inputs").verify_case(seed, 64, index).A
    exact = _exact_coeffs(A)
    got = char_poly(A).coeffs
    error = np.max(np.abs(got - exact) / np.abs(exact))
    assert error < parent_error
    if (seed, index) != (2, 1):
        assert np.array_equal(got, exact)
    else:
        assert error <= 2e-9


def _record_cases():
    # dense, graded by 2**+-60 (similar to the dense one), block-scaled,
    # companion and zero matrices
    rng = np.random.default_rng(19)
    for n in (1, 2, 5, 9, 16, 33):
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        grade = np.ldexp(1.0, rng.integers(-60, 61, n))
        block = A.copy()
        block[n // 2 :] *= 2.0**-100
        chain = np.eye(n, k=1)
        chain[-1] = rng.integers(-5, 6, n)
        yield A, b
        yield grade[:, None] * A / grade, grade * b
        yield block, b
        yield chain, np.eye(n)[-1]
        yield np.zeros((n, n)), b


def test_open_loop_record_polynomial_is_char_poly():
    # char_poly(A) is the polynomial of the record of (A, e_1); the column
    # x_k = M_{k-1} b changes nothing in M's columns, so the record of
    # (A, b) for any other b has p bit for bit the same, and the stored
    # arrays are read-only
    for A, b in _record_cases():
        record = poly.open_loop_record(A, b)
        assert np.array_equal(record.p.coeffs, char_poly(A).coeffs)
        for arr in (record.words, record.digits, record.grids):
            assert not arr.flags.writeable


def test_record_closed_loop_rounds_its_record_once():
    # each closed-loop coefficient is the record's c_j - k^T x_j, exactly,
    # rounded once: the sliced dot of k with x_j's digits is exact however
    # k's entries spread, and a zero gain gives p itself
    rng = np.random.default_rng(23)
    for trial, (A, b) in enumerate(_record_cases()):
        record = poly.open_loop_record(A, b)
        n = b.size
        assert record.closed_loop(np.zeros(n)) == record.p
        k = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-2.0, 8.0)
        k[0] *= 2.0 ** (-500 if trial % 2 else 300)
        got = record.closed_loop(k).coeffs[::-1]
        window = record.digits.shape[1]
        for j in range(1, n + 1):
            c = sum(Fraction(w) for w in record.words[j - 1].tolist())
            c *= Fraction(2) ** (record.shift * j)
            unit = Fraction(2) ** int(record.grids[j - 1] - window * record.beta)
            x = [unit * sum(int(d) << ((window - 1 - l) * record.beta)
                            for l, d in enumerate(record.digits[j - 1, :, i].tolist()))
                 for i in range(n)]
            exact = c - sum(Fraction(v) * xi for v, xi in zip(k.tolist(), x))
            assert got[j] == float(exact)


def test_record_closed_loop_validates_and_names_overflow():
    record = poly.open_loop_record([[0.0]], [2.0])
    with pytest.raises(ValidationError):
        record.closed_loop([1.0, 2.0])
    with pytest.raises(ValidationError):
        record.closed_loop([np.inf])
    with pytest.raises(ValidationError):
        poly.open_loop_record([[0.0]], [np.nan])
    # -k b = -3.4e308 is beyond the float range
    with pytest.raises(NumericalError, match=r"closed-loop .* coefficient of x\*\*0 overflows"):
        record.closed_loop([1.7e308])


def test_record_closed_loop_matches_char_poly_on_dyadic_loops_property():
    # where A + b k^T is formed exactly in floats, the record's closed loop
    # and char_poly of the float-formed loop are the same bits
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from poleplace import StateSpace

    @st.composite
    def systems(draw):
        n = draw(st.integers(1, 8))
        A = np.array(draw(st.lists(st.integers(-32, 32), min_size=n * n, max_size=n * n)))
        b = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        k = np.array(draw(st.lists(st.integers(-(2**10), 2**10), min_size=n, max_size=n)))
        return StateSpace(A.reshape(n, n) / 4.0, b), k / 8.0

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(systems())
    def check(case):
        sys, k = case
        M = sys.A + np.outer(sys.b, k)
        assert np.array_equal(M - sys.A - np.outer(sys.b, k), np.zeros_like(M))
        assert sys._polynomial.closed_loop(k) == char_poly(M)

    check()


def _pinned_record_cases():
    # perfbench's seed-1 dense and verify pools, then the edge cases of
    # this file, each with a generic b and with b = e_1
    inputs = load_perfbench("inputs")
    for case in inputs.dense_pool(1, 24) + inputs.verify_pool(1):
        yield case.A, case.b
    rng = np.random.default_rng(31)
    blocks = np.zeros((6, 6))
    blocks[:3, :3] = rng.uniform(-1.0, 1.0, (3, 3))
    blocks[3:, 3:] = np.ldexp(rng.uniform(-1.0, 1.0, (3, 3)), -200)
    spread = np.random.default_rng(17)
    draws = [np.ldexp(spread.uniform(-1, 1, (2, 2)), [[0], [-200]]) for _ in range(6)]
    extra = [_far_column_matrix(), *draws, *(M[::-1, ::-1] for M in draws),
             np.diag([1.0, 1e-45, 2.0]), blocks, np.zeros((4, 4)), np.array([[0.7]]),
             np.ldexp(rng.uniform(-1.0, 1.0, (5, 5)), 400)]  # the last overflows
    for n in (30, 48):
        # the Bass-Gura closed loop of an integrator chain with targets on
        # [-2, -1]: its polynomial is known to be wrong at these sizes
        chain = np.eye(n, k=1)
        chain[-1] = -monic_from_roots(np.linspace(-2.0, -1.0, n)).coeffs[:-1]
        extra.append(chain)
    for A in extra:
        yield A, rng.uniform(-1.0, 1.0, A.shape[0])
        yield A, np.eye(A.shape[0])[0]


def test_open_loop_record_bits_are_pinned():
    # every array of the record, or the message of its NumericalError, on
    # a fixed corpus; a faster recurrence must keep all of them bit for bit
    digest = hashlib.sha256()
    for A, b in _pinned_record_cases():
        try:
            record = poly.open_loop_record(A, b)
        except NumericalError as exc:
            digest.update(str(exc).encode())
            continue
        for arr in (record.p.coeffs, record.words, record.digits, record.grids):
            digest.update(repr((arr.dtype.str, arr.shape)).encode() + arr.tobytes())
        digest.update(repr((record.shift, record.beta)).encode())
    # the digest at the commit before the step loop was rewritten
    assert digest.hexdigest() == (
        "1a29cb5ecf5197920abd265441587f1ce7bbdef3b936ae72f46426f068bf25f4")


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
