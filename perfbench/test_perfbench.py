"""Tests of the benchmark's exact oracle and its input generator.

Run with ``python3 -m pytest perfbench``.  None of the modules tested
imports poleplace, and neither do these tests.
"""

from fractions import Fraction

import numpy as np
import pytest

import inputs
import oracle
import run
import speed


@pytest.mark.parametrize(
    "M, poly",
    [
        ([[5]], [1, -5]),
        ([[2, 1], [1, 2]], [1, -4, 3]),
        ([[1, 2], [3, 4]], [1, -5, -2]),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [1, 0, 0, 0]),
        ([[1, 7, -3], [0, 2, 9], [0, 0, 3]], [1, -6, 11, -6]),
        # nilpotent shift: x^4
        ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [1, 0, 0, 0, 0]),
        # rotation by 90 degrees twice over: (x^2 + 1)^2
        ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], [1, 0, 2, 0, 1]),
    ],
)
def test_berkowitz_known_polynomials(M, poly):
    assert oracle.berkowitz(M) == poly


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_companion_matrix_gives_back_its_coefficients(n):
    rng = np.random.default_rng(n)
    coeffs = [1] + [int(c) for c in rng.integers(-50, 50, n)]
    C = [[0] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = 1
    for i in range(n):
        C[i][n - 1] = -coeffs[n - i]
    assert oracle.berkowitz(C) == coeffs


def test_float_matrix_is_rescaled_exactly():
    M = np.array([[0.5, 0.25], [0.125, -3.0]])
    # det(xI - M) = x^2 + 2.5 x - 1.5 - 1/32
    assert oracle.char_poly_exact(M) == [1, Fraction(5, 2), Fraction(-49, 32)]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_agrees_with_numpy_on_normal_matrices(n):
    rng = np.random.default_rng(10 + n)
    S = rng.uniform(-1.0, 1.0, (n, n))
    A = S + S.T
    exact = np.array([float(c) for c in oracle.char_poly_exact(A)])
    np.testing.assert_allclose(exact, np.poly(A), rtol=1e-10, atol=1e-12)


def test_poly_from_roots_pairs_conjugates():
    assert oracle.poly_from_roots([2.0, 1 + 1j, 1 - 1j]) == [1, -4, 6, -4]


def test_residual_is_zero_for_an_exact_spectrum():
    targets = (-1.0, -2.5, complex(-0.5, 2.0), complex(-0.5, -2.0))
    L = inputs.real_block_diagonal(targets)
    zero = np.zeros(len(targets))
    assert oracle.closed_loop_residual(L, zero, zero, targets) == 0.0


@pytest.mark.parametrize("n", list(inputs.VERIFY_COUNTS))
def test_verify_large_truth_holds_exactly(n):
    exact = inputs.verify_case(0, n, 0)
    perturbed = inputs.verify_case(0, n, 1)
    assert exact.exact and not perturbed.exact
    assert oracle.closed_loop_residual(
        exact.A, exact.b, exact.k, exact.targets) < 1e-3 * oracle.RESIDUAL_LIMIT
    assert oracle.closed_loop_residual(
        perturbed.A, perturbed.b, perturbed.k, perturbed.targets) > 10 * oracle.RESIDUAL_LIMIT


def test_dense_pool_is_gated_and_reproducible():
    pool = inputs.dense_pool(3, 1)
    assert [c.n for c in pool] == list(inputs.DENSE_SIZES)
    for case in pool:
        assert np.linalg.cond(inputs.krylov(case.A, case.b)) <= inputs.KAPPA_LIMIT
        assert len(case.targets) == case.n
        assert all(z.real < 0.0 for z in case.targets)
        assert sorted(case.pulled, key=repr) == sorted(
            (z.conjugate() for z in case.pulled), key=repr)
    assert inputs.fingerprint(pool) == inputs.fingerprint(inputs.dense_pool(3, 1))
    assert inputs.fingerprint(pool) != inputs.fingerprint(inputs.dense_pool(4, 1))


def test_pole_literals_round_trip():
    z = complex(-0.1234567890123456789, 2.0 / 3.0)
    text = inputs.pole_literal(z.conjugate())
    assert text.endswith("i") and "-" in text[1:]
    re, im = text[:-1].rsplit("-", 1)
    assert complex(float(re), -float(im)) == z.conjugate()


def test_scale_divides_by_the_speed_around_each_time():
    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert speed.scale(times, [speed.NOMINAL_S] * 5) == times
    assert speed.scale(times, [2 * speed.NOMINAL_S] * 5) == [t / 2 for t in times]
    # one slow kernel call is outvoted by the window's median
    refs = [speed.NOMINAL_S] * 20
    refs[7] = 100 * speed.NOMINAL_S
    assert speed.scale([1.0] * 20, refs) == [1.0] * 20


def test_scale_follows_a_change_of_speed():
    refs = [speed.NOMINAL_S] * 30 + [2 * speed.NOMINAL_S] * 30
    out = speed.scale([1.0] * 60, refs)
    assert out[:25] == [1.0] * 25 and out[-25:] == [0.5] * 25


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pass_count_depends_on_the_arguments_only(workload):
    one = run.PASS_SECONDS[workload]
    assert run.pass_count(workload, 1000, 3 * one, False) == 3
    assert run.pass_count(workload, 1000, 0.1 * one, False) == 1
    assert run.pass_count(workload, 30, 0.1 * one, False) == 4  # 100 latencies
    assert run.pass_count(workload, 30, 0.1 * one, True) == 1
