"""Dense linear algebra engine: elimination, the Hessenberg reduction
inside the real Schur iteration, reordering, the invariant-subspace split
and the leading-block feedback update.

The Schur tests check structure exactly (the iteration writes hard zeros)
and accuracy against LAPACK through numpy, which is an independent route.
"""

import functools
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from poleplace.errors import (
    AmbiguousMatchError,
    BlockSwapError,
    ConvergenceError,
    MatchingError,
    NumericalError,
    SingularMatrixError,
    ValidationError,
)
from poleplace import linalg
from poleplace.placement import StateSpace
from poleplace.poly import Spectrum
from poleplace.verify import spectrum_distance
from poleplace.linalg import (
    EPS,
    TINY,
    SchurDecomposition,
    _feed_leading,
    _hessenberg_upper,
    _householder,
    _scan_blocks_upper,
    _scaled_transpose,
    condition_number,
    eigenvalues,
    invariant_split,
    krylov,
    max_abs,
    real_schur,
    reorder_schur,
    solve_linear,
)


def _block_bits(blocks):
    """Starts, sizes and the exact bits of every block's eigenvalues."""
    return [(blk.start, blk.size, [(z.real.hex(), z.imag.hex()) for z in blk.eigenvalues])
            for blk in blocks]


def _no_sweeps(monkeypatch):
    """Make every QR sweep a no-op, so the iteration runs out of its budget
    of 40 sweeps per dimension with nothing deflated by sweeping."""
    monkeypatch.setattr(linalg, "_francis_step", lambda *args: 0)


def _assert_first_order_bound(A, values):
    """Each of ``values`` is within the first-order bound of one eigenvalue
    of A, one to one: a backward error of criterion 7's size, 1024 n eps
    ||A||_2, moves an eigenvalue by at most kappa times it, kappa = 1 /
    |y^H x| for unit left and right eigenvectors (inf for a defective
    one), from scipy's LAPACK."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    optimize = pytest.importorskip("scipy.optimize")
    w, vl, vr = scipy_linalg.eig(A, left=True, right=True)
    with np.errstate(divide="ignore"):
        kappa = 1.0 / np.abs(np.sum(vl.conj() * vr, axis=0))
    bound = 1024 * A.shape[0] * EPS * np.linalg.norm(A, 2) * kappa
    ratio = np.abs(np.array(values, dtype=complex)[:, None] - w[None, :]) / bound
    rows, cols = optimize.linear_sum_assignment(ratio)
    assert len(rows) == A.shape[0] and np.all(ratio[rows, cols] <= 1.0)


def _nearest_match_distance(got, want):
    got = list(got)
    out = 0.0
    for w in want:
        i = min(range(len(got)), key=lambda j: abs(got[j] - w))
        out = max(out, abs(got.pop(i) - w))
    return out


# ---------------------------------------------------------------------------
# solves, krylov, conditioning


def test_solve_identity_is_exact():
    rhs = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(solve_linear(np.eye(3), rhs), rhs)


def test_solve_permutation():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(solve_linear(M, np.array([1.0, 2.0])), [2.0, 1.0])


def test_solve_matrix_rhs():
    rng = np.random.default_rng(3)
    M = rng.uniform(-1, 1, (5, 5)) + 5.0 * np.eye(5)
    X = solve_linear(M, np.eye(5))
    assert max_abs(M @ X - np.eye(5)) <= 1e-12


def test_solve_singular_reports_failing_column():
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
    assert info.value.column == 1


def test_solve_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        M = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
        rhs = rng.uniform(-1, 1, n)
        x = solve_linear(M, rhs)
        assert max_abs(M @ x - rhs) <= 1024 * n * EPS * max_abs(M) * max(
            1.0, max_abs(x)
        )


def test_eliminate_2x2_scalar_path_is_bitwise_the_row_loop():
    # _eliminate_scalars, which solves the 2x2 systems of block swaps and
    # two-value steps on Python floats, gives the bits of solve_linear's
    # row loop (_factor, then _substitute), signed zeros included, or
    # refuses the same pivot with the same message
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # small integers and their negatives make exact zeros of both signs,
    # pivot ties of equal magnitude and singular pivots
    entries = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -3.0]),
        st.floats(-1e3, 1e3, allow_subnormal=False),
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(entries, min_size=6, max_size=6),
                      st.sampled_from([0.0, 1.0, 1e-3]))
    # both length-1 dots are -0.0 products subtracted from -0.0
    @hypothesis.example([1.0, 2.0, 1.0, 3.0, -0.0, -0.0], 0.0)
    # a pivot tie, which keeps the first row as argmax does
    @hypothesis.example([-2.0, 1.0, 2.0, 3.0, 1.0, -0.0], 0.0)
    # a singular second pivot
    @hypothesis.example([1.0, 2.0, 2.0, 4.0, 1.0, 1.0], 1.0)
    def check(values, limit_scale):
        M = np.array(values[:4]).reshape(2, 2)
        rhs = np.array(values[4:])
        limit = 2 * EPS * max_abs(M) if limit_scale == 1.0 else limit_scale

        def row_loop():
            LU = M.copy()
            return linalg._substitute(LU, linalg._factor(LU, limit), rhs)

        outcomes = []
        for solve in (lambda: np.array(linalg._eliminate_scalars(M.tolist(), rhs.tolist(), limit)),
                      row_loop):
            try:
                with np.errstate(all="ignore"):
                    outcomes.append(("x", solve().tobytes()))
            except SingularMatrixError as exc:
                outcomes.append(("singular", exc.column, str(exc)))
        assert outcomes[0] == outcomes[1]

    check()
    with pytest.raises(SingularMatrixError) as info:
        linalg._eliminate_scalars([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], 1e-12)
    assert info.value.column == 1


def test_solve_validates_shapes():
    with pytest.raises(ValidationError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValidationError):
        solve_linear(np.eye(2), np.zeros(3))


def test_krylov_columns():
    C = krylov(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(C, [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0], [1.0, 3.0, 9.0]])


def test_krylov_columns_are_the_products_of_the_column_before():
    rng = np.random.default_rng(167)
    for n in (1, 3, 8):
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        C = krylov(A, b)
        assert C.shape == (n, n)
        assert C[:, 0].tobytes() == b.tobytes()
        for j in range(1, n):
            assert C[:, j].tobytes() == (A @ C[:, j - 1].copy()).tobytes()


def test_krylov_column_overflow_is_a_numerical_error():
    # a column past the float range is named, with no RuntimeWarning
    assert krylov(np.ldexp(np.eye(2), 600), np.ones(2))[0, 1] == 2.0**600
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"column A\*\*2 b overflows"):
            krylov(np.ldexp(np.eye(3), 600), np.ones(3))
        # the later columns, inf and nan, do not hide the first one
        with pytest.raises(NumericalError, match=r"column A\*\*2 b overflows"):
            krylov(np.ldexp(np.eye(6), 600), np.ones(6))


def test_condition_number_identity():
    assert condition_number(np.eye(4)) == 1.0
    assert condition_number(np.eye(7)) == 1.0


def test_condition_number_diagonal():
    kappa = condition_number(np.diag([1.0, 1e-3]))
    assert abs(kappa - 1e3) <= 1e-6 * 1e3


def test_condition_number_singular_is_inf():
    rng = np.random.default_rng(79)
    B = rng.standard_normal((6, 3))
    for M in (np.ones((2, 2)), np.ones((3, 3)), np.zeros((4, 4)),
              np.outer(rng.standard_normal(5), rng.standard_normal(5)),
              np.column_stack([B, B @ rng.standard_normal(3)]),
              np.array([[1.0, 2.0], [0.0, 0.0]])):
        assert condition_number(M) == math.inf


def test_condition_number_chain_controllability_is_one():
    # The chain's controllability matrix is a permutation of the identity.
    n = 6
    A = np.eye(n, k=1)
    b = np.zeros(n)
    b[-1] = 1.0
    kappa = condition_number(krylov(A, b))
    assert kappa == 1.0


def _kappa_oracle(M):
    """sigma_max / sigma_min from mpmath's SVD at 40 digits, inf when the
    matrix has fewer rows than columns or a zero singular value."""
    mpmath = pytest.importorskip("mpmath")
    if M.shape[1] > M.shape[0]:
        return math.inf
    with mpmath.workdps(40):
        s = mpmath.svd_r(mpmath.matrix(M.tolist()), compute_uv=False)
        return math.inf if min(s) == 0 else float(max(s) / min(s))


def _kappa_corpus():
    """Seeded Krylov matrices ``[b, Ab, ..., A**(n-1) b]``: n = 2-16, one
    per decade of kappa from 1 to 1e8 and three per decade from 1e8 to
    1e12, where above n = 10 half the draws take A on [-2, 2], whose graded
    columns reach the top decades at these sizes; then three per decade
    from 1e12 to 1e15, the range up to 1/eps, at n = 12-24 with A on
    [-3, 3]."""
    rng = np.random.default_rng(12)
    out = []

    def take(quota, draw):
        while any(quota.values()):
            n, scale = draw()
            C = krylov(rng.uniform(-scale, scale, (n, n)), rng.uniform(-1, 1, n))
            decade = math.floor(math.log10(np.linalg.cond(C)))
            if quota.get(decade, 0):
                quota[decade] -= 1
                out.append(C)

    def low():
        n = int(rng.integers(2, 17))
        return n, 2.0 if n > 10 and rng.integers(2) else 1.0

    take({d: 3 if d >= 8 else 1 for d in range(12)}, low)
    take({12: 3, 13: 3, 14: 3}, lambda: (int(rng.integers(12, 25)), 3.0))
    return out


def test_condition_number_against_40_digit_svd():
    # the 1e8 gate and the conditioning warning read this estimator, so it
    # must hold 1e-6 relative well past 1e8: up to kappa = 1e15, near 1/eps
    wants = []
    for C in _kappa_corpus():
        want = _kappa_oracle(C)
        assert 1.0 <= want <= 1e15
        assert abs(condition_number(C) - want) <= 1e-6 * want
        wants.append(want)
    assert sum(1 for want in wants if want >= 1e8) >= 10
    assert sum(1 for want in wants if want >= 1e12) >= 8


def test_condition_number_equal_singular_values_is_one():
    rng = np.random.default_rng(71)
    for n in (3, 8, 20):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        assert abs(condition_number(Q) - 1.0) <= 1e-13
        assert abs(condition_number(Q[:, : n // 2]) - 1.0) <= 1e-13


def test_condition_number_repeated_top_singular_value():
    rng = np.random.default_rng(73)
    for n, sigmas in ((3, [4.0, 4.0, 0.5]), (6, [3.0, 3.0, 3.0, 2.0, 1e-3, 1e-3]),
                      (9, [2.0] * 4 + [1.0] * 3 + [1e-5, 1e-6])):
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = U @ np.diag(sigmas) @ V.T
        want = _kappa_oracle(M)
        assert abs(want - max(sigmas) / min(sigmas)) <= 1e-9 * want
        assert abs(condition_number(M) - want) <= 1e-6 * want


def test_condition_number_shapes():
    rng = np.random.default_rng(83)
    for m, n in ((7, 3), (5, 2), (9, 1), (30, 12)):
        M = rng.uniform(-1, 1, (m, n))
        want = _kappa_oracle(M)
        assert abs(condition_number(M) - want) <= 1e-9 * want
    # wide: its columns are dependent
    assert condition_number(rng.uniform(-1, 1, (2, 3))) == math.inf
    assert condition_number(rng.uniform(-1, 1, (1, 4))) == math.inf
    assert condition_number(np.array([[-3.5]])) == 1.0
    assert condition_number(np.array([[0.0]])) == math.inf
    with pytest.raises(ValidationError):
        condition_number(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        condition_number(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_condition_number_lapack_failure_is_numerical_error(monkeypatch, capsys):
    from poleplace import cli

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(linalg.np.linalg, "norm", fail)
    with pytest.raises(NumericalError, match="SVD did not converge") as info:
        condition_number(np.array([[2.0, 1.0], [0.5, 3.0]]))
    assert info.value.__cause__ is None and info.value.__suppress_context__
    # the CLI's gen reads kappa of each draw: exit 3 with the message alone
    assert cli.main(["gen", "--n", "3", "--family", "dense"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: condition number: SVD did not converge")


def test_condition_number_is_exact_under_powers_of_two():
    rng = np.random.default_rng(89)
    mats = [rng.uniform(-1, 1, (m, n)) for m, n in ((1, 1), (2, 2), (3, 3), (8, 8), (12, 5))]
    mats.append(krylov(rng.uniform(-1, 1, (10, 10)), rng.uniform(-1, 1, 10)))
    for M in mats:
        want = condition_number(M).hex()
        for k in (-600, -599, -301, -1, 1, 2, 77, 512, 600):
            assert condition_number(np.ldexp(M, k)).hex() == want
    # not a power of two, and far outside the range of squares
    M = np.array([[2.0, 1.0], [0.5, 3.0]])
    want = _kappa_oracle(M)
    assert abs(want - 2.119) <= 1e-3
    for scale in (1e200, 1e-200, 1e300, 1e-300):
        assert abs(condition_number(scale * M) - want) <= 1e-14 * want


# ---------------------------------------------------------------------------
# hessenberg reduction, as real_schur runs it: on the transpose, so the
# lower form's H is the transpose of the upper reduction


def hessenberg(A):
    Q, Hu = _hessenberg_upper(A.T.copy())
    return Q, Hu.T


def test_hessenberg_fixed_point():
    A = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
    Q, H = hessenberg(A)
    assert np.array_equal(Q, np.eye(3))
    assert np.array_equal(H, A)


def test_hessenberg_structure_is_exact():
    rng = np.random.default_rng(13)
    A = rng.uniform(-1, 1, (6, 6))
    Q, H = hessenberg(A)
    for i in range(6):
        for j in range(i + 2, 6):
            assert H[i, j] == 0.0


def test_hessenberg_symmetric_gives_tridiagonal():
    rng = np.random.default_rng(17)
    B = rng.uniform(-1, 1, (6, 6))
    A = B + B.T
    _, H = hessenberg(A)
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert abs(H[i, j]) <= 1e-12 * max_abs(A)


def test_hessenberg_reconstruction():
    rng = np.random.default_rng(19)
    for n in (2, 5, 9):
        A = rng.uniform(-2, 2, (n, n))
        Q, H = hessenberg(A)
        assert max_abs(Q @ H @ Q.T - A) <= 1e-12 * max(1.0, max_abs(A))
        assert max_abs(Q.T @ Q - np.eye(n)) <= 1e-13


# ---------------------------------------------------------------------------
# controller-Hessenberg form: W^T b = beta e1, H = W^T A W upper Hessenberg


def _dense_w(form, n):
    """W accumulated one reflector at a time, ``I - T[j, j] V[:, j]
    V[:, j]^T``: ``W.T`` applies them in order, so W is their product in
    that order."""
    W = np.eye(n)
    for j in range(form.V.shape[1]):
        v = form.V[:, j]
        W -= form.T[j, j] * ((W @ v)[:, None] * v)
    return W


def test_controller_hessenberg_property():
    # n = 1-12 with b = e1, b with zero entries, and A and b scaled by
    # powers of two: W is orthogonal, W^T b = beta e1 to rounding, H has
    # exact zeros below its subdiagonal and W H W^T is A to c n eps ||A||;
    # the closed loop changes only H's first row, which is W^T (A + b k^T) W
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # entries below 2**-60 become zeros, so that the norms the check takes
    # in numpy neither underflow nor overflow at the scales drawn
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False).map(
        lambda x: x if abs(x) >= 2.0**-60 else 0.0)

    @st.composite
    def pairs(draw):
        n = draw(st.integers(1, 12))
        A = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        kind = draw(st.sampled_from(["dense", "e1", "zeros"]))
        if kind == "e1":
            b = np.eye(n)[0]
        else:
            b = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
            if kind == "zeros":
                b[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
        k = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        k *= 10.0 ** draw(st.floats(-3.0, 6.0))
        scale = np.ldexp(1.0, draw(st.integers(-200, 200)))
        return A * scale, b * np.ldexp(1.0, draw(st.integers(-200, 200))), k

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(pairs())
    def check(case):
        A, b, k = case
        n = b.size
        form = linalg._controller_hessenberg(A, b)
        H, beta = np.ldexp(form.H, form.shift), math.ldexp(form.beta, form.beta_shift)
        W = _dense_w(form, n)
        tol = 4.0 * n * EPS
        assert max_abs(W.T @ W - np.eye(n)) <= tol
        assert abs(abs(beta) - np.linalg.norm(b)) <= tol * np.linalg.norm(b)
        e1 = np.eye(n)[0]
        assert np.linalg.norm(W.T @ b - beta * e1) <= tol * np.linalg.norm(b)
        assert not np.tril(H, -2).any()
        assert np.linalg.norm(W @ H @ W.T - A) <= tol * np.linalg.norm(A)
        M, e = form.closed_loop(k)
        assert e == 0
        assert np.array_equal(M[1:], H[1:])
        loop = W.T @ (A + np.outer(b, k)) @ W
        bound = tol * (np.linalg.norm(A) + np.linalg.norm(b) * np.linalg.norm(k))
        assert np.linalg.norm(M - loop) <= bound

    check()


def test_controller_hessenberg_edge_pairs_are_exact():
    # b = e1 and n = 1 need no reflector on b: W = I at n <= 2, and the
    # closed loop is A + e1 k^T exactly
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    form = linalg._controller_hessenberg(A, [1.0, 0.0])
    assert form.V.shape == (2, 0) and math.ldexp(form.beta, form.beta_shift) == 1.0
    assert np.array_equal(np.ldexp(form.H, form.shift), A)
    M, e = form.closed_loop(np.array([5.0, 6.0]))
    assert e == 0 and np.array_equal(M, [[6.0, 8.0], [3.0, 4.0]])
    form = linalg._controller_hessenberg([[2.0]], [-3.0])
    assert form.V.shape == (1, 0) and math.ldexp(form.beta, form.beta_shift) == -3.0
    M, e = form.closed_loop(np.array([0.5]))
    assert e == 0 and np.array_equal(M, [[0.5]])
    # b = 0 has no controller form to speak of, but the loop is still A
    form = linalg._controller_hessenberg(A, [0.0, 0.0])
    assert form.beta == 0.0
    M, e = form.closed_loop(np.array([5.0, 6.0]))
    assert e == 0 and np.array_equal(M, A)


def test_controller_hessenberg_keeps_pairs_beyond_the_float_range():
    # ||b|| = 2e308, and the nilpotent A whose H has the subdiagonal entry
    # -sqrt(2) 1.5e308: each pair has its form, in scaled coordinates, and
    # each closed loop is handed back finite, scaled by the least power of
    # two that keeps it so, without a RuntimeWarning
    nilpotent = np.zeros((3, 3))
    nilpotent[1:, 0] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form = linalg._controller_hessenberg(np.diag([0.5, 0.25]), [1.5e308, 1.5e308])
        assert form.beta_shift == 1024
        assert math.isclose(abs(form.beta), math.sqrt(2.0) * math.ldexp(1.5e308, -1024))
        M, e = form.closed_loop(np.array([1e-300, 0.0]))
        assert e == 0 and np.isfinite(M).all()
        form = linalg._controller_hessenberg(nilpotent, [1.0, 0.0, 0.0])
        M, e = form.closed_loop(np.zeros(3))
        assert e == 3 and np.isfinite(M).all()
        assert math.isclose(abs(M[1, 0]), math.sqrt(2.0) * (1.5e308 / 8.0))
        with pytest.raises(OverflowError):
            math.ldexp(M[1, 0], e)
        # b k^T has entries 2e308: the form hands the loop back scaled
        form = linalg._controller_hessenberg(np.eye(2), [2.0, 2.0])
        M, e = form.closed_loop(np.array([1e308, -1e308]))
        assert e > 0 and np.isfinite(M).all()
        M, e = form.closed_loop(np.array([1e300, -1e300]))
        assert e == 0


def _wt_by_reflectors(form, g):
    """W.T g one reflector at a time, in the order W.T applies them:
    ``I - T[j, j] V[:, j] V[:, j]^T`` for j = 0, 1, ..."""
    g = g.copy()
    for j in range(form.V.shape[1]):
        v = form.V[:, j]
        g -= (form.T[j, j] * (v @ g)) * v
    return g


def test_compact_wy_matches_the_reflectors_on_the_benchmark_pools():
    # W.T g in compact-WY form, three products, against the reflectors
    # applied one at a time, for g at the scale closed_loop takes it (its
    # largest entry in [0.5, 1)): within 8 eps max|g| on perfbench's seed-1
    # dense pool (n <= 20, 6.3 eps at most when written) and 16 eps max|g|
    # on its verify pool (n = 24-64, 12.0 eps at most, at n = 64)
    from families import load_perfbench

    inputs = load_perfbench("inputs")
    rng = np.random.default_rng(37)
    pools = [(inputs.dense_pool(1, 24), 8.0), (inputs.verify_pool(1), 16.0)]
    for pool, units in pools:
        for case in pool:
            form = linalg._controller_hessenberg(case.A, case.b)
            k = case.k if hasattr(case, "k") else rng.uniform(-1.0, 1.0, case.n)
            g = np.ldexp(k, -math.frexp(max_abs(k))[1])
            assert max_abs(form._wt(g) - _wt_by_reflectors(form, g)) <= units * EPS * max_abs(g)


# what the closed-loop check of a 6-state pair made at 00a20b7, where W.T k
# was applied one reflector at a time, with b, k or A at the ends of the
# float range: the scale e of the loop, and the outcome of the check (its
# spectrum unknown, or its NumericalError) and of its spectrum half alone
_UNCONVERGED = "QR iteration did not converge within 240 sweeps (active block rows 1..5)"
_LOOP_OVERFLOW = "NumericalError: the closed loop A + b k^T has entries beyond the float range"


def _coefficient_overflow(power, closed=True):
    return (f"NumericalError: {'closed-loop ' if closed else ''}characteristic polynomial "
            f"coefficient of x**{power} overflows the float range")


_EXTREME_OUTCOMES = [
    ("b, k", 0, "ok", "ok"),
    ("b, k*2^-1000", 0, "ok", "ok"),
    ("b, k*2^1000", 0, "unknown: " + _UNCONVERGED, "ConvergenceError: " + _UNCONVERGED),
    ("b, spread k", 0, "unknown: " + _UNCONVERGED, "ConvergenceError: " + _UNCONVERGED),
    ("b, far k", 0, "unknown: " + _UNCONVERGED, "ConvergenceError: " + _UNCONVERGED),
    ("b*2^-1000, k", 0, "ok", "ok"),
    ("b*2^-1000, k*2^-1000", 0, "ok", "ok"),
    ("b*2^-1000, k*2^1000", 0, "ok", "ok"),
    ("b*2^-1000, spread k", 0, "ok", "ok"),
    ("b*2^-1000, far k", 0, "ok", "ok"),
    ("b*2^1000, k", 0, "unknown: " + _UNCONVERGED, "ConvergenceError: " + _UNCONVERGED),
    ("b*2^1000, k*2^-1000", 0, "ok", "ok"),
    ("b*2^1000, k*2^1000", 980, _coefficient_overflow(5), _LOOP_OVERFLOW),
    ("b*2^1000, spread k", 961, _coefficient_overflow(5), _LOOP_OVERFLOW),
    ("b*2^1000, far k", 977, _coefficient_overflow(5), _LOOP_OVERFLOW),
    ("spread b, k", 0, "ok", "ok"),
    ("spread b, k*2^-1000", 0, "ok", "ok"),
    ("spread b, k*2^1000", 372, _coefficient_overflow(5), _LOOP_OVERFLOW),
    ("spread b, spread k", 353, _coefficient_overflow(4), _LOOP_OVERFLOW),
    ("spread b, far k", 369, _coefficient_overflow(5), _LOOP_OVERFLOW),
    ("A*2^1023, k", 3, _coefficient_overflow(0, closed=False), "ok"),
    ("A*2^1023, k*2^1021", 3, _coefficient_overflow(0, closed=False), "ok"),
    ("A*2^1023, k*2^-1000", 3, _coefficient_overflow(0, closed=False), "ok"),
    ("full A near 2^1023, k", 3, _coefficient_overflow(0, closed=False),
     "NumericalError: an eigenvalue of the diagonal block at row 0 overflows the float range"),
]


def _extreme_pairs():
    """The pairs of ``_EXTREME_OUTCOMES``: b and k at their own scale,
    times 2**+-1000, spread entry by entry over 2**+-1000, or (k) times
    1e300, and A times 2**1023 or near 2**1023 in every entry."""
    rng = np.random.default_rng(2024)
    n = 6
    A = rng.uniform(-1.0, 1.0, (n, n))
    b0 = rng.uniform(-1.0, 1.0, n)
    k0 = rng.uniform(-1.0, 1.0, n)
    spread_b = np.ldexp(b0, rng.integers(-1000, 1001, n))
    spread_k = np.ldexp(k0, rng.integers(-1000, 1001, n))
    bs = {"b": b0, "b*2^-1000": np.ldexp(b0, -1000), "b*2^1000": np.ldexp(b0, 1000),
          "spread b": spread_b}
    ks = {"k": k0, "k*2^-1000": np.ldexp(k0, -1000), "k*2^1000": np.ldexp(k0, 1000),
          "spread k": spread_k, "far k": k0 * 1e300}
    for bn, b in bs.items():
        for kn, k in ks.items():
            yield f"{bn}, {kn}", A, b, k
    for kn, k in (("k", k0), ("k*2^1021", np.ldexp(k0, 1021)), ("k*2^-1000", np.ldexp(k0, -1000))):
        yield f"A*2^1023, {kn}", np.ldexp(A, 1023), b0, k
    full = np.full((n, n), math.ldexp(0.9, 1023)) + np.ldexp(A, 1000)
    yield "full A near 2^1023, k", full, b0, k0


def test_compact_wy_keeps_the_scale_and_every_error_at_the_float_range_ends():
    from poleplace import verify

    targets = Spectrum([-1.0, -2.0, -3.0, -1 + 1j, -1 - 1j, -0.5])
    got = []
    for name, A, b, k in _extreme_pairs():
        sys = StateSpace(A, b)
        form = sys._hessenberg
        M, e = form.closed_loop(k)
        # the loop itself: W.T k within the reflectors' rounding, in row 0 only
        top = math.frexp(max_abs(k))[1]
        g = _wt_by_reflectors(form, np.ldexp(k, -top))
        row = (np.ldexp(form.H[0], form.shift - e)
               + np.ldexp(form.beta * g, form.beta_shift + top - e))
        assert np.array_equal(M[1:], np.ldexp(form.H[1:], form.shift - e))
        assert max_abs(M[0] - row) <= 16 * EPS * max(max_abs(row), TINY), name
        try:
            _, achieved, unknown = verify._checked_loop(sys, k, targets)
            check = "ok" if achieved is not None else "unknown: " + unknown
        except NumericalError as exc:
            check = f"NumericalError: {exc}"
        try:
            verify._closed_loop_spectrum(sys, k, targets)
            spectrum = "ok"
        except (NumericalError, ConvergenceError) as exc:
            spectrum = f"{type(exc).__name__}: {exc}"
        got.append((name, e, check, spectrum))
    assert got == _EXTREME_OUTCOMES


# ---------------------------------------------------------------------------
# real_schur


def test_schur_diagonal_input():
    dec = real_schur(np.diag([1.0, 2.0]))
    assert sorted(z.real for blk in dec.blocks for z in blk.eigenvalues) == [1.0, 2.0]
    assert max_abs(dec.Q @ dec.T @ dec.Q.T - np.diag([1.0, 2.0])) <= 1e-14


def test_schur_rotation_block_is_exact_pair():
    dec = real_schur(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert len(dec.blocks) == 1
    assert dec.blocks[0].size == 2
    z, zb = dec.blocks[0].eigenvalues
    assert z == zb.conjugate()
    assert {z, zb} == {1j, -1j}


def test_schur_invariants_random():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        A = rng.uniform(-1, 1, (n, n))
        dec = real_schur(A)
        assert max_abs(dec.Q.T @ dec.Q - np.eye(n)) <= 64 * n * EPS
        assert max_abs(dec.Q @ dec.T @ dec.Q.T - A) <= 1024 * n * EPS * max(
            1.0, max_abs(A)
        )
        # strictly upper part is written as hard zeros outside 2x2 blocks
        starts = {blk.start for blk in dec.blocks if blk.size == 2}
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 and i in starts:
                    continue
                assert dec.T[i, j] == 0.0
        assert sum(blk.size for blk in dec.blocks) == n
        for blk in dec.blocks:
            if blk.size == 2:
                z, zb = blk.eigenvalues
                assert z.imag != 0.0
                assert z == zb.conjugate()
            else:
                assert blk.eigenvalues[0].imag == 0.0


def test_schur_eigenvalues_match_lapack():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 13))
        A = rng.uniform(-1, 1, (n, n))
        got = [z for blk in real_schur(A).blocks for z in blk.eigenvalues]
        want = np.linalg.eigvals(A)
        assert _nearest_match_distance(got, want) <= 1e-8 * max(1.0, max_abs(A))


def test_real_schur_property_on_random_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def matrices(draw):
        kind = draw(st.sampled_from(["dense", "triangular", "kron"]))
        n = draw(st.integers(2, 16))
        scale = 10.0 ** draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "dense":
            A = rng.uniform(-1, 1, (n, n))
        elif kind == "triangular":
            # upper triangular, so the reduction of A.T has work to do, with
            # the diagonal drawn from at most three integers
            values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
            A = np.triu(rng.uniform(-1, 1, (n, n)), 1)
            A[np.diag_indices(n)] = rng.choice(values, n)
        else:
            # every eigenvalue of B twice, rotated
            m = n // 2
            Q = np.linalg.qr(rng.standard_normal((2 * m, 2 * m)))[0]
            A = Q @ np.kron(np.eye(2), rng.uniform(-1, 1, (m, m))) @ Q.T
        return A * scale

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(matrices())
    def check(A):
        n = A.shape[0]
        dec = real_schur(A)
        assert max_abs(dec.Q.T @ dec.Q - np.eye(n)) <= 64 * n * EPS
        assert max_abs(dec.Q @ dec.T @ dec.Q.T - A) <= 1024 * n * EPS * max_abs(A)
        _assert_first_order_bound(A, _block_values(dec))
        # eigenvalues runs without Q, on the paired chase, to the same bound
        _assert_first_order_bound(A, list(eigenvalues(A)))

    check()


def test_eigenvalues_property_conjugate_closed_bitwise():
    # every complex eigenvalue comes with its conjugate bit for bit: the
    # same real part and the negated imaginary part; the rest are real
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def matrices(draw):
        kind = draw(st.sampled_from(["dense", "triangular", "pairs"]))
        n = draw(st.integers(1, 24))
        scale = 10.0 ** draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "dense":
            A = rng.uniform(-1, 1, (n, n))
        elif kind == "triangular":
            A = np.triu(rng.uniform(-1, 1, (n, n)), 1)
            A[np.diag_indices(n)] = rng.integers(-2, 3, n)
        else:
            # rotated complex pairs, each with a twin 1e-6 to 1e-14 away
            L = np.zeros((n, n))
            for i in range(0, n - 1, 2):
                a = rng.uniform(-1, 1) + (10.0 ** -rng.integers(6, 15) if i % 4 else 0.0)
                L[i : i + 2, i : i + 2] = [[a, 0.5], [-0.5, a]]
            L += np.triu(rng.uniform(-0.1, 0.1, (n, n)), 2)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = Q @ L @ Q.T
        return A * scale

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(matrices())
    def check(A):
        vals = list(eigenvalues(A))
        assert len(vals) == A.shape[0]
        upper = Counter((z.real.hex(), z.imag.hex()) for z in vals if z.imag > 0.0)
        lower = Counter((z.real.hex(), (-z.imag).hex()) for z in vals if z.imag < 0.0)
        assert upper == lower
        assert all(z.imag.hex() == "0x0.0p+0" for z in vals if z.imag == 0.0)

    check()


@pytest.mark.parametrize("k", [-900, -500, -1, 1, 500, 900])
def test_schur_at_extreme_scales_is_bitwise_scaled(k, monkeypatch):
    # the driver first scales A by a power of two, so a power-of-two factor
    # that keeps every entry normal scales every output exactly, also where
    # the unscaled squares would overflow or underflow
    rng = np.random.default_rng(61)
    A = rng.uniform(-1, 1, (6, 6))
    f = 2.0**k
    base = np.array(list(eigenvalues(A)), dtype=complex)
    got = np.array(list(eigenvalues(f * A)), dtype=complex)
    assert got.real.tobytes() == np.ldexp(base.real, k).tobytes()
    assert got.imag.tobytes() == np.ldexp(base.imag, k).tobytes()
    dec, scaled = real_schur(A), real_schur(f * A)
    assert scaled.Q.tobytes() == dec.Q.tobytes()
    assert scaled.T.tobytes() == np.ldexp(dec.T, k).tobytes()
    # and a run out of sweeps stops where it stops at A, with its message
    _no_sweeps(monkeypatch)
    messages = []
    for M in (A, f * A):
        with pytest.raises(ConvergenceError) as info:
            real_schur(M)
        messages.append(str(info.value))
    assert messages[1] == messages[0]


@pytest.mark.parametrize("f", [1e150, 1e160, 1e-160, 1e-300])
def test_eigenvalues_at_extreme_scales(f):
    # without the prescale the shifts' squares overflow at 1e150 and 1e160
    # and underflow at the small scales, down to a division by zero
    rng = np.random.default_rng(61)
    A = rng.uniform(-1, 1, (6, 6))
    want = np.linalg.eigvals(A)
    got = np.array(list(eigenvalues(f * A))) / f
    assert _nearest_match_distance(got, want) <= 1e-13 * max_abs(np.abs(want))


def test_block_rescan_reads_a_mean_whose_sum_overflows():
    # the diagonal sum of the 2x2 block overflows; its mean does not, and a
    # rescan of the unscaled form must read what real_schur read scaled
    T = np.array([[1.0, 0.0, 0.0], [0.5, 1.5e308, -1e308], [0.25, 1e308, 1.5e308]])
    dec = real_schur(T)
    assert dec.blocks[1].eigenvalues == (1.5e308 + 1e308j, 1.5e308 - 1e308j)
    assert _block_bits(_scan_blocks_upper(dec.T.T)) == _block_bits(dec.blocks)


def test_eigenvalues_beyond_the_float_range_raise_a_typed_error():
    A = 8e307 * np.random.default_rng(2).uniform(-1, 1, (10, 10))
    for entry in (eigenvalues, real_schur):
        with pytest.raises(NumericalError, match="overflows the float range"):
            entry(A)
    # eigenvalues near zero, but the Schur form keeps the Frobenius norm
    # 3e308 in one entry
    A = 1.5e308 * np.array([[1.0, 1.0], [-1.0, -1.0]])
    assert max(abs(z) for z in eigenvalues(A)) <= 1e300
    with pytest.raises(NumericalError, match="beyond the float range"):
        real_schur(A)


# the message at 40 sweeps per dimension, nothing deflated
BUDGET_MESSAGE_5X5 = "QR iteration did not converge within 200 sweeps (active block rows 0..4)"


def test_schur_sweep_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(41)
    A = rng.uniform(-1, 1, (5, 5))
    _no_sweeps(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        real_schur(A)
    assert str(info.value) == BUDGET_MESSAGE_5X5
    assert info.value.exit_code == 4


def test_eigenvalue_only_budget_exhaustion_has_no_q(monkeypatch):
    rng = np.random.default_rng(41)
    A = rng.uniform(-1, 1, (5, 5))
    _, H = _hessenberg_upper(_scaled_transpose(A)[0], want_q=False)
    _no_sweeps(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        linalg._francis_upper(H)
    assert str(info.value) == BUDGET_MESSAGE_5X5


def test_eigenvalues_examples():
    assert eigenvalues(np.diag([1.0, 2.0])).counter() == {1.0: 1, 2.0: 1}
    spec = sorted(z.real for z in eigenvalues(np.array([[9.0, -15.0], [8.0, -13.0]])))
    assert_allclose(spec, [-3.0, -1.0], atol=1e-9)


def test_eigenvalues_nilpotent():
    spec = list(eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert all(abs(z) <= 1e-9 for z in spec)


# ---------------------------------------------------------------------------
# the eigenvalue-only path: eigenvalues runs the iteration without Q, which
# chases the bulge in pairs and reads each block as it deflates


def _block_values(dec):
    return [z for blk in dec.blocks for z in blk.eigenvalues]


def _cyclic(n):
    # the cyclic shift stalls the double-shift sweep until the exceptional
    # shift breaks the cycle
    C = np.eye(n, k=-1)
    C[0, -1] = 1.0
    return C


def _bitwise_inputs(kind):
    rng = np.random.default_rng(43)
    if kind == "dense":
        for n in range(1, 41):
            for scale in (1e-3, 1.0, 1e3) if n % 8 == 0 else (10.0 ** (n % 7 - 3),):
                yield rng.uniform(-1, 1, (n, n)) * scale
    elif kind == "triangular":
        for n in (2, 7, 16, 31):
            yield np.triu(rng.uniform(-1, 1, (n, n)) * 1e2)
            yield np.tril(rng.uniform(-1, 1, (n, n)) * 1e-2)
    elif kind == "symmetric":
        for n in (3, 9, 20, 40):
            B = rng.standard_normal((n, n))
            yield B + B.T
    elif kind == "cyclic":
        for n in (3, 4, 7, 12):
            yield _cyclic(n)
    elif kind == "pairs":
        # conjugate pairs only: nearly every deflation reads a 2x2 block
        for n in (3, 4, 7, 12, 20, 33, 64):
            yield _known_spectrum(rng, n)[0]
    elif kind == "clamp":
        # negative discriminant inside the clamp: a 2x2 block reported as a
        # repeated real pair
        yield np.array([[1.0, 1e-9], [-1e-9 * (1 + 1e-15), 1.0]])
        yield np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 1e-9], [0.0, -1e-9, 1.0 + 1e-15]])


def _kappa_reference(M):
    """kappa to about 1e-10 relative: numpy's SVD where its error bound,
    a modest multiple of n eps kappa, is that small, else the 40-digit SVD
    (which costs seconds on the 40 x 40 inputs)."""
    s = np.linalg.svd(M, compute_uv=False)
    kappa = s[0] / s[-1]
    return kappa if M.shape[1] * EPS * kappa <= 1e-10 else _kappa_oracle(M)


# not finite, or far above any eigenvalue of a matrix with entries of
# moderate size: eigenvalues drops them before iterating
_IMPOSSIBLE_REQUESTS = (
    [1e300] * 8,
    [complex(1e200, 1e200), complex(1e200, -1e200)] * 4,
    [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1.0)],
)


@pytest.mark.parametrize("kind", ["dense", "triangular", "symmetric", "cyclic", "clamp", "pairs"])
def test_eigenvalue_only_path_is_bitwise_real_schur(kind):
    # eigenvalues without a request runs the paired chase, so it meets
    # real_schur's accuracy, not its bits: each value lies within the
    # first-order bound real_schur's blocks meet, complex values come in
    # exact conjugate pairs, and the clamp family reports the repeated real
    # pair of real_schur's 2x2 block; a request whose values cannot be
    # eigenvalues is bitwise no request
    for A in _bitwise_inputs(kind):
        values = list(eigenvalues(A))
        got = np.array(values, dtype=complex)
        for near in _IMPOSSIBLE_REQUESTS:
            assert np.array(list(eigenvalues(A, near=near)), dtype=complex).tobytes() == (
                got.tobytes())
        upper = Counter((z.real.hex(), z.imag.hex()) for z in values if z.imag > 0.0)
        lower = Counter((z.real.hex(), (-z.imag).hex()) for z in values if z.imag < 0.0)
        assert upper == lower
        if kind == "clamp":
            (pair,) = [blk for blk in real_schur(A).blocks if blk.size == 2]
            z, w = pair.eigenvalues
            assert z == w and z.imag == 0.0 and values.count(z) == 2
        else:
            _assert_first_order_bound(A, values)
        for M in (A, A[:, : max(1, A.shape[1] // 2)]):
            kappa = _kappa_reference(M)
            assert abs(condition_number(M) - kappa) <= 1e-6 * kappa


def test_bitwise_inputs_reach_the_exceptional_shift_and_the_clamp(monkeypatch):
    his = []
    step = linalg._francis_step

    def recording(HQ, l, hi, tr, det, scratch):
        his.append(hi)
        return step(HQ, l, hi, tr, det, scratch)

    monkeypatch.setattr(linalg, "_francis_step", recording)
    for A in _bitwise_inputs("cyclic"):
        his.clear()
        eigenvalues(A)
        # ten sweeps in a row on one active block: the tenth is exceptional
        runs = [sum(1 for _ in group) for _, group in itertools.groupby(his)]
        assert max(runs) >= 10
    for A in _bitwise_inputs("clamp"):
        pairs = [blk for blk in real_schur(A).blocks if blk.size == 2]
        assert len(pairs) == 1 and pairs[0].eigenvalues[0].imag == 0.0


def test_eigenvalue_only_path_never_calls_real_schur(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("real_schur called")

    monkeypatch.setattr(linalg, "real_schur", refuse)
    rng = np.random.default_rng(47)
    A = rng.uniform(-1, 1, (9, 9))
    assert len(eigenvalues(A)) == 9
    assert math.isfinite(condition_number(A))


# ---------------------------------------------------------------------------
# requested shifts: eigenvalues(A, near=...) takes the shifts of the first
# sweep after each deflation from the request, and nothing else


def _known_spectrum(rng, n):
    """``Q L Q^T`` for a random orthogonal Q and lower quasi-triangular L
    with conjugate pairs in its 2x2 blocks (and one real value when n is
    odd), and L's spectrum."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    L = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -2)
    values = []
    for i in range(0, n - 1, 2):
        re, im = -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        L[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
        values += [complex(re, im), complex(re, -im)]
    if n % 2:
        L[-1, -1] = -rng.uniform(0.1, 3.0)
        values.append(complex(L[-1, -1]))
    return Q @ L @ Q.T, values


def test_impossible_requests_change_nothing():
    # unguarded, such shifts turn into inf and nan and the iteration runs
    # out of its 40 n sweeps
    A = np.random.default_rng(83).standard_normal((8, 8))
    want = np.array(list(eigenvalues(A)), dtype=complex).tobytes()
    for near in _IMPOSSIBLE_REQUESTS:
        assert np.array(list(eigenvalues(A, near=near)), dtype=complex).tobytes() == want
    # a matrix of tiny entries scales a huge request beyond the float range
    got = eigenvalues(np.ldexp(A, -1000), near=[1e300, complex(1e300, 1e300)])
    assert np.array(list(got), dtype=complex).tobytes() == np.array(
        list(eigenvalues(np.ldexp(A, -1000))), dtype=complex).tobytes()


def _sweep_routes(monkeypatch):
    """A list that records the route of each QR sweep as it runs:
    "explicit" for an explicit step kept, "refused" for one its guard
    refused, which the chase then takes, and "chase" for each chase."""
    routes = []
    chase, explicit = linalg._francis_step, linalg._explicit_step

    def chasing(*args):
        routes.append("chase")
        return chase(*args)

    def stepping(*args):
        kept = explicit(*args)
        routes.append("explicit" if kept else "refused")
        return kept

    monkeypatch.setattr(linalg, "_francis_step", chasing)
    monkeypatch.setattr(linalg, "_explicit_step", stepping)
    return routes


def _sweeps(routes):
    return routes.count("explicit") + routes.count("chase")


def test_requested_shifts_cut_the_sweeps(monkeypatch):
    # an exact shift deflates in about one sweep: on closed loops whose
    # spectrum is requested exactly, each call sweeps at most 0.7x as often
    # as without the request, and agrees with it to rounding
    routes = _sweep_routes(monkeypatch)
    rng = np.random.default_rng(89)
    for _ in range(10):
        A, values = _known_spectrum(rng, 32)
        routes.clear()
        plain = eigenvalues(A)
        without = _sweeps(routes)
        routes.clear()
        seeded = eigenvalues(A, near=values)
        assert _sweeps(routes) <= 0.7 * without
        assert spectrum_distance(seeded, plain) <= 1e-12


def _counted_scratch(writes):
    """``linalg._step_scratch()`` whose buffers append to ``writes`` on
    each write: a sweep writes one reflector per bulge step it applies, 3x3,
    2x2 or the paired 4x4, and each applied step is one product per side
    on the active block."""

    class Counted(np.ndarray):
        def __setitem__(self, key, value):
            writes.append(1)
            super().__setitem__(key, value)

    return tuple(a.view(Counted) for a in linalg._step_scratch())


def test_seeded_sweeps_chase_the_bulge_in_pairs(monkeypatch):
    # a run without Q fuses bulge positions k and k+1 into one 4x4 product
    # per side: on graded n = 32 loops, which keep the chase, with their
    # spectrum requested exactly or without a request, it makes at most
    # 0.55x the row and column products the plain chase of a run with Q
    # makes on the same matrices and shifts (0.53x measured).  The grading
    # is the similarity diag(2**10, 1, ...), exact in doubles: it spreads
    # the row maxima of the Hessenberg form past _EXPLICIT_SPREAD
    step = linalg._francis_step
    paired, plain = [], []

    def counting(H, l, hi, tr, det, scratch):
        step(np.vstack([H, np.eye(H.shape[0])]), l, hi, tr, det, _counted_scratch(plain))
        step(H, l, hi, tr, det, _counted_scratch(paired))

    monkeypatch.setattr(linalg, "_francis_step", counting)
    monkeypatch.setattr(linalg, "_explicit_step", lambda *args: pytest.fail("explicit step"))
    rng = np.random.default_rng(89)
    for _ in range(10):
        A, values = _known_spectrum(rng, 32)
        A[0] *= 2.0**10
        A[:, 0] *= 2.0**-10
        for near in (values, ()):
            paired.clear()
            plain.clear()
            eigenvalues(A, near=near)
            assert len(paired) <= 0.55 * len(plain)


@functools.lru_cache(maxsize=None)
def _verify_loop(n, index):
    """``(sys, k, targets, exact)`` of seed-1 verify pair (n, index): its
    closed loop, formed in controller-Hessenberg coordinates at scale 0, has
    the eigenvalues ``exact`` in 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    from families import load_perfbench

    case = load_perfbench("inputs").verify_case(1, n, index)
    sys = StateSpace(case.A, case.b)
    M, e = sys._hessenberg.closed_loop(case.k)
    assert e == 0
    with mpmath.workdps(40):
        exact = [complex(z) for z in mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)]
    return sys, case.k, Spectrum(case.targets), exact


def _relative_error(got, exact):
    """The largest ``|got - exact| / |exact|`` over the bottleneck pairing."""
    from poleplace.verify import _bottleneck

    pairing = _bottleneck(list(got), exact)[1]
    return max(abs(z - exact[j]) / abs(exact[j]) for z, j in zip(got, pairing))


def _check_spectrum(M, targets):
    """The closed-loop check's eigenvalues of Hessenberg M, scaled as
    ``verify._closed_loop_spectrum`` scales a loop formed at e = 0."""
    shift = math.frexp(max_abs(M))[1]
    return linalg._hessenberg_eigenvalues(np.ldexp(M, -shift), shift, targets.values)


@pytest.mark.parametrize("n, index", [(24, 0), (24, 1), (32, 0), (32, 1)])
def test_explicit_check_matches_mpmath_on_verify_loops(monkeypatch, n, index):
    # the benchmark's n = 24 and 32 verify loops, an exact gain and a
    # perturbed one, are well scaled, so the check takes its sweeps on
    # blocks of 16 rows or more as explicit steps; its eigenvalues lie
    # within 1e-14 relative of the loop's 40-digit ones (1.4-4.4e-15
    # measured, the chase alone 0.9-2.7e-15)
    from poleplace.verify import _closed_loop_spectrum

    sys, k, targets, exact = _verify_loop(n, index)
    routes = _sweep_routes(monkeypatch)
    got = _closed_loop_spectrum(sys, k, targets)
    assert "explicit" in routes
    assert _relative_error(got, exact) <= 1e-14


def test_explicit_step_follows_the_scale_bound(monkeypatch):
    # the exact similarity diag(2**s, 1, ...) spreads the row maxima of a
    # verify loop as s grows, and leaves its eigenvalues.  While the input
    # is well scaled the check takes explicit steps and stays within 2x of
    # the chase's error against mpmath; past _EXPLICIT_SPREAD it is bitwise
    # a run whose window is empty, the chase alone
    sys, k, targets, exact = _verify_loop(24, 0)
    M = sys._hessenberg.closed_loop(k)[0]
    routes = _sweep_routes(monkeypatch)
    scaled = []
    for s in range(17):
        Ms = M.copy()
        Ms[0] *= 2.0**s
        Ms[:, 0] *= 2.0**-s
        scaled.append(linalg._explicit_floor(np.ldexp(Ms, -math.frexp(max_abs(Ms))[1])) > 0)
        routes.clear()
        got = _check_spectrum(Ms, targets)
        explicit = routes.count("explicit")
        with monkeypatch.context() as m:
            m.setattr(linalg, "_EXPLICIT_ROWS", (16, 15))
            chased = _check_spectrum(Ms, targets)
        if scaled[-1]:
            assert explicit > 0
            assert _relative_error(got, exact) <= 2.0 * _relative_error(chased, exact)
        else:
            assert "explicit" not in routes and "refused" not in routes
            assert np.array(list(got)).tobytes() == np.array(list(chased)).tobytes()
    assert scaled[0] and not scaled[-1]


@pytest.mark.parametrize("n", [16, 24, 32])
def test_explicit_steps_take_the_exceptional_shift(monkeypatch, n):
    # the cyclic shift is perfectly scaled, and standard shifts leave it as
    # it is until the tenth sweep's exceptional shift; all ten are explicit
    # steps on the whole matrix, and the eigenvalues are the n-th roots of
    # unity (1.0-1.9e-15 measured on either route)
    from poleplace.verify import _bottleneck

    routes = _sweep_routes(monkeypatch)
    got = list(eigenvalues(_cyclic(n)))
    assert routes[:10] == ["explicit"] * 10
    roots = [complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
             for j in range(n)]
    assert _bottleneck(got, roots)[0] <= 1e-13


def test_explicit_step_takes_numpys_qr_bitwise(monkeypatch):
    # the step calls the LAPACK gufuncs behind np.linalg.qr itself where
    # numpy exposes them under those names; np.linalg.qr, the route of
    # numpy < 2, gives the same step bit for bit
    rng = np.random.default_rng(7)
    for m in (16, 33, 64):
        H = np.triu(rng.uniform(-1.0, 1.0, (m + 2, m + 2)), -1)
        steps = []
        for route in (linalg._qr_raw, None):
            monkeypatch.setattr(linalg, "_qr_raw", route)
            G = H.copy()
            steps.append((linalg._explicit_step(G, 1, m, 0.1, 0.3, 1.0), G.tobytes()))
        assert steps[0] == steps[1] and steps[0][0]


# the 2x2 blocks a seeded run deflates, one per finish of
# _standard_rotation: (finish, whether a rotation comes first)
_FINISHES = {
    "split": ([[0.5, 0.25], [0.125, -0.25]], ("split", True)),
    "equal": ([[0.5, 0.75], [-0.5, -0.25]], ("equal", True)),
    "equal, a = d": ([[0.25, 0.75], [-0.5, 0.25]], ("equal", False)),
    # negative discriminant inside the rounding clamp: a repeated real pair
    "clamp": ([[0.0, 1.0], [-1e-17, 0.0]], (None, False)),
}


@pytest.mark.parametrize("finish", sorted(_FINISHES))
def test_seeded_run_reads_each_2x2_finish_as_it_deflates(monkeypatch, finish):
    # a seeded run standardizes each deflating 2x2 block on Python floats
    # (_standard_eigs) and reads it there.  On upper quasi-triangular H
    # with the block on rows 0-1 and n-2..n-1 (a 1x1 on row 0 at odd n),
    # every block deflates without a sweep; on a Hessenberg H whose
    # leading block is split off by a zero subdiagonal, it deflates after
    # the sweeps that converge the rows below it.  Either way pairs are
    # exact conjugates and each value lies within 4 n eps
    # kappa(lambda) ||H||_2 of LAPACK's (kappa from its left and right
    # eigenvectors); without sweeps the values come in real_schur's row
    # order and block sizes
    scipy_linalg = pytest.importorskip("scipy.linalg")
    block, (how, rotated) = _FINISHES[finish]
    entries = tuple(np.ravel(block).tolist())
    rot, got_how = linalg._standard_rotation(*entries)
    assert (got_how, rot is not None) == (how, rotated)
    read = []
    standard_eigs = linalg._standard_eigs
    monkeypatch.setattr(linalg, "_standard_eigs",
                        lambda *e: read.append(e) or standard_eigs(*e))
    rng = np.random.default_rng(449)
    for n, swept in ((2, False), (4, False), (5, False), (5, True), (9, True)):
        if swept:
            H = np.triu(rng.uniform(-1, 1, (n, n)), -1)
            H[:2, :2] = block
            H[2, 1] = 0.0
        else:
            H = np.triu(rng.uniform(-1, 1, (n, n)))
            H[n % 2 : n % 2 + 2, n % 2 : n % 2 + 2] = block
            H[n - 2 :, n - 2 :] = block
        exact = scipy_linalg.eigvals(H)
        read.clear()
        got = list(eigenvalues(H.T, near=list(exact)))
        shift = math.frexp(np.abs(H).max())[1]  # as eigenvalues scales H
        assert tuple(np.ldexp(entries, -shift).tolist()) in read
        for z in got:
            assert got.count(z.conjugate()) == got.count(z)
        w, left, right = scipy_linalg.eig(H, left=True, right=True)
        kappa = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))
        bound = 4 * n * EPS * np.linalg.norm(H, 2)
        for z in got:
            j = int(np.argmin(np.abs(w - z)))
            assert abs(z - w[j]) <= bound * kappa[j]
        if not swept:
            plain = real_schur(H.T)
            tail = [1, 1] if how == "split" else [2]
            assert [blk.size for blk in plain.blocks][-len(tail) :] == tail
            want = _block_values(plain)
            assert len(read) == (n - n % 2) // 2
            for z, v in zip(got, want, strict=True):
                assert abs(z - v) <= 8 * EPS * max_abs(H)


def test_standard_eigs_reads_the_block_the_numpy_standardization_leaves():
    # each finish, and c = 0, which no deflated 2x2 block has (its
    # subdiagonal passed the deflation test): the float standardization of
    # a run without Q reads the rows _scan_blocks_upper reads after
    # real_schur's _standardize_2x2, to a few ulps, the pairs as exact
    # conjugates
    blocks = [block for block, _ in _FINISHES.values()] + [[[0.5, 0.25], [0.0, -0.25]]]
    rng = np.random.default_rng(457)
    blocks += [rng.uniform(-1, 1, (2, 2)).tolist() for _ in range(200)]
    for block in blocks:
        HQ = np.vstack([block, np.eye(2)])
        linalg._standardize_2x2(HQ, 0)
        want = [blk.eigenvalues for blk in _scan_blocks_upper(HQ[:2])]
        first, second = linalg._standard_eigs(*np.ravel(block).tolist())
        rows = [first, second] if second else [first]
        assert [len(r) for r in rows] == [len(v) for v in want]
        for r, v in zip(rows, want):
            assert all(abs(x - y) <= 8 * EPS for x, y in zip(r, v))
        if len(first) == 2:
            assert first[1] == first[0].conjugate()


def test_paired_chase_is_backward_stable_property():
    # on known-spectrum and random Hessenberg matrices at n = 3-64, with
    # the exact spectrum or a perturbed one requested, each seeded
    # eigenvalue is an exact eigenvalue of A + E with ||E||_2 =
    # sigma_min(A - lambda I) within 16 n eps ||A||_2 (0.8 measured), as
    # the plain ones are, so the two spectra lie within twice that times
    # the largest eigenvalue condition number (LAPACK's eigenvectors, with
    # a factor 4 to spare); an impossible request is no request, so the
    # result is the plain one
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scipy_linalg = pytest.importorskip("scipy.linalg")

    @st.composite
    def cases(draw):
        n = draw(st.integers(3, 64))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            A, exact = _known_spectrum(rng, n)
        else:
            A = np.triu(rng.uniform(-1, 1, (n, n)), -1)
            exact = list(scipy_linalg.eigvals(A))
        kind = draw(st.sampled_from(["exact", "perturbed", "impossible"]))
        if kind == "perturbed":
            # the spectrum of a nearby matrix, so still conjugate closed
            near = list(scipy_linalg.eigvals(A + 10.0 ** rng.uniform(-10, -2)
                                             * rng.uniform(-1, 1, (n, n))))
        elif kind == "impossible":
            near = draw(st.sampled_from(_IMPOSSIBLE_REQUESTS))
        else:
            near = exact
        return A, near, kind

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        A, near, kind = case
        n = A.shape[0]
        got = list(eigenvalues(A, near=near))
        plain = list(eigenvalues(A))
        if kind == "impossible":
            assert np.array(got).tobytes() == np.array(plain).tobytes()
            return
        assert len(got) == n
        upper = Counter((z.real.hex(), z.imag.hex()) for z in got if z.imag > 0.0)
        lower = Counter((z.real.hex(), (-z.imag).hex()) for z in got if z.imag < 0.0)
        assert upper == lower
        bound = 16 * n * EPS * np.linalg.norm(A, 2)
        for z in got:
            assert np.linalg.svd(A - z * np.eye(n), compute_uv=False)[-1] <= bound
        _, left, right = scipy_linalg.eig(A, left=True, right=True)
        kappa = float(np.max(1.0 / np.abs(np.sum(left.conj() * right, axis=0))))
        assert spectrum_distance(got, plain) <= 8.0 * kappa * bound

    check()


def test_eigenvalues_with_a_request_property():
    # whatever the request holds (the exact spectrum, a perturbed or an
    # unrelated one, too few or too many values, none), the result is a
    # complete, conjugate-closed spectrum as close to LAPACK's as without it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scipy_linalg = pytest.importorskip("scipy.linalg")

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 30))
        e = draw(st.integers(-60, 60))
        kind = draw(st.sampled_from(
            ["exact", "perturbed", "unrelated", "short", "long", "empty"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        A = rng.uniform(-1, 1, (n, n))
        exact = scipy_linalg.eigvals(A)
        if kind == "exact":
            near = exact
        elif kind == "perturbed":
            # the spectrum of a nearby matrix, so still conjugate closed
            delta = 10.0 ** rng.uniform(-8, -1)
            near = scipy_linalg.eigvals(A + delta * rng.uniform(-1, 1, (n, n)))
        elif kind == "unrelated":
            near = scipy_linalg.eigvals(rng.uniform(-1, 1, (n, n)))
        elif kind == "short":
            near = exact[: rng.integers(0, n)]
        elif kind == "long":
            near = np.concatenate([exact, rng.uniform(-1, 1, rng.integers(1, 6))])
        else:
            near = []
        scale = 2.0**e  # exact: no scaled value leaves the normal range
        return A * scale, [z * scale for z in near]

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        A, near = case
        n = A.shape[0]
        got = list(eigenvalues(A, near=near))
        assert len(got) == n
        upper = Counter((z.real.hex(), z.imag.hex()) for z in got if z.imag > 0.0)
        lower = Counter((z.real.hex(), (-z.imag).hex()) for z in got if z.imag < 0.0)
        assert upper == lower
        want = scipy_linalg.eigvals(A)
        plain = spectrum_distance(eigenvalues(A), want)
        assert spectrum_distance(got, want) <= 4.0 * plain + 64 * n * EPS * max_abs(A)

    check()


def test_eigenvalue_only_sweep_stays_inside_its_window():
    # without Q a sweep, which chases its bulge in pairs, reads and writes
    # only the active block l..hi; the entries outside it are NaN and
    # infinities, since a NaN alone passes through a full-row update
    # unchanged while an infinity turns into NaN
    rng = np.random.default_rng(67)
    n, l, hi = 12, 3, 9
    H = np.triu(rng.uniform(-1, 1, (n, n)), -1)
    outside = np.ones((n, n), dtype=bool)
    outside[l : hi + 1, l : hi + 1] = False
    H[outside] = rng.choice([np.nan, np.inf, -np.inf], (n, n))[outside]
    H0 = H.copy()
    tr = H[hi - 1, hi - 1] + H[hi, hi]
    det = H[hi - 1, hi - 1] * H[hi, hi] - H[hi - 1, hi] * H[hi, hi - 1]
    H = H0.copy()
    linalg._francis_step(H, l, hi, tr, det, linalg._step_scratch())
    window, window0 = H[l : hi + 1, l : hi + 1], H0[l : hi + 1, l : hi + 1]
    assert np.all(np.isfinite(window))
    assert np.all(np.tril(window, -2) == 0.0)
    assert not np.array_equal(window, window0)
    assert _nearest_match_distance(np.linalg.eigvals(window),
                                   np.linalg.eigvals(window0)) <= 1e-12
    assert H[outside].tobytes() == H0[outside].tobytes()


def test_householder_on_strided_column_is_bitwise_the_norm_formula():
    # the norm is taken on the contiguous copy; a dot on the strided view
    # can change the last bit
    rng = np.random.default_rng(53)
    for n in (3, 8, 17, 40):
        H = rng.uniform(-1, 1, (n, n)) * 10.0 ** rng.uniform(-3, 3)
        for k in range(n - 2):
            x = H[k + 1 :, k]
            normx = float(np.linalg.norm(x))
            alpha_want = -normx if x[0] >= 0.0 else normx
            v_want = np.array(x, dtype=float)
            v_want[0] -= alpha_want
            beta_want = 2.0 / float(v_want @ v_want)
            v, beta, alpha = _householder(x)
            assert v.tobytes() == v_want.tobytes()
            assert beta.hex() == beta_want.hex()
            assert alpha.hex() == alpha_want.hex()


# ---------------------------------------------------------------------------
# reordering


def test_reorder_moves_selected_block_first():
    dec = real_schur(np.diag([1.0, 2.0]))
    order = [blk.eigenvalues[0].real for blk in dec.blocks]
    pick = order.index(2.0)
    re = reorder_schur(dec, [pick])
    assert abs(re.blocks[0].eigenvalues[0] - 2.0) <= 1e-12
    assert abs(re.blocks[1].eigenvalues[0] - 1.0) <= 1e-12
    assert max_abs(re.Q @ re.T @ re.Q.T - np.diag([1.0, 2.0])) <= 1e-12


def test_reorder_noop_returns_same_object():
    dec = real_schur(np.diag([1.0, 2.0, 3.0]))
    assert reorder_schur(dec, []) is dec
    assert reorder_schur(dec, [0]) is dec
    assert reorder_schur(dec, [1, 0]) is dec


def test_reorder_validates_selection():
    dec = real_schur(np.diag([1.0, 2.0]))
    with pytest.raises(ValidationError):
        reorder_schur(dec, [2])
    with pytest.raises(ValidationError):
        reorder_schur(dec, [0, 0])


def test_reorder_preserves_spectrum():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        A = rng.uniform(-1, 1, (n, n))
        dec = real_schur(A)
        if len(dec.blocks) < 2:
            continue
        sel = list(rng.choice(len(dec.blocks), size=len(dec.blocks) // 2, replace=False))
        want = [z for i in sel for z in dec.blocks[i].eigenvalues]
        re = reorder_schur(dec, sel)
        lead = []
        for blk in re.blocks:
            if len(lead) >= len(want):
                break
            lead.extend(blk.eigenvalues)
        assert _nearest_match_distance(lead, want) <= 1e-9 * max(1.0, max_abs(A))
        got_all = [z for blk in re.blocks for z in blk.eigenvalues]
        want_all = [z for blk in dec.blocks for z in blk.eigenvalues]
        assert _nearest_match_distance(got_all, want_all) <= 1e-9 * max(
            1.0, max_abs(A)
        )
        assert max_abs(re.Q @ re.T @ re.Q.T - A) <= 1e-9 * max(1.0, max_abs(A))


def test_reorder_refuses_coincident_blocks():
    dec = real_schur(np.eye(2))
    with pytest.raises(BlockSwapError) as info:
        reorder_schur(dec, [1])
    assert "rows 0..0 and 1..1" in str(info.value)


_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "A, rows",
    [
        # two identical 2x2 blocks carrying +-i
        (np.block([[_ROT, np.zeros((2, 2))], [np.zeros((2, 2)), _ROT]]), "rows 0..1 and 2..3"),
        # a 1x1 block against a clamp block reporting the same value twice
        (np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 100.0], [1.0, -1e-14, 1.0]]), "rows 0..0 and 1..2"),
    ],
    ids=["complex-pair", "clamp-pair"],
)
def test_reorder_refuses_coincident_larger_blocks(A, rows):
    dec = real_schur(A)
    assert dec.blocks[0].eigenvalues[0] == dec.blocks[-1].eigenvalues[0]
    with pytest.raises(BlockSwapError) as info:
        reorder_schur(dec, [len(dec.blocks) - 1])
    assert rows in str(info.value)


@pytest.mark.parametrize("coupling", [1e160, -1e300])
def test_reorder_swaps_across_a_coupling_whose_square_overflows(coupling):
    # the reflector of [X; 1], X = coupling, is built from the vector scaled
    # by a power of two: squaring X itself would overflow, give G = I and
    # leave the blocks in their old order
    S = np.array([[1.0, coupling], [0.0, 2.0]])
    dec = SchurDecomposition(Q=np.eye(2), T=S.T.copy(), blocks=_scan_blocks_upper(S))
    re = reorder_schur(dec, [1])
    assert [blk.eigenvalues[0] for blk in re.blocks] == [pytest.approx(2.0), pytest.approx(1.0)]
    assert max_abs(re.Q.T @ re.Q - np.eye(2)) <= 64 * 2 * EPS
    assert max_abs(re.Q @ re.T @ re.Q.T - dec.T) <= 1024 * 2 * EPS * max_abs(dec.T)


@pytest.mark.parametrize(
    "distort",
    [
        # a basis off the invariant subspace: the weak test, on the block the
        # swap zeroes, fires
        lambda basis: lambda X, p, q: basis([x + 1e-3 for x in X], p, q),
        # an invariant but not orthonormal factor: only the reconstruction
        # test can see it
        lambda basis: lambda X, p, q: [g * (1.0 + 1e-6) for g in basis(X, p, q)],
    ],
    ids=["weak", "strong"],
)
def test_swap_refuses_a_swap_that_is_not_backward_stable(monkeypatch, distort):
    basis = linalg._coupling_basis
    monkeypatch.setattr(linalg, "_coupling_basis", distort(basis))
    # upper form: 2x2 blocks carrying 1 +- 1i and 3 +- 1i, coupled
    S = np.array([
        [1.0, 2.0, 9.0, -7.0],
        [-0.5, 1.0, 4.0, 12.0],
        [0.0, 0.0, 3.0, 3.0],
        [0.0, 0.0, -1.0 / 3.0, 3.0],
    ])
    SZ = np.vstack([S, np.eye(4)])
    S, Z = SZ[:4], SZ[4:]
    S0, Z0 = S.copy(), Z.copy()
    with pytest.raises(BlockSwapError) as info:
        linalg._swap_adjacent_upper(SZ, 0, 2, 2)
    assert "rows 0..1 and 2..3" in str(info.value)
    assert "backward error" in str(info.value)
    # refused before anything was written
    assert np.array_equal(S, S0) and np.array_equal(Z, Z0)
    monkeypatch.setattr(linalg, "_coupling_basis", basis)
    linalg._swap_adjacent_upper(SZ, 0, 2, 2)
    assert max_abs(Z @ S @ Z.T - S0) <= 64 * EPS * max_abs(S0)


def test_reorder_swaps_without_condition_number(monkeypatch):
    # a swap solves its coupling system I (x) A11 - A22.T (x) I, the very
    # matrix np.kron forms, on Python floats with solve_linear's pivot
    # threshold; no swap estimates a condition number or calls either
    # numpy elimination route.  Two 1x1 blocks need no solve.  The 2x2
    # systems are solved bitwise as solve_linear solves them, the 4x4 ones
    # to rounding, and every coupling solves its Sylvester equation.
    def refuse(*args, **kwargs):
        raise AssertionError("condition_number, solve_linear or _factor called")

    swaps, solves = [], []
    swap, solve = linalg._swap_adjacent_upper, linalg._eliminate_scalars

    def recording_swap(SZ, i, p, q):
        swaps.append((p, q, SZ[i : i + p + q, i : i + p + q].copy()))
        return swap(SZ, i, p, q)

    def checked_solve(K, rhs, limit):
        K0, rhs0 = np.array(K), np.array(rhs)
        x = solve(K, rhs, limit)
        solves.append((*swaps[-1], K0, rhs0, limit, np.array(x)))
        return x

    monkeypatch.setattr(linalg, "condition_number", refuse)
    monkeypatch.setattr(linalg, "solve_linear", refuse)
    monkeypatch.setattr(linalg, "_factor", refuse)
    monkeypatch.setattr(linalg, "_swap_adjacent_upper", recording_swap)
    monkeypatch.setattr(linalg, "_eliminate_scalars", checked_solve)
    rng = np.random.default_rng(59)
    for n in (3, 6, 9, 12):
        A = rng.uniform(-1, 1, (n, n))
        A[rng.uniform(size=(n, n)) < 0.3] *= -0.0
        dec = real_schur(A)
        reorder_schur(dec, list(range(len(dec.blocks)))[::-2])
    monkeypatch.undo()
    sizes = [(p, q) for p, q, _ in swaps]
    assert {(1, 1), (1, 2), (2, 1), (2, 2)} <= set(sizes)
    assert [(p, q) for p, q, *_ in solves] == [size for size in sizes if size != (1, 1)]
    for p, q, D, K, rhs, limit, x in solves:
        A11, A12, A22 = D[:p, :p], D[:p, p:], D[p:, p:]
        want = np.kron(np.eye(q), A11) - np.kron(A22.T, np.eye(p))
        assert np.array_equal(K, want)
        assert rhs.tobytes() == (-A12.flatten(order="F")).tobytes()
        assert limit == p * q * EPS * max_abs(want)
        if p * q == 2:
            assert solve_linear(K, rhs).tobytes() == x.tobytes()
        else:
            assert max_abs(solve_linear(K, rhs) - x) <= 64 * EPS * max_abs(x)
        X = x.reshape((p, q), order="F")
        assert max_abs(A11 @ X - X @ A22 + A12) <= 64 * EPS * max_abs(D) * max(1.0, max_abs(X))


def test_swap_property_against_scipy_on_all_four_shapes():
    # one swap of two adjacent blocks inside a larger upper quasi-triangular
    # form, for each of the shapes 1<->1, 2<->1, 1<->2 and 2<->2: the form
    # is rebuilt to rounding by an orthogonal Z, keeps its structure, holds
    # the two blocks in swapped order with their eigenvalues (scipy's
    # eigvals of the original blocks are the oracle), its 2x2 blocks in
    # standard form, and Z's leading columns span an invariant subspace
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scipy_linalg = pytest.importorskip("scipy.linalg")

    def block(draw, size, centre):
        if size == 1:
            return np.array([[centre]])
        im = 0.25 * draw(st.integers(1, 8))
        r = 2.0 ** draw(st.integers(-2, 2))
        # a complex block, turned by a random rotation out of standard form
        B = np.array([[centre, im * r], [-im / r, centre]])
        phi = draw(st.floats(0.0, 3.0))
        G = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        return G.T @ B @ G

    @st.composite
    def cases(draw):
        p, q = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
        before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        c1, c2 = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=2, unique=True))
        scale = 10.0 ** draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = before + p + q + after
        S = np.triu(rng.uniform(-2, 2, (n, n)))
        i = before
        S[i : i + p, i : i + p] = block(draw, p, 0.25 * c1)
        S[i + p : i + p + q, i + p : i + p + q] = block(draw, q, 0.25 * c2)
        return scale * S, i, p, q

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        S0, i, p, q = case
        n = S0.shape[0]
        SZ = np.vstack([S0, np.eye(n)])
        S, Z = SZ[:n], SZ[n:]
        linalg._swap_adjacent_upper(SZ, i, p, q)
        m = p + q
        assert max_abs(Z.T @ Z - np.eye(n)) <= 64 * n * EPS
        assert max_abs(Z @ S @ Z.T - S0) <= 64 * n * EPS * max_abs(S0)
        # rows and columns outside the window are untouched, and below the
        # window's diagonal blocks there are hard zeros
        assert np.array_equal(S[:i, :i], S0[:i, :i])
        assert np.array_equal(S[i + m :, i + m :], S0[i + m :, i + m :])
        assert np.all(np.tril(S, -2) == 0.0)
        assert np.all(S[i + q : i + m, i : i + q] == 0.0)
        lead, trail = S[i : i + q, i : i + q], S[i + q : i + m, i + q : i + m]
        tol = 1e-9 * max_abs(S0)
        old22 = scipy_linalg.eigvals(S0[i + p : i + m, i + p : i + m])
        old11 = scipy_linalg.eigvals(S0[i : i + p, i : i + p])
        assert _nearest_match_distance(scipy_linalg.eigvals(lead), old22) <= tol
        assert _nearest_match_distance(scipy_linalg.eigvals(trail), old11) <= tol
        for B in (lead, trail):
            if len(B) == 2:  # standard form: equal diagonal entries
                assert B[0, 0] == B[1, 1] and B[0, 1] * B[1, 0] < 0.0
        # the leading i + q columns of Z span S0's invariant subspace
        Z1 = Z[:, : i + q]
        assert max_abs(S0 @ Z1 - Z1 @ S[: i + q, : i + q]) <= 64 * n * EPS * max_abs(S0)

    check()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_swap_standardizes_a_block_whose_diagonal_sum_overflows():
    # the 2x2 block carries 1.5e308 +- 1e308 i; its diagonal sum overflows,
    # so its standardized diagonal is the mean taken halves first
    T = np.array([[1.0, 0.0, 0.0], [0.5, 1.5e308, -1e308], [0.25, 1e308, 1.5e308]])
    re = reorder_schur(real_schur(T), [1])
    assert np.all(np.isfinite(re.T))
    assert re.blocks[0].size == 2 and re.blocks[1].size == 1
    for blk in re.blocks:
        assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in blk.eigenvalues)
    assert re.blocks[0].eigenvalues[0] == pytest.approx(1.5e308 + 1e308j, rel=1e-12)
    assert re.blocks[1].eigenvalues[0] == pytest.approx(1.0, rel=1e-3)


def test_reorder_property_on_random_forms():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scipy_linalg = pytest.importorskip("scipy.linalg")

    @st.composite
    def forms(draw):
        sizes = draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=8))
        # distinct centres keep every two blocks at least 0.25 apart
        centres = draw(st.lists(st.integers(-20, 20), min_size=len(sizes),
                                max_size=len(sizes), unique=True))
        scale = 10.0 ** draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = sum(sizes)
        T = np.tril(rng.uniform(-1, 1, (n, n)))
        i = 0
        for size, c in zip(sizes, centres):
            if size == 1:
                T[i, i] = 0.25 * c
            else:
                im = 0.25 * draw(st.integers(1, 8))
                r = 2.0 ** draw(st.integers(-2, 2))
                T[i : i + 2, i : i + 2] = [[0.25 * c, im * r], [-im / r, 0.25 * c]]
            i += size
        T *= scale
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        dec = SchurDecomposition(Q=Q, T=T, blocks=_scan_blocks_upper(T.T))
        select = draw(st.lists(st.integers(0, len(sizes) - 1), unique=True))
        return dec, select

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(forms())
    def check(case):
        dec, select = case
        n = dec.T.shape[0]
        A = dec.Q @ dec.T @ dec.Q.T
        re = reorder_schur(dec, select)
        assert max_abs(re.Q.T @ re.Q - np.eye(n)) <= 64 * n * EPS
        assert max_abs(re.Q @ re.T @ re.Q.T - A) <= 1024 * n * EPS * max_abs(A)
        tol = 1e-9 * max(1.0, max_abs(A))
        for got, want in zip(re.blocks, [dec.blocks[i] for i in sorted(select)]):
            assert got.size == want.size
            assert _nearest_match_distance(got.eigenvalues, want.eigenvalues) <= tol
        values = [z for blk in re.blocks for z in blk.eigenvalues]
        assert _nearest_match_distance(values, scipy_linalg.eigvals(A)) <= tol
        # only the rows up to the last selected block are rescanned; the
        # blocks kept from dec are those a full rescan reads, bit for bit
        assert _block_bits(re.blocks) == _block_bits(_scan_blocks_upper(re.T.T))

    check()


def test_reorder_property_on_repeated_and_near_coincident_spectra():
    # Criterion 7's bounds on every reorder that is accepted, over the
    # inputs that break naive swaps: rotated matrices whose eigenvalues all
    # come twice, and rotated complex pairs a hair apart.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        kind = draw(st.sampled_from(["repeated", "near-pairs"]))
        scale = 10.0 ** draw(st.integers(-3, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "repeated":
            m = draw(st.integers(1, 8))
            B = rng.uniform(-1, 1, (m, m))
            if draw(st.booleans()):
                B = np.triu(B)  # real and integer-free but still repeated
            core = np.kron(np.eye(2), B)
        else:
            pairs = draw(st.integers(2, 6))
            gap = 10.0 ** -draw(st.integers(6, 14))
            core = np.triu(rng.uniform(-1, 1, (2 * pairs, 2 * pairs)))
            for i in range(pairs):
                c = 0.5 * (i // 2) + gap * (i % 2)  # the pairs come two by two
                im = 1.0 + gap * rng.uniform(-1, 1)
                r = 2.0 ** draw(st.integers(-2, 2))
                core[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, im * r], [-im / r, c]]
        n = core.shape[0]
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = scale * (Q @ core @ Q.T)
        # block i is selected when flags[i] is set, and the last block
        # always is, so most selections have a block to move forward
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return A, flags

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        A, flags = case
        n = A.shape[0]
        dec = real_schur(A)
        select = [i for i in range(len(dec.blocks) - 1) if flags[i]] + [len(dec.blocks) - 1]
        try:
            re = reorder_schur(dec, select)
        except BlockSwapError:
            return  # a refusal is allowed; an accepted swap must be accurate
        assert max_abs(re.Q.T @ re.Q - np.eye(n)) <= 64 * n * EPS
        assert max_abs(re.Q @ re.T @ re.Q.T - A) <= 1024 * n * EPS * max_abs(A)

    check()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, seed", [(1e160, 0), (1e300, 0), (1e-300, 1)])
def test_reorder_at_extreme_scales_neither_overflows_nor_refuses(scale, seed):
    # Block discriminants are squared after a power-of-two scaling, so a
    # form of 1e160 * A no longer overflows in reorder_schur, and a swap
    # of 1x1 blocks 1e-300 apart is no longer taken for coincident blocks.
    rng = np.random.default_rng(seed)
    A = scale * rng.uniform(-1, 1, (6, 6))
    dec = real_schur(A)
    for block in range(len(dec.blocks)):
        re = reorder_schur(dec, [block])
        assert re.blocks[0].eigenvalues == pytest.approx(dec.blocks[block].eigenvalues, rel=1e-9)
        assert max_abs(re.Q.T @ re.Q - np.eye(6)) <= 64 * 6 * EPS
        assert max_abs(re.Q @ re.T @ re.Q.T - A) <= 1024 * 6 * EPS * max_abs(A)


def test_block_eigenvalues_bitwise_unchanged_by_the_scaling():
    # on blocks of moderate size the power of two changes no rounding: the
    # eigenvalues are the bits of the unscaled formula
    def unscaled(a, b, c, d):
        m = 0.5 * (a + d)
        p = 0.5 * (a - d)
        disc = p * p + b * c
        s = abs(a) + abs(b) + abs(c) + abs(d)
        if disc >= 0.0:
            sq = math.sqrt(disc)
            return complex(m + sq), complex(m - sq)
        if disc >= -16.0 * EPS * s * s:
            return complex(m), complex(m)
        im = math.sqrt(-disc)
        return complex(m, im), complex(m, -im)

    rng = np.random.default_rng(29)
    for _ in range(2000):
        a, b, c, d = rng.uniform(-1, 1, 4) * 10.0 ** rng.integers(-100, 100, 4)
        assert linalg._block_eigs(a, b, c, d) == unscaled(a, b, c, d)


# ---------------------------------------------------------------------------
# invariant_split


def test_invariant_split_diagonal():
    sp = invariant_split(np.diag([1.0, 2.0]), [2.0])
    assert_allclose(np.abs(sp.U[:, 0]), [0.0, 1.0], atol=1e-12)
    assert_allclose(np.abs(sp.V[:, 0]), [1.0, 0.0], atol=1e-12)
    assert_allclose(sp.X, [[2.0]], atol=1e-12)
    assert_allclose(sp.Y, [[1.0]], atol=1e-12)
    assert list(sp.moved) == [2.0]
    assert list(sp.kept) == [1.0]


def test_invariant_split_left_and_right_bases():
    # U spans the left invariant subspace of the moved eigenvalue, V the
    # right invariant subspace of the kept one.
    A = np.array([[1.0, 2.0], [4.0, 3.0]])
    sp = invariant_split(A, [5.0])
    assert abs(sp.U[:, 0] @ np.array([1.0, -1.0])) <= 1e-9
    assert abs(sp.V[:, 0] @ np.array([1.0, 1.0])) <= 1e-9
    assert_allclose(sp.X, [[5.0]], atol=1e-9)
    assert_allclose(sp.Y, [[-1.0]], atol=1e-9)


def test_invariant_split_full_selection():
    A = np.diag([1.0, 2.0])
    sp = invariant_split(A, [1.0, 2.0])
    assert sp.U.shape == (2, 2)
    assert sp.V.shape == (2, 0)
    assert sp.Y.shape == (0, 0)
    assert sorted(z.real for z in sp.moved) == [1.0, 2.0]


def test_invariant_split_invariance_residuals():
    rng = np.random.default_rng(47)
    done = 0
    while done < 10:
        A = rng.uniform(-1, 1, (8, 8))
        dec = real_schur(A)
        if len(dec.blocks) < 2:
            continue
        flat = [(z, bi) for bi, blk in enumerate(dec.blocks) for z in blk.eigenvalues]
        take = {0}
        moved = [z for z, bi in flat if bi in take]
        kept = [z for z, bi in flat if bi not in take]
        gap = min(abs(m - k) for m in moved for k in kept)
        if gap < 0.1:
            continue
        sp = invariant_split(A, moved)
        r = len(moved)
        assert max_abs(sp.U.T @ A - sp.X @ sp.U.T) <= 1e-10 * max(1.0, max_abs(A))
        assert max_abs(A @ sp.V - sp.V @ sp.Y) <= 1e-10 * max(1.0, max_abs(A))
        Q = np.hstack([sp.U, sp.V])
        assert max_abs(Q.T @ Q - np.eye(8)) <= 1e-12
        assert len(sp.moved) == r
        assert len(sp.kept) == 8 - r
        done += 1


def test_invariant_split_matching_errors():
    with pytest.raises(MatchingError) as info:
        invariant_split(np.diag([1.0, 2.0, 3.0]), [7.0])
    assert "nearest candidates" in str(info.value)
    with pytest.raises(AmbiguousMatchError) as info:
        invariant_split(np.diag([1.0, 1.0 + 1e-9, 3.0]), [1.0])
    assert "ambiguous" in str(info.value)


def test_invariant_split_tolerance_is_relative_to_the_matrix():
    # at max|A| ~ 1e-160 an absolute tolerance of 1e-6 took all six
    # eigenvalues for the requested pair; a relative one moves the blocks
    # the unscaled split moves
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (6, 6))
    for scale in (1e-160, 1.0, 1e160):
        lam = [z for z in eigenvalues(scale * A) if z.imag > 0][0]
        small = invariant_split(scale * A, [lam, lam.conjugate()])
        lam = [z for z in eigenvalues(A) if z.imag > 0][0]
        plain = invariant_split(A, [lam, lam.conjugate()])
        # the same invariant subspace and the same values, scaled
        assert max_abs(small.U @ small.U.T - plain.U @ plain.U.T) <= 1e-9
        got = sorted(small.moved.values, key=lambda z: z.imag)
        want = sorted((scale * z for z in plain.moved.values), key=lambda z: z.imag)
        assert got == pytest.approx(want, rel=1e-9)
    assert linalg._match_tol(A) == 1e-6
    assert linalg._match_tol(np.ldexp(A, -600)) == math.ldexp(1e-6, -600)


def _match_values_pairwise(targets, candidates, tol):
    """The matcher's old rule, kept as the reference for
    ``linalg._match_values``: each distinct target may have at most its own
    multiplicity of candidates within tol, and every target-candidate pair
    is sorted and paired nearest first.  Returns one index per target."""
    tcount = Counter(targets)
    for t, mult in tcount.items():
        close = sum(1 for c in candidates if abs(c - t) <= tol)
        if close > mult:
            raise AmbiguousMatchError(
                f"{close} computed eigenvalues lie within {tol:.3e} of {t}, "
                f"which appears {mult} time(s) in the request; "
                "the selection is ambiguous"
            )
    pairs = sorted(
        (abs(c - t), ti, ci)
        for ti, t in enumerate(targets)
        for ci, c in enumerate(candidates)
    )
    out = [-1] * len(targets)
    used = set()
    for dist, ti, ci in pairs:
        if dist > tol:
            break
        if out[ti] >= 0 or ci in used:
            continue
        out[ti] = ci
        used.add(ci)
    for ti, ci in enumerate(out):
        if ci < 0:
            near = sorted(candidates, key=lambda c: abs(c - targets[ti]))[:3]
            raise MatchingError(
                f"no computed eigenvalue within {tol:.3e} of {targets[ti]}; "
                f"nearest candidates: {near}"
            )
    return out


def test_match_values_agrees_with_the_pairwise_sort():
    # the cluster rule against the old per-value rule: wherever the old
    # rule accepts, the matcher takes the candidates it paired; wherever no
    # two distinct requests lie within 2 tol, every cluster is one value
    # and both raise the same error with the same message.  Requests offset
    # by up to 1.9 tol from another make clusters, beside exact repeats,
    # exact conjugates, signed zeros and candidates inside tol of a target
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    tol = 1e-6
    parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])
    sites = st.builds(complex, parts, parts)

    @st.composite
    def requests(draw):
        targets = draw(st.lists(sites, min_size=1, max_size=4))
        spread = st.builds(complex, st.floats(-1.9, 1.9), st.floats(-1.9, 1.9))
        for _ in range(draw(st.integers(0, 2))):
            near = draw(st.sampled_from(targets)) + tol * draw(spread)
            targets.insert(draw(st.integers(0, len(targets))), near)
        target = st.sampled_from(targets)
        offset = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
        candidate = st.one_of(
            target,
            target.map(lambda z: z.conjugate()),
            st.tuples(target, offset).map(lambda v: v[0] + tol * v[1]),
            sites,
        )
        return targets, draw(st.lists(candidate, min_size=1, max_size=24))

    def outcome(match, targets, candidates):
        try:
            return match(list(targets), list(candidates), tol)
        except (AmbiguousMatchError, MatchingError) as exc:
            return type(exc), str(exc)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(requests())
    # a tie at distance 0 between two candidates, for two equal targets
    @hypothesis.example(([1 + 1j, 1 + 1j], [1 + 1j, 2.0, 1 + 1j]))
    # a target with no candidate within tol
    @hypothesis.example(([0.5j, -0.5j], [0.5j, 2.0]))
    # two requests 1.5 tol apart, each with the other's candidate in tol
    @hypothesis.example(([1.0, 1.0 + 1.5e-6], [1.0 + 0.75e-6, 1.0 + 0.8e-6, 2.0]))
    def check(request):
        targets, candidates = request
        new = outcome(linalg._match_values, targets, candidates)
        old = outcome(_match_values_pairwise, targets, candidates)
        if isinstance(old, list):
            assert new == set(old)
        if isinstance(new, set):
            assert len(new) == len(targets)
            assert all(min(abs(candidates[ci] - t) for t in targets) <= tol for ci in new)
        distinct = set(targets)
        if all(abs(s - t) > 2 * tol for s, t in itertools.combinations(distinct, 2)):
            assert new == (set(old) if isinstance(old, list) else old)

    check()


def test_match_values_takes_a_cluster_whole():
    # 1 + 1e-7 and 1 - 1e-7, as a perturbed Jordan pair computes them: each
    # request has both candidates within tol, which the old rule called
    # ambiguous; the cluster matches both, and counts against its total
    tol = 1e-6
    pair = [1 + 1e-7 + 0j, 1 - 1e-7 + 0j]
    assert linalg._match_values(pair, [3.0 + 0j, *pair], tol) == {1, 2}
    # requests 1.5 tol apart still cluster: links reach 2 tol
    assert linalg._match_values([1.0, 1.0 + 1.5e-6], [1.0 + 7.5e-7, 2.0, 1.0 + 8e-7], tol) == {0, 2}
    with pytest.raises(AmbiguousMatchError, match=(
            r"^3 computed eigenvalues lie within 1\.000e-06 of \(1\.0000001\+0j\) or "
            r"\(0\.9999999\+0j\), which appears 2 time\(s\)")):
        linalg._match_values(pair, [1.0 + 0j, *pair], tol)
    # the second request finds the cluster's one candidate taken
    with pytest.raises(MatchingError, match=r"of \(0\.9999999\+0j\); nearest"):
        linalg._match_values(pair, [3.0 + 0j, pair[0]], tol)


def test_invariant_split_rejects_half_pair():
    # a non-self-conjugate request never reaches the matcher
    A = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
    with pytest.raises(ValidationError):
        invariant_split(A, [1j])


def test_invariant_split_validates_count():
    with pytest.raises(ValidationError):
        invariant_split(np.diag([1.0, 2.0]), [])
    with pytest.raises(ValidationError):
        invariant_split(np.diag([1.0, 2.0]), [1.0, 1.0, 2.0])


def test_feed_leading_touches_only_the_leading_block():
    # feedback confined to the leading coordinates leaves the trailing
    # block, and its eigenvalues, exactly as they were
    rng = np.random.default_rng(43)
    for trial in range(20):
        n = 3 + trial % 8
        A = rng.uniform(-1, 1, (n, n))
        b = rng.uniform(-1, 1, n)
        dec = real_schur(A)
        dec = reorder_schur(dec, [int(rng.integers(len(dec.blocks)))])
        r = dec.blocks[0].size
        g = rng.uniform(-3, 3, r)
        new = _feed_leading(dec, b, g)
        assert np.array_equal(new.T[r:, r:], dec.T[r:, r:])
        assert [blk for blk in new.blocks if blk.start >= r] == [
            blk for blk in dec.blocks if blk.start >= r
        ]
        # only the leading r rows are rescanned; the rest is a full
        # rescan's, bit for bit
        assert _block_bits(new.blocks) == _block_bits(_scan_blocks_upper(new.T.T))
        assert np.all(new.T[:r, r:] == 0.0)
        assert sum(blk.size for blk in new.blocks) == n
        assert max_abs(new.Q.T @ new.Q - np.eye(n)) <= 64 * n * EPS
        C = A + np.outer(b, dec.Q[:, :r] @ g)
        assert max_abs(new.Q @ new.T @ new.Q.T - C) <= 1024 * n * EPS * max_abs(C)


# ---------------------------------------------------------------------------
# the form and its Q in one buffer: real_schur keeps [H; Q] and _reorder
# keeps [S; Z], so each transform from the right is one product over the
# buffer's column slice


def _buffer_matrices(verify_seeds=()):
    """The dense pools of perfbench's seeds 0-3, six random matrices at
    each n = 2-32, and the verify pools of ``verify_seeds``."""
    from families import load_perfbench

    inputs = load_perfbench("inputs")
    mats = [case.A for seed in range(4) for case in inputs.dense_pool(seed, 24)]
    rng = np.random.default_rng(131)
    mats += [rng.standard_normal((n, n)) for n in range(2, 33) for _ in range(6)]
    return mats + [case.A for seed in verify_seeds for case in inputs.verify_pool(seed)]


def _reordered(dec):
    """``reorder_schur`` moving the last block to the front, or the
    BlockSwapError it raised."""
    try:
        return reorder_schur(dec, [len(dec.blocks) - 1])
    except BlockSwapError as exc:
        return exc


def _separate_step(step):
    """``_francis_step`` with separate column products, the reference for
    the buffer's one: with Q, the columns of the active rows, the strip
    above them and Q each take their own product, and the rows below the
    bulge none.  Without Q it is ``step``."""

    def separate(HQ, l, hi, tr, det, scratch):
        n = HQ.shape[1]
        if HQ.shape[0] == n:
            return step(HQ, l, hi, tr, det, scratch)
        H, Q = HQ[:n], HQ[n:]
        top = hi + 1
        (a, b), (c, d), (_, e) = H[l : l + 3, l : l + 2].tolist()
        x, y, z = a * a + b * c - tr * a + det, c * (a + d - tr), e * c
        for k in range(l, hi):
            m = 3 if k + 2 < top else 2
            if k > l:
                x, y, z = H[k : k + 3, k - 1].tolist() if m == 3 else H[k : k + 2, k - 1].tolist() + [0.0]
            entries, alpha = linalg._reflector(x, y, z)
            if k > l:
                H[k, k - 1] = alpha
                H[k + 1 : k + m, k - 1] = 0.0
            if entries is None:
                continue
            P = np.array(entries).reshape(3, 3)[:m, :m].copy()
            R = H[k : k + m, k:top]
            R[...] = P @ R
            C = H[l : min(k + 4, top), k : k + m]
            C[...] = C @ P
            if top < n:
                R = H[k : k + m, top:]
                R[...] = P @ R
            if l > 0:
                C = H[:l, k : k + m]
                C[...] = C @ P
            C = Q[:, k : k + m]
            C[...] = C @ P

    return separate


def _separate_standardize(HQ, i):
    """``_standardize_2x2`` with separate column products on H and Q."""
    n = HQ.shape[1]
    H, Q = HQ[:n], HQ[n:]
    (a, b), (c, d) = H[i : i + 2, i : i + 2].tolist()
    rot, finish = linalg._standard_rotation(a, b, c, d)
    if rot is not None:
        G = linalg._rotation(*rot)
        R = H[i : i + 2, :]
        R[...] = G.T @ R
        C = H[:, i : i + 2]
        C[...] = C @ G
        C = Q[:, i : i + 2]
        C[...] = C @ G
    if finish == "split":
        H[i + 1, i] = 0.0
    elif finish == "equal":
        H[i, i] = H[i + 1, i + 1] = linalg._mean(float(H[i, i]), float(H[i + 1, i + 1]))


def _separate_swap(SZ, i, p, q):
    """``_swap_adjacent_upper`` with separate column products on S and Z
    and its backward-error maxima read by numpy."""
    n = SZ.shape[1]
    S, Z = SZ[:n], SZ[n:]
    m = p + q
    rows = slice(i, i + m)
    D = S[rows, rows]
    w = D.tolist()
    equal = []
    if m == 2:
        (a, c), (_, d) = w
        diff = a - d
        x = -c / diff if diff != 0.0 else math.inf
        if math.isinf(x):
            raise linalg._swap_refused(i, p, q, "the blocks coincide")
        r = math.hypot(x, 1.0)
        F = linalg._rotation(x / r, 1.0 / r)
    else:
        flat = linalg._coupling_basis(linalg._sylvester(w, p, q, i), p, q)
        G = np.array(flat).reshape(m, m)
        thresh = max(10.0 * EPS * max(map(abs, itertools.chain(*w))), TINY)
        E = G.T @ D @ G
        err = np.abs(E[q:, :q]).max()
        if err <= thresh:
            E[q:, :q] = 0.0
            err = np.abs(G @ E @ G.T - D).max()
        if not err <= thresh:
            raise linalg._swap_refused(i, p, q, f"the swapped form has backward error "
                                                f"{err:.3e}, above the threshold {thresh:.3e}")
        e = E.tolist()
        for j, size in ((0, q), (q, p)):
            if size == 2:
                block = linalg._scaled(e[j][j], e[j][j + 1], e[j + 1][j], e[j + 1][j + 1])
                rot, finish = linalg._standard_rotation(*block, split=False)
                if rot is not None:
                    cs, sn = rot
                    for k in range(j, m * m, m):
                        g0, g1 = flat[k], flat[k + 1]
                        flat[k], flat[k + 1] = cs * g0 + sn * g1, cs * g1 - sn * g0
                if finish:
                    equal.append(i + j)
        F = np.array(flat).reshape(m, m)
    R = S[rows, :]
    R[...] = F.T @ R
    C = S[:, rows]
    C[...] = C @ F
    C = Z[:, rows]
    C[...] = C @ F
    if m == 2:
        S[i, i], S[i, i + 1], S[i + 1, i], S[i + 1, i + 1] = d, c, 0.0, a
        return
    S[i + q : i + m, i : i + q] = 0.0
    for j in equal:
        S[j, j] = S[j + 1, j + 1] = linalg._mean(float(S[j, j]), float(S[j + 1, j + 1]))


def _with_separate_products(monkeypatch):
    monkeypatch.setattr(linalg, "_francis_step", _separate_step(linalg._francis_step))
    monkeypatch.setattr(linalg, "_standardize_2x2", _separate_standardize)
    monkeypatch.setattr(linalg, "_swap_adjacent_upper", _separate_swap)


def _schur_bits(A):
    """``real_schur(A)``'s T, Q and blocks, then those of its reorder
    moving the last block to the front or the message of its refusal."""
    dec = real_schur(A)
    re = _reordered(dec)
    moved = str(re) if isinstance(re, BlockSwapError) else (
        re.T.tobytes(), re.Q.tobytes(), _block_bits(re.blocks))
    return dec.T.tobytes(), dec.Q.tobytes(), _block_bits(dec.blocks), moved


def _sequential_bits(draw):
    """A sequential run's gain and diagnostics, or the repr of its error."""
    from poleplace.errors import PolePlacementError
    from poleplace.subspace import paired_plan, place_sequential

    A, b, targets = draw
    sys = StateSpace(A, b)
    try:
        gain, steps = place_sequential(sys, paired_plan(sys, targets))
    except PolePlacementError as exc:
        return repr(exc)
    return gain.k.tobytes(), repr(gain.diagnostics), [rec.gain.tobytes() for rec in steps]


def test_fused_column_products_keep_the_bits_of_separate_ones(monkeypatch):
    """One product over [H; Q]'s column slice, where the separate products
    covered the active rows, the strip above them and Q, gives T, Q, the
    blocks, every reorder and every BlockSwapError message bit for bit, on
    716 matrices.  The equality is a property of this BLAS's kernels for a
    product by a small matrix from the right, not of the algorithm: each
    row of the result is the same dot product whatever the rows around it,
    and the rows below the bulge, exact zeros, stay +0.0.  A BLAS whose
    column-product kernel rounds a row by where it sits would fail here."""
    mats = _buffer_matrices(verify_seeds=(1,))
    assert len(mats) == 716
    fused = [_schur_bits(A) for A in mats]
    _with_separate_products(monkeypatch)
    separate = [_schur_bits(A) for A in mats]
    for i, (f, s) in enumerate(zip(fused, separate, strict=True)):
        assert f == s, f"matrix {i} moved"


def test_fused_column_products_keep_sequential_gains_bitwise(monkeypatch):
    # the sequential runs of the close family (draws 1000-1239) and the
    # Jordan family (draws 0-599), tests/families.py: every gain, its
    # diagnostics and step gains, and every error, four of them the close
    # family's BlockSwapErrors, as the separate products give them
    from families import close_draw, jordan_draw

    draws = [close_draw(s) for s in range(1000, 1240)] + [jordan_draw(s) for s in range(600)]
    fused = [_sequential_bits(draw) for draw in draws]
    _with_separate_products(monkeypatch)
    separate = [_sequential_bits(draw) for draw in draws]
    assert sum("BlockSwapError" in f for f in fused if isinstance(f, str)) == 4
    for i, (f, s) in enumerate(zip(fused, separate, strict=True)):
        assert f == s, f"draw {i} moved"


def _assert_upper_zeros_positive(S):
    """Every entry of upper quasi-triangular S below its subdiagonal, and
    every zero one on it, is +0.0, bit for bit."""
    below = np.tril(np.ones(S.shape, dtype=bool), -2)
    assert np.all(S[below] == 0.0) and not np.signbit(S[below]).any()
    sub = S.diagonal(-1)
    assert not np.signbit(sub[sub == 0.0]).any()


def test_fused_products_leave_positive_zeros_below_the_subdiagonal():
    # the fused column products also cover the rows below the bulge, whose
    # exact zeros must come out +0.0, as must the zeros a swap covers
    for A in _buffer_matrices():
        dec = real_schur(A)
        _assert_upper_zeros_positive(dec.T.T)
        re = _reordered(dec)
        if not isinstance(re, BlockSwapError):
            _assert_upper_zeros_positive(re.T.T)
