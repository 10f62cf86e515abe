"""Dense linear algebra engine: elimination, the Hessenberg reduction
inside the real Schur iteration, reordering, the invariant-subspace split
and the leading-block feedback update.

The Schur tests check structure exactly (the iteration writes hard zeros)
and accuracy against LAPACK through numpy, which is an independent route.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from poleplace.errors import (
    AmbiguousMatchError,
    BlockSwapError,
    ConvergenceError,
    MatchingError,
    SingularMatrixError,
    ValidationError,
)
from poleplace import linalg
from poleplace.linalg import (
    EPS,
    SchurDecomposition,
    _feed_leading,
    _hessenberg_upper,
    _householder,
    _scan_blocks_upper,
    _schur_upper,
    condition_number,
    determinant,
    eigenvalues,
    invariant_split,
    krylov,
    max_abs,
    real_schur,
    reorder_schur,
    solve_linear,
)


def _nearest_match_distance(got, want):
    got = list(got)
    out = 0.0
    for w in want:
        i = min(range(len(got)), key=lambda j: abs(got[j] - w))
        out = max(out, abs(got.pop(i) - w))
    return out


# ---------------------------------------------------------------------------
# solves, determinant, krylov, conditioning


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


def test_solve_validates_shapes():
    with pytest.raises(ValidationError):
        solve_linear(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValidationError):
        solve_linear(np.eye(2), np.zeros(3))


def test_determinant_values():
    assert determinant(np.diag([2.0, 3.0, 4.0])) == 24.0
    assert determinant(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0
    assert determinant(np.ones((3, 3))) == 0.0


def test_determinant_2x2_formula():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b, c, d = rng.uniform(-5, 5, 4)
        assert_allclose(
            determinant(np.array([[a, b], [c, d]])), a * d - b * c, rtol=1e-12
        )


def test_krylov_columns():
    C = krylov(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 3)
    assert np.array_equal(C, [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0]])


def test_krylov_validates_column_count():
    with pytest.raises(ValidationError):
        krylov(np.eye(2), np.ones(2), 0)
    with pytest.raises(ValidationError):
        krylov(np.eye(2), np.ones(2), 21)


def test_condition_number_identity():
    assert abs(condition_number(np.eye(4)) - 1.0) <= 1e-12


def test_condition_number_diagonal():
    kappa = condition_number(np.diag([1.0, 1e-3]))
    assert abs(kappa - 1e3) <= 1e-6 * 1e3


def test_condition_number_singular_is_inf():
    assert math.isinf(condition_number(np.ones((2, 2))))


def test_condition_number_chain_controllability_is_one():
    # The chain's controllability matrix is a permutation of the identity.
    n = 6
    A = np.eye(n, k=1)
    b = np.zeros(n)
    b[-1] = 1.0
    kappa = condition_number(krylov(A, b, n))
    assert abs(kappa - 1.0) <= 1e-12


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


def test_schur_sweep_budget_exhaustion():
    rng = np.random.default_rng(41)
    A = rng.uniform(-1, 1, (5, 5))
    with pytest.raises(ConvergenceError) as info:
        real_schur(A, max_sweeps=0)
    assert "0 sweeps" in str(info.value)
    assert info.value.partial_q.shape == (5, 5)
    assert info.value.partial_t.shape == (5, 5)


def test_eigenvalue_only_budget_exhaustion_has_no_q():
    rng = np.random.default_rng(41)
    A = rng.uniform(-1, 1, (5, 5))
    with pytest.raises(ConvergenceError) as info:
        _schur_upper(A, 0, want_q=False)
    assert "0 sweeps" in str(info.value)
    assert info.value.partial_q is None
    assert info.value.partial_t.shape == (5, 5)


def test_eigenvalues_examples():
    assert eigenvalues(np.diag([1.0, 2.0])).counter() == {1.0: 1, 2.0: 1}
    spec = sorted(z.real for z in eigenvalues(np.array([[9.0, -15.0], [8.0, -13.0]])))
    assert_allclose(spec, [-3.0, -1.0], atol=1e-9)


def test_eigenvalues_nilpotent():
    spec = list(eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert all(abs(z) <= 1e-9 for z in spec)


# ---------------------------------------------------------------------------
# the eigenvalue-only path: eigenvalues and condition_number run the same
# iteration as real_schur without Q, and must read bitwise the same blocks


def _block_values(dec):
    return [z for blk in dec.blocks for z in blk.eigenvalues]


def _kappa_via_real_schur(M):
    vals = [z.real for z in _block_values(real_schur(M.T @ M))]
    hi, lo = max(vals), min(vals)
    return math.inf if hi <= 0.0 or lo <= 0.0 else math.sqrt(hi / lo)


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
    elif kind == "clamp":
        # negative discriminant inside the clamp: a 2x2 block reported as a
        # repeated real pair
        yield np.array([[1.0, 1e-9], [-1e-9 * (1 + 1e-15), 1.0]])
        yield np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 1e-9], [0.0, -1e-9, 1.0 + 1e-15]])


@pytest.mark.parametrize("kind", ["dense", "triangular", "symmetric", "cyclic", "clamp"])
def test_eigenvalue_only_path_is_bitwise_real_schur(kind):
    for A in _bitwise_inputs(kind):
        want = np.array(_block_values(real_schur(A)), dtype=complex)
        got = np.array(list(eigenvalues(A)), dtype=complex)
        assert got.tobytes() == want.tobytes()
        for M in (A, A[:, : max(1, A.shape[1] // 2)]):
            assert condition_number(M).hex() == _kappa_via_real_schur(M).hex()


def test_bitwise_inputs_reach_the_exceptional_shift_and_the_clamp(monkeypatch):
    his = []
    step = linalg._francis_step

    def recording(H, Q, l, hi, tr, det):
        his.append(hi)
        return step(H, Q, l, hi, tr, det)

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


@pytest.mark.parametrize(
    "distort",
    [
        # a basis off the invariant subspace: the weak test, on the block the
        # swap zeroes, fires
        lambda W: W + 1e-3 * np.vstack([np.ones((2, 2)), np.zeros((2, 2))]),
        # an invariant but not orthonormal factor: only the reconstruction
        # test can see it
        None,
    ],
    ids=["weak", "strong"],
)
def test_swap_refuses_a_swap_that_is_not_backward_stable(monkeypatch, distort):
    factor = linalg._complete_qr
    if distort is None:
        monkeypatch.setattr(linalg, "_complete_qr", lambda W: factor(W) * (1.0 + 1e-6))
    else:
        monkeypatch.setattr(linalg, "_complete_qr", lambda W: factor(distort(W)))
    # upper form: 2x2 blocks carrying 1 +- 1i and 3 +- 1i, coupled
    S = np.array([
        [1.0, 2.0, 9.0, -7.0],
        [-0.5, 1.0, 4.0, 12.0],
        [0.0, 0.0, 3.0, 3.0],
        [0.0, 0.0, -1.0 / 3.0, 3.0],
    ])
    Z = np.eye(4)
    S0, Z0 = S.copy(), Z.copy()
    with pytest.raises(BlockSwapError) as info:
        linalg._swap_adjacent_upper(S, Z, 0, 2, 2)
    assert "rows 0..1 and 2..3" in str(info.value)
    assert "backward error" in str(info.value)
    # refused before anything was written
    assert np.array_equal(S, S0) and np.array_equal(Z, Z0)
    monkeypatch.setattr(linalg, "_complete_qr", factor)
    linalg._swap_adjacent_upper(S, Z, 0, 2, 2)
    assert max_abs(Z @ S @ Z.T - S0) <= 64 * EPS * max_abs(S0)


def test_reorder_swaps_without_condition_number(monkeypatch):
    # the coupling matrix I (x) A11 - A22.T (x) I is built without np.kron
    # but from the same products, so the solve sees np.kron's bits, signed
    # zeros included; no swap estimates a condition number
    def refuse(*args, **kwargs):
        raise AssertionError("condition_number called")

    swaps, solves = [], []
    swap, solve = linalg._swap_adjacent_upper, linalg.solve_linear

    def recording_swap(S, Z, i, p, q):
        swaps.append((S[i : i + p, i : i + p].copy(), S[i + p : i + p + q, i + p : i + p + q].copy()))
        return swap(S, Z, i, p, q)

    def checked_solve(K, rhs):
        A11, A22 = swaps[-1]
        p, q = len(A11), len(A22)
        want = np.kron(np.eye(q), A11) - np.kron(A22.T, np.eye(p))
        assert K.tobytes() == want.tobytes()
        solves.append((p, q))
        return solve(K, rhs)

    monkeypatch.setattr(linalg, "condition_number", refuse)
    monkeypatch.setattr(linalg, "_swap_adjacent_upper", recording_swap)
    monkeypatch.setattr(linalg, "solve_linear", checked_solve)
    rng = np.random.default_rng(59)
    for n in (3, 6, 9, 12):
        A = rng.uniform(-1, 1, (n, n))
        A[rng.uniform(size=(n, n)) < 0.3] *= -0.0
        dec = real_schur(A)
        reorder_schur(dec, list(range(len(dec.blocks)))[::-2])
    sizes = [(len(A11), len(A22)) for A11, A22 in swaps]
    assert {(1, 1), (1, 2), (2, 1), (2, 2)} <= set(sizes)
    # two 1x1 blocks need no solve
    assert solves == [size for size in sizes if size != (1, 1)]


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
        n = dec.n
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

    check()


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
        assert np.all(new.T[:r, r:] == 0.0)
        assert sum(blk.size for blk in new.blocks) == n
        assert max_abs(new.Q.T @ new.Q - np.eye(n)) <= 64 * n * EPS
        C = A + np.outer(b, dec.Q[:, :r] @ g)
        assert max_abs(new.Q @ new.T @ new.Q.T - C) <= 1024 * n * EPS * max_abs(C)
