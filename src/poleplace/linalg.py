"""Dense real linear algebra built around a lower quasi-triangular Schur form.

Everything here is hand rolled on top of numpy array arithmetic: pivoted
elimination for solves, Householder reduction plus double-shift QR for the
Schur form (each bulge step an explicit 3x3 reflector applied to the
active block, as LAPACK's dlahqr does, after scaling the input by a power
of two), and direct adjacent block swaps for reordering: a swap solves
the small Sylvester equation for the coupling, applies the orthogonal
factor of ``[X; I]``, and is accepted or refused by a backward-error test
on the swapped local block, as LAPACK's dlaexc does.  The package
convention is the lower form ``A = Q @ T @ Q.T`` with T lower quasi
triangular; internally the iteration runs on the transpose in the familiar
upper form and the result is transposed back at the boundary.

``eigenvalues`` and ``condition_number`` read only the diagonal blocks, so
they run the same reduction and iteration with the orthogonal factor left
out.  A sweep updates the active block l..hi with the same calls either
way; only ``real_schur`` then also updates the strips beside the block
(rows above it, columns right of it) and Q.  Nothing in the block reads
the strips or Q, so the eigenvalue-only blocks are bitwise
``real_schur``'s by construction; ``real_schur`` and ``reorder_schur``
keep Q.

Real eigenvalues appear as 1x1 diagonal blocks.  A 2x2 block normally
carries a complex conjugate pair stored so the two reported values are
exact bitwise conjugates; a 2x2 whose discriminant is negative but within
rounding noise of zero is left in place and reported as a repeated real
pair, because splitting it would not be backward stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousMatchError,
    BlockSwapError,
    ConvergenceError,
    MatchingError,
    SingularMatrixError,
    ValidationError,
)
from .poly import Spectrum, _as_spectrum

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def max_abs(M) -> float:
    """Largest entry magnitude, 0.0 for an empty array."""
    M = np.asarray(M, dtype=float)
    return float(np.max(np.abs(M))) if M.size else 0.0


def _as_square(A, name="matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValidationError(f"{name} must be square and nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} must have finite entries")
    return A


# ---------------------------------------------------------------------------
# solves and friends


def solve_linear(M, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` by row-pivoted elimination.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.  A
    pivot below ``n * ulp(1) * max|M|`` raises SingularMatrixError whose
    ``column`` attribute is the elimination column that failed; that column
    index is also a rank estimate.
    """
    M = _as_square(M)
    n = M.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != n:
        raise ValidationError(f"right-hand side has {rhs.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(rhs)):
        raise ValidationError("right-hand side must have finite entries")
    LU = M.copy()
    perm = np.arange(n)
    limit = n * EPS * max_abs(M)
    for k in range(n):
        j = k + int(np.argmax(np.abs(LU[k:, k])))
        pivot = LU[j, k]
        if abs(pivot) < limit or pivot == 0.0:
            raise SingularMatrixError(
                f"matrix is singular to working precision at column {k} "
                f"(pivot {abs(pivot):.3e}, threshold {limit:.3e})",
                column=k,
            )
        if j != k:
            LU[[k, j]] = LU[[j, k]]
            perm[[k, j]] = perm[[j, k]]
        LU[k + 1 :, k] /= LU[k, k]
        LU[k + 1 :, k + 1 :] -= LU[k + 1 :, k][:, None] * LU[k, k + 1 :]
    x = rhs[perm].astype(float)
    for k in range(1, n):
        x[k] -= LU[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - LU[k, k + 1 :] @ x[k + 1 :]) / LU[k, k]
    return x


def determinant(M) -> float:
    """Determinant by elimination.  Tolerates singular input, returning 0."""
    LU = _as_square(M).copy()
    n = LU.shape[0]
    det = 1.0
    for k in range(n):
        j = k + int(np.argmax(np.abs(LU[k:, k])))
        if LU[j, k] == 0.0:
            return 0.0
        if j != k:
            LU[[k, j]] = LU[[j, k]]
            det = -det
        det *= LU[k, k]
        LU[k + 1 :, k + 1 :] -= (LU[k + 1 :, k] / LU[k, k])[:, None] * LU[k, k + 1 :]
    return det


def krylov(A, b, m) -> np.ndarray:
    """Columns ``[b, Ab, ..., A**(m-1) b]``."""
    A = _as_square(A, "A")
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise ValidationError(f"vector has shape {b.shape}, expected ({n},)")
    if not np.all(np.isfinite(b)):
        raise ValidationError("vector must have finite entries")
    if not 1 <= int(m) <= 10 * n:
        raise ValidationError(f"column count {m} out of range")
    C = np.empty((n, int(m)))
    v = b.copy()
    for j in range(int(m)):
        C[:, j] = v
        v = A @ v
    return C


def condition_number(M) -> float:
    """Spectral condition number via the eigenvalues of ``M.T @ M``.

    Reuses the package's own Schur iteration rather than an external SVD.
    Returns ``inf`` when the smallest squared singular value is not
    distinguishable from zero.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValidationError("condition_number needs a nonempty 2-D matrix")
    if not np.all(np.isfinite(M)):
        raise ValidationError("condition_number needs finite entries")
    _, _, blocks = _schur_upper(M.T @ M, None, want_q=False)
    vals = [z.real for blk in blocks for z in blk.eigenvalues]
    hi = max(vals)
    lo = min(vals)
    if hi <= 0.0 or lo <= 0.0:
        return math.inf
    return math.sqrt(hi / lo)


# ---------------------------------------------------------------------------
# Schur decomposition


@dataclass(frozen=True)
class SchurBlock:
    """One diagonal block: row offset, size (1 or 2), and its eigenvalues.

    For a genuine 2x2 block the two eigenvalues are exact bitwise
    conjugates.  A 2x2 block flagged by the discriminant clamp reports a
    repeated real pair instead.
    """

    start: int
    size: int
    eigenvalues: tuple[complex, ...]


@dataclass(frozen=True)
class SchurDecomposition:
    """Orthogonal Q and lower quasi-triangular T with ``A = Q @ T @ Q.T``."""

    Q: np.ndarray
    T: np.ndarray
    blocks: tuple[SchurBlock, ...]

    @property
    def n(self) -> int:
        return self.T.shape[0]


@dataclass(frozen=True)
class InvariantSplit:
    """Partition of state space along the moved eigenvalues.

    In the lower Schur form the leading columns U are a left-invariant
    basis, ``U.T @ A = X @ U.T``, carrying the ``moved`` eigenvalues; the
    trailing columns V are right-invariant, ``A @ V = V @ Y``, carrying the
    ``kept`` ones.  X and Y are the lower quasi-triangular compressions
    ``U.T @ A @ U`` and ``V.T @ A @ V``.
    """

    U: np.ndarray
    V: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    moved: Spectrum
    kept: Spectrum


def _householder(x):
    """Reflector ``(v, beta)`` with ``(I - beta v v^T) x = alpha e1``.

    beta = 0 signals a skip: x is already a multiple of e1, and skipping
    keeps an already reduced matrix bitwise unchanged.  When the squared
    norm overflows or underflows, v is built from x scaled by a power of
    two near its largest entry; the reflector is the same and only alpha
    is scaled back.
    """
    if not x[1:].any():
        return np.zeros_like(x), 0.0, float(x[0])
    v = np.array(x, dtype=float)
    with np.errstate(over="ignore"):
        sq = v.dot(v)
    shift = 0
    if not TINY <= sq < math.inf:
        shift = int(np.frexp(max_abs(v))[1])
        v = np.ldexp(v, -shift)
        sq = v.dot(v)
    normx = math.sqrt(sq)
    alpha = -normx if x[0] >= 0.0 else normx
    v[0] -= alpha
    beta = 2.0 / float(v @ v)
    return v, beta, math.ldexp(alpha, shift)


def _hessenberg_upper(B, want_q=True):
    """Reduce B to upper Hessenberg, ``B = Q @ H @ Q.T``; Q = I if it already
    is, and Q = None when not wanted."""
    n = B.shape[0]
    H = B.copy()
    Q = np.eye(n) if want_q else None
    for k in range(n - 2):
        v, beta, alpha = _householder(H[k + 1 :, k])
        if beta == 0.0:
            continue
        H[k + 1 :, k:] -= beta * (v[:, None] * (v @ H[k + 1 :, k:]))
        H[:, k + 1 :] -= beta * ((H[:, k + 1 :] @ v)[:, None] * v)
        if Q is not None:
            Q[:, k + 1 :] -= beta * ((Q[:, k + 1 :] @ v)[:, None] * v)
        H[k + 1, k] = alpha
        H[k + 2 :, k] = 0.0
    return Q, H


_CLAMP = 16.0 * EPS


def _block_disc(a, b, c, d):
    """Discriminant of a 2x2 block, its rounding clamp and their scale.

    The block is scaled by the power of two ``2**e`` that brings its largest
    entry into [0.5, 1) before squaring, so the squares neither overflow nor
    underflow whatever the block's size; the discriminant and the clamp
    returned are those of the scaled block, so ``2**e sqrt(|disc|)`` is the
    unscaled root.  A power of two changes no rounding in between, so on
    blocks of moderate size the result is bitwise the unscaled arithmetic.
    """
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    s = math.ldexp(1.0, -e)
    a, b, c, d = float(a) * s, float(b) * s, float(c) * s, float(d) * s
    p = 0.5 * (a - d)
    scale = abs(a) + abs(b) + abs(c) + abs(d)
    return p * p + b * c, _CLAMP * scale * scale, e


def _block_eigs(a, b, c, d) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 block, as an exact conjugate or real pair."""
    m = 0.5 * (a + d)
    disc, clamp, e = _block_disc(a, b, c, d)
    if disc >= 0.0:
        sq = math.ldexp(math.sqrt(disc), e)
        return complex(m + sq), complex(m - sq)
    if disc >= -clamp:
        return complex(m), complex(m)
    im = math.ldexp(math.sqrt(-disc), e)
    return complex(m, im), complex(m, -im)


def _apply_g_full(H, Q, i, G):
    """Apply the 2x2 rotation G as a similarity on rows/cols i, i+1."""
    H[i : i + 2, :] = G.T @ H[i : i + 2, :]
    H[:, i : i + 2] = H[:, i : i + 2] @ G
    if Q is not None:
        Q[:, i : i + 2] = Q[:, i : i + 2] @ G


def _standardize_2x2(H, Q, i, allow_split=True):
    """Bring the 2x2 block at (i, i) of upper quasi-triangular H to standard
    form.

    Real discriminant: rotate onto an eigenvector and split into two 1x1
    blocks (skipped when splitting is disallowed mid-reorder, where it
    would invalidate the caller's block bookkeeping).  Genuinely complex:
    rotate to equal diagonal entries so the eigenvalues read off as
    ``m +- i*sqrt(-bc)``; the rotation's tangent is the small root
    ``-1 / (tau + sign(tau) hypot(tau, 1))``, ``tau = (b + c) / (a - d)``,
    which does not cancel when ``|tau|`` is large, so setting both diagonal
    entries to their mean adds only rounding error.  Discriminant inside
    the rounding clamp: leave the block alone; it stands for a repeated
    real pair.
    """
    a, b = H[i, i], H[i, i + 1]
    c, d = H[i + 1, i], H[i + 1, i + 1]
    if c == 0.0:
        return
    disc, clamp, e = _block_disc(a, b, c, d)
    if disc >= 0.0:
        if not allow_split:
            return
        p = 0.5 * (a - d)
        sq = math.ldexp(math.sqrt(disc), e)
        lam = 0.5 * (a + d) + (sq if p >= 0.0 else -sq)
        v0, v1 = lam - d, c
        nv = math.hypot(v0, v1)
        G = np.array([[v0 / nv, -v1 / nv], [v1 / nv, v0 / nv]])
        _apply_g_full(H, Q, i, G)
        H[i + 1, i] = 0.0
        return
    if disc >= -clamp:
        return
    if a != d:
        tau = (b + c) / (a - d)
        off = math.hypot(tau, 1.0)
        t = -1.0 / (tau + math.copysign(off, tau))  # the small root, without cancellation
        cs = 1.0 / math.sqrt(1.0 + t * t)
        sn = t * cs
        G = np.array([[cs, -sn], [sn, cs]])
        _apply_g_full(H, Q, i, G)
    m = 0.5 * (H[i, i] + H[i + 1, i + 1])
    H[i, i] = m
    H[i + 1, i + 1] = m


def _reflector(x, y, z):
    """Explicit symmetric 3x3 reflector P with ``P @ (x, y, z) = (alpha, 0, 0)``,
    returned as ``(P, alpha)``; P is None when y and z are already zero.

    Built from Python floats as LAPACK's dlarfg builds ``I - tau u u^T``
    with ``u[0] = 1``, after scaling by ``|x| + |y| + |z|`` so no square
    overflows or underflows.  With z = 0, ``P[:2, :2]`` is the 2x2
    reflector of (x, y).
    """
    if y == 0.0 and z == 0.0:
        return None, x
    s = abs(x) + abs(y) + abs(z)
    x, y, z = x / s, y / s, z / s
    norm = math.sqrt(x * x + y * y + z * z)
    alpha = -norm if x >= 0.0 else norm
    tau = (alpha - x) / alpha
    u1, u2 = y / (x - alpha), z / (x - alpha)
    t1, t2 = tau * u1, tau * u2
    p12 = -t1 * u2
    P = np.array([1.0 - tau, -t1, -t2, -t1, 1.0 - t1 * u1, p12, -t2, p12, 1.0 - t2 * u2])
    return P.reshape(3, 3), alpha * s


def _francis_step(H, Q, l, hi, tr, det):
    """One implicit double-shift sweep on the active block l..hi of upper
    Hessenberg H.  The shift pair is given through its trace and
    determinant, so exceptional shifts use the same path.

    Each bulge step applies an explicit 3x3 reflector P (2x2 for the
    closing step) as ``P @ H[rows, window]`` and ``H[window, cols] @ P``.
    Those two calls touch only the active block, and they are the same
    with or without Q: the block's values never read anything outside it,
    so the eigenvalue-only path (Q None) is bitwise ``real_schur``'s by
    construction.  Only with Q are the strips beside the block, rows above
    it and columns right of it, updated as well, as LAPACK's dlahqr does
    when it wants T.  In the step's rows, column k-1 is written directly as
    (alpha, 0, 0) and the columns left of it hold exact zeros; rows below
    the bulge in the step's columns hold exact zeros too.  All are skipped.
    """
    n = H.shape[0]
    x = float(H[l, l] * H[l, l] + H[l, l + 1] * H[l + 1, l] - tr * H[l, l] + det)
    y = float(H[l + 1, l] * (H[l, l] + H[l + 1, l + 1] - tr))
    z = float(H[l + 2, l + 1] * H[l + 1, l])
    for k in range(l, hi):
        m = min(3, hi + 1 - k)  # the closing step reflects two rows, z = 0
        if k > l:
            x, y, z = (H[k : k + m, k - 1].tolist() + [0.0])[:3]
        P, alpha = _reflector(x, y, z)
        if k > l:
            H[k, k - 1] = alpha
            H[k + 1 : k + m, k - 1] = 0.0
        if P is None:
            continue
        if m == 2:
            P = P[:2, :2]
        rows = slice(k, k + m)
        H[rows, k : hi + 1] = P @ H[rows, k : hi + 1]
        H[l : min(k + 4, hi + 1), rows] = H[l : min(k + 4, hi + 1), rows] @ P
        if Q is not None:
            if hi + 1 < n:
                H[rows, hi + 1 :] = P @ H[rows, hi + 1 :]
            if l > 0:
                H[:l, rows] = H[:l, rows] @ P
            Q[:, rows] = Q[:, rows] @ P


def _francis_upper(H, Q, max_sweeps):
    """Drive upper Hessenberg H to upper quasi-triangular form in place.

    Subdiagonal entries count as converged when small against their
    diagonal neighbours; every tenth stalled sweep swaps in an exceptional
    shift to break symmetry cycles.  Exceeding the sweep budget raises
    ConvergenceError carrying the partial factorization.
    """
    n = H.shape[0]
    hi = n - 1
    sweeps = 0
    stalled = 0
    while hi > 0:
        l = hi
        while l > 0:
            if abs(H[l, l - 1]) <= EPS * (abs(H[l - 1, l - 1]) + abs(H[l, l])):
                H[l, l - 1] = 0.0
                break
            l -= 1
        if l == hi:
            hi -= 1
            stalled = 0
            continue
        if l == hi - 1:
            _standardize_2x2(H, Q, l)
            hi -= 2
            stalled = 0
            continue
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"QR iteration did not converge within {max_sweeps} sweeps "
                f"(active block rows {l}..{hi})",
                partial_q=None if Q is None else Q.copy(),
                partial_t=H.T.copy(),
            )
        sweeps += 1
        stalled += 1
        if stalled % 10 == 0:
            s = abs(H[hi, hi - 1]) + abs(H[hi - 1, hi - 2])
            a = 0.75 * s + H[hi, hi]
            tr = 2.0 * a
            det = a * a + 0.4375 * s * s
        else:
            tr = H[hi - 1, hi - 1] + H[hi, hi]
            det = H[hi - 1, hi - 1] * H[hi, hi] - H[hi - 1, hi] * H[hi, hi - 1]
        _francis_step(H, Q, l, hi, tr, det)
    return sweeps


def _scan_blocks_upper(S, shift=0) -> tuple[SchurBlock, ...]:
    """Read the diagonal block structure off upper quasi-triangular S, with
    the eigenvalues scaled by ``2**shift``.

    The transpose shares starts, sizes and eigenvalues, so the result
    serves the lower form as well.
    """
    n = S.shape[0]
    blocks = []
    i = 0
    while i < n:
        if i + 1 < n and S[i + 1, i] != 0.0:
            lams = _block_eigs(S[i, i], S[i, i + 1], S[i + 1, i], S[i + 1, i + 1])
            size = 2
        else:
            lams = (complex(S[i, i]),)
            size = 1
        lams = tuple(complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
                     for z in lams)
        blocks.append(SchurBlock(i, size, lams))
        i += size
    return tuple(blocks)


def _schur_upper(A, budget, want_q):
    """Upper quasi-triangular Schur form H of ``A.T``, its Q (None unless
    ``want_q``) and its blocks; ``budget`` None means 40 sweeps per
    dimension.

    A is first scaled by the power of two that brings its largest entry
    into [0.5, 1), as ``char_poly`` does: no rounding changes, while the
    squares in the shifts and in ``_block_disc`` neither overflow nor
    underflow.  The blocks' eigenvalues are read off the scaled form, then
    they and H are scaled back.  The active block's arithmetic does not
    depend on ``want_q``, so the blocks are bitwise the same either way.
    """
    A = _as_square(A, "A")
    shift = int(np.frexp(max_abs(A))[1])
    Q, H = _hessenberg_upper(np.ldexp(A.T, -shift), want_q)
    try:
        _francis_upper(H, Q, 40 * A.shape[0] if budget is None else int(budget))
    except ConvergenceError as exc:
        exc.partial_t = np.ldexp(exc.partial_t, shift)
        raise
    return Q, np.ldexp(H, shift), _scan_blocks_upper(H, shift)


def real_schur(A, max_sweeps=None) -> SchurDecomposition:
    """Real Schur decomposition ``A = Q @ T @ Q.T``, T lower quasi-triangular.

    Householder reduction to Hessenberg form followed by implicit
    double-shift QR, both run on the transpose and transposed back.  The
    default sweep budget is 40 per dimension.
    """
    Q, H, blocks = _schur_upper(A, max_sweeps, want_q=True)
    return SchurDecomposition(Q=Q, T=H.T.copy(), blocks=blocks)


def eigenvalues(A) -> Spectrum:
    """Eigenvalues of a real square matrix as a self-conjugate Spectrum,
    read off the diagonal blocks of its Schur form (computed without Q)."""
    _, _, blocks = _schur_upper(A, None, want_q=False)
    return Spectrum([z for blk in blocks for z in blk.eigenvalues])


# ---------------------------------------------------------------------------
# reordering


def _complete_qr(W):
    """Full orthogonal factor of a tall full-rank W; first q columns span
    the column space of W."""
    m, q = W.shape
    G = np.eye(m)
    R = W.copy()
    for k in range(min(q, m - 1)):
        v, beta, alpha = _householder(R[k:, k])
        if beta != 0.0:
            R[k:, k:] -= beta * (v[:, None] * (v @ R[k:, k:]))
            G[:, k:] -= beta * ((G[:, k:] @ v)[:, None] * v)
        R[k, k] = alpha
        R[k + 1 :, k] = 0.0
    return G


def _swap_adjacent_upper(S, Z, i, p, q):
    """Exchange the adjacent diagonal blocks of sizes p then q at offset i
    in upper quasi-triangular S, accumulating the rotation into Z.

    The coupling X solves the Sylvester equation ``A11 X - X A22 = -A12``;
    the orthogonal factor G of ``[X; I]`` carries the moved invariant basis
    and is applied as a similarity.  For two 1x1 blocks X is the quotient
    ``-a12 / (a11 - a22)`` and G a plane rotation, backward stable by
    construction, so the swap is refused only when the blocks lie so close
    that the quotient is infinite.  A larger swap is refused when its
    Kronecker system is singular to working precision, or when the swapped
    local block ``E = G.T @ D @ G`` fails the backward-error test of
    LAPACK's dlaexc (Bai & Demmel, LAA 186, 1993): the q x p block of E the
    swap zeroes, and the error of rebuilding D from E without it, must both
    stay within ``max(10 eps max|D|, tiny)``.  The test only reads G, so
    an accepted swap's arithmetic does not depend on it.
    """
    rows = slice(i, i + p + q)
    where = f"rows {i}..{i + p - 1} and {i + p}..{i + p + q - 1}"
    if p == q == 1:
        d = float(S[i, i] - S[i + 1, i + 1])
        x = -float(S[i, i + 1]) / d if d != 0.0 else math.inf
        if math.isinf(x):
            raise BlockSwapError(f"cannot swap blocks at {where}: the blocks coincide")
        X = np.array([[x]])
    else:
        A11 = S[i : i + p, i : i + p]
        A12 = S[i : i + p, i + p : i + p + q]
        A22 = S[i + p : i + p + q, i + p : i + p + q]
        # I_q (x) A11 - A22.T (x) I_p by broadcasting, from the very products
        # np.kron would form, so its bits match np.kron's, signed zeros too
        K = (np.eye(q)[:, None, :, None] * A11[None, :, None, :]
             - A22.T[:, None, :, None] * np.eye(p)[None, :, None, :]).reshape(p * q, p * q)
        try:
            X = solve_linear(K, -A12.flatten(order="F")).reshape((p, q), order="F")
        except SingularMatrixError as exc:
            raise BlockSwapError(
                f"cannot swap blocks at {where}: coupling system is singular"
            ) from exc
    G = _complete_qr(np.vstack([X, np.eye(q)]))
    if p + q > 2:
        D = S[rows, rows]
        thresh = max(10.0 * EPS * max_abs(D), TINY)
        E = G.T @ D @ G
        err = max_abs(E[q:, :q])
        if err <= thresh:
            E[q:, :q] = 0.0
            err = max_abs(G @ E @ G.T - D)
        if not err <= thresh:
            raise BlockSwapError(
                f"cannot swap blocks at {where}: the swapped form has backward "
                f"error {err:.3e}, above the threshold {thresh:.3e}"
            )
    S[rows, :] = G.T @ S[rows, :]
    S[:, rows] = S[:, rows] @ G
    Z[:, rows] = Z[:, rows] @ G
    S[i + q : i + p + q, i : i + q] = 0.0
    if q == 2:
        _standardize_2x2(S, Z, i, allow_split=False)
    if p == 2:
        _standardize_2x2(S, Z, i + q, allow_split=False)


def reorder_schur(dec: SchurDecomposition, select) -> SchurDecomposition:
    """Reorder a Schur decomposition so the selected blocks come first.

    ``select`` holds indices into ``dec.blocks``.  Selected blocks bubble
    to the leading positions through adjacent swaps, preserving their
    relative order; a decomposition already in the requested order is
    returned unchanged.
    """
    nblocks = len(dec.blocks)
    sel = set()
    for s in select:
        s = int(s)
        if not 0 <= s < nblocks:
            raise ValidationError(f"block index {s} out of range 0..{nblocks - 1}")
        if s in sel:
            raise ValidationError(f"block index {s} selected twice")
        sel.add(s)
    if not sel or sel == set(range(len(sel))):
        return dec
    S = dec.T.T.copy()
    Z = dec.Q.copy()
    seq = [[blk.size, idx in sel] for idx, blk in enumerate(dec.blocks)]
    for target in range(len(sel)):
        j = target
        while not seq[j][1]:
            j += 1
        for jj in range(j, target, -1):
            off = sum(size for size, _ in seq[: jj - 1])
            _swap_adjacent_upper(S, Z, off, seq[jj - 1][0], seq[jj][0])
            seq[jj - 1], seq[jj] = seq[jj], seq[jj - 1]
    return SchurDecomposition(Q=Z, T=S.T.copy(), blocks=_scan_blocks_upper(S))


# ---------------------------------------------------------------------------
# eigenvalue matching and the invariant split


def _match_tol(A) -> float:
    """Tolerance within which a requested eigenvalue of A matches a computed
    one: 1e-6 times the power of two above max|A|.  It is relative, so a
    scaled matrix matches the same blocks, and exactly so under a power of
    two; for max|A| in [0.5, 1) it is 1e-6."""
    return math.ldexp(1e-6, math.frexp(max_abs(A))[1])


def _match_values(targets, candidates, tol):
    """Match requested values against computed ones, nearest first.

    Returns one candidate index per target.  Raises AmbiguousMatchError
    when more candidates sit inside the tolerance of a requested value than
    that value's multiplicity among the targets, and MatchingError when a
    target has no candidate within tolerance.
    """
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


def _select_blocks(dec: SchurDecomposition, moved: Spectrum, tol) -> list[int]:
    """Indices of the blocks of ``dec`` that carry ``moved``, ascending.

    Each requested value is matched against the blocks' eigenvalues within
    ``tol``.  Selecting one half of a complex pair is rejected, since no
    real invariant subspace separates it from its conjugate.
    """
    flat = [(z, bi) for bi, blk in enumerate(dec.blocks) for z in blk.eigenvalues]
    matched = _match_values(list(moved), [z for z, _ in flat], tol)
    matched_set = set(matched)
    per_block = Counter(flat[ci][1] for ci in matched)
    for bi, cnt in per_block.items():
        blk = dec.blocks[bi]
        if cnt != blk.size:
            missing = [z for ci, (z, owner) in enumerate(flat)
                       if owner == bi and ci not in matched_set]
            raise ValidationError(
                f"selection splits the conjugate pair {blk.eigenvalues}; "
                f"also move {missing[0]} or drop the pair"
            )
    return sorted(per_block)


def _feed_leading(dec: SchurDecomposition, b, g) -> SchurDecomposition:
    """Schur form of ``Q @ T @ Q.T + b k^T`` for ``k = Q[:, :r] @ g``, r = len(g).

    That adds ``(Q.T @ b) g^T`` to the leading r columns of T.  T's upper
    right block is zero, so the trailing block and its eigenvalues stay
    bitwise unchanged; only the leading r x r block is reduced again.  A
    1x1 leading block is already reduced and its Q is [[1.0]]; the
    products by that Q still run, because they turn -0.0 into +0.0 as a
    full reduction's products do.
    """
    r = len(g)
    T = dec.T.copy()
    T[:, :r] += (dec.Q.T @ b)[:, None] * g
    if r == 1:
        lead_q = np.ones((1, 1))
    else:
        lead = real_schur(T[:r, :r])
        T[:r, :r] = lead.T
        lead_q = lead.Q
    T[r:, :r] = T[r:, :r] @ lead_q
    Q = dec.Q.copy()
    Q[:, :r] = Q[:, :r] @ lead_q
    return SchurDecomposition(Q=Q, T=T, blocks=_scan_blocks_upper(T.T))


def invariant_split(A, moved) -> InvariantSplit:
    """Split state space along the invariant subspace of chosen eigenvalues.

    ``moved`` names eigenvalues of A (matched against the computed
    spectrum within ``_match_tol(A)``, relative to max|A|; see
    ``_select_blocks``).
    The underlying Schur form is reordered so those eigenvalues lead, and
    the orthonormal basis is cut after them.
    """
    A = _as_square(A, "A")
    moved = _as_spectrum(moved)
    n = A.shape[0]
    if not 1 <= len(moved) <= n:
        raise ValidationError(f"moved set has {len(moved)} values, expected 1..{n}")
    dec = real_schur(A)
    re = reorder_schur(dec, _select_blocks(dec, moved, _match_tol(A)))
    r = len(moved)
    lead = [z for blk in re.blocks if blk.start < r for z in blk.eigenvalues]
    rest = [z for blk in re.blocks if blk.start >= r for z in blk.eigenvalues]
    return InvariantSplit(
        U=re.Q[:, :r].copy(),
        V=re.Q[:, r:].copy(),
        X=re.T[:r, :r].copy(),
        Y=re.T[r:, r:].copy(),
        moved=Spectrum(lead),
        kept=Spectrum(rest),
    )
