"""Dense real linear algebra built around a lower quasi-triangular Schur form.

Everything here is hand rolled on top of numpy array arithmetic: pivoted
elimination for solves, Householder reduction plus double-shift QR for the
Schur form (each bulge step an explicit 3x3 reflector applied to the
active block, as LAPACK's dlahqr does, after scaling the input by a power
of two), and direct adjacent block swaps for reordering: a swap solves
the small Sylvester equation for the coupling, builds the orthogonal
factor of ``[X; I]`` from explicit reflectors, is accepted or refused by
a backward-error test on the swapped local block, as LAPACK's dlaexc
does, and applies one combined factor that also standardizes the swapped
2x2 blocks.  The package convention is the lower form
``A = Q @ T @ Q.T`` with T lower quasi triangular; internally the
iteration runs on the transpose in the familiar upper form and the result
is transposed back at the boundary.

``eigenvalues`` reads only the diagonal blocks, so it runs the same
reduction and iteration with the orthogonal factor left out.  A sweep
updates the active block l..hi with the same calls either way; only
``real_schur`` then also updates the strips beside the block (rows above
it, columns right of it) and Q.  Nothing in the block reads the strips or
Q, so the eigenvalue-only blocks are bitwise ``real_schur``'s by
construction; ``real_schur`` and ``reorder_schur`` keep Q.

``condition_number`` needs no Schur form.  It takes the Householder R of
its matrix, inverts R by back substitution and multiplies the two
spectral norms.  Each norm is the largest eigenvalue of a Gram matrix,
pinned from above and below by repeated squaring.  Forming ``M.T @ M``
and reading its smallest eigenvalue instead would square the condition
number.

The hot loops read the matrix into Python floats once per use (the
diagonals for deflation, shifts and block scans; three entries per bulge
step; a swap's window), apply each reflector through views into a buffer
made once per sweep, and solve a swap's Kronecker system, at most 4x4,
on Python floats with the row loop of ``solve_linear``.  A Q-free bulge
step costs about 11 us at n = 20-64 (2-vCPU VM, one BLAS thread), of
which its two BLAS products take 6-7 us.  Those two products are the
floor: a product in another order, or outside this BLAS with its
FMA-contracted kernels, changes the last bits of every result.

Real eigenvalues appear as 1x1 diagonal blocks.  A 2x2 block normally
carries a complex conjugate pair stored so the two reported values are
exact bitwise conjugates; a 2x2 whose discriminant is negative but within
rounding noise of zero is left in place and reported as a repeated real
pair, because splitting it would not be backward stable.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousMatchError,
    BlockSwapError,
    ConvergenceError,
    MatchingError,
    NumericalError,
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
    return _eliminate(M.copy(), rhs, n * EPS * max_abs(M))


def _eliminate(LU, rhs, limit) -> np.ndarray:
    """``solve_linear`` without its checks: may overwrite the float matrix
    LU with its factors, and refuses a pivot below ``limit``."""
    n = LU.shape[0]
    perm = list(range(n))
    for k in range(n):
        j = k + int(np.abs(LU[k:, k]).argmax())
        pivot = LU[j, k]
        if abs(pivot) < limit or pivot == 0.0:
            raise _pivot_error(k, pivot, limit)
        if j != k:
            row = LU[k].copy()
            LU[k] = LU[j]
            LU[j] = row
            perm[k], perm[j] = perm[j], perm[k]
        if k + 1 < n:
            LU[k + 1 :, k] /= LU[k, k]
            LU[k + 1 :, k + 1 :] -= LU[k + 1 :, k][:, None] * LU[k, k + 1 :]
    x = rhs[perm]
    for k in range(1, n):
        x[k] -= LU[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - LU[k, k + 1 :] @ x[k + 1 :]) / LU[k, k]
    return x


def _pivot_error(k, pivot, limit):
    """The refusal of a pivot below ``limit`` at elimination column k."""
    return SingularMatrixError(
        f"matrix is singular to working precision at column {k} "
        f"(pivot {abs(pivot):.3e}, threshold {limit:.3e})",
        column=k,
    )


def _eliminate_scalars(a, x, limit) -> list:
    """The row loop of ``_eliminate`` on Python floats, for the small
    systems of block swaps and sequential steps: ``a`` is a list of row
    lists and ``x`` the right-hand side, both overwritten; returns the
    solution as a list.

    Pivot choice, refusals and elimination updates are the row loop's.
    Each substitution dot is summed from 0.0, so at n = 2, where every dot
    has length 1 (one rounded product to which the BLAS adds +0.0) or 0,
    this is bitwise the row loop, signed zeros included.  Longer dots
    differ in their last bits: this BLAS fuses multiply-adds there.
    """
    n = len(x)
    for k in range(n):
        j = k
        for r in range(k + 1, n):
            if abs(a[r][k]) > abs(a[j][k]):  # argmax keeps the first of equal magnitudes
                j = r
        pivot = a[j][k]
        if abs(pivot) < limit or pivot == 0.0:
            raise _pivot_error(k, pivot, limit)
        if j != k:
            a[k], a[j] = a[j], a[k]
            x[k], x[j] = x[j], x[k]
        top = a[k]
        for r in range(k + 1, n):
            row = a[r]
            l = row[k] = row[k] / pivot
            for c in range(k + 1, n):
                row[c] = row[c] - l * top[c]
    for k in range(1, n):
        s = 0.0
        for c in range(k):
            s += a[k][c] * x[c]
        x[k] = x[k] - s
    for k in range(n - 1, -1, -1):
        s = 0.0
        for c in range(k + 1, n):
            s += a[k][c] * x[c]
        x[k] = (x[k] - s) / a[k][k]
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
    """Spectral condition number ``sigma_max / sigma_min`` of M, from its
    Householder R.

    M is first scaled by the power of two that brings its largest entry
    into [0.5, 1), which changes no rounding, so ``2**k M`` gives bitwise
    the same value.  Householder QR is columnwise backward stable and R
    has M's singular values.  Then ``kappa = ||R||_2 ||R^-1||_2``, with
    ``R^-1`` from back substitution and each norm the square root of the
    largest eigenvalue of its Gram matrix (``_top_eigenvalue``).  That
    eigenvalue is well conditioned, where the smallest eigenvalue of
    ``M.T @ M`` would square kappa.  With at most two columns the singular
    values of the 1x1 or 2x2 R are taken in closed form, as LAPACK's dlas2
    does.

    Returns ``inf`` for a matrix of lower column rank to working precision:
    a wide M, or a diagonal entry of R below ``n * ulp(1) * max|R|``, the
    pivot threshold of ``solve_linear``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValidationError("condition_number needs a nonempty 2-D matrix")
    top = float(np.abs(M).max())  # nan or inf when an entry is not finite
    if not top < math.inf:
        raise ValidationError("condition_number needs finite entries")
    m, n = M.shape
    if n > m or top == 0.0:
        return math.inf
    R = np.ldexp(M, -math.frexp(top)[1])
    for k in range(min(n, m - 1)):
        v, beta, alpha = _householder(R[k:, k])
        if beta != 0.0:
            R[k:, k + 1 :] -= beta * (v[:, None] * (v @ R[k:, k + 1 :]))
        R[k, k] = alpha
        R[k + 1 :, k] = 0.0
    R = R[:n]
    d = R.diagonal()
    if np.abs(d).min() < n * EPS * np.abs(R).max():
        return math.inf
    if n == 1:
        return 1.0
    if n == 2:
        (f, g), (_, h) = R.tolist()
        return _kappa_2x2(f, g, h)
    with np.errstate(over="ignore", invalid="ignore"):
        U = R / d[:, None]  # unit upper triangular, R = D @ U
        Y = np.eye(n)  # U^-1, row by row from the bottom
        for k in range(n - 2, -1, -1):
            Y[k, k + 1 :] = -(U[k, k + 1 :] @ Y[k + 1 :, k + 1 :])
        X = Y / d  # R^-1 = U^-1 @ D^-1
        xtop = float(np.abs(X).max())
    if not xtop < math.inf:
        return math.inf
    xshift = math.frexp(xtop)[1]
    X = np.ldexp(X, -xshift)
    rnorm = math.sqrt(_top_eigenvalue(R.T @ R))
    xnorm = math.sqrt(_top_eigenvalue(X.T @ X))
    return math.ldexp(rnorm * xnorm, xshift)


def _kappa_2x2(f, g, h) -> float:
    """``sigma_max / sigma_min`` of the upper triangular ``[[f, g], [0, h]]``
    with f and h nonzero, from its singular values as LAPACK's dlas2
    computes them: no square of an entry, and both values to a few ulps."""
    fa, ga, ha = abs(f), abs(g), abs(h)
    fhmn, fhmx = min(fa, ha), max(fa, ha)
    s = 1.0 + fhmn / fhmx
    t = (fhmx - fhmn) / fhmx
    if ga < fhmx:
        au = (ga / fhmx) ** 2
        c = 2.0 / (math.sqrt(s * s + au) + math.sqrt(t * t + au))
        return (fhmx / c) / (fhmn * c)
    au = fhmx / ga
    c = 1.0 / (math.sqrt(1.0 + (s * au) ** 2) + math.sqrt(1.0 + (t * au) ** 2))
    return (ga / (c + c)) / (2.0 * (fhmn * c) * au)


_SETTLED = 1e-8


def _top_eigenvalue(G) -> float:
    """Largest eigenvalue of a nonzero symmetric positive semidefinite G,
    certified to ``_SETTLED`` relative.

    Repeated squaring gives ``B = G**p`` (p = 1, 2, 4, ...), scaled by a
    power of two per step.  Two bounds pin the eigenvalue lambda:
    ``trace(B)**(1/p) >= lambda``, and the Rayleigh quotient of G at the
    column of B with the largest diagonal entry, ``theta <= lambda``.  That
    quotient is returned once the two agree to ``_SETTLED``.  With a gap
    below lambda both converge in a few squarings.  Without a gap, for a
    top eigenvalue of multiplicity m (G = I for an orthogonal matrix), the
    trace bound still settles once p exceeds ``ln(m) / _SETTLED``, after
    about 30 squarings.  After 64 it pins lambda to rounding by itself,
    and is returned.
    """
    B, p, shift = G, 1, 0  # B = G**p / 2**shift
    for _ in range(64):
        t = float(B.trace())
        upper = 2.0 ** ((math.log2(t) + shift) / p)
        e = math.frexp(t)[1]
        B = B * math.ldexp(1.0, -e)
        shift += e
        v = B[:, int(B.diagonal().argmax())]
        theta = float(v @ (G @ v)) / float(v @ v)
        if upper <= theta * (1.0 + _SETTLED):
            return theta
        B = B @ B
        shift *= 2
        p *= 2
    return upper


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
    is scaled back.  ``np.vdot`` is the same BLAS dot as ``v @ v``, and
    being no ufunc it raises no overflow warning.
    """
    if not np.count_nonzero(x[1:]):
        return np.zeros_like(x), 0.0, float(x[0])
    v = np.array(x, dtype=float)
    sq = np.vdot(v, v)
    shift = 0
    if not TINY <= sq < math.inf:
        shift = int(np.frexp(max_abs(v))[1])
        v = np.ldexp(v, -shift)
        sq = np.vdot(v, v)
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


def _mean(x, y) -> float:
    """``0.5 * (x + y)``; where the sum overflows, ``0.5 * x + 0.5 * y``,
    which cannot, and is exact there."""
    m = 0.5 * (x + y)
    return 0.5 * x + 0.5 * y if math.isinf(m) else m


def _block_eigs(a, b, c, d) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 block, as an exact conjugate or real pair."""
    m = _mean(a, d)
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
    R = H[i : i + 2, :]
    R[...] = G.T @ R
    C = H[:, i : i + 2]
    C[...] = C @ G
    if Q is not None:
        C = Q[:, i : i + 2]
        C[...] = C @ G


def _standard_rotation(a, b, c, d, split=True):
    """How to bring the upper 2x2 block ``[[a, b], [c, d]]`` to standard
    form: ``(rot, finish)``, with ``rot = (cs, sn)`` the rotation
    ``[[cs, -sn], [sn, cs]]`` to apply as a similarity, or None, and
    ``finish`` what to write after it: "split" (zero the subdiagonal),
    "equal" (set both diagonal entries to their mean) or None.

    Real discriminant: rotate onto an eigenvector and split into two 1x1
    blocks, unless ``split`` is false (mid-reorder, where splitting would
    invalidate the caller's block bookkeeping).  Genuinely complex: rotate
    to equal diagonal entries, so the eigenvalues read off as
    ``m +- i*sqrt(-bc)``; the rotation's tangent is the small root
    ``-1 / (tau + sign(tau) hypot(tau, 1))``, ``tau = (b + c) / (a - d)``,
    which does not cancel when ``|tau|`` is large, so setting both
    diagonal entries to their mean adds only rounding error.  Discriminant
    inside the rounding clamp, or c = 0: leave the block alone; the former
    stands for a repeated real pair.
    """
    if c == 0.0:
        return None, None
    disc, clamp, e = _block_disc(a, b, c, d)
    if disc >= 0.0:
        if not split:
            return None, None
        p = 0.5 * (a - d)
        sq = math.ldexp(math.sqrt(disc), e)
        lam = 0.5 * (a + d) + (sq if p >= 0.0 else -sq)
        v0, v1 = lam - d, c
        nv = math.hypot(v0, v1)
        return (v0 / nv, v1 / nv), "split"
    if disc >= -clamp:
        return None, None
    if a == d:
        return None, "equal"
    tau = (b + c) / (a - d)
    off = math.hypot(tau, 1.0)
    t = -1.0 / (tau + math.copysign(off, tau))  # the small root, without cancellation
    cs = 1.0 / math.sqrt(1.0 + t * t)
    return (cs, t * cs), "equal"


def _scaled(*entries) -> list:
    """The entries of a block of an unscaled form, scaled by the power of
    two that brings the largest into [0.5, 1), as ``real_schur`` reads its
    blocks: no rounding changes, and no sum or square of them overflows."""
    e = math.frexp(max(map(abs, entries)))[1]
    return [math.ldexp(v, -e) for v in entries]


def _rotation(cs, sn) -> np.ndarray:
    """The plane rotation ``[[cs, -sn], [sn, cs]]``."""
    return np.array([[cs, -sn], [sn, cs]])


def _standardize_2x2(H, Q, i):
    """Bring the 2x2 block at (i, i) of upper quasi-triangular H to standard
    form (see ``_standard_rotation``), accumulating the rotation into Q."""
    (a, b), (c, d) = H[i : i + 2, i : i + 2].tolist()
    rot, finish = _standard_rotation(a, b, c, d)
    if rot is not None:
        _apply_g_full(H, Q, i, _rotation(*rot))
    if finish == "split":
        H[i + 1, i] = 0.0
    elif finish == "equal":
        H[i, i] = H[i + 1, i + 1] = _mean(float(H[i, i]), float(H[i + 1, i + 1]))


def _reflector(x, y, z):
    """Explicit symmetric 3x3 reflector P with ``P @ (x, y, z) = (alpha, 0, 0)``,
    returned as ``(entries, alpha)``, the entries of P row by row; entries
    is None when y and z are already zero.

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
    return (1.0 - tau, -t1, -t2, -t1, 1.0 - t1 * u1, p12, -t2, p12, 1.0 - t2 * u2), alpha * s


def _francis_step(H, Q, l, hi, tr, det):
    """One implicit double-shift sweep on the active block l..hi of upper
    Hessenberg H.  The shift pair is given through its trace and
    determinant, so exceptional shifts use the same path.

    Each bulge step writes an explicit 3x3 reflector P (2x2 for the
    closing step) into a buffer made once per sweep and applies it as
    ``R[...] = P @ R`` and ``C[...] = C @ P`` on the views R of its rows
    and C of its columns in the window.  Those two products touch only the
    active block, and they are the same with or without Q: the block's
    values never read anything outside it, so the eigenvalue-only path (Q
    None) is bitwise ``real_schur``'s by construction.  Only with Q are the
    strips beside the block, rows above it and columns right of it,
    updated as well, as LAPACK's dlahqr does when it wants T.  In the
    step's rows, column k-1 is written directly as (alpha, 0, 0) and the
    columns left of it hold exact zeros; rows below the bulge in the step's
    columns hold exact zeros too.  All are skipped.
    """
    n = H.shape[0]
    top = hi + 1
    (a, b), (c, d), (_, e) = H[l : l + 3, l : l + 2].tolist()
    x = a * a + b * c - tr * a + det
    y = c * (a + d - tr)
    z = e * c
    flat3, flat2 = np.empty(9), np.empty(4)
    P3, P2 = flat3.reshape(3, 3), flat2.reshape(2, 2)
    for k in range(l, hi):
        m = 3 if k + 2 < top else 2  # the closing step reflects two rows, z = 0
        if k > l:
            if m == 3:
                x, y, z = H[k : k + 3, k - 1].tolist()
            else:
                x, y = H[k : k + 2, k - 1].tolist()
                z = 0.0
        entries, alpha = _reflector(x, y, z)
        if k > l:
            H[k, k - 1] = alpha
            H[k + 1, k - 1] = 0.0
            if m == 3:
                H[k + 2, k - 1] = 0.0
        if entries is None:
            continue
        if m == 3:
            flat3[:] = entries
            P = P3
        else:
            flat2[:] = entries[0], entries[1], entries[3], entries[4]
            P = P2
        R = H[k : k + m, k:top]
        R[...] = P @ R
        C = H[l : min(k + 4, top), k : k + m]
        C[...] = C @ P
        if Q is not None:
            if top < n:
                R = H[k : k + m, top:]
                R[...] = P @ R
            if l > 0:
                C = H[:l, k : k + m]
                C[...] = C @ P
            C = Q[:, k : k + m]
            C[...] = C @ P


def _francis_upper(H, Q, max_sweeps):
    """Drive upper Hessenberg H to upper quasi-triangular form in place.

    Subdiagonal entries count as converged when small against their
    diagonal neighbours; every tenth stalled sweep swaps in an exceptional
    shift to break symmetry cycles.  Exceeding the sweep budget raises
    ConvergenceError carrying the partial factorization.  Each pass reads
    the diagonal and subdiagonal once, as Python floats, for the deflation
    scan and the shifts.
    """
    n = H.shape[0]
    hi = n - 1
    sweeps = 0
    stalled = 0
    while hi > 0:
        diag = H.diagonal()[: hi + 1].tolist()
        sub = H.diagonal(-1)[:hi].tolist()  # sub[j] is H[j + 1, j]
        l = hi
        while l > 0:
            if abs(sub[l - 1]) <= EPS * (abs(diag[l - 1]) + abs(diag[l])):
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
            s = abs(sub[hi - 1]) + abs(sub[hi - 2])
            a = 0.75 * s + diag[hi]
            tr = 2.0 * a
            det = a * a + 0.4375 * s * s
        else:
            tr = diag[hi - 1] + diag[hi]
            det = diag[hi - 1] * diag[hi] - float(H[hi - 1, hi]) * sub[hi - 1]
        _francis_step(H, Q, l, hi, tr, det)
    return sweeps


def _scan_blocks_upper(S, shift=0) -> tuple[SchurBlock, ...]:
    """Read the diagonal block structure off upper quasi-triangular S, with
    the eigenvalues scaled by ``2**shift``.

    The transpose shares starts, sizes and eigenvalues, so the result
    serves the lower form as well.
    """
    n = S.shape[0]
    diag, sub, sup = (S.diagonal(j).tolist() for j in (0, -1, 1))
    blocks = []
    i = 0
    while i < n:
        try:
            if i + 1 < n and sub[i] != 0.0:
                lams = _block_eigs(diag[i], sup[i], sub[i], diag[i + 1])
                if shift:
                    lams = tuple(complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))
                                 for z in lams)
                size = 2
            else:
                lams = (complex(math.ldexp(diag[i], shift)),)
                size = 1
        except OverflowError:
            raise NumericalError(
                f"an eigenvalue of the diagonal block at row {i} overflows the float range"
            ) from None
        blocks.append(SchurBlock(i, size, lams))
        i += size
    return tuple(blocks)


def _schur_upper(A, budget, want_q):
    """Upper quasi-triangular Schur form H of ``A.T`` and its Q (both None
    unless ``want_q``), and its blocks; ``budget`` None means 40 sweeps per
    dimension.

    A is first scaled by the power of two that brings its largest entry
    into [0.5, 1), as ``char_poly`` does: no rounding changes, while the
    squares in the shifts and in ``_block_disc`` neither overflow nor
    underflow.  The blocks' eigenvalues are read off the scaled form, then
    they and H are scaled back; an eigenvalue or an entry of H beyond the
    float range raises NumericalError.  The active block's arithmetic does
    not depend on ``want_q``, so the blocks are bitwise the same either way.
    """
    A = _as_square(A, "A")
    shift = int(np.frexp(max_abs(A))[1])
    Q, H = _hessenberg_upper(np.ldexp(A.T, -shift), want_q)
    try:
        _francis_upper(H, Q, 40 * A.shape[0] if budget is None else int(budget))
    except ConvergenceError as exc:
        exc.partial_t = np.ldexp(exc.partial_t, shift)
        raise
    blocks = _scan_blocks_upper(H, shift)
    if not want_q:
        return None, None, blocks
    with np.errstate(over="ignore"):
        H = np.ldexp(H, shift)
    if not np.isfinite(H).all():
        raise NumericalError("the Schur form has entries beyond the float range")
    return Q, H, blocks


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


def _sylvester(w, p, q, where) -> list:
    """The coupling X (p x q, as a list in column order) of the window w
    of two adjacent blocks, solving ``A11 X - X A22 = -A12``.

    The Kronecker system ``(I_q (x) A11 - A22.T (x) I_p) vec(X) =
    -vec(A12)``, 2x2 or 4x4, is written out entry by entry and solved on
    Python floats by ``_eliminate_scalars``, which refuses a pivot below
    ``p q eps max|K|``.
    """
    if p == 1:  # A11 = a, A22 = B
        (a, c0, c1), (_, b00, b01), (_, b10, b11) = w
        K = [[a - b00, -b10], [-b01, a - b11]]
        rhs = [-c0, -c1]
    elif q == 1:  # A11 = A, A22 = b
        (a00, a01, c0), (a10, a11, c1), (_, _, b) = w
        K = [[a00 - b, a01], [a10, a11 - b]]
        rhs = [-c0, -c1]
    else:
        (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = w
        K = [[a00 - b00, a01, -b10, 0.0],
             [a10, a11 - b00, 0.0, -b10],
             [-b01, 0.0, a00 - b11, a01],
             [0.0, -b01, a10, a11 - b11]]
        rhs = [-c00, -c10, -c01, -c11]
    limit = p * q * EPS * max(max(map(abs, row)) for row in K)
    try:
        return _eliminate_scalars(K, rhs, limit)
    except SingularMatrixError as exc:
        raise BlockSwapError(
            f"cannot swap blocks at {where}: coupling system is singular"
        ) from exc


def _coupling_basis(X, p, q) -> list:
    """Orthogonal G, as a flat row-major list, whose first q columns span
    ``[X; I_q]``, for a swap with p + q = 3 or 4 (X as ``_sylvester``
    returns it).

    G is a product of explicit reflectors from ``_reflector``, as LAPACK's
    dlaexc builds it: 2<->1 reflects ``(x0, x1, 1)`` onto e1; 1<->2
    reflects the normal ``(1, -x0, -x1)`` of the basis onto e3 (the
    reflector of the reversed vector, reversed); 2<->2 is the Householder
    QR of ``[X; I_2]``, a reflector on rows 0..2 and then one on rows 1..3.
    """
    if q == 1:
        return list(_reflector(X[0], X[1], 1.0)[0])
    if p == 1:
        return list(_reflector(-X[1], -X[0], 1.0)[0][::-1])
    x00, x10, x01, x11 = X
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = _reflector(x00, x10, 1.0)[0]
    f00, f01, f02, f10, f11, f12, f20, f21, f22 = _reflector(
        e10 * x01 + e11 * x11, e20 * x01 + e21 * x11, 1.0)[0]
    return [e00, e01 * f00 + e02 * f10, e01 * f01 + e02 * f11, e01 * f02 + e02 * f12,
            e10, e11 * f00 + e12 * f10, e11 * f01 + e12 * f11, e11 * f02 + e12 * f12,
            e20, e21 * f00 + e22 * f10, e21 * f01 + e22 * f11, e21 * f02 + e22 * f12,
            0.0, f20, f21, f22]


def _swap_adjacent_upper(S, Z, i, p, q):
    """Exchange the adjacent diagonal blocks of sizes p then q at offset i
    in upper quasi-triangular S, accumulating the rotation into Z.

    The (p+q)-square window D is read once, as Python floats.  Two 1x1
    blocks ``[[a, c], [0, d]]`` swap by the plane rotation onto
    ``(x, 1)``, ``x = -c / (a - d)``, which is backward stable by
    construction, and the window is written as ``[[d, c], [0, a]]``, its
    exact rotated form, as LAPACK's dlaexc does; the swap is refused only
    when the blocks lie so close that x is infinite.  A larger swap solves
    the Sylvester equation ``A11 X - X A22 = -A12`` in scalars
    (``_sylvester``) and takes the orthogonal factor G of ``[X; I]`` from
    explicit reflectors (``_coupling_basis``).  It is refused when the
    coupling system is singular to working precision, or when the swapped
    local block ``E = G.T @ D @ G`` fails the backward-error test of
    dlaexc (Bai & Demmel, LAA 186, 1993): the q x p block of E the swap
    zeroes, and the error of rebuilding D from E without it, must both
    stay within ``max(10 eps max|D|, tiny)``.  E's 2x2 blocks are then
    brought to standard form on the window, and the one combined factor
    ``G diag(R1, R2)`` is applied to S's rows, S's columns and Z: three
    products.  Nothing is written before a refusal.
    """
    m = p + q
    rows = slice(i, i + m)
    where = f"rows {i}..{i + p - 1} and {i + p}..{i + m - 1}"
    D = S[rows, rows]
    w = D.tolist()
    equal = []
    if m == 2:
        (a, c), (_, d) = w
        diff = a - d
        x = -c / diff if diff != 0.0 else math.inf
        if math.isinf(x):
            raise BlockSwapError(f"cannot swap blocks at {where}: the blocks coincide")
        r = math.hypot(x, 1.0)
        F = _rotation(x / r, 1.0 / r)
    else:
        flat = _coupling_basis(_sylvester(w, p, q, where), p, q)
        G = np.array(flat).reshape(m, m)
        thresh = max(10.0 * EPS * max(map(abs, itertools.chain(*w))), TINY)
        E = G.T @ D @ G
        err = np.abs(E[q:, :q]).max()
        if err <= thresh:
            E[q:, :q] = 0.0
            err = np.abs(G @ E @ G.T - D).max()
        if not err <= thresh:
            raise BlockSwapError(
                f"cannot swap blocks at {where}: the swapped form has backward "
                f"error {err:.3e}, above the threshold {thresh:.3e}"
            )
        # standardize E's 2x2 blocks: F = G diag(R1, R2), column pairs of G
        # turned on the flat list
        e = E.tolist()
        for j, size in ((0, q), (q, p)):
            if size == 2:
                block = _scaled(e[j][j], e[j][j + 1], e[j + 1][j], e[j + 1][j + 1])
                rot, finish = _standard_rotation(*block, split=False)
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
        S[j, j] = S[j + 1, j + 1] = _mean(float(S[j, j]), float(S[j + 1, j + 1]))


def reorder_schur(dec: SchurDecomposition, select) -> SchurDecomposition:
    """Reorder a Schur decomposition so the selected blocks come first.

    ``select`` holds indices into ``dec.blocks``.  Selected blocks bubble
    to the leading positions through adjacent swaps, preserving their
    relative order; a decomposition already in the requested order is
    returned unchanged.  The swaps touch no row past the end of the last
    selected block, so only those leading rows are rescanned; the blocks
    behind them are ``dec.blocks``' own, whose entries keep their bits.
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
    last = max(sel)
    end = dec.blocks[last].start + dec.blocks[last].size
    blocks = _scan_blocks_upper(S[:end, :end]) + dec.blocks[last + 1 :]
    return SchurDecomposition(Q=Z, T=S.T.copy(), blocks=blocks)


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

    The leading r rows of T must hold whole blocks.  The feedback adds
    ``(Q.T @ b) g^T`` to the leading r columns of T.  T's upper right
    block is zero, so the trailing block and its eigenvalues stay bitwise
    unchanged; only the leading r x r block is reduced again, and only its
    r rows are rescanned, while the blocks behind them are ``dec.blocks``'
    own.  A 1x1 leading block is already reduced.  A 2x2 one is reduced
    as ``real_schur`` reduces a 2x2, without its pipeline: read after a
    power-of-two scaling, it deflates when its off-diagonal entry is
    negligible against its diagonal, and is otherwise brought to standard
    form by one rotation (``_standard_rotation``), applied to the leading
    columns of T and Q.
    """
    r = len(g)
    T = dec.T.copy()
    T[:, :r] += (dec.Q.T @ b)[:, None] * g
    Q = dec.Q
    if r == 2:
        (t00, t01), (t10, t11) = T[:2, :2].tolist()
        t00, t01, t10, t11 = _scaled(t00, t01, t10, t11)
        if abs(t01) <= EPS * (abs(t00) + abs(t11)):
            T[0, 1] = 0.0
        else:
            # the upper form's block is the transpose
            rot, finish = _standard_rotation(t00, t10, t01, t11)
            if rot is not None:
                G = _rotation(*rot)
                T[:2, :2] = G.T @ T[:2, :2] @ G
                T[2:, :2] = T[2:, :2] @ G
                Q = Q.copy()
                Q[:, :2] = Q[:, :2] @ G
            if finish == "split":
                T[0, 1] = 0.0
            elif finish == "equal":
                T[0, 0] = T[1, 1] = _mean(float(T[0, 0]), float(T[1, 1]))
    elif r > 2:
        lead = real_schur(T[:r, :r])
        T[:r, :r] = lead.T
        T[r:, :r] = T[r:, :r] @ lead.Q
        Q = Q.copy()
        Q[:, :r] = Q[:, :r] @ lead.Q
    blocks = _scan_blocks_upper(T[:r, :r].T) + tuple(
        blk for blk in dec.blocks if blk.start >= r
    )
    return SchurDecomposition(Q=Q, T=T, blocks=blocks)


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
