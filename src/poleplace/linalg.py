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

``real_schur`` keeps the orthogonal factor Q; ``eigenvalues`` and the
closed-loop check read only the diagonal blocks and run without it, and
"Q is None" is the engine's one switch between the two.  With Q the
upper form H and Q share one (2n x n) buffer ``[H; Q]`` (``_split``), and
a sweep chases its bulge one position at a time: each reflector goes to
the step's rows of the active block and of the strip right of it, and
then, in one product, to the buffer's column slice, which holds the strip
above the block, the active rows, the rows below the bulge (exact zeros,
which stay +0.0) and Q.  The blocks are read off the standardized form at
the end; ``real_schur``, ``reorder_schur`` (whose S and Z share a buffer
alike) and the leading-block update of ``_feed_leading`` keep that chase
and its bits.  Without Q a sweep updates the active block alone and
chases its bulge two positions at a time, one 4x4 product per side where
the plain chase makes two 3x3 ones (``_francis_step``), and each block's
eigenvalues are read as it deflates, a 2x2 block standardized on Python
floats (``_standard_eigs``).
Its eigenvalues agree with ``real_schur``'s to rounding of the same size,
not bitwise.

``eigenvalues`` may also be told which values to expect (``near``), as a
closed-loop check knows the spectrum it asked for.  The first sweep, and
the first after each deflation at the bottom, then shifts by the
requested pair nearest the standard one; an exact shift deflates in
about one sweep (Watkins, "The transmission of shifts and shift blurring
in the QR algorithm", LAA 241-243, 1996).  A request picks shifts and
nothing else: the other sweeps, the exceptional shifts, the deflation
test and the budget of 40 sweeps per dimension are those without it,
and each sweep is an orthogonal similarity whatever its shifts, so a
wrong request costs sweeps, not accuracy.  A closed-loop check forms its
loop in the controller-Hessenberg coordinates of its system
(``ControllerHessenberg``), where the loop is Hessenberg already, and
hands it straight to the engine's core, ``_hessenberg_eigenvalues``,
which ``eigenvalues`` runs after its validation and reduction.

``condition_number`` needs no Schur form.  It multiplies the 2-norms of
the R of its matrix and of R's inverse, all numpy's; LAPACK inverts a
triangle by back substitution, which keeps kappa accurate up to 1/eps,
where sigma_min read off an SVD carries an absolute error of about eps
times the largest singular value.

The hot loops read the matrix into Python floats once per use (the
diagonals for deflation, shifts and block scans, once per sweep; three
entries per bulge step; a swap's window), apply each reflector through
views into a buffer made once per iteration, and solve a swap's Kronecker
system, at most 4x4, on Python floats with the row loop of
``solve_linear``.  Where bits must be kept a bulge step's BLAS products
are the floor: a product in another order, or outside this BLAS with its
FMA-contracted kernels, changes the last bits of every result.  The one
freedom is in how many rows a product from the right covers: this BLAS
rounds each row of ``C @ P`` alike whatever rows surround it, so the
buffer's one column product gives the bits of separate products on the
strip, the active rows and Q (T and Q byte for byte on 716 matrices), and
takes ``real_schur`` to 0.83-0.86x its time.  A product from the left
has no such freedom, since this BLAS rounds the columns of ``P @ R`` by
where they sit: one row product over the active block and the strip
right of it changed T on 303 of those 716 matrices, and stacking Q's
update under the Hessenberg reduction's column update changed 102.  So
rows keep their two products, and ``_hessenberg_upper`` keeps Q apart.
Without Q no gain depends on the bits, and the paired chase's sweep
takes 0.73-0.77x the plain one's time at n = 8-64.

Where a warm gain's time goes (``place_general`` on perfbench's seed-1
dense systems at n = 12, 2-vCPU VM, one BLAS thread; it reads 0.7-1.0 ms
as the machine drifts): its closed-loop spectrum takes 450-480 us, of
which about 300 us are the bulge steps of 10 sweeps (about 30 us a
sweep) and the rest the Q-less driver's shifts, deflations and
read-off; the gain's own row (``placement._row``: the LU substitution
and the pulled product, whose bits fix the gain) 90-120 us; the exact
closed-loop polynomial (``OpenLoopRecord.closed_loop``) 50-65 us; and
``W.T k`` with the loop's first row (``ControllerHessenberg.closed_loop``)
about 12 us.  At n = 16 the steps of 15 sweeps take about 600 us of a
780-840 us spectrum.

Real eigenvalues appear as 1x1 diagonal blocks.  A 2x2 block normally
carries a complex conjugate pair stored so the two reported values are
exact bitwise conjugates; a 2x2 whose discriminant is negative but within
rounding noise of zero is left in place and reported as a repeated real
pair, because splitting it would not be backward stable.
"""

from __future__ import annotations

import itertools
import math
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
from .errors import _as_square, _as_vector, _complexes, _finite, _floats
from .poly import Spectrum, _as_spectrum

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def max_abs(M) -> float:
    """Largest entry magnitude of a float array, 0.0 for an empty one."""
    return float(np.max(np.abs(M))) if M.size else 0.0


# ---------------------------------------------------------------------------
# solves and friends


def solve_linear(M, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` by row-pivoted elimination.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.  A
    pivot below ``n * ulp(1) * max|M|`` raises SingularMatrixError whose
    ``column`` attribute is the elimination column that failed; that column
    index is a lower bound on the rank of M, not an estimate of it.
    """
    M = _as_square(M, "matrix")
    n = M.shape[0]
    rhs = _floats(rhs, "right-hand side")
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValidationError(f"right-hand side has shape {rhs.shape}, expected {n} rows")
    rhs = _finite(rhs, "right-hand side")
    LU = M.copy()
    return _substitute(LU, _factor(LU, n * EPS * max_abs(M)), rhs)


def _factor(LU, limit) -> list:
    """Overwrite the float matrix LU with its row-pivoted factors and
    return the pivot order; refuses a pivot below ``limit``."""
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
    return perm


def _substitute(LU, perm, rhs) -> np.ndarray:
    """Solve against the factors ``_factor`` left in LU, reading LU only."""
    n = LU.shape[0]
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
    """The row loop of ``solve_linear`` on Python floats, for the small
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


def krylov(A, b) -> np.ndarray:
    """Columns ``[b, Ab, ..., A**(n-1) b]`` for A of order n;
    NumericalError when one of them leaves the float range."""
    A = _as_square(A, "A")
    n = A.shape[0]
    b = _as_vector(b, n, "vector")
    C = np.empty((n, n))
    v = b.copy()
    C[:, 0] = v
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n):
            v = A @ v
            C[:, j] = v
    finite = np.isfinite(C).all(axis=0)
    if not finite.all():
        raise NumericalError(
            f"Krylov column A**{int(np.argmin(finite))} b overflows the float range"
        )
    return C


def condition_number(M) -> float:
    """Spectral condition number ``sigma_max / sigma_min`` of M, as
    ``||R||_2 ||R^-1||_2`` for the R of its QR factorization.

    M is first scaled by the power of two that brings its largest entry
    into [0.5, 1), which changes no rounding, so ``2**k M`` gives bitwise
    the same value.  R, ``R^-1`` and both 2-norms come from numpy's
    LAPACK; its inverse of a triangle is back substitution, so sigma_min
    is never read off an SVD of M, whose absolute error would swamp it.
    One column gives 1.0.  Returns ``inf`` for a wide M, a diagonal entry
    of R below ``n * ulp(1) * max|R|`` (the pivot threshold of
    ``solve_linear``), or an ``R^-1`` or product past the float range.  A
    LAPACK failure raises NumericalError.
    """
    M = _floats(M, "matrix")
    if M.ndim != 2 or M.size == 0:
        raise ValidationError(f"matrix must be 2-D and nonempty, got shape {M.shape}")
    top = float(np.abs(_finite(M, "matrix")).max())
    m, n = M.shape
    if n > m or top == 0.0:
        return math.inf
    try:
        R = np.linalg.qr(np.ldexp(M, -math.frexp(top)[1]), mode="r")
        if np.abs(R.diagonal()).min() < n * EPS * np.abs(R).max():
            return math.inf
        if n == 1:
            return 1.0  # r * fl(1/r) is not always 1
        X = np.linalg.inv(R)
        if not np.isfinite(X).all():
            return math.inf
        return float(np.linalg.norm(R, 2)) * float(np.linalg.norm(X, 2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"condition number: {exc}") from None


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
    v = x.copy()
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


def _unit_first(v, beta):
    """The reflector ``I - beta v v^T`` of ``_householder`` (beta > 0) with
    v divided, in place, by its first entry and beta multiplied by that
    entry's square: ``v[0] = 1``, as LAPACK's dlarfg stores a reflector.
    It is the same reflector to rounding, and the compact-WY factor T of
    such reflectors (``_wy_factor``) stays of the size of their betas,
    which lie in [1, 2]."""
    v0 = float(v[0])
    v /= v0
    return v, beta * (v0 * v0)


def _hessenberg_upper(B, want_q=True, wy=None):
    """Reduce the float matrix B in place to upper Hessenberg H, ``B = Q @
    H @ Q.T``, and return ``(Q, H)``, H being B; Q = I if B already is
    Hessenberg, and Q = None when not wanted.  With ``wy = (Vt, taus)``
    each reflector is taken with ``v[0] = 1`` (``_unit_first``) and, once
    applied, ``I - beta v v^T`` on entries k+1.. is kept for its
    compact-WY form (``_wy_factor``): v in the next free row of Vt, from
    column k+1, and beta appended to ``taus``.  A B with nothing below its
    subdiagonal returns at once, without a reflector to skip per column."""
    n = B.shape[0]
    H = B
    Q = np.eye(n) if want_q else None
    if not np.tril(H, -2).any():
        return Q, H
    for k in range(n - 2):
        v, beta, alpha = _householder(H[k + 1 :, k])
        if beta == 0.0:
            continue
        if wy is not None:
            v, beta = _unit_first(v, beta)
        H[k + 1 :, k:] -= beta * (v[:, None] * (v @ H[k + 1 :, k:]))
        H[:, k + 1 :] -= beta * ((H[:, k + 1 :] @ v)[:, None] * v)
        if Q is not None:
            Q[:, k + 1 :] -= beta * ((Q[:, k + 1 :] @ v)[:, None] * v)
        if wy is not None:
            Vt, taus = wy
            Vt[len(taus), k + 1 :] = v
            taus.append(beta)
        H[k + 1, k] = alpha
        H[k + 2 :, k] = 0.0
    return Q, H


def _wy_factor(Vt, taus) -> np.ndarray:
    """The upper triangular T of the compact-WY form ``I - V T V^T`` of
    the reflectors ``I - taus[j] v_j v_j^T`` in the order applied (Schreiber
    & Van Loan, SISC 10(1), 1989), their vectors the first ``len(taus)``
    rows of Vt.

    T is the inverse of the upper triangular S with ``1 / taus`` on its
    diagonal and ``V^T V`` above it (the forward recurrence of LAPACK's
    dlarft, ``T[:j, j] = -tau_j T[:j, :j] V[:, :j]^T v_j``, builds the
    same inverse a column at a time), taken by one ``np.linalg.inv``: S
    has nothing below its diagonal, so its LU factorization pivots on that
    diagonal and is S itself.  T keeps the taus themselves on its diagonal.
    """
    m = len(taus)
    V = Vt[:m]
    S = np.triu(V @ V.T, 1)
    S.flat[:: m + 1] = [1.0 / tau for tau in taus]
    T = np.linalg.inv(S)
    T.flat[:: m + 1] = taus
    return T


@dataclass(frozen=True)
class ControllerHessenberg:
    """Controller-Hessenberg form of a single-input pair ``(A, b)``: an
    orthogonal W with ``W.T @ b = 2**beta_shift beta e1`` and
    ``W.T @ A @ W = 2**shift H``, H upper Hessenberg (Miminis & Paige, Int.
    J. Control 35(2), 1982).

    The form is kept in scaled coordinates, so that every finite pair has
    one: H is the reduction of A scaled by the power of two that brings
    its largest entry into [0.5, 1), and beta the norm of b scaled alike,
    while ``W.T A W`` and ``||b||`` themselves may lie beyond the float
    range.  W is the product of the m Householder reflectors of the
    reduction, kept in compact-WY form ``W = I - V T V^T`` (Schreiber &
    Van Loan, SISC 10(1), 1989): column j of the n x m matrix V is the
    j-th reflector's vector, zero above the entry it starts at and 1 there
    (``_unit_first``), and T is m x m upper triangular with the
    reflectors' taus on its diagonal.  The reduction applies these very
    reflectors, so H and W agree to the rounding of each step; it keeps
    each one's vector as it goes, and T is formed once from them
    (``_wy_factor``).  Every reflector after the first leaves e1 alone, so
    a feedback through b changes only the first row: ``W.T (A + b k^T) W``
    is upper Hessenberg as it stands (``closed_loop``).
    """

    V: np.ndarray
    T: np.ndarray
    H: np.ndarray
    shift: int
    beta: float
    beta_shift: int

    def closed_loop(self, k) -> tuple[np.ndarray, int]:
        """``(M, e)`` with ``W.T (A + b k^T) W = 2**e M``: H at the scale
        ``2**-e``, whose first row gains ``beta (W.T k)^T`` scaled alike.

        k is scaled by the power of two that brings its largest entry into
        [0.5, 1), and W.T applied to it in compact-WY form (``_wt``).
        Every entry of H, and of ``beta (W.T k)^T`` at k's own scale, is
        below n, so e is 0 unless the loop could reach the float range in
        these coordinates, and then the least that keeps every entry of M
        in it.  Beside the rounding of W itself, the formation rounds only
        ``W.T k`` and the sums in that first row, so its error is a
        perturbation of k, where forming ``A + b k^T`` in doubles perturbs
        every entry by about ``eps |b| |k|``.
        """
        top = math.frexp(max_abs(k))[1]
        g = self._wt(np.ldexp(k, -top))
        lift = self.beta_shift + top
        e = max(0, max(self.shift, lift) + (2 * self.H.shape[0]).bit_length() - 1024)
        M = np.ldexp(self.H, self.shift - e)
        M[0] += np.ldexp(self.beta * g, lift - e)
        return M, e

    def _wt(self, g) -> np.ndarray:
        """``W.T g = g - V (T^T (V^T g))`` for a float vector g: three
        products, with no loop over the reflectors."""
        return g - self.V @ (self.T.T @ (g @ self.V))


def _controller_hessenberg(A, b) -> ControllerHessenberg:
    """The controller-Hessenberg form of ``(A, b)``: one ``_householder``
    takes b to ``beta e1``, and ``_hessenberg_upper`` reduces the reflected
    A, whose reflectors act on entries 1.. only; their vectors are kept as
    they are applied, and ``_wy_factor`` forms the compact-WY T of them.

    A and b are each scaled by the power of two that brings their largest
    entry into [0.5, 1), as ``_scaled_transpose`` scales A, and the form keeps
    those scales (``ControllerHessenberg``), so any finite pair has one.
    """
    A = _as_square(A, "A")
    n = A.shape[0]
    b = _as_vector(b, n, "b")
    shift = int(np.frexp(max_abs(A))[1])
    beta_shift = int(np.frexp(max_abs(b))[1])
    B = np.ldexp(A, -shift)
    v, tau, beta = _householder(np.ldexp(b, -beta_shift))
    Vt, taus = np.zeros((n, n)), []  # room for the n - 1 reflectors at most
    if tau != 0.0:
        v, tau = _unit_first(v, tau)
        B -= tau * (v[:, None] * (v @ B))
        B -= tau * ((B @ v)[:, None] * v)
        Vt[0] = v
        taus.append(tau)
    _, H = _hessenberg_upper(B, want_q=False, wy=(Vt, taus))
    return ControllerHessenberg(V=Vt[: len(taus)].T, T=_wy_factor(Vt, taus), H=H,
                                shift=shift, beta=beta, beta_shift=beta_shift)


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


def _standardize_2x2(HQ, i):
    """Bring the 2x2 block at (i, i) of upper quasi-triangular H to standard
    form (see ``_standard_rotation``) by a similarity on rows and columns
    i, i+1, accumulating the rotation into Q.  H and Q are the two halves
    of one buffer ``HQ = [H; Q]`` (``_split``), so the rotation reaches
    H's columns and Q's in one product over ``HQ[:, i:i+2]``, whose rows
    round as separate products would round them.  The rows take their own
    product on H's two rows: a transform from the left cannot share a
    product with one from the right.  A run without Q reads the block's
    eigenvalues as it deflates instead (``_standard_eigs``)."""
    H, _ = _split(HQ)
    (a, b), (c, d) = H[i : i + 2, i : i + 2].tolist()
    rot, finish = _standard_rotation(a, b, c, d)
    if rot is not None:
        G = _rotation(*rot)
        R = H[i : i + 2, :]
        R[...] = G.T @ R
        C = HQ[:, i : i + 2]
        C[...] = C @ G
    if finish == "split":
        H[i + 1, i] = 0.0
    elif finish == "equal":
        H[i, i] = H[i + 1, i + 1] = _mean(float(H[i, i]), float(H[i + 1, i + 1]))


def _standard_eigs(a, b, c, d) -> tuple[tuple, tuple]:
    """The eigenvalues ``_standardize_2x2`` leaves readable in the upper
    2x2 block ``[[a, b], [c, d]]``, computed on Python floats without a
    matrix: the rotation of ``_standard_rotation`` applied to the four
    entries (rows first, then columns, as the numpy products go), then its
    finish.  Returns the readings of the block's two rows as
    ``_scan_blocks_upper`` takes them: ``((l1,), (l2,))`` after a split or
    when c = 0, else ``((z1, z2), ())``, z2 the exact conjugate of z1 or,
    inside the discriminant clamp, equal to it.  The products round as
    numpy's 2x2 products do not always, so the values may differ from
    ``_standardize_2x2``'s in their last bits.
    """
    rot, finish = _standard_rotation(a, b, c, d)
    if rot is not None:
        cs, sn = rot
        # G.T @ B, then that times G, for G = [[cs, -sn], [sn, cs]]
        r00, r01 = cs * a + sn * c, cs * b + sn * d
        r10, r11 = cs * c - sn * a, cs * d - sn * b
        a, b = r00 * cs + r01 * sn, r01 * cs - r00 * sn
        c, d = r10 * cs + r11 * sn, r11 * cs - r10 * sn
    if finish == "split":
        c = 0.0
    elif finish == "equal":
        a = d = _mean(a, d)
    if c == 0.0:
        return (complex(a),), (complex(d),)
    return _block_eigs(a, b, c, d), ()


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


def _step_scratch() -> tuple:
    """The reflector buffers of ``_francis_step``, each flat and as its
    square view: 3x3, 2x2 and the paired chase's 4x4, with the transposed
    view of the last."""
    flat3, flat2, flat4 = np.empty(9), np.empty(4), np.empty(16)
    G = flat4.reshape(4, 4)
    return flat3, flat3.reshape(3, 3), flat2, flat2.reshape(2, 2), flat4, G, G.T


def _split(HQ):
    """``(H, Q)`` of a buffer ``HQ = [H; Q]`` as ``real_schur`` and
    ``_reorder`` keep a form and its orthogonal factor: H the first n rows,
    n the column count, and Q the n rows below; ``(HQ, None)`` when HQ is H
    alone, with no view made, since a run without Q splits once a sweep.
    Row indices below n name the same rows of H and HQ."""
    n = HQ.shape[1]
    if HQ.shape[0] == n:
        return HQ, None
    return HQ[:n], HQ[n:]


def _francis_step(HQ, l, hi, tr, det, scratch) -> None:
    """One implicit double-shift sweep on the active block l..hi of upper
    Hessenberg H, where HQ is the buffer ``[H; Q]`` of a run with Q or H
    alone (``_split``).  The shift pair is given through its trace and
    determinant, so exceptional shifts use the same path.

    Each bulge step writes an explicit 3x3 reflector P (2x2 for the
    closing step) into a buffer from ``scratch`` (``_step_scratch``, made
    once per ``_francis_upper`` call) and applies it as ``R[...] = P @ R``
    and ``C[...] = C @ P`` on the views R of its rows and C of its columns.
    In the step's rows, column k-1 is written directly as (alpha, 0, 0)
    and the columns left of it hold exact zeros, so they are skipped.
    With Q the strips beside the block are updated as well, as LAPACK's
    dlahqr does when it wants T.  The columns right of the block take a
    second product on the step's rows: one product over both would round
    the block's columns by where they sit in it and change T's bits.  The
    columns take one product over the buffer's whole column slice
    ``HQ[:, k:k+m]``, the strip above the block, the active rows, the rows
    below the bulge and Q at once: this BLAS rounds each of its rows as a
    product of that row alone would, so the bits are those of separate
    products, and the rows below the bulge, exact zeros, stay +0.0.
    Without Q the column product covers the active rows down to the bulge.

    Without Q, where only the block's eigenvalues are read, the bulge is
    chased two positions at a time wherever positions k and k+1 are both
    full 3x3 steps (k + 3 <= hi).  The input of the second reflector,
    column k at rows k+1..k+3 once the first has acted from both sides, is
    computed on Python floats from the 4x3 block ``H[k:k+4, k:k+3]``, read
    in one ``tolist`` with the bulge column k-1 beside it; then
    ``G = diag(1, P_{k+1}) diag(P_k, 1)`` goes to rows k..k+3 as one 4x4
    product and ``G.T`` to columns k..k+3 as another, and both annihilated
    columns are written as (alpha, 0, 0).  That is two products where the
    plain chase makes four.  Every transform stays local to the bulge, so
    the rounding is of the plain chase's size and place, but not its bits.
    """
    H, Q = _split(HQ)
    n = H.shape[0]
    top = hi + 1
    (a, b), (c, d), (_, e) = H[l : l + 3, l : l + 2].tolist()
    x = a * a + b * c - tr * a + det
    y = c * (a + d - tr)
    z = e * c
    flat3, P3, flat2, P2, flat4, G, GT = scratch
    k = l
    while k < hi:
        m = 3 if k + 2 < top else 2  # the closing step reflects two rows, z = 0
        paired = Q is None and k + 3 <= hi
        if paired:  # the 4x3 block, and column k-1 beside it after the first step
            if k > l:
                ((x, b00, b01, b02), (y, b10, b11, b12), (z, b20, b21, b22),
                 (_, _, _, b32)) = H[k : k + 4, k - 1 : k + 3].tolist()
            else:
                (b00, b01, b02), (b10, b11, b12), (b20, b21, b22), (_, _, b32) = (
                    H[k : k + 4, k : k + 3].tolist())
        elif k > l:
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
            k += 1
            continue
        if paired:
            p00, p01, p02, p10, p11, p12, p20, p21, p22 = entries
            # column k of P B P at rows 1..3, as P[1:, :] @ (B[:3] @ P[:, 0])
            u0 = b00 * p00 + b01 * p10 + b02 * p20
            u1 = b10 * p00 + b11 * p10 + b12 * p20
            u2 = b20 * p00 + b21 * p10 + b22 * p20
            second, alpha = _reflector(p10 * u0 + p11 * u1 + p12 * u2,
                                       p20 * u0 + p21 * u1 + p22 * u2, b32 * p20)
            q00, q01, q02, q10, q11, q12, q20, q21, q22 = second or (
                1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
            flat4[:] = (p00, p01, p02, 0.0,
                        q00 * p10 + q01 * p20, q00 * p11 + q01 * p21, q00 * p12 + q01 * p22, q02,
                        q10 * p10 + q11 * p20, q10 * p11 + q11 * p21, q10 * p12 + q11 * p22, q12,
                        q20 * p10 + q21 * p20, q20 * p11 + q21 * p21, q20 * p12 + q21 * p22, q22)
            R = H[k : k + 4, k:top]
            R[...] = G.dot(R)
            C = H[l : min(k + 5, top), k : k + 4]
            C[...] = C.dot(GT)
            H[k + 1, k] = alpha
            H[k + 2, k] = H[k + 3, k] = 0.0
            k += 2
            continue
        if m == 3:
            flat3[:] = entries
            P = P3
        else:
            flat2[:] = entries[0], entries[1], entries[3], entries[4]
            P = P2
        R = H[k : k + m, k:top]
        R[...] = P @ R
        if Q is None:
            C = H[l : min(k + 4, top), k : k + m]
        else:
            if top < n:
                R = H[k : k + m, top:]
                R[...] = P @ R
            C = HQ[:, k : k + m]
        C[...] = C @ P
        k += 1


def _nearest(values, z) -> int:
    """Index of the first of ``values`` nearest z."""
    dist = [abs(v - z) for v in values]
    return dist.index(min(dist))


def _requested_shifts(near, tr, det, corner):
    """The shift pair, as trace and determinant, that the requested values
    offer in place of the standard pair ``(tr, det)``.

    Of the standard pair's roots the one nearer the corner entry is about
    to deflate; the requested value nearest it is taken with its conjugate
    if it is complex, and otherwise with the requested real nearest the
    other root (or with itself when no other real is left).
    """
    half = 0.5 * tr
    disc = half * half - det
    if disc < 0.0:
        first = second = complex(half, math.sqrt(-disc))
    else:
        root = math.sqrt(disc)
        first, second = half + root, half - root
        if abs(second - corner) < abs(first - corner):
            first, second = second, first
    i = _nearest(near, first)
    z = near[i]
    if z.imag != 0.0:
        return 2.0 * z.real, z.real * z.real + z.imag * z.imag
    reals = [v for j, v in enumerate(near) if j != i and v.imag == 0.0]
    w = reals[_nearest(reals, second)] if reals else z
    return z.real + w.real, z.real * w.real


def _francis_upper(HQ, near=()):
    """Drive upper Hessenberg H to upper quasi-triangular form in place,
    accumulating the transforms into Q when ``HQ = [H; Q]`` holds one
    (``_split``); HQ is H alone for a run without Q.

    Subdiagonal entries count as converged when small against their
    diagonal neighbours; every tenth stalled sweep swaps in an exceptional
    shift to break symmetry cycles.  More than 40 sweeps per dimension
    raise ConvergenceError naming the rows of the active block.  The
    diagonal and subdiagonal are read as Python floats once per sweep, for
    the deflation scans and the shifts until the next one.

    With Q a deflated 2x2 block is brought to standard form
    (``_standardize_2x2``), and the result is None.  Without Q nothing
    reads a deflated block again, so each block's eigenvalues are read as
    it deflates and returned: a list with, at each row, the eigenvalues of
    the block starting there (``()`` on the second row of a 2x2 one), as
    ``_scan_blocks_upper`` would read the standardized form.  A 2x2 block
    is standardized on Python floats (``_standard_eigs``) and H keeps the
    block as it deflated.  Such a run also chases its bulge in pairs
    (``_francis_step``), so its eigenvalues move against those of a run
    with Q in their trailing digits.

    ``near`` holds requested eigenvalues, already scaled as H is, and is
    only given without Q.  While any are left, the first sweep, and the
    first after each deflation at the bottom, shifts by the requested pair
    nearest the standard one (``_requested_shifts``): an exact shift
    deflates in about one sweep.  Each deflated eigenvalue retires the
    requested value nearest it.  Every other sweep, and the deflation
    test, are those without ``near``; with ``near`` empty the iteration is
    bitwise one without it.

    The sweep count is already at its floor.  On the 360 seed-1
    full-dense closed-loop checks of perfbench (mean n 12, 4229 sweeps,
    4221 paired) 68% of the runs of sweeps between deflations take two
    sweeps, 23% three and 4% more.  After the seeded sweep the coupling
    ``h(hi - 1, hi - 2)`` reads 4e-18 to 2e-11 (10th to 90th percentile)
    against a local threshold of 3e-22 to 7e-19, in scaled units.  The
    loop's first row, ``beta W^T k``, sets its largest entries and the
    trailing diagonal sits about 1e-5 below them, so the coupling is
    mostly negligible normwise already: the second sweep is the local test
    keeping the small eigenvalues' relative accuracy, and the test stays.
    A 4-shift bulge that also carried the next pair's targets made more
    sweeps (5758 against 4229), and so did seeding with the most isolated
    target.
    """
    H, Q = _split(HQ)
    n = H.shape[0]
    hi = n - 1
    max_sweeps = 40 * n
    sweeps = 0
    stalled = 0
    near = list(near)
    seeded = bool(near)  # the next standard sweep takes requested shifts
    read = [()] * n if Q is None else None  # a Q-less run's eigenvalues, by row
    scratch = _step_scratch()
    # read again after each sweep: a deflation leaves the rows above it as
    # they were (a 2x2 standardized with Q turns only its own rows and
    # columns), and the next pass reads nothing at or below its top row
    diag = H.diagonal().tolist()
    sub = H.diagonal(-1).tolist()  # sub[j] is H[j + 1, j]
    while hi > 0:
        l = hi
        while l > 0:
            if abs(sub[l - 1]) <= EPS * (abs(diag[l - 1]) + abs(diag[l])):
                H[l, l - 1] = 0.0
                break
            l -= 1
        if l >= hi - 1:  # a 1x1 or 2x2 block deflates at the bottom
            if Q is not None:
                if l < hi:
                    _standardize_2x2(HQ, l)
            else:
                if l == hi:
                    read[hi] = block = (complex(diag[hi]),)
                else:
                    read[l], read[hi] = _standard_eigs(diag[l], float(H[l, hi]), sub[l], diag[hi])
                    block = read[l] + read[hi]
                for lam in block:
                    if near:  # retire the requested value nearest the deflated one
                        near.pop(_nearest(near, lam))
                seeded = bool(near)
            hi = l - 1
            stalled = 0
            continue
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"QR iteration did not converge within {max_sweeps} sweeps "
                f"(active block rows {l}..{hi})")
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
            if seeded:
                tr, det = _requested_shifts(near, tr, det, diag[hi])
                seeded = False
        _francis_step(HQ, l, hi, tr, det, scratch)
        diag = H.diagonal()[: hi + 1].tolist()
        sub = H.diagonal(-1)[:hi].tolist()
    if Q is None and hi == 0:
        read[0] = (complex(H[0, 0]),)
    return read


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
        size = 2 if i + 1 < n and sub[i] != 0.0 else 1
        try:
            if size == 2:
                lams = _unscaled(_block_eigs(diag[i], sup[i], sub[i], diag[i + 1]), shift)
            else:
                lams = (complex(math.ldexp(diag[i], shift)),)
        except OverflowError:
            raise _overflow(i) from None
        blocks.append(SchurBlock(i, size, lams))
        i += size
    return tuple(blocks)


def _unscaled(lams, shift) -> tuple:
    """The values ``lams`` times ``2**shift``; OverflowError when one
    leaves the float range."""
    if not shift:
        return lams
    return tuple(complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in lams)


def _overflow(row) -> NumericalError:
    """The error for an eigenvalue of the block at ``row`` beyond the float range."""
    return NumericalError(
        f"an eigenvalue of the diagonal block at row {row} overflows the float range")


def _scaled_request(near, H, shift) -> list:
    """The requested values that can be eigenvalues of ``2**shift H``,
    scaled as H is: a value that is not finite after the scaling, or whose
    modulus exceeds the largest column sum of H, a bound on every
    eigenvalue of H, is dropped, so no shift formed from the rest
    overflows.  The scaling runs on Python floats; ``abs`` of a complex
    value is C's ``hypot``, as numpy's is."""
    bound = float(np.abs(H).sum(axis=0).max())
    kept = []
    for z in near:
        try:
            w = complex(math.ldexp(z.real, -shift), math.ldexp(z.imag, -shift))
        except OverflowError:
            continue
        if abs(w) <= bound:
            kept.append(w)
    return kept


def _scaled_transpose(A):
    """``(B, shift)``: B a fresh row-major copy of ``A.T`` scaled by
    ``2**-shift``, the power of two that brings its largest entry into
    [0.5, 1), as ``char_poly`` scales.  No rounding changes, while the
    squares in the shifts and in ``_block_disc`` neither overflow nor
    underflow."""
    A = _as_square(A, "A")
    shift = int(np.frexp(max_abs(A))[1])
    return np.ldexp(A.T, -shift, order="C"), shift


def _hessenberg_eigenvalues(H, shift, near=()) -> Spectrum:
    """Eigenvalues of ``2**shift H`` for an upper Hessenberg float H scaled
    as ``_scaled_transpose`` scales, which the iteration overwrites: the
    one engine behind ``eigenvalues`` and the closed-loop check, run
    without Q (``_francis_upper``), so each block's eigenvalues are read
    as it deflates.

    The requested values ``near`` are scaled alike (``_scaled_request``)
    and pick the shifts of some sweeps.  The eigenvalues come in row order
    and are scaled back; one beyond the float range raises NumericalError.
    """
    if near:
        near = _scaled_request(near, H, shift)
    read = _francis_upper(H, near)
    values = []
    for row, lams in enumerate(read):
        try:
            values += _unscaled(lams, shift)
        except OverflowError:
            raise _overflow(row) from None
    return Spectrum._of(tuple(values))


def real_schur(A) -> SchurDecomposition:
    """Real Schur decomposition ``A = Q @ T @ Q.T``, T lower quasi-triangular.

    Householder reduction to Hessenberg form followed by implicit
    double-shift QR on 40 sweeps per dimension, both run on the transpose,
    scaled by a power of two (``_scaled_transpose``), and transposed and
    scaled back; an eigenvalue or an entry of T beyond the float range
    raises NumericalError.
    """
    B, shift = _scaled_transpose(A)
    Q, H = _hessenberg_upper(B)
    HQ = np.concatenate((H, Q))
    _francis_upper(HQ)
    H, Q = _split(HQ)
    blocks = _scan_blocks_upper(H, shift)
    with np.errstate(over="ignore"):
        H = np.ldexp(H, shift)
    if not np.isfinite(H).all():
        raise NumericalError("the Schur form has entries beyond the float range")
    return SchurDecomposition(Q=Q, T=H.T.copy(), blocks=blocks)


def eigenvalues(A, *, near=()) -> Spectrum:
    """Eigenvalues of a real square matrix as a self-conjugate Spectrum,
    read off the diagonal blocks of its Schur form (computed without Q):
    A is transposed and scaled (``_scaled_transpose``), reduced to
    Hessenberg form and handed to ``_hessenberg_eigenvalues``.

    ``near`` may name values the eigenvalues are expected to lie close to,
    such as the spectrum a gain was asked to place.  They only choose the
    shifts of some QR sweeps (see ``_francis_upper``); every sweep is an
    orthogonal similarity whatever its shifts, and deflation is tested as
    without them, so the result is as accurate however wrong the request,
    which then costs sweeps, not digits.  Values that cannot be
    eigenvalues (not finite, or above the 1-norm of the Hessenberg form)
    are dropped first, so a request of only such values is bitwise no
    request.  With or without ``near`` the bulge is chased two positions
    at a time and each block read as it deflates (``_francis_upper``), so
    the values agree with ``real_schur(A)``'s blocks to rounding, not
    bitwise.
    """
    near = _complexes(near, "near")
    B, shift = _scaled_transpose(A)
    _hessenberg_upper(B, want_q=False)
    return _hessenberg_eigenvalues(B, shift, near)


# ---------------------------------------------------------------------------
# reordering


def _sylvester(w, p, q, i) -> list:
    """The coupling X (p x q, as a list in column order) of the window w
    of two adjacent blocks, solving ``A11 X - X A22 = -A12``.

    The Kronecker system ``(I_q (x) A11 - A22.T (x) I_p) vec(X) =
    -vec(A12)``, 2x2 or 4x4, is written out entry by entry and solved on
    Python floats by ``_eliminate_scalars``, which refuses a pivot below
    ``p q eps max|K|``; a refusal names the rows of the swap at offset i.
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
        raise _swap_refused(i, p, q, "coupling system is singular") from exc


def _peak(values) -> float:
    """``max |v|`` over a list of Python floats, NaN when one is NaN, as
    numpy's ``np.abs(M).max()`` reads it; both are exact.  The magnitudes
    are nonnegative, so their sum is NaN only through a NaN."""
    mags = list(map(abs, values))
    return math.nan if math.isnan(sum(mags)) else max(mags)


def _swap_refused(i, p, q, why) -> BlockSwapError:
    """The refusal of the swap of blocks of sizes p then q at offset i."""
    return BlockSwapError(
        f"cannot swap blocks at rows {i}..{i + p - 1} and {i + p}..{i + p + q - 1}: {why}")


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


def _swap_adjacent_upper(SZ, i, p, q):
    """Exchange the adjacent diagonal blocks of sizes p then q at offset i
    in upper quasi-triangular S, accumulating the rotation into Z, where S
    and Z are the two halves of one buffer ``SZ = [S; Z]`` (``_split``).

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
    stay within ``max(10 eps max|D|, tiny)``.  E and the error product
    are BLAS products, since they decide refusals at rounding margins; the
    two maxima are read on Python floats (``_peak``), which is exact.  E's
    2x2 blocks are then brought to standard form on the window, and the
    one combined factor ``F = G diag(R1, R2)`` is applied to S's rows, and
    then to S's columns and Z's in one product over ``SZ[:, i:i+m]``,
    whose rows round as separate products would round them: two products,
    rows and columns, since a transform from the left cannot share one
    with a transform from the right.  Nothing is written before a refusal.
    """
    S, _ = _split(SZ)
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
            raise _swap_refused(i, p, q, "the blocks coincide")
        r = math.hypot(x, 1.0)
        F = _rotation(x / r, 1.0 / r)
    else:
        flat = _coupling_basis(_sylvester(w, p, q, i), p, q)
        G = np.array(flat).reshape(m, m)
        thresh = max(10.0 * EPS * max(map(abs, itertools.chain(*w))), TINY)
        E = G.T @ D @ G
        e = E.tolist()
        err = _peak([v for row in e[q:] for v in row[:q]])
        if err <= thresh:
            E[q:, :q] = 0.0
            err = _peak((G @ E @ G.T - D).ravel().tolist())
        if not err <= thresh:
            raise _swap_refused(i, p, q, f"the swapped form has backward error "
                                         f"{err:.3e}, above the threshold {thresh:.3e}")
        # standardize E's 2x2 blocks, which the zeroing above leaves as
        # they are: F = G diag(R1, R2), column pairs of G turned on the
        # flat list
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
    C = SZ[:, rows]
    C[...] = C @ F
    if m == 2:
        S[i, i], S[i, i + 1], S[i + 1, i], S[i + 1, i + 1] = d, c, 0.0, a
        return
    S[i + q : i + m, i : i + q] = 0.0
    for j in equal:
        S[j, j] = S[j + 1, j + 1] = _mean(float(S[j, j]), float(S[j + 1, j + 1]))


def reorder_schur(dec: SchurDecomposition, select) -> SchurDecomposition:
    """Reorder a Schur decomposition so the selected blocks come first.

    ``select`` holds indices into ``dec.blocks`` (a set, or any array-like
    of whole numbers).  It is validated here, and the reorder is then
    ``_reorder``'s, the core ``_lead`` calls on the blocks it has matched
    itself.  Selected blocks bubble to the leading positions through
    adjacent swaps, preserving their relative order; a decomposition
    already in the requested order is returned unchanged.  The swaps touch
    no row past the end of the last selected block, so only those leading
    rows are rescanned; the blocks behind them are ``dec.blocks``' own,
    whose entries keep their bits.
    """
    nblocks = len(dec.blocks)
    index = _floats(list(select) if isinstance(select, (set, frozenset)) else select, "select")
    picked = index.reshape(-1).tolist()
    if index.ndim > 1 or not all(0 <= s < nblocks and s % 1 == 0 for s in picked):
        raise ValidationError(f"select must list block indices in 0..{nblocks - 1}")
    sel = set(index.astype(np.int64).tolist())
    if len(sel) < index.size:
        raise ValidationError("select names a block twice")
    return _reorder(dec, sel)


def _reorder(dec: SchurDecomposition, sel: set) -> SchurDecomposition:
    """``reorder_schur`` on ``sel``, a set of valid indices into ``dec.blocks``.

    The upper form S (T transposed) and Z (Q) are copied into one (2n x n)
    buffer ``[S; Z]``, so each swap's factor reaches S's columns and Z's
    in one product (``_swap_adjacent_upper``), with the bits of separate
    products.  S's rows keep a product of their own: this BLAS rounds a
    product from the left by where its columns sit, so one product over
    rows and columns would move bits.  Q of the result is the buffer's
    lower half."""
    if not sel or sel == set(range(len(sel))):
        return dec
    SZ = np.concatenate((dec.T.T, dec.Q))
    seq = [[blk.size, idx in sel] for idx, blk in enumerate(dec.blocks)]
    lead = 0  # rows of the selected blocks already in front
    for target in range(len(sel)):
        j, off = target, lead  # off: the row where block j starts
        while not seq[j][1]:
            off += seq[j][0]
            j += 1
        for jj in range(j, target, -1):
            off -= seq[jj - 1][0]
            _swap_adjacent_upper(SZ, off, seq[jj - 1][0], seq[jj][0])
            seq[jj - 1], seq[jj] = seq[jj], seq[jj - 1]
        lead += seq[target][0]
    last = max(sel)
    end = dec.blocks[last].start + dec.blocks[last].size
    S, Z = _split(SZ)
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


def _clusters(values, owners, tol) -> list[int]:
    """The one rule for values too close to tell apart: for each owner
    0..m-1 (``owners[i]``, ascending, owns ``values[i]``), the least owner
    linked to it by a chain of values within ``tol``, swept by real part."""
    label = list(range(owners[-1] + 1))
    swept = sorted(zip(values, owners), key=lambda v: v[0].real)
    for i, (z, g) in enumerate(swept):
        for w, h in swept[i + 1 :]:
            if w.real - z.real > tol:
                break
            if label[g] != label[h] and abs(w - z) <= tol:
                first, later = sorted((label[g], label[h]))
                label = [first if o == later else o for o in label]
    return label


def _request_clusters(targets, tol) -> dict:
    """The cluster label of each distinct requested value, in order of
    first appearance: distinct values within ``2 tol`` of each other share
    one (``_clusters``)."""
    distinct = dict.fromkeys(targets)
    return dict(zip(distinct, _clusters(distinct, range(len(distinct)), 2 * tol)))


def _match_values(targets, candidates, tol) -> set[int]:
    """The set of indices of the candidates that ``targets`` name.

    Distinct requested values within ``2 tol`` of each other form one
    cluster (``_request_clusters``), which takes every candidate within
    ``tol`` of one of its members, so no candidate falls to two.  A
    cluster taking more than its multiplicity among the targets raises
    AmbiguousMatchError; one taking fewer, MatchingError naming its first
    target left without.
    """
    label = _request_clusters(targets, tol)
    found = {}  # per cluster; one distance pass per distinct target
    for t in label:
        found.setdefault(label[t], set()).update(
            [ci for ci, c in enumerate(candidates) if abs(c - t) <= tol])
    left, short = {lab: len(close) for lab, close in found.items()}, None
    for t in targets:  # each takes one of its cluster's candidates
        left[label[t]] -= 1
        if left[label[t]] < 0 and short is None:
            short = t
    for lab, extra in left.items():
        if extra > 0:
            names = " or ".join(str(t) for t in label if label[t] == lab)
            raise AmbiguousMatchError(
                f"{len(found[lab])} computed eigenvalues lie within {tol:.3e} of {names}, "
                f"which appears {len(found[lab]) - extra} time(s) in the request; "
                "the selection is ambiguous"
            )
    if short is not None:
        near = sorted(candidates, key=lambda c: abs(c - short))[:3]
        raise MatchingError(
            f"no computed eigenvalue within {tol:.3e} of {short}; "
            f"nearest candidates: {near}"
        )
    return set().union(*found.values())


def _select_blocks(dec: SchurDecomposition, moved: Spectrum, tol) -> set[int]:
    """The set of indices of the blocks of ``dec`` that carry ``moved``.

    Each requested value is matched against the blocks' eigenvalues within
    ``tol`` (``_match_values``).
    Selecting one half of a complex pair is rejected, since no real
    invariant subspace separates it from its conjugate.
    """
    values = [z for blk in dec.blocks for z in blk.eigenvalues]
    owner = [bi for bi, blk in enumerate(dec.blocks) for _ in blk.eigenvalues]
    matched = _match_values(list(moved), values, tol)
    chosen = {owner[ci] for ci in matched}
    for ci, z in enumerate(values):
        if owner[ci] in chosen and ci not in matched:
            raise ValidationError(
                f"selection splits the conjugate pair {dec.blocks[owner[ci]].eigenvalues}; "
                f"also move {z} or drop the pair"
            )
    return chosen


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


def _lead(dec: SchurDecomposition, moved: Spectrum, tol):
    """Reorder ``dec`` so the blocks carrying ``moved`` (``_select_blocks``
    within ``tol``) come first.
    Returns the new form and contiguous copies of its ``Q[:, :r]`` and
    ``T[:r, :r]``, r = len(moved)."""
    dec = _reorder(dec, _select_blocks(dec, moved, tol))
    r = len(moved)
    return dec, dec.Q[:, :r].copy(), dec.T[:r, :r].copy()


def invariant_split(A, moved) -> InvariantSplit:
    """Split state space along the invariant subspace of chosen eigenvalues.

    ``moved`` names eigenvalues of A (matched against the computed
    spectrum within ``_match_tol(A)``, relative to max|A|; see
    ``_select_blocks``).
    The underlying Schur form is reordered so those eigenvalues lead, and
    the orthonormal basis is cut after them (``_lead``).
    """
    A = _as_square(A, "A")
    moved = _as_spectrum(moved)
    n = A.shape[0]
    if not 1 <= len(moved) <= n:
        raise ValidationError(f"moved set has {len(moved)} values, expected 1..{n}")
    re, U, X = _lead(real_schur(A), moved, _match_tol(A))
    r = len(moved)
    lead = [z for blk in re.blocks if blk.start < r for z in blk.eigenvalues]
    rest = [z for blk in re.blocks if blk.start >= r for z in blk.eigenvalues]
    return InvariantSplit(
        U=U,
        V=re.Q[:, r:].copy(),
        X=X,
        Y=re.T[r:, r:].copy(),
        moved=Spectrum(lead),
        kept=Spectrum(rest),
    )
