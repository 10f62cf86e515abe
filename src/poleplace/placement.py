"""Full-state pole placement for single-input systems.

The full-spectrum methods here are one formula, the generalization of
the Bass-Gura and Ackermann formulae.  The targets split into a pulled
part, applied as a matrix factor ``prod(A - lam I)``, and the rest, kept
as a polynomial whose coefficients are reduced modulo the open-loop
characteristic polynomial and mapped back through the controllability
matrices.  Bass-Gura pulls nothing and Ackermann pulls everything;
``place_general`` takes any self-conjugate pulled set between those two
endpoints, which gives the same gain with different rounding.  Each
gain's closed-loop check is ``verify``'s (``assemble_diagnostics``).

Feedback convention: ``u = k @ x``, closed loop ``A + b k^T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvariantEigenvalueError,
    NumericalError,
    SingularMatrixError,
    UncontrollableError,
    ValidationError,
)
from .errors import _as_real, _as_square, _as_vector, _floats
from .linalg import (
    EPS,
    ControllerHessenberg,
    SchurDecomposition,
    _controller_hessenberg,
    _factor,
    _substitute,
    condition_number,
    krylov,
    max_abs,
    real_schur,
)
from .poly import (
    OpenLoopRecord,
    _as_spectrum,
    eval_matrix,
    monic_from_roots,
    open_loop_record,
)
from .verify import Diagnostics, _full_spectrum, assemble_diagnostics


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Single-input system ``x' = A x + b u``.

    A and b are read-only copies of the inputs, b flattened (so b of shape
    (n,), (n, 1) or (1, n) is one vector).  Two systems are equal, and
    hash alike, when their A and b are equal entry by entry (so -0.0
    equals 0.0).  The system also keeps its open-loop record: the real
    Schur form of A, the controller-Hessenberg form of ``(A, b)``
    (``ControllerHessenberg``), the polynomial record (one run of the trace
    recurrence on ``(A, b)``: ``char_poly(A)`` and what the closed-loop
    polynomial of any gain needs, ``OpenLoopRecord``), the controllability
    matrix C with the row-pivoted factors of ``C^T``, the canonical pair's
    ``C_c`` and the condition number of C.  Each is a
    ``functools.cached_property``: computed on first use and kept in the
    instance ``__dict__``, outside the system's repr, equality and hash,
    with its arrays read-only.  So every placement method, the diagnostics
    and the CLI's gate on one system share one computation of each; no
    gain factors C, and no closed loop runs the trace recurrence or a
    Hessenberg reduction again.  A refused C stores no factors: each read
    raises anew.  Every full-spectrum gain reads C_c and the factors
    through one map, ``_row``'s.  The closed-loop check that reads the
    record is ``verify``'s.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _as_square(self.A, "A").copy()
        b = _as_vector(_floats(self.b, "b").reshape(-1), A.shape[0], "b").copy()
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        return np.array_equal(self.A, other.A) and np.array_equal(self.b, other.b)

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash(((self.A + 0.0).tobytes(), (self.b + 0.0).tobytes()))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _schur(self) -> SchurDecomposition:
        """``real_schur(A)``, the one Schur form every subspace method reads."""
        dec = real_schur(self.A)
        dec.Q.flags.writeable = False
        dec.T.flags.writeable = False
        return dec

    @cached_property
    def _hessenberg(self) -> ControllerHessenberg:
        """The controller-Hessenberg form of ``(A, b)``, in which the closed
        loop of every gain is Hessenberg without a reduction of its own."""
        form = _controller_hessenberg(self.A, self.b)
        for arr in (form.H, form.V, form.T):
            arr.flags.writeable = False
        return form

    @cached_property
    def _polynomial(self) -> OpenLoopRecord:
        """``open_loop_record(A, b)``; its ``p`` is bitwise ``char_poly(A)``
        and its ``closed_loop(k)`` is the polynomial of ``A + b k^T``."""
        return open_loop_record(self.A, self.b)

    @cached_property
    def _controllability(self) -> np.ndarray:
        """``krylov(A, b)``, the controllability matrix C."""
        C = krylov(self.A, self.b)
        C.flags.writeable = False
        return C

    @cached_property
    def _factored(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors and pivot order ``solve_linear(C.T, .)`` computes; a
        C singular to working precision raises UncontrollableError.  Its
        rank is read off the controller-Hessenberg form (Paige, IEEE TAC
        26(1), 1981): the index of the first of ``|beta|, |H[1, 0]|, ...``
        at or below ``sqrt(eps) max|H|``, which covers the reduction's own
        rounding; with none, the message says the pair is controllable and
        names the failed column instead."""
        C = self._controllability
        LU = C.T.copy()
        try:
            perm = np.array(_factor(LU, self.n * EPS * max_abs(C)))
        except SingularMatrixError as exc:
            form = self._hessenberg
            lead = np.abs(np.append(form.beta, np.diagonal(form.H, -1)))
            small = np.flatnonzero(lead <= EPS ** 0.5 * max_abs(form.H))
            if small.size:
                raise UncontrollableError(
                    "controllability matrix is singular to working precision; "
                    f"rank estimate {small[0]} < {self.n}") from None
            raise UncontrollableError(
                f"controllability matrix fails its pivot test at column {exc.column} of "
                f"{self.n}, yet the controller-Hessenberg form shows all {self.n} states "
                "controllable: the pair is too badly scaled for the Krylov route") from None
        LU.flags.writeable = perm.flags.writeable = False
        return LU, perm

    @cached_property
    def _canonical(self) -> np.ndarray:
        """``C_c``; ``controller_canonical`` says how it is built."""
        n = self.n
        A_c = np.eye(n, k=1)
        A_c[n - 1] = -self._polynomial.p.coeffs[:n]
        C_c = krylov(A_c, np.eye(n)[n - 1])
        C_c.flags.writeable = False
        return C_c

    @cached_property
    def _kappa(self) -> float:
        """``condition_number`` of C itself, not of the similarity
        ``C inv(C_c)``: the one conditioning figure the diagnostics of
        every method report, whether or not the method reads C_c."""
        return condition_number(self._controllability)


@dataclass(frozen=True)
class Gain:
    """A computed feedback row with its provenance and diagnostics."""

    k: np.ndarray
    method: str
    diagnostics: Diagnostics


def controller_canonical(sys: StateSpace) -> np.ndarray:
    """``C_c``, the controllability matrix of the controller canonical
    pair ``(A_c, e_n)``: ``A_c`` carries ones on the superdiagonal and the
    negated coefficients of ``sys._polynomial.p`` in its last row.

    The similarity onto the pair is ``T = C @ inv(C_c)``; the placement
    formula needs only ``C_c``.  It is built once per system and stored
    on it, so every call on one system returns the same read-only array.
    """
    return sys._canonical


def place_eigenpair(sys: StateSpace, omega, lam1: float) -> Gain:
    """Move one real eigenvalue using its left eigenvector.

    ``omega`` is a left eigenvector of A for a real eigenvalue; the gain
    ``k^T = omega^T (lam1 I - A) / (omega^T b)`` moves that eigenvalue to
    ``lam1`` and provably leaves every other eigenvalue fixed.  An omega
    orthogonal to b means feedback cannot reach the mode at all.
    """
    omega = _as_vector(omega, sys.n, "omega")
    lam1 = _as_real(lam1, "lam1")
    with np.errstate(over="ignore", invalid="ignore"):
        w = _selector(sys.b, omega)
        k = lam1 * w - w @ sys.A
    return _gain(sys, k, "eigenpair")


def _selector(b, omega) -> np.ndarray:
    """``omega / (omega^T b)``: the rank-one selector of the eigenpair
    formula, and the gate of every one-value step.  An omega whose
    ``omega^T b`` is negligible against ``|omega||b|`` names a mode that
    feedback through b cannot move, and raises InvariantEigenvalueError.

    Gate and quotient are taken on omega and b each scaled by the power
    of two that brings its largest entry into [0.5, 1), so no product or
    norm overflows whatever their size, and the selector is bitwise
    ``omega / (omega^T b)`` wherever that neither overflows nor
    underflows."""
    ew, eb = (int(np.frexp(max_abs(v))[1]) for v in (omega, b))
    w, c = np.ldexp(omega, -ew), np.ldexp(b, -eb)
    s = float(w @ c)
    scale = float(np.linalg.norm(w) * np.linalg.norm(c))
    if abs(s) <= 1e-9 * scale:
        with np.errstate(over="ignore"):
            s, scale = np.ldexp([s, scale], ew + eb).tolist()
        raise InvariantEigenvalueError(
            f"omega^T b = {s:.3e} is negligible against |omega||b| = {scale:.3e}; "
            "this eigenvalue is invariant under feedback through b"
        )
    return np.ldexp(w / s, -eb)


def _gain(sys: StateSpace, k, method: str, targets=None, step_kappas=()) -> Gain:
    """The computed row k as a Gain, with ``assemble_diagnostics`` against
    ``targets``; a k beyond the float range raises NumericalError."""
    if not np.isfinite(k).all():
        raise NumericalError("the gain has entries beyond the float range")
    return Gain(k, method, assemble_diagnostics(sys, k, targets, step_kappas))


def _place(sys: StateSpace, targets, pulled, method: str) -> Gain:
    """``_row`` with its diagnostics."""
    targets = _as_spectrum(targets)
    return _gain(sys, _row(sys, targets, pulled), method, targets)


def _row(sys: StateSpace, targets, pulled) -> np.ndarray:
    """The generalized formula ``k^T = gamma^T C_c C^{-1} M``, one step
    after another: gamma, its map ``omega = C^{-T} C_c^T gamma``, then M.

    ``M`` is the product ``prod(A - lam I)`` over the pulled roots and
    ``gamma`` holds the coefficients of ``p - f`` reduced modulo the
    open-loop characteristic polynomial ``p``, where ``f`` is the monic
    product of the targets left at the coefficient level: ``p - f``
    itself when nothing is pulled and ``-f`` otherwise (``-e_1`` when
    everything is).  An uncontrollable pair raises UncontrollableError;
    overflow leaves inf or nan in k.
    """
    targets, pulled = _full_spectrum(sys, targets), _as_spectrum(pulled)
    n = sys.n
    # the targets themselves when nothing is pulled, so the monic
    # polynomial stored on them serves the residual too
    try:
        rest = targets.minus(pulled) if len(pulled) else targets
    except ValidationError:
        raise ValidationError("pulled values must be a sub-multiset of the targets") from None
    # C_c before the targets' polynomial: building it reads the open-loop
    # record, and their refusals of an out-of-range A come first
    C_c = controller_canonical(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        f = monic_from_roots(rest).coeffs
        if f.size > n:
            # degree n: one copy of p cancels the leading 1 exactly
            f = (f - sys._polynomial.p.coeffs)[:n]
        gamma = np.zeros(n)
        # 0.0 - x, not -x: exact zeros stay positive, as in p - f
        gamma[: f.size] = 0.0 - f
        rhs = C_c.T @ gamma
        k = _substitute(*sys._factored, rhs)
        if len(pulled) > 0:
            k = eval_matrix(monic_from_roots(pulled), sys.A).T @ k
    return k


def place_bass_gura(sys: StateSpace, targets) -> Gain:
    """Assign the full spectrum via the coefficient difference vector:
    the generalized formula with nothing pulled."""
    return _place(sys, targets, (), "bass_gura")


def place_ackermann(sys: StateSpace, targets) -> Gain:
    """Assign the full spectrum via the desired polynomial in A,
    ``k^T = -e_n^T C^{-1} p(A)``: the generalized formula with every
    target pulled."""
    return _place(sys, targets, targets, "ackermann")


def place_general(sys: StateSpace, targets, pulled) -> Gain:
    """Assign the full spectrum with part of it pulled into matrix factors.

    ``pulled`` is a self-conjugate sub-multiset of the targets.  Those
    roots are applied as the matrix product ``prod(A - lam I)`` while the
    remaining factor stays at the coefficient level.  Pulling nothing is
    Bass-Gura and pulling everything is Ackermann; anything between
    trades one kind of rounding for the other.
    """
    return _place(sys, targets, pulled, "general")
