"""Exception hierarchy shared by every module in the package, and the one
way caller data becomes numbers (the helpers at the end).

Three categories matter to callers: bad input (ValidationError), a
computation that broke down numerically (NumericalError and subclasses),
and an iteration that ran out of sweeps (ConvergenceError).  The command
line tool maps each category to a fixed process exit code.
"""

from __future__ import annotations

import numpy as np


class PolePlacementError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PolePlacementError):
    """Malformed or inconsistent input.  Exit code 2 on the command line."""

    exit_code = 2


class NumericalError(PolePlacementError):
    """A computation that is well posed in exact arithmetic broke down in
    floating point.  Exit code 3 on the command line."""

    exit_code = 3


class SingularMatrixError(NumericalError):
    """Linear solve hit a pivot below the singularity threshold.

    ``column`` is the elimination column where the pivot search failed,
    a lower bound on the rank of the matrix, not an estimate of it.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class UncontrollableError(NumericalError):
    """The controllability matrix is singular to working precision.  The
    message's rank estimate is the dimension of the controllable subspace
    as the system's controller-Hessenberg form shows it, followed by the
    uncontrollable modes; when that form shows all states controllable,
    the message says the pair is too badly scaled for the Krylov route and
    names the failed elimination column."""


class MatchingError(NumericalError):
    """A requested eigenvalue has no computed counterpart within tolerance."""


class AmbiguousMatchError(MatchingError):
    """More computed eigenvalues fall inside the matching tolerance of a
    requested value than its multiplicity allows."""


class RankDeficiencyError(NumericalError):
    """The controllability structure restricted to a subspace lost rank."""


class BlockSwapError(NumericalError):
    """An adjacent block swap during reordering was refused: the blocks
    coincide, or the swap would not be backward stable."""


class InvariantEigenvalueError(NumericalError):
    """The selected left eigenvector is orthogonal to the input direction,
    so feedback through it cannot move the eigenvalue."""


class ConvergenceError(PolePlacementError):
    """The shifted QR iteration exceeded its sweep budget.  Exit code 4.

    The message names the budget, 40 sweeps per dimension, and the rows
    of the active diagonal block that had not converged.
    ``condition_number`` runs no Schur iteration and never raises it.
    """

    exit_code = 4


# Every public entry point converts caller data through these, so all of
# them accept and refuse the same things.
def _floats(x, name) -> np.ndarray:
    """x as a float64 array, as numpy converts it, and not copied when it is
    one.  Text, None, ragged nesting, integers beyond the float range and
    complex values, even with zero imaginary parts, raise ValidationError."""
    try:
        a = np.asarray(x)
        if a.dtype.kind in "biuf" or a.dtype.kind == "O" and not any(
                isinstance(v, (str, bytes)) for v in a.flat):
            return a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must hold real numbers")


def _finite(a, name) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} must have finite entries")
    return a


def _as_square(A, name) -> np.ndarray:
    """A as a nonempty, square, finite float64 matrix."""
    A = _floats(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValidationError(f"{name} must be square and nonempty, got shape {A.shape}")
    return _finite(A, name)


def _as_vector(x, n, name) -> np.ndarray:
    """x as a finite float64 vector of shape ``(n,)``."""
    x = _floats(x, name)
    if x.shape != (n,):
        raise ValidationError(f"{name} has shape {x.shape}, expected ({n},)")
    return _finite(x, name)


def _as_real(x, name) -> float:
    """x, one real number, as a finite Python float."""
    x = _floats(x, name)
    if x.ndim:
        raise ValidationError(f"{name} must be a single number, got shape {x.shape}")
    return float(_finite(x, name))


def _complexes(values, name) -> tuple:
    """values, numbers and not text, as a tuple of Python complex values;
    whether they must be finite is the caller's rule."""
    try:
        values = tuple(values)
        if not any(issubclass(kind, (str, bytes)) for kind in set(map(type, values))):
            return tuple(map(complex, values))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be a sequence of numbers")
