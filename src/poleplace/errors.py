"""Exception hierarchy shared by every module in the package.

Three categories matter to callers: bad input (ValidationError), a
computation that broke down numerically (NumericalError and subclasses),
and an iteration that ran out of sweeps (ConvergenceError).  The command
line tool maps each category to a fixed process exit code.
"""

from __future__ import annotations


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
    as the system's controller-Hessenberg form shows it."""


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

    ``partial_q`` and ``partial_t`` hold the orthogonal accumulation and
    the partially reduced matrix at the point of failure.  ``partial_q`` is
    None when raised from ``eigenvalues``, which does not accumulate the
    orthogonal factor; there ``partial_t`` is current only on the active
    diagonal block named in the message, because those sweeps leave the
    rows above it and the columns beside it as they were.
    ``condition_number`` runs no Schur iteration and never raises it.
    """

    exit_code = 4

    def __init__(self, message, partial_q=None, partial_t=None):
        super().__init__(message)
        self.partial_q = partial_q
        self.partial_t = partial_t
