"""Single-input state-feedback pole placement.

Feedback convention throughout: ``u = k @ x`` enters additively, so the
closed loop is ``A + b k^T``.  Gains computed by every method here are row
vectors stored as 1-D arrays under that convention.
"""

from .errors import (
    AmbiguousMatchError,
    BlockSwapError,
    ConvergenceError,
    InvariantEigenvalueError,
    MatchingError,
    NumericalError,
    PolePlacementError,
    RankDeficiencyError,
    SingularMatrixError,
    UncontrollableError,
    ValidationError,
)
from .linalg import (
    SchurDecomposition,
    eigenvalues,
    invariant_split,
    real_schur,
    reorder_schur,
)
from .placement import (
    Gain,
    StateSpace,
    controllability_matrix,
    controller_canonical,
    place_ackermann,
    place_bass_gura,
    place_eigenpair,
    place_general,
)
from .poly import Polynomial, Spectrum, char_poly, monic_from_roots
from .subspace import (
    AssignmentPlan,
    paired_plan,
    place_partial,
    place_sequential,
    place_simon_mitter,
)
from .verify import (
    charpoly_residual,
    spectrum_distance,
)

__all__ = [
    "AmbiguousMatchError",
    "AssignmentPlan",
    "BlockSwapError",
    "ConvergenceError",
    "Gain",
    "InvariantEigenvalueError",
    "MatchingError",
    "NumericalError",
    "PolePlacementError",
    "Polynomial",
    "RankDeficiencyError",
    "SchurDecomposition",
    "SingularMatrixError",
    "Spectrum",
    "StateSpace",
    "UncontrollableError",
    "ValidationError",
    "char_poly",
    "charpoly_residual",
    "controllability_matrix",
    "controller_canonical",
    "eigenvalues",
    "invariant_split",
    "monic_from_roots",
    "paired_plan",
    "place_ackermann",
    "place_bass_gura",
    "place_eigenpair",
    "place_general",
    "place_partial",
    "place_sequential",
    "place_simon_mitter",
    "real_schur",
    "reorder_schur",
    "spectrum_distance",
]
