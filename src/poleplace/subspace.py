"""Partial and sequential pole placement through invariant subspaces.

Instead of inverting the full controllability matrix, these methods
reorder a Schur form so the eigenvalues being moved lead, compress the
dynamics onto that subspace, and solve a placement problem of only that
size.  Eigenvalues outside the subspace provably stay put, and the only
inversions are as large as the largest group being moved.

The open-loop Schur form is taken once per system and kept on the
``StateSpace``: ``paired_plan`` and ``plan_targets`` read its block values,
which are bitwise ``eigenvalues(A)``, and ``place_sequential`` (so
``place_partial`` too) carries it through every step.  A step's reorder
and feedback rescan only the rows they changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvariantEigenvalueError,
    PolePlacementError,
    RankDeficiencyError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    EPS,
    _eliminate_scalars,
    _feed_leading,
    _kappa_2x2,
    _match_tol,
    _match_values,
    _select_blocks,
    condition_number,
    invariant_split,
    krylov,
    reorder_schur,
    solve_linear,
)
from .placement import Gain, StateSpace
from .poly import Spectrum, _as_spectrum, eval_matrix, monic_from_roots
from .verify import assemble_diagnostics


@dataclass(frozen=True)
class AssignmentPlan:
    """Ordered groups of (move, to) spectra processed one feedback at a time."""

    groups: tuple[tuple[Spectrum, Spectrum], ...]

    def __post_init__(self):
        groups = []
        for gi, pair in enumerate(self.groups):
            move, to = pair
            move = _as_spectrum(move)
            to = _as_spectrum(to)
            if len(move) == 0:
                raise ValidationError(f"group {gi + 1} is empty")
            if len(move) != len(to):
                raise ValidationError(
                    f"group {gi + 1} moves {len(move)} eigenvalues "
                    f"to {len(to)} values"
                )
            groups.append((move, to))
        object.__setattr__(self, "groups", tuple(groups))


@dataclass(frozen=True)
class StepRecord:
    """What one sequential step did: the subspace it worked in, the small
    solve it ran, and the spectrum it left behind, read off the carried
    Schur form.

    ``kappa`` is the condition number of the step's r x r Krylov matrix.
    It is exactly 1.0 for every one-value group, whatever the step's gain,
    so it cannot flag a step whose gain explodes.
    """

    step: int
    basis: np.ndarray
    compression: np.ndarray
    selector: np.ndarray
    gain: np.ndarray
    kappa: float
    spectrum_after: Spectrum


def _gain_on_split(b, U, X, to: Spectrum):
    """Gain placing the spectrum of the compression X at ``to``.

    Solves the r-dimensional analogue of the polynomial-in-A formula on
    the compression X, then lifts the row back through the left-invariant
    basis U.  Returns the gain, its row g in the basis (``k = U @ g``), the
    selector row, and the condition of the small controllability matrix.
    Groups of one or two values, all a paired plan makes, take
    ``_small_step`` on Python floats.
    """
    r = X.shape[0]
    bu = U.T @ b
    if r <= 2:
        h, eta, kappa = _small_step(bu.tolist(), X.tolist(), to)
        h, eta = np.array(h), np.array(eta)
    else:
        CX = krylov(X, bu, r)
        e_r = np.zeros(r)
        e_r[r - 1] = 1.0
        try:
            eta = solve_linear(CX.T, e_r)
        except SingularMatrixError as exc:
            raise _rank_error(exc, r) from exc
        h = eval_matrix(monic_from_roots(to), X).T @ eta
        kappa = condition_number(CX)
    return -(U @ h), -h, eta, kappa


def _rank_error(exc, r):
    return RankDeficiencyError(
        f"controllability restricted to the moved subspace has rank "
        f"{exc.column} < {r}; these eigenvalues cannot be assigned together"
    )


def _small_step(u, x, to: Spectrum):
    """``_gain_on_split``'s h, eta and kappa for r = 1 or 2, on Python
    floats: u is ``U.T @ b`` and x the compression, as lists.

    The Krylov matrix ``[u, X u]`` is solved for eta by
    ``_eliminate_scalars`` with ``solve_linear``'s pivot threshold, and
    ``h = p(X).T @ eta`` takes p(X) by Horner's rule from the
    coefficients ``monic_from_roots(to)`` has, bitwise.  A nonzero scalar,
    which the solve just accepted, has condition 1; two columns take the
    R of a plane rotation and LAPACK's dlas2 closed form
    (``_kappa_2x2``).
    """
    t = list(to)
    if len(u) == 1:
        (u0,), ((x00,),) = u, x
        try:
            (eta0,) = _eliminate_scalars([[u0]], [1.0], EPS * abs(u0))
        except SingularMatrixError as exc:
            raise _rank_error(exc, 1) from exc
        return [(x00 + -t[0].real) * eta0], [eta0], 1.0
    (u0, u1), ((x00, x01), (x10, x11)) = u, x
    v0 = x00 * u0 + x01 * u1
    v1 = x10 * u0 + x11 * u1
    limit = 2 * EPS * max(abs(u0), abs(u1), abs(v0), abs(v1))
    try:
        eta0, eta1 = _eliminate_scalars([[u0, u1], [v0, v1]], [0.0, 1.0], limit)
    except SingularMatrixError as exc:
        raise _rank_error(exc, 2) from exc
    z = max(t, key=lambda w: w.imag)
    if z.imag > 0.0:  # a conjugate pair: the factor (|z|^2, -2 Re z, 1)
        c0, c1 = z.real * z.real + z.imag * z.imag, -2.0 * z.real
    else:  # two reals: the product of (-t0, 1) and (-t1, 1)
        c0, c1 = (-t[0].real) * (-t[1].real), -t[0].real + -t[1].real
    # Horner: p(X) = (X + c1 I) X + c0 I
    p00, p11 = x00 + c1, x11 + c1
    q00 = p00 * x00 + x01 * x10 + c0
    q01 = p00 * x01 + x01 * x11
    q10 = x10 * x00 + p11 * x10
    q11 = x10 * x01 + p11 * x11 + c0
    h = [q00 * eta0 + q10 * eta1, q01 * eta0 + q11 * eta1]
    # R = [[r00, r01], [0, r11]] of the Krylov matrix, by a plane rotation
    r00 = math.hypot(u0, u1)
    cs, sn = u0 / r00, u1 / r00
    r01, r11 = cs * v0 + sn * v1, cs * v1 - sn * v0
    if min(r00, abs(r11)) < 2 * EPS * max(r00, abs(r01), abs(r11)):
        kappa = math.inf  # condition_number's rank test
    else:
        kappa = _kappa_2x2(r00, r01, r11)
    return h, [eta0, eta1], kappa


def place_partial(sys: StateSpace, move, to) -> Gain:
    """Move a chosen part of the spectrum, leaving the rest untouched.

    ``move`` names eigenvalues of A and ``to`` their replacements, both
    self-conjugate and of equal size.  This is a one-group sequential
    run: the kept eigenvalues are protected structurally, by working
    entirely inside the reordered invariant subspace, not by cancellation.
    The diagnostics score the gain against ``plan_targets`` of that group.
    """
    move = _as_spectrum(move)
    if len(move) > sys.n:
        raise ValidationError(f"moved set has {len(move)} values, expected 1..{sys.n}")
    gain, _ = place_sequential(sys, AssignmentPlan(((move, to),)))
    return replace(gain, method="partial")


def place_simon_mitter(sys: StateSpace, mu1, lam1) -> Gain:
    """Shift one real eigenvalue by a rank-one update along its left
    eigenvector.

    ``k = (lam1 - mu1) * omega`` with omega the left eigenvector of
    ``mu1`` scaled to ``omega^T b = 1``.  Requesting ``lam1 == mu1``
    returns an exactly zero gain, since the difference multiplies
    everything else out.
    """
    mu1 = complex(mu1)
    lam1 = complex(lam1)
    if mu1.imag != 0.0 or lam1.imag != 0.0:
        raise ValidationError("the single-shift method moves a real eigenvalue "
                              "to a real target")
    mu1, lam1 = mu1.real, lam1.real
    split = invariant_split(sys.A, [mu1])
    u = split.U[:, 0]
    s = float(u @ sys.b)
    scale = float(np.linalg.norm(u) * np.linalg.norm(sys.b))
    if abs(s) <= 1e-9 * scale:
        raise InvariantEigenvalueError(
            f"left eigenvector for {mu1} is orthogonal to b "
            f"(omega^T b = {s:.3e}); the eigenvalue cannot be moved"
        )
    omega = u / s
    k = (lam1 - mu1) * omega
    full = Spectrum((lam1,) + tuple(split.kept))
    # past the gate s is nonzero, and a nonzero 1x1 has condition 1
    return Gain(
        k=k,
        method="simon_mitter",
        diagnostics=assemble_diagnostics(sys, k, full, step_kappas=(1.0,)),
    )


def plan_targets(sys: StateSpace, plan: AssignmentPlan) -> Spectrum:
    """Expected final spectrum after running a plan on a system.

    Plays the plan through at the value level: each group's ``move`` set
    is matched against the running spectrum (starting from the computed
    eigenvalues of A) and replaced by its ``to`` set.  Later groups may
    re-move values placed by earlier ones.
    """
    return _play_plan(list(Spectrum(_open_loop_values(sys))), plan, _match_tol(sys.A))


def _open_loop_values(sys: StateSpace) -> list[complex]:
    """The block values of the system's stored Schur form, in block order;
    as a Spectrum they are bitwise ``eigenvalues(sys.A)``."""
    return [z for blk in sys._open_loop_schur().blocks for z in blk.eigenvalues]


def _play_plan(current, plan: AssignmentPlan, tol) -> Spectrum:
    """Play ``plan`` on the value list ``current``; see ``plan_targets``.
    ``plan_targets`` and ``place_sequential`` both play it on the block
    values of the system's stored Schur form, so they agree bitwise."""
    for move, to in plan.groups:
        matched = _match_values(list(move), current, tol)
        current = [z for i, z in enumerate(current) if i not in set(matched)]
        current.extend(to)
    return Spectrum(current)


def paired_plan(sys: StateSpace, targets) -> AssignmentPlan:
    """Group the open-loop spectrum and the targets into steps of size at
    most two.

    Conjugate pairs move together.  Pairs match target pairs by descending
    modulus and reals match target reals the same way; when the counts
    differ, a leftover pair takes the two largest real targets, or two
    leftover reals take a target pair.  Parity makes the counts work out.
    """
    targets = _as_spectrum(targets)
    if len(targets) != sys.n:
        raise ValidationError(
            f"{len(targets)} targets for a system of dimension {sys.n}"
        )

    def buckets(values):
        reals = sorted((z.real for z in values if z.imag == 0.0),
                       key=abs, reverse=True)
        pairs = sorted((z for z in values if z.imag > 0.0),
                       key=abs, reverse=True)
        return reals, pairs

    o_reals, o_pairs = buckets(Spectrum(_open_loop_values(sys)))
    t_reals, t_pairs = buckets(targets)
    groups = []
    common = min(len(o_pairs), len(t_pairs))
    for z, w in zip(o_pairs[:common], t_pairs[:common]):
        groups.append(((z, z.conjugate()), (w, w.conjugate())))
    for z in o_pairs[common:]:
        groups.append(((z, z.conjugate()), (t_reals.pop(0), t_reals.pop(0))))
    for w in t_pairs[common:]:
        groups.append(((o_reals.pop(0), o_reals.pop(0)), (w, w.conjugate())))
    for z, w in zip(o_reals, t_reals):
        groups.append(((z,), (w,)))
    return AssignmentPlan(tuple(groups))


def place_sequential(sys: StateSpace, plan: AssignmentPlan) -> tuple[Gain, list[StepRecord]]:
    """Run an assignment plan one group at a time, accumulating the gain.

    The system's stored Schur form of A (taken once per system, shared
    with ``paired_plan`` and ``plan_targets``) is carried through every
    step: a step reorders its group's blocks to the front, places them
    with a row confined to those leading coordinates and folds the
    feedback into the form, leaving every other eigenvalue bitwise
    unchanged.  The input direction never changes, so the step rows sum
    into a single equivalent gain.  A failing step raises with ``step``
    and ``records`` attached for everything completed before it.
    """
    if not isinstance(plan, AssignmentPlan):
        plan = AssignmentPlan(tuple(plan))
    if not plan.groups:
        raise ValidationError("plan has no groups")
    dec = sys._open_loop_schur()
    tol = _match_tol(sys.A)
    expected = _play_plan(_open_loop_values(sys), plan, tol)
    k_total = np.zeros(sys.n)
    records: list[StepRecord] = []
    for step, (move, to) in enumerate(plan.groups, start=1):
        r = len(move)
        try:
            dec = reorder_schur(dec, _select_blocks(dec, move, tol))
            U = dec.Q[:, :r].copy()
            X = dec.T[:r, :r].copy()
            k_step, g, eta, kappa = _gain_on_split(sys.b, U, X, to)
            dec = _feed_leading(dec, sys.b, g)
        except PolePlacementError as exc:
            exc.step = step
            exc.records = tuple(records)
            raise
        after = Spectrum([z for blk in dec.blocks for z in blk.eigenvalues])
        k_total = k_total + k_step
        records.append(
            StepRecord(
                step=step,
                basis=U,
                compression=X,
                selector=eta,
                gain=k_step,
                kappa=kappa,
                spectrum_after=after,
            )
        )
    diag = assemble_diagnostics(
        sys, k_total, expected, step_kappas=tuple(rec.kappa for rec in records)
    )
    return Gain(k=k_total, method="sequential", diagnostics=diag), records
