"""Partial and sequential pole placement through invariant subspaces.

Instead of inverting the full controllability matrix, these methods
reorder a Schur form so the eigenvalues being moved lead, compress the
dynamics onto that subspace, and solve a placement problem of only that
size.  Eigenvalues outside the subspace provably stay put, and the only
inversions are as large as the largest group being moved.

Every gain here is the placement core's: a step of r > 2 values runs
``placement._row`` on the compressed pair, Ackermann's endpoint of the
generalized formula, and steps of one or two values compute the same row
on Python floats.  Partial assignment is a one-group sequential run, and
Simon-Mitter its one-value case behind the ``omega^T b`` gate.

The open-loop Schur form is taken once per system and kept on the
``StateSpace``: ``paired_plan`` and ``plan_targets`` read its block values,
which agree with ``eigenvalues(A)`` to rounding, and the sequential loop
carries it through every step.  A step's reorder and feedback rescan only
the rows they changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    PolePlacementError,
    RankDeficiencyError,
    SingularMatrixError,
    UncontrollableError,
    ValidationError,
)
from .errors import _as_real
from .linalg import (
    EPS,
    _clusters,
    _eliminate_scalars,
    _feed_leading,
    _kappa_2x2,
    _lead,
    _match_tol,
    _match_values,
)
from .placement import Gain, StateSpace, _gain, _row, _selector
from .poly import Spectrum, _as_spectrum


@dataclass(frozen=True)
class AssignmentPlan:
    """Ordered groups of (move, to) spectra processed one feedback at a time."""

    groups: tuple[tuple[Spectrum, Spectrum], ...]

    def __post_init__(self):
        groups = []
        try:
            pairs = [tuple(pair) for pair in self.groups]
        except TypeError:
            raise ValidationError("plan groups must be (move, to) pairs") from None
        for gi, pair in enumerate(pairs):
            if len(pair) != 2:
                raise ValidationError(f"group {gi + 1} must be a (move, to) pair")
            move, to = map(_as_spectrum, pair)
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
    """What one sequential step did: the left-invariant basis it worked
    in, its gain, and the spectrum it left behind, read off the carried
    Schur form.

    ``kappa`` is the condition number of the step's r x r Krylov matrix.
    It is exactly 1.0 for every one-value group, whatever the step's gain,
    so it cannot flag a step whose gain explodes.
    """

    step: int
    basis: np.ndarray
    gain: np.ndarray
    kappa: float
    spectrum_after: Spectrum


def _gain_on_split(b, U, X, to: Spectrum):
    """Gain placing the spectrum of the compression X at ``to``: the
    placement core on the pair ``(X, U^T b)`` with every target pulled,
    lifted back through the left-invariant basis U.

    Returns the gain, its row g (``k = U @ g``) and the condition of
    ``C_X``, the pair's Krylov matrix.  Groups of one or two values, all a
    paired plan makes, take ``_small_step``; a one-value step refuses only
    an exactly zero ``U^T b``, at ``_selector``'s gate.  The core's
    UncontrollableError becomes RankDeficiencyError with the core's rank
    estimate.
    """
    r = X.shape[0]
    bu = U.T @ b
    if r == 1 and bu[0] == 0.0:
        _selector(b, U[:, 0])  # an exact zero is far below the gate: it raises
    if r <= 2:
        h, kappa = _small_step(bu.tolist(), X.tolist(), to)
        g = -np.array(h)
    else:
        step = StateSpace(X, bu)
        try:
            g = _row(step, to, to)
        except UncontrollableError as exc:
            raise RankDeficiencyError(f"the moved subspace's {exc}") from exc
        kappa = step._kappa
    return U @ g, g, kappa


def _small_step(u, x, to: Spectrum):
    """``h = -g`` and kappa of ``_gain_on_split`` for r = 1 or 2, on
    Python floats (u is ``U.T @ b``, nonzero when r = 1, and x is X, as
    lists); they agree with the core's to rounding.  The core's row is
    ``h = p(X).T @ eta`` with ``C_X^T eta = e_r``.  A scalar u gives
    ``eta = 1 / u`` of condition 1.  Two values solve ``[u, X u]`` for eta
    by ``_eliminate_scalars`` with ``solve_linear``'s pivot threshold and
    take kappa from a plane rotation's R and LAPACK's dlas2 closed form
    (``_kappa_2x2``).  p(X) is Horner's rule from the coefficients
    ``monic_from_roots(to)`` has, bitwise.
    """
    t = list(to)
    if len(u) == 1:
        (u0,), ((x00,),) = u, x
        return [(x00 + -t[0].real) * (1.0 / u0)], 1.0
    (u0, u1), ((x00, x01), (x10, x11)) = u, x
    v0 = x00 * u0 + x01 * u1
    v1 = x10 * u0 + x11 * u1
    limit = 2 * EPS * max(abs(u0), abs(u1), abs(v0), abs(v1))
    try:
        eta0, eta1 = _eliminate_scalars([[u0, u1], [v0, v1]], [0.0, 1.0], limit)
    except SingularMatrixError as exc:
        raise RankDeficiencyError(
            f"controllability restricted to the moved subspace has rank "
            f"{exc.column} < 2; these eigenvalues cannot be assigned together"
        ) from exc
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
    return h, kappa


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
    k, records, expected = _run_plan(sys, AssignmentPlan(((move, to),)))
    return _gain(sys, k, "partial", expected, tuple(rec.kappa for rec in records))


def place_simon_mitter(sys: StateSpace, mu1, lam1) -> Gain:
    """Shift one real eigenvalue by a rank-one update along its left
    eigenvector: bitwise ``place_partial(sys, [mu1], [lam1])``.

    ``k = (lam1 - mu) omega / (omega^T b)``, with omega the step's basis
    and mu the computed eigenvalue ``mu1`` matches, so the eigenvalue lands
    at ``lam1`` however ``mu1`` was rounded.  An omega that fails
    ``_selector``'s gate raises its InvariantEigenvalueError, as
    ``place_eigenpair`` does.  Complex values with zero imaginary parts
    count as real.
    """
    if any(isinstance(z, complex) and z.imag != 0.0 for z in (mu1, lam1)):
        raise ValidationError("the single-shift method moves a real eigenvalue to a real target")
    mu1, lam1 = (_as_real(z.real if isinstance(z, complex) else z, name)
                 for z, name in ((mu1, "mu1"), (lam1, "lam1")))
    k, records, expected = _run_plan(sys, AssignmentPlan((((mu1,), (lam1,)),)))
    _selector(sys.b, records[0].basis[:, 0])
    return _gain(sys, k, "simon_mitter", expected, tuple(rec.kappa for rec in records))


def plan_targets(sys: StateSpace, plan: AssignmentPlan) -> Spectrum:
    """Expected final spectrum after running a plan on a system.

    Plays the plan through at the value level: each group's ``move`` set
    is matched against the running spectrum (starting from the computed
    eigenvalues of A) and replaced by its ``to`` set.  Later groups may
    re-move values placed by earlier ones.
    """
    return _play_plan(_open_loop_values(sys), plan, _match_tol(sys.A))


def _open_loop_values(sys: StateSpace) -> list[complex]:
    """The block values of the system's stored Schur form, in block order:
    the open-loop spectrum every plan is matched against."""
    return [z for blk in sys._schur.blocks for z in blk.eigenvalues]


def _play_plan(current, plan: AssignmentPlan, tol) -> Spectrum:
    """Play ``plan`` on the value list ``current``; see ``plan_targets``.
    ``plan_targets`` and ``place_sequential`` both play it on the block
    values of the system's stored Schur form, so they agree bitwise."""
    for move, to in plan.groups:
        matched = _match_values(list(move), current, tol)
        current = [z for i, z in enumerate(current) if i not in matched]
        current.extend(to)
    return Spectrum(current)


def paired_plan(sys: StateSpace, targets) -> AssignmentPlan:
    """Group the open-loop spectrum and the targets into steps of size at
    most two, but for repeated eigenvalues.

    Conjugate pairs move together.  Pairs match target pairs by descending
    modulus and reals match target reals the same way; when the counts
    differ, a leftover pair takes the two largest real targets, or two
    leftover reals take a target pair.  Parity makes the counts work out.
    Groups whose open-loop values cluster within ``_match_tol(sys.A)``
    (``_merge_close``) move in one step with the union of their targets:
    an eigenvalue repeated m times, or a perturbed Jordan block's m values,
    in a step of at least m values, which inverts a matrix of that size.
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

    def pair(z):
        return Spectrum._of((z, z.conjugate()))

    def reals(*xs):
        return Spectrum._of(tuple(map(complex, xs)))

    o_reals, o_pairs = buckets(_open_loop_values(sys))
    t_reals, t_pairs = buckets(targets)
    groups = []
    common = min(len(o_pairs), len(t_pairs))
    for z, w in zip(o_pairs[:common], t_pairs[:common]):
        groups.append((pair(z), pair(w)))
    for z in o_pairs[common:]:
        groups.append((pair(z), reals(t_reals.pop(0), t_reals.pop(0))))
    for w in t_pairs[common:]:
        groups.append((reals(o_reals.pop(0), o_reals.pop(0)), pair(w)))
    for z, w in zip(o_reals, t_reals):
        groups.append((reals(z), reals(w)))
    return AssignmentPlan(_merge_close(groups, _match_tol(sys.A)))


def _merge_close(groups, tol) -> tuple:
    """``groups``, each cluster of them (``_clusters`` of their moved
    values within ``tol``) merged into the place of its first member: the
    moves and the targets concatenated in group order."""
    label = _clusters([z for move, _ in groups for z in move],
                      [g for g, (move, _) in enumerate(groups) for _ in move], tol)
    if label == list(range(len(groups))):
        return tuple(groups)
    merged = {}
    for lab, (move, to) in zip(label, groups):
        m, t = merged.setdefault(lab, ([], []))
        m += move
        t += to
    return tuple((Spectrum._of(tuple(m)), Spectrum._of(tuple(t))) for m, t in merged.values())


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
    k, records, expected = _run_plan(sys, plan)
    return _gain(sys, k, "sequential", expected, tuple(rec.kappa for rec in records)), records


def _run_plan(sys: StateSpace, plan) -> tuple[np.ndarray, list[StepRecord], Spectrum]:
    """``place_sequential``'s loop: the summed gain, the step records and
    the spectrum the plan expects (``plan_targets``)."""
    if not isinstance(plan, AssignmentPlan):
        plan = AssignmentPlan(plan)
    if not plan.groups:
        raise ValidationError("plan has no groups")
    dec = sys._schur
    tol = _match_tol(sys.A)
    expected = _play_plan(_open_loop_values(sys), plan, tol)
    k_total = np.zeros(sys.n)
    records: list[StepRecord] = []
    for step, (move, to) in enumerate(plan.groups, start=1):
        try:
            dec, U, X = _lead(dec, move, tol)
            k_step, g, kappa = _gain_on_split(sys.b, U, X, to)
            dec = _feed_leading(dec, sys.b, g)
        except PolePlacementError as exc:
            exc.step = step
            exc.records = tuple(records)
            raise
        after = Spectrum._of(tuple(z for blk in dec.blocks for z in blk.eigenvalues))
        k_total = k_total + k_step
        records.append(StepRecord(step=step, basis=U, gain=k_step, kappa=kappa,
                                  spectrum_after=after))
    return k_total, records, expected

