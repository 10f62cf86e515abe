"""Verification oracles for computed feedback gains.

Two deliberately independent routes check every placement: the
characteristic polynomial of the exactly formed closed loop, read off the
system's one run of the trace recurrence (no eigenvalue solver involved),
and the closed-loop spectrum from the Schur iteration matched against the
request.  Agreement of both is strong evidence; disagreement points at
which half went wrong.  Both run in ``_checked_loop``, the one check
that the diagnostics and ``poleplace verify`` share.  The first route is
the paper's rank-one determinant identity, applied exactly by the system's
stored ``OpenLoopRecord.closed_loop``.

The second route forms the closed loop in the system's stored
controller-Hessenberg coordinates (``ControllerHessenberg``): with
``W.T b = beta e1`` and ``H = W.T A W`` upper Hessenberg, the loop is
``H + beta e1 (W.T k)^T``, Hessenberg as it stands, so no gain pays for a
reduction.  W is kept as the compact-WY pair (V, T) of the reduction's
reflectors, ``W = I - V T V^T``: V gains each reflector's vector as the
reduction applies it and T is formed from them once per system, so
``W.T k = k - V (T^T (V^T k))`` is three products per gain.  Its
rounding is that of ``W.T k`` and of H's first row, so it perturbs k,
where ``A + b k^T`` formed in doubles would perturb every entry by about
``eps |b| |k|``.

A gain is checked on entry (``assemble_diagnostics``, or
``cli.cmd_verify`` for ``poleplace verify``); the spectrum half reads it
as it stands, and ``charpoly_residual`` checks it once more
(``_checked_loop``).

The Schur iteration takes the request as a hint: the first QR sweep
after each deflation shifts by the requested values nearest the ones
about to converge, which deflates a placed pole in about one sweep.  The
hint chooses shifts only.  Every sweep is an orthogonal similarity and
deflation is tested as without it, so the spectrum reported is that of a
nearby closed loop however wrong the request; a wrong one costs sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError, _as_vector, _floats
from .linalg import _hessenberg_eigenvalues, max_abs
from .poly import _as_spectrum, monic_from_roots

ILL_CONDITIONED = 1e8
RESIDUAL_LIMIT = 1e-6  # the largest charpoly_residual ``poleplace verify`` accepts


@dataclass(frozen=True)
class Diagnostics:
    """Conditioning and residual record attached to every computed gain.

    ``step_kappas`` holds the condition numbers of the per-step
    controllability solves for subspace methods; full-spectrum methods
    leave it empty.  Residual fields stay None when the method does not
    know the complete target spectrum.
    """

    kappa_controllability: float
    step_kappas: tuple[float, ...] = ()
    charpoly_residual: float | None = None
    spectrum_residual: float | None = None
    warnings: tuple[str, ...] = ()


def _closed_loop_spectrum(sys, k, targets):
    """Eigenvalues of ``A + b k^T``, for a checked gain and target
    Spectrum (``_checked_loop``), formed in the system's stored
    controller-Hessenberg coordinates, with the QR shifts seeded from the
    requested spectrum.

    The loop is Hessenberg as formed, so it goes straight to the Schur
    engine's core (``linalg._hessenberg_eigenvalues``), scaled by its power
    of two as ``eigenvalues`` would scale its transpose, with no
    validation, transpose or reduction; for a loop M formed at e = 0
    (below) the result is bitwise ``eigenvalues(M.T, near=targets)``.  A
    loop whose entries may come near the float range in those coordinates
    is formed at ``2**-e`` and its eigenvalues scaled back; such a loop is
    first formed in doubles, and one with an entry beyond the float range
    there raises NumericalError, as does an eigenvalue beyond it.
    """
    M, e = sys._hessenberg.closed_loop(k)
    if e:
        # otherwise every entry of A + b k^T is at most 2**1023
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(sys.A + np.outer(sys.b, k)).all():
                raise NumericalError(
                    "the closed loop A + b k^T has entries beyond the float range")
    shift = math.frexp(max_abs(M))[1]
    return _hessenberg_eigenvalues(np.ldexp(M, -shift), shift + e, targets.values)


def _full_spectrum(sys, targets):
    """``targets`` as a Spectrum of one value per state of ``sys``."""
    targets = _as_spectrum(targets)
    if len(targets) != sys.n:
        raise ValidationError(f"{len(targets)} targets for an order-{sys.n} system")
    return targets


def charpoly_residual(sys, k, targets) -> float:
    """Coefficient-level placement error of the exactly formed closed loop.

    Compares the characteristic polynomial of ``A + b k^T``, formed without
    rounding, against the monic polynomial built from the targets,
    coefficient by coefficient, each scaled by ``max(1, |coefficient|)``.
    The closed-loop coefficient of ``s**(n-j)`` is ``c_j - k^T x_j``, read
    off the system's stored open-loop record (``OpenLoopRecord``): the
    coefficients c_j of A and ``x_j = M_{j-1} b`` from the one run of the
    trace recurrence, so no closed-loop matrix is formed or recurred.

    Error bound: each achieved coefficient is ``c_j - k^T x_j`` rounded
    once, where c_j carries ``char_poly``'s contract and x_j the dropped
    window of the record, less than ``2**-((L-1) beta)`` (about 2**-168)
    of x's largest entry at each step, carried on by A; so it is off by at
    most half an ulp plus ``|c_j error| + ||k||_1 ||x_j error||_inf``.
    """
    targets = _full_spectrum(sys, targets)
    achieved = sys._polynomial.closed_loop(k)
    wanted = monic_from_roots(targets)
    num = np.abs(achieved.coeffs - wanted.coeffs)
    den = np.maximum(1.0, np.abs(wanted.coeffs))
    return float(np.max(num / den))


def _checked_loop(sys, k, targets):
    """``(charpoly_residual, achieved, unknown)`` of a checked gain and
    full target Spectrum (``_full_spectrum``): the achieved spectrum from
    ``_closed_loop_spectrum``, or, when its QR iteration runs out of
    sweeps on a loop placed beyond what doubles resolve, None and the
    reason the spectrum is unknown.  The residual half is
    ``charpoly_residual`` itself, which checks its arguments again at a
    few us."""
    cres = charpoly_residual(sys, k, targets)
    try:
        return cres, _closed_loop_spectrum(sys, k, targets), None
    except ConvergenceError as exc:
        return cres, None, str(exc)


def _perfect_matching(allowed, start):
    """Perfect matching inside the boolean matrix ``allowed``, grown from
    the partial matching ``start`` (row -> column, -1 when free) by
    breadth-first augmenting paths; None when there is none.

    A free row with no augmenting path proves that no perfect matching
    exists, so the search stops at the first one.
    """
    col_of = list(start)
    row_of = [-1] * len(col_of)
    for r, c in enumerate(col_of):
        if c >= 0:
            row_of[c] = r
    for u in [r for r, c in enumerate(col_of) if c < 0]:
        reached = {}  # column -> the row it was reached from
        queue, free = [u], -1
        for r in queue:  # the loop also visits the rows appended below
            for c in np.flatnonzero(allowed[r]).tolist():
                if c not in reached:
                    reached[c] = r
                    if row_of[c] < 0:
                        free = c
                        break
                    queue.append(row_of[c])
            if free >= 0:
                break
        if free < 0:
            return None
        while free >= 0:  # flip the path back to u
            r = reached[free]
            row_of[free] = r
            col_of[r], free = free, col_of[r]
    return col_of


def _bottleneck(got, want):
    """Exact bottleneck matching of two equal-size, nonempty value lists.

    Returns the smallest achievable largest distance ``|got[i] - want[j]|``
    over one-to-one pairings, and a pairing attaining it: ``pairing[i]``
    indexes the value of ``want`` paired with ``got[i]``.  Every row and
    column of the distance matrix must use one of its entries, so the
    largest row or column minimum bounds the answer from below; the greedy
    pairing, closest remaining pair first, bounds it from above.  Only the
    distinct distances between the two bounds are bisected, each tested
    for a perfect matching.
    Nearest values of ``want`` (first row minima) that are all different
    are the greedy pairing, whose distance then meets the lower bound, so
    they are returned at once, bitwise what the bisection would return.
    """
    g = np.array(list(got), dtype=complex)
    w = np.array(list(want), dtype=complex)
    d = np.abs(g[:, None] - w[None, :])
    n = d.shape[0]
    nearest = d.argmin(axis=1).tolist()
    if len(set(nearest)) == n:
        return float(d.min(axis=1).max()), nearest
    pairing = [-1] * n
    work = d.copy()
    for _ in range(n):
        i, j = np.unravel_index(int(np.argmin(work)), work.shape)
        pairing[i] = int(j)
        work[i, :] = np.inf
        work[:, j] = np.inf
    best = d[np.arange(n), pairing].max()
    floor = max(d.min(axis=0).max(), d.min(axis=1).max())
    # distinct, as np.unique gives them without its import of numpy.ma
    levels = np.sort(d[(d >= floor) & (d < best)])
    levels = levels[np.diff(levels, prepend=-np.inf) > 0]
    lo, hi = 0, levels.size
    while lo < hi:
        mid = (lo + hi) // 2
        limit = levels[mid]
        start = [j if d[i, j] <= limit else -1 for i, j in enumerate(pairing)]
        found = _perfect_matching(d <= limit, start)
        if found is None:
            lo = mid + 1
        else:
            best, pairing, hi = limit, found, mid
    return float(best), pairing


def spectrum_distance(got, want) -> float:
    """Bottleneck distance between two equal-size spectra.

    The value is the largest pointwise distance under the best one-to-one
    pairing, exact at every size; ``poleplace verify`` prints that
    pairing.
    """
    got, want = _as_spectrum(got), _as_spectrum(want)
    if len(got) != len(want):
        raise ValidationError(f"cannot compare spectra of sizes {len(got)} and {len(want)}")
    if len(got) == 0:
        return 0.0
    return _bottleneck(got, want)[0]


def assemble_diagnostics(sys, k, targets=None, step_kappas=()) -> Diagnostics:
    """Build the Diagnostics record for a gain k, checked first, on a system.

    The controllability condition number is the one the system stores,
    computed on its first use, so every gain on one system reads the same
    value; the residuals are computed afresh for each gain, and filled
    only when the full target spectrum is known, by the one closed-loop
    check (``_checked_loop`` on the k checked here), its QR shifts seeded
    from the targets.
    An ill-conditioned controllability matrix earns a warning rather than
    an error: the gain is still returned, with notice that its digits may
    not survive closed-loop arithmetic.  So does a ``charpoly_residual``
    above ``RESIDUAL_LIMIT``, which ``poleplace verify`` would reject, and
    a closed-loop spectrum check whose QR iteration runs out of its
    sweeps, as it can on a loop placed far beyond what doubles resolve:
    ``spectrum_residual`` stays None and the warning names the check and
    its sweep budget.
    """
    k = _as_vector(k, sys.n, "gain")
    kap = sys._kappa
    warnings = ()
    if not kap <= ILL_CONDITIONED:
        warnings = (
            f"controllability matrix condition number {kap:.3e} exceeds "
            f"{ILL_CONDITIONED:.0e}; placement accuracy is degraded",
        )
    cres = sres = None
    if targets is not None:
        cres, achieved, unknown = _checked_loop(sys, k, _full_spectrum(sys, targets))
        if not cres <= RESIDUAL_LIMIT:
            warnings += (f"charpoly_residual {cres:.3e} exceeds {RESIDUAL_LIMIT:.0e}; "
                         "poleplace verify rejects this gain",)
        if achieved is None:
            warnings += (f"the closed-loop spectrum check ran out of sweeps: {unknown}; "
                         "spectrum_residual is unknown",)
        else:
            sres = spectrum_distance(achieved, targets)
    return Diagnostics(
        kappa_controllability=kap,
        step_kappas=tuple(_floats(step_kappas, "step_kappas").reshape(-1).tolist()),
        charpoly_residual=cres,
        spectrum_residual=sres,
        warnings=warnings,
    )

