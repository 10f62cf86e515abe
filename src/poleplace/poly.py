"""Real polynomials and self-conjugate eigenvalue multisets.

Polynomials are stored densely by ascending coefficients, so ``coeffs[j]``
multiplies ``x**j``.  Monic constructors pin the leading coefficient to an
exact 1.0.  A Spectrum is the multiset of eigenvalues a placement works
with; construction enforces that the conjugate of every member is present
bit for bit, which lets later code rely on exact pairing instead of a
tolerance.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ValidationError


class Polynomial:
    """Dense real polynomial with ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("polynomial needs a nonempty 1-D coefficient array")
        if not np.all(np.isfinite(c)):
            raise ValidationError("polynomial coefficients must be finite")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1.0

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


class Spectrum:
    """Self-conjugate multiset of complex values, in stored order.

    Values compare and hash exactly; ``1+2j`` pairs only with a stored
    ``1-2j``.  Real values are their own partners.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[complex]):
        vals = tuple(complex(v) for v in values)
        for v in vals:
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValidationError("spectrum values must be finite")
        counts = Counter(vals)
        for z, c in counts.items():
            partner = counts.get(z.conjugate(), 0)
            if partner != c:
                raise ValidationError(
                    f"spectrum is not self-conjugate: {z} appears {c} time(s) "
                    f"but its conjugate appears {partner}"
                )
        self.values = vals

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return Counter(self.values) == Counter(other.values)

    def __repr__(self):
        return f"Spectrum({list(self.values)})"

    def counter(self) -> Counter:
        return Counter(self.values)

    def contains(self, other: "Spectrum") -> bool:
        """Multiset containment, by exact value."""
        have = self.counter()
        for z, c in other.counter().items():
            if have.get(z, 0) < c:
                return False
        return True

    def minus(self, other: "Spectrum") -> "Spectrum":
        """Multiset difference.  ``other`` must be contained in ``self``."""
        if not self.contains(other):
            raise ValidationError("cannot remove values that are not in the spectrum")
        take = other.counter()
        kept = []
        for z in self.values:
            if take.get(z, 0) > 0:
                take[z] -= 1
            else:
                kept.append(z)
        return Spectrum(kept)


def _as_spectrum(values) -> Spectrum:
    return values if isinstance(values, Spectrum) else Spectrum(values)


def monic_from_roots(roots) -> Polynomial:
    """Monic real polynomial whose roots are the given self-conjugate multiset.

    Conjugate pairs are combined into real quadratic factors before
    multiplying, so the coefficients are real by construction.  Factors are
    multiplied in a canonical sorted order to make the result reproducible
    regardless of input ordering.  An empty multiset gives the constant 1.
    """
    spec = _as_spectrum(roots)
    factors = []
    for z, c in spec.counter().items():
        if z.imag == 0.0:
            factors.extend([(-z.real, 1.0)] * c)
        elif z.imag > 0.0:
            factors.extend([(z.real * z.real + z.imag * z.imag, -2.0 * z.real, 1.0)] * c)
    factors.sort()
    out = np.array([1.0])
    for f in factors:
        out = npoly.polymul(out, np.asarray(f))
    out[-1] = 1.0
    return Polynomial(out)


# Compensated (double-double) arithmetic for the trace recurrence.  The
# recurrence cancels heavily on strongly non-normal matrices (a feedback
# row much larger than the spectral radius), where plain doubles lose the
# answer entirely.  Error-free transforms recover it at double-double
# cost, elementwise over numpy arrays.

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    # requires |a| >= |b| elementwise in spirit; used to renormalize
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _dd_add(hi1, lo1, hi2, lo2):
    s, e = _two_sum(hi1, hi2)
    return _fast_two_sum(s, e + lo1 + lo2)


def _dd_div_int(hi, lo, d):
    q1 = hi / d
    p, pe = _two_prod(q1, float(d))
    return _fast_two_sum(q1, ((hi - p) - pe + lo) / d)


def char_poly(A) -> Polynomial:
    """Characteristic polynomial of a square matrix, ascending and monic.

    Uses the trace recurrence on compound matrices, which needs only
    matrix products and so is independent of any eigenvalue solver.  That
    makes it the natural cross-check for spectra computed elsewhere.  The
    recurrence runs in compensated arithmetic, so the result stays
    accurate even when the matrix norm is orders of magnitude above its
    spectral radius.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValidationError("char_poly needs a nonempty square matrix")
    if not np.all(np.isfinite(A)):
        raise ValidationError("char_poly needs finite entries")
    n = A.shape[0]
    desc = np.empty(n + 1)
    desc[0] = 1.0
    Mhi = np.eye(n)
    Mlo = np.zeros((n, n))
    for k in range(1, n + 1):
        Chi = np.zeros((n, n))
        Clo = np.zeros((n, n))
        for t in range(n):
            col = A[:, t][:, None]
            ph, pe = _two_prod(col, Mhi[t, :][None, :])
            Chi, Clo = _dd_add(Chi, Clo, ph, pe + col * Mlo[t, :][None, :])
        thi = tlo = 0.0
        for i in range(n):
            thi, tlo = _dd_add(thi, tlo, Chi[i, i], Clo[i, i])
        chi, clo = _dd_div_int(-thi, -tlo, k)
        desc[k] = chi + clo
        Mhi, Mlo = Chi, Clo
        dh, dl = _dd_add(np.diagonal(Mhi).copy(), np.diagonal(Mlo).copy(), chi, clo)
        np.fill_diagonal(Mhi, dh)
        np.fill_diagonal(Mlo, dl)
    return Polynomial(desc[::-1].copy())


def eval_matrix(q: Polynomial, A) -> np.ndarray:
    """Evaluate at a square matrix by Horner's rule."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("eval_matrix needs a square matrix")
    eye = np.eye(A.shape[0])
    out = q.coeffs[-1] * eye
    for c in q.coeffs[-2::-1]:
        out = out @ A + c * eye
    return out

