"""Real polynomials and self-conjugate eigenvalue multisets.

Polynomials are stored densely by ascending coefficients, so ``coeffs[j]``
multiplies ``x**j``.  Monic constructors pin the leading coefficient to an
exact 1.0.  A Spectrum is the multiset of eigenvalues a placement works
with; construction enforces that the conjugate of every member is present
bit for bit, which lets later code rely on exact pairing instead of a
tolerance.
"""

from __future__ import annotations

import math
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


# The characteristic polynomial comes from the trace recurrence
#
#     N_k = A M_{k-1},   c_k = -tr(N_k) / k,   M_k = N_k + c_k I,   M_0 = I,
#
# which needs only matrix products and so is independent of any eigenvalue
# solver.  It cancels heavily: on strongly non-normal matrices (a feedback
# row much larger than the spectral radius) plain doubles lose the answer
# entirely, and at n = 64 a state of two doubles per entry still gets the
# worst coefficient of each matrix wrong by a median 5e-5 of its size (and
# a small one by half of it) on the 60 verify-large closed loops of the
# benchmark's seeds 1-6.  So the state is kept in three words per entry,
# and each product A M is formed without rounding error on BLAS by slicing
# both factors (Ozaki, Ogita, Oishi & Rump, "Error-free transformations of
# matrix multiplication by using fast routines of matrix multiplication
# and its applications", Numer. Algorithms 2012):
#
# * A is cut once, row by row, into slices of beta bits on the grid
#   2**(e_r - (i+1) beta) of its row's power-of-two scale 2**e_r; M is cut
#   the same way, column by column, at every step.  A slice product
#   A_i M_j then lies on the grid 2**(e_r + f_c - (i+j+2) beta), which
#   depends on i + j only, and beta is small enough that any sum of slice
#   products with the same i + j is exact in any order.  One stacked
#   matmul forms every product and the groups are summed exactly.
# * The group sums overlap; rounding each onto the grid of the group above
#   and carrying the rest turns them into digits that do not overlap, from
#   which Fast2Sum and TwoSum passes (Ogita, Rump & Oishi, "Accurate sum
#   and dot product", SISC 2005) read off the three words of N_k.
# * The trace is summed exactly with math.fsum and divided by k with
#   error-free steps; c_k is rounded once for the result, and its three
#   words are added to the diagonal of N_k exactly, where they cancel.

_STATE_BITS = 3 * 53  # precision of the three-word state
# fl(fl(x + s) - s) with s = _ROUND * u rounds any |x| <= 2**51 u to a
# multiple of the power of two u, without error.
_ROUND = 1.5 * 2.0**52


def _pow2_above(x):
    """Smallest power of two above |x|, elementwise (1 where x is 0)."""
    return np.ldexp(1.0, np.frexp(x)[1])


def _slice_plan(n: int):
    """Slice width, slice count, carry rounds and plain-sum cut at order n.

    A group sums at most ``levels`` slice products of n terms, each about
    2**(2 beta) units of the group's grid at most, so
    ``beta = 52 - ceil((53 + log2(levels n)) / 2)`` keeps every group
    within 2**51 units, two bits inside the 2**53 up to which a sum of
    them is exact in any order; the spare bits absorb the little that the
    lower words of M add to a slice.  ``levels`` slices of beta bits cover
    the state's precision plus the log2(n) bits a sum of n terms can gain.
    """
    levels = 8
    while True:
        beta = 52 - math.ceil((53 + math.log2(levels * n)) / 2)
        need = math.ceil((_STATE_BITS + math.log2(n)) / beta)
        if need <= levels:
            break
        levels = need
    # Each carry round divides the excess of a digit over half the grid
    # above it by 2**beta; stop when it is gone to within a few percent.
    bound, rounds = 53.0, 0
    while bound > beta - 0.9:
        bound = math.log2(2.0 ** (beta - 1) + 2.0 ** (bound - beta) + 1.0)
        rounds += 1
    # The Fast2Sum errors past index ``tail`` are below
    # 2**-(52 + (tail - 1) beta) of the entry: a plain sum of them is off
    # by less than 2**-160 of it.
    tail = min(need - 1, 1 + math.ceil(58 / beta))
    return beta, need, rounds, tail


def _three_words(values) -> list:
    """The three leading words of the exact sum of ``values``, each the
    rounded sum of what the words before it leave."""
    rest = list(values)
    words = []
    for _ in range(3):
        words.append(math.fsum(rest))
        rest.append(-words[-1])
    return words


def _neg_quotient(values, k: int) -> list:
    """Three words of ``-sum(values) / k``.

    Each word is the rounded quotient of what is left; ``fsum`` keeps what
    is left exact, because subtracting ``q * k`` is subtracting ``q`` times
    each power of two that makes up k.
    """
    rest = [-v for v in values]
    powers = [math.ldexp(1.0, b) for b in range(k.bit_length()) if k >> b & 1]
    words = []
    for _ in range(3):
        q = math.fsum(rest) / k
        words.append(q)
        rest.extend(-q * p for p in powers)
    return words


def char_poly(A) -> Polynomial:
    """Characteristic polynomial of a square matrix, ascending and monic.

    Runs the trace recurrence with every product A M formed from beta-bit
    slices on BLAS (beta is 21 at n = 64) and the state M held as three
    non-overlapping words per entry, about 159 bits.  Three words are
    needed: with two, the worst coefficient at n = 64 is off by a median
    5e-5 of its size.  With three, the result matched the exact Berkowitz
    polynomial of ``perfbench/oracle.py`` bit for bit on the benchmark's
    verify-large closed loops (seeds 1-6, n = 24-64) and on its dense
    systems, open and closed loop.  Each coefficient is rounded once, from
    its three-word value.

    A product entry is exact but for terms below about 2**-160 times the
    largest entry of its row of A and of its column of M, so only bits
    that far below the rest of their row or column go unseen.  The matrix
    is scaled by a power of two first, which changes no rounding and keeps
    the slice grids clear of overflow and underflow.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValidationError("char_poly needs a nonempty square matrix")
    if not np.all(np.isfinite(A)):
        raise ValidationError("char_poly needs finite entries")
    n = A.shape[0]
    shift = int(np.frexp(np.max(np.abs(A)))[1])
    A = np.ldexp(A, -shift)
    beta, levels, rounds, tail = _slice_plan(n)
    unit = np.ldexp(1.0, -beta * np.arange(1, levels + 1))  # grids, per scale

    a_scale = _pow2_above(np.max(np.abs(A), axis=1))
    rest = A.copy()
    a_slices = []
    for i in range(levels):
        sig = (_ROUND * unit[i]) * a_scale[:, None]
        a_slices.append((rest + sig) - sig)
        rest -= a_slices[-1]
        if not rest.any():
            break
    depth = len(a_slices)
    A_stack = np.concatenate(a_slices)

    state = np.zeros((3, n, n))  # the three words of M
    state[0] = np.eye(n)
    cuts = np.empty((levels, 3, n, n))
    errs = np.empty((levels - 1, n, n))
    col_round = (_ROUND * unit)[:, None, None, None]
    carry_round = (_ROUND * unit[1:])[:, None, None] * a_scale[:, None]
    diag = np.arange(n)
    desc = [1.0]
    for k in range(1, n + 1):
        b_scale = _pow2_above(np.max(np.abs(state[0]), axis=0))
        sig = col_round * b_scale
        for j in range(levels):
            np.add(state, sig[j], out=cuts[j])
            cuts[j] -= sig[j]
            state -= cuts[j]
        prods = np.matmul(A_stack, cuts.sum(axis=1)).reshape(levels, depth, n, n)
        # groups[s] sums the products A_i M_j with i + j = s, exactly
        groups = prods[:, 0].copy()
        for i in range(1, depth):
            groups[i:] += prods[: levels - i, i]
        c = _neg_quotient(groups[:, diag, diag].ravel().tolist(), k)
        desc.append(math.fsum(c))
        if k == n:
            break
        # Carry: each group keeps what lies within half the grid of the
        # group above and passes the rest up, leaving non-overlapping digits.
        sig = carry_round * b_scale
        for _ in range(rounds):
            up = groups[1:] + sig
            up -= sig
            groups[1:] -= up
            groups[:-1] += up
        # Word 1: Fast2Sum from the smallest digit up, keeping each error.
        w1 = groups[-1]
        for i in range(levels - 2, -1, -1):
            s = groups[i] + w1
            np.subtract(s, groups[i], out=errs[i])
            np.subtract(w1, errs[i], out=errs[i])
            w1 = s
        # Word 2: TwoSum over the errors that matter; word 3: what is left.
        w2 = errs[tail:].sum(axis=0)
        w3 = np.zeros((n, n))
        for e in errs[tail - 1 :: -1]:
            s = e + w2
            v = s - e
            w3 += e - (s - v)
            w3 += w2 - v
            w2 = s
        state[0] = w1
        state[1] = w2
        state[2] = w3
        # M_k = N_k + c_k I: the diagonal cancels, so it is summed exactly
        diagonal = [_three_words(w + c) for w in state[:, diag, diag].T.tolist()]
        state[:, diag, diag] = np.array(diagonal).T
    # undo the scaling: the coefficient of x**(n-k) scales by 2**(shift k)
    return Polynomial(np.ldexp(desc[::-1], shift * np.arange(n, -1, -1)))


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

