"""Real polynomials and self-conjugate eigenvalue multisets.

Polynomials are stored densely by ascending coefficients, so ``coeffs[j]``
multiplies ``x**j``.  Monic constructors pin the leading coefficient to an
exact 1.0.  A Spectrum is the multiset of eigenvalues a placement works
with; construction enforces that the conjugate of every member is present
bit for bit, which lets later code rely on exact pairing instead of a
tolerance.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from typing import Iterable

import numpy as np

from .errors import NumericalError, ValidationError
from .errors import _as_square, _as_vector, _complexes, _finite, _floats


class Polynomial:
    """Dense real polynomial with ascending coefficients, held in a
    read-only copy of the input."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(_floats(coeffs, "polynomial coefficients")).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("polynomial needs a nonempty 1-D coefficient array")
        _finite(c, "polynomial coefficients")
        c.flags.writeable = False
        self.coeffs = c

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


class Spectrum:
    """Self-conjugate multiset of complex values, in stored order.

    Values compare and hash exactly; ``1+2j`` pairs only with a stored
    ``1-2j``.  Real values are their own partners.  The spectrum keeps its
    monic polynomial once ``monic_from_roots`` has built it.
    """

    __slots__ = ("values", "_monic")

    def __init__(self, values: Iterable[complex]):
        vals = _complexes(values, "spectrum")
        if not all(map(cmath.isfinite, vals)):
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
        self._monic = None

    @classmethod
    def _of(cls, values: tuple) -> "Spectrum":
        """A Spectrum of ``values``, a tuple of finite complex values that
        is self-conjugate by construction, taken over without the checks."""
        spec = cls.__new__(cls)
        spec.values = values
        spec._monic = None
        return spec

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
        return not other.counter() - self.counter()

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
    A coefficient beyond the float range raises NumericalError.  The
    polynomial of a Spectrum is built once and kept on it, so every caller
    handed the same Spectrum shares one.
    """
    spec = _as_spectrum(roots)
    if spec._monic is not None:
        return spec._monic
    factors = []
    for z, c in spec.counter().items():
        if z.imag == 0.0:
            factors.extend([(-z.real, 1.0)] * c)
        elif z.imag > 0.0:
            factors.extend([(z.real * z.real + z.imag * z.imag, -2.0 * z.real, 1.0)] * c)
    factors.sort()
    out = np.array([1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for f in factors:
            out = np.convolve(out, f)
    finite = np.isfinite(out)
    if not finite.all():
        raise NumericalError(
            f"target polynomial coefficient of x**{int(np.argmin(finite))} "
            "overflows the float range"
        )
    out[-1] = 1.0
    spec._monic = Polynomial(out)
    return spec._monic


# The characteristic polynomial comes from the trace recurrence
#
#     N_k = A M_{k-1},   c_k = -tr(N_k) / k,   M_k = N_k + c_k I,   M_0 = I,
#
# which needs only matrix products and so is independent of any eigenvalue
# solver.  It cancels heavily: on strongly non-normal matrices (a feedback
# row much larger than the spectral radius) plain doubles lose the answer
# entirely, and at n = 64 a state of two doubles per entry still gets the
# worst coefficient of each matrix wrong by a median 5e-5 of its size on
# the 60 verify-large closed loops of the benchmark's seeds 1-6.  So M is
# carried as integer digits on power-of-two grids, and each product A M is
# formed without rounding error on BLAS from slices of beta bits (Ozaki,
# Ogita, Oishi & Rump, "Error-free transformations of matrix
# multiplication by using fast routines of matrix multiplication and its
# applications", Numer. Algorithms 2012):
#
# * A is scaled by a power of two into max|A| < 1 and cut once, on one grid
#   for all of it, into integer slices: A = sum_i A_i 2**-((i+1) beta),
#   |A_0| <= 2**beta and |A_i| <= 2**(beta-1) for i > 0.
# * Column c of M is L digits on grids of its own: M[:, c] = sum_j D_j[:, c]
#   2**(e_c - (j+1) beta), with e_c = 1 + beta lift_c, so every grid of
#   every column is some 2**(1 + beta m).  Each |D_j| <= h, where
#   h = 2**(beta-1) (1 + 2**-5).
# * The group S_s = sum_{i+j=s} A_i D_j, s < G, is an integer matrix, and
#   column c of it stands on the grid 2**(e_c - (s+2) beta).  Each group is
#   a BLAS product of a band of the stacked slices by a band of the stacked
#   digits, and one batched call forms them all.  A group is exact in
#   any summation order, because no partial sum can exceed
#   n h 2**(beta-1) (s+2) <= n (G+1) 2**(2 beta - 2) (1 + 2**-5) <= 2**52,
#   the bound ``_slice_plan`` picks beta by.  G is L plus one level for
#   every beta bits by which a row's largest entry lies below A's largest,
#   so the product of a small row still meets L digits of M below the
#   row's first slice.
# * The groups get P zero levels on top, and carry rounds move all but
#   half a grid step of every level into the level above, exactly
#   (integers below 2**53), until every digit lies within h.
# * The trace is read off the diagonal's digits: at most n of them share a
#   grid, so each grid's sum is exact, and math.fsum adds the grids.  It is
#   divided by k with error-free steps into four words, about 212 bits of
#   c_k, and c_k is rounded once from them for the result.
# * The words of c_k are cut onto the grids of the diagonal and carried
#   in.  P is 2, or more when |c_k| lies far above some column's grid: it
#   keeps every column's value within 2**(beta-2) units of its top level,
#   so the top digit stays within h as well.
# * Each column keeps the L digits from its top nonzero one and moves e_c
#   with them.  What falls below is dropped: less than one unit of the last
#   digit kept, at most about 2**-((L-1) beta) of the column's largest
#   entry.  A column that c_k lands more than (L+1) beta + log2(n) + 3 bits
#   above, or an all-zero one, therefore keeps only c_k, on c_k's grid.
# * With b (``open_loop_record``) the state has one more column, x, run one
#   step behind M: step k forms x_k = A x_{k-1} + c_{k-1} b, so
#   x_k = M_{k-1} b.  b is cut once, until nothing is left, into slices on
#   the grids 2**-((i+1) beta); c_{k-1}'s digits, already cut for the
#   diagonal, times those slices are exact integers on x's grids, and they
#   join x's group sums before the carry rounds, still below 2**53.  x
#   keeps its own window, top padding and far rule, and adds nothing to
#   M's columns, so c_k is the same bits with or without it.
# * The far rule leaves no column and no x more than far_bits = (L+1) beta
#   + ceil(log2(n)) + 3 bits below c_k's grid, so P <= P_max =
#   ``_top_padding(far_bits, beta)``, and a larger P raises NumericalError.
#   The state is one buffer with P_max top levels, and a step works on its
#   view from P_max - P levels down, zeroing the levels a grown P takes in.

_WINDOW_BITS = 168  # a column keeps (L - 1) beta >= this many bits below its top digit
_QUOTIENT_WORDS = 4  # words of c_k, about 212 bits
_DIGIT_SLACK = 1.0 + 2.0**-5  # digits stay within 2**(beta-1) times this


def _slice_plan(n: int, spread: int):
    """Slice width beta, window L, group levels G and carry rounds at order
    n, for rows whose largest entries span ``spread`` bits.

    beta is the widest slice whose groups obey the bound above, and L the
    fewest digits with (L - 1) beta >= ``_WINDOW_BITS``.  The carry rounds
    start from levels below 2**53; each round leaves a digit half a grid
    step plus what the level below passes up, and they stop once that is
    within ``_DIGIT_SLACK``.
    """
    beta = 26
    while True:
        window = 1 + math.ceil(_WINDOW_BITS / beta)
        levels = window + spread // beta
        if 2 * beta - 2 + math.log2(n * (levels + 1) * _DIGIT_SLACK) <= 52:
            break
        beta -= 1
    bound, rounds = 53.0, 0
    while bound > beta - 1 + math.log2(_DIGIT_SLACK):
        bound = math.log2(2.0 ** (beta - 1) + 2.0 ** (bound - beta) + 1.0)
        rounds += 1
    return beta, window, levels, rounds


def _carry(digits, beta: int, rounds: int, up=None):
    """Carry rounds over the levels (axis 0) of integer digits, in place;
    ``up`` is scratch shaped like ``digits[1:]``."""
    if up is None:
        up = np.empty_like(digits[1:])
    for _ in range(rounds):
        np.multiply(digits[1:], 2.0**-beta, out=up)
        np.rint(up, out=up)
        digits[:-1] += up
        up *= 2.0**beta
        digits[1:] -= up


def _top_padding(bits: float, beta: int) -> int:
    """Zero levels P on top of the groups that keep a column value below
    2**(e_c + bits + 1) within 2**(beta-2) units of the top level, whose
    grid is 2**(e_c + (P-2) beta)."""
    return 1 + math.ceil((bits + 3) / beta)


def _quotient(values, k: int) -> list:
    """``_QUOTIENT_WORDS`` words of ``sum(values) / k``.

    Each word is the rounded quotient of what is left; ``fsum`` keeps what
    is left exact, because subtracting ``q * k`` is subtracting ``q`` times
    each power of two that makes up k.  ``values`` is extended in place.
    """
    powers = [-math.ldexp(1.0, b) for b in range(k.bit_length()) if k >> b & 1]
    words = []
    for _ in range(_QUOTIENT_WORDS):
        q = math.fsum(values) / k
        words.append(q)
        values.extend(q * p for p in powers)
    return words


def open_loop_record(A, b) -> OpenLoopRecord:
    """The trace recurrence on A, run once with ``x_k = M_{k-1} b`` as an
    extra column; ``OpenLoopRecord`` says what it keeps, ``char_poly`` what
    its polynomial's precision is."""
    A = _as_square(A, "A")
    n = A.shape[0]
    b = _as_vector(b, n, "b")
    shift = int(np.frexp(np.max(np.abs(A)))[1])
    A = np.ldexp(A, -shift)
    row_max = np.max(np.abs(A), axis=1)
    row_exp = np.frexp(row_max[row_max > 0.0])[1]
    spread = -int(row_exp.min()) if row_exp.size else 0
    beta, window, levels, rounds = _slice_plan(n, spread)

    rest = A.copy()
    a_slices = []
    for i in range(1, levels + 1):
        a_slices.append(np.rint(np.ldexp(rest, i * beta)))
        rest -= np.ldexp(a_slices[-1], -i * beta)
        if not rest.any():
            break
    depth = len(a_slices)
    # The state is kept transposed, column c of M in row c and x in row n,
    # so that a column and its digits are contiguous.  Epad is depth - 1
    # zero blocks, the digits D_0^T | ... | D_{L-1}^T, and zeros; A_stack is
    # A_{depth-1}^T over ... over A_0^T.  Group s, transposed, is then the
    # window of columns s n .. (s + depth) n of Epad times A_stack, one
    # product for every s.
    A_stack = np.concatenate(a_slices[::-1], axis=1).T.copy()
    blocks = levels + depth - 1
    cols = n + 1
    Epad = np.zeros((cols, blocks * n))
    Epad[:n, (depth - 1) * n : depth * n] = np.ldexp(np.eye(n), beta - 1)
    # the first depth - 1 windows start in the zero blocks; at large n the
    # products that skip those blocks are worth their extra calls
    skip = depth - 1 if n >= 32 else 0
    item = Epad.itemsize
    windows = np.ndarray((levels - skip, cols, depth * n), Epad.dtype, Epad, skip * n * item,
                         (n * item, blocks * n * item, item))
    # Column c's digit j stands on the grid 2**(1 + beta (lift[c] - j - 1)),
    # so the grids of all columns are of the one family 2**(1 + beta m).
    lift = np.zeros(cols, dtype=np.int64)
    diag_lift = lift[:n]  # a view: the columns of M
    found = np.ones(cols, dtype=bool)  # columns with a nonzero digit
    all_found = True
    pad0 = _top_padding(math.log2(n), beta)  # |N[:, c]| < n 2**e_c
    # a column this far below c_k's grid falls wholly below the window
    # that c_k opens on its diagonal
    far_bits = (window + 1) * beta + math.ceil(math.log2(n)) + 3
    # a step's state is T = store[pad_max - pad:]: the body, pad + levels
    # levels, then window - 1 zero levels that let any window be read
    pad_max = _top_padding(far_bits, beta)
    height = pad_max + levels
    store = np.zeros((height + window - 1, cols, n))
    store_diagonal = store[:height].reshape(height, cols * n)[:, : n * n : n + 1]  # a view
    up = np.empty((height - 1, cols, n))
    levels_down = np.arange(height)[:, None]
    cut = np.arange(2 + math.ceil(54 / beta))
    cut_steps = beta * cut
    # Block b of row c of Epad is read from row (first[c] + b - depth + 1) cols
    # + c of T.reshape(-1, n); a block outside the window reads past the
    # end, which np.take clips to the last row, a zero one.
    digit = np.arange(blocks) - (depth - 1)
    reads = (np.where((digit >= 0) & (digit < window), digit, 2**40) * cols
             + np.arange(cols)[:, None])

    def state(pad):
        """T, its body, the body's diagonal and its levels at top padding
        pad; past ``pad_max`` the view would wrap to the store's end."""
        if pad > pad_max:
            raise NumericalError(f"top padding {pad} exceeds the {pad_max} levels held")
        T = store[pad_max - pad :]
        return T, T[: pad + levels], store_diagonal[pad_max - pad :], levels_down[: pad + levels]

    pad = pad0  # more for a step whose x lies far below c_{k-1} b
    # x runs one step behind M: step k forms x_k = A x_{k-1} + c_{k-1} b
    # from x_0 = 0 and c_0 = 1.  ``held`` is c_{k-1}'s digits, on the grids
    # 2**(1 + beta (g - p)) for place p, and g; b, scaled by 2**-b_shift
    # into [0.5, 1), is cut until nothing is left into slices on the grids
    # 2**-((i+1) beta), kept in reverse order.
    b_shift = int(np.frexp(np.max(np.abs(b)))[1])
    rest = np.ldexp(b, -b_shift)
    b_slices = []
    while rest.any():
        b_slices.append(np.rint(np.ldexp(rest, (len(b_slices) + 1) * beta)))
        rest -= np.ldexp(b_slices[-1], -len(b_slices) * beta)
    b_slices = np.array(b_slices[::-1]).reshape(-1, n)
    padded_store = np.empty(height + b_slices.shape[0] - 1)
    held = (np.array([2.0 ** (beta - 1)]), -1)
    x_digits = Epad[n, (depth - 1) * n : (depth - 1 + window) * n].reshape(window, n)
    # c_k's words (of 2**-shift A), x_k's digits and x_k's unscaled top grid
    words = np.empty((n, _QUOTIENT_WORDS))
    digits = np.empty((n, window, n))
    grids = np.empty(n, dtype=np.int64)
    desc = [1.0]
    for k in range(1, n + 1):
        T, body, dg, down = state(pad)
        T[:pad] = 0.0
        np.matmul(windows, A_stack, out=T[pad + skip : pad + levels])
        for s in range(skip):
            np.matmul(Epad[:, (depth - 1) * n : (depth + s) * n],
                      A_stack[(depth - 1 - s) * n :], out=T[pad + s])
        if held is not None and b_slices.size:
            # c_{k-1} b joins x's group sums before they are carried.  Level
            # l of x takes c_{k-1}'s digit at place l - i - offset times b's
            # slice i: a Hankel matrix of the digits, read off a zero-padded
            # copy, times the slices in reverse.  A product is below
            # 2**(2 beta + 1.4), and a row of b has at most ceil(53 / beta)
            # + 1 nonzero slices, so with the group sum below 2**52 every
            # level stays below 2**53, exactly.
            c_digits, grid = held
            count, width = pad + levels, b_slices.shape[0]
            offset = int(lift[n]) + pad - 1 - grid
            lo = max(0, 1 - width - offset)
            hi = min(c_digits.size, count - offset)
            if lo < hi:
                padded = padded_store[: count + width - 1]
                padded.fill(0.0)
                padded[lo + width - 1 + offset : hi + width - 1 + offset] = c_digits[lo:hi]
                hankel = np.ndarray((count, width), padded.dtype, padded, 0, (item, item))
                body[:, n] += hankel @ b_slices
        _carry(body, beta, rounds, up[pad_max - pad :])
        # the trace: place the diagonal's digits in the family of grids,
        # from the top one, 2**(1 + beta (max lift + pad - 2)), down, and sum
        # place by place, exactly: a place takes at most n digits within h
        lift_max = int(diag_lift.max())
        places = (lift_max - diag_lift) + down
        sums = np.bincount(places.ravel(), dg.ravel())
        top_grid = 1 + beta * (lift_max + pad - 2)
        terms = np.ldexp(-sums, top_grid - beta * np.arange(sums.size))
        c = _quotient(terms.tolist(), k)
        desc.append(math.fsum(c))
        words[k - 1] = c
        held = None
        if k < n and c[0] != 0.0:
            # M_k = N_k + c_k I
            top = math.frexp(c[0])[1]
            lift_min = int(diag_lift.min())
            if 1 + beta * lift_min < top - far_bits or not (all_found or found[:n].all()):
                far = ~found | (1 + beta * lift < top - far_bits)
                far[n:] = False
                body[:, far] = 0.0
                lift[far] = -((1 - top) // beta)
                lift_min, lift_max = int(diag_lift.min()), int(diag_lift.max())
                places = (lift_max - diag_lift) + down
            need = _top_padding(top - (1 + beta * lift_min), beta)  # |c_k| < 2**top
            if need > pad:
                store[pad_max - need : pad_max - pad] = 0.0
                pad = need
                T, body, dg, down = state(pad)
                places = (lift_max - diag_lift) + down
            # c_k's words in the family of grids.  A word's 53 bits span the
            # places from the one just above it (place 0 at most) down
            # ``len(cut)`` places; Q[w, i] counts the steps of the i-th of
            # them in word w, so its digit is Q[w, i] - 2**beta Q[w, i-1],
            # exactly (by Sterbenz where both are large).
            top_grid = 1 + beta * (lift_max + pad - 2)
            start = [max(0, (top_grid - math.frexp(w)[1] - 1) // beta) for w in c]
            place = np.add.outer(start, cut)
            steps = np.add.outer([beta * s - top_grid for s in start], cut_steps)
            Q = np.rint(np.ldexp(np.array(c)[:, None], steps))
            Q[:, 1:] -= Q[:, :-1] * 2.0**beta
            count = lift_max - lift_min + pad + levels
            c_digits = np.bincount(place.ravel(), Q.ravel(), minlength=count)
            dg += c_digits[places]
            _carry(dg, beta, 1)
            held = (c_digits, lift_max + pad - 2)
        # each column keeps the window of digits from its top nonzero one,
        # which is almost always within the first pad + 1 levels
        nonzero = body[: pad + 1].any(axis=2)
        found = nonzero.any(axis=0)
        all_found = bool(found.all())
        if not all_found:
            nonzero = body.any(axis=2)
            found = nonzero.any(axis=0)
            all_found = bool(found.all())
        first = nonzero.argmax(axis=0)
        if not all_found:
            first[~found] = pad - 1
        lift -= first - (pad - 1)
        np.take(T.reshape(-1, n), reads + (first * cols)[:, None], axis=0,
                out=Epad.reshape(cols, blocks, n), mode="clip")
        lift_x = int(lift[n])
        digits[k - 1] = x_digits
        grids[k - 1] = 1 + beta * lift_x + shift * (k - 1) + b_shift
        pad = pad0
        if held is not None:
            # c_k b is added at step k + 1.  An x_k that lies wholly below
            # the window it opens is dropped, as a column of M is
            # (``far_bits``); else the top padding grows to hold it.
            top = math.frexp(c[0])[1]
            if 1 + beta * lift_x < top - far_bits or not found[n]:
                Epad[n] = 0.0
                lift_x = lift[n] = -((1 - top) // beta)
            pad = max(pad0, _top_padding(top - (1 + beta * lift_x), beta))
    # undo the scaling: the coefficient of x**(n-k) scales by 2**(shift k)
    with np.errstate(over="ignore"):
        coeffs = np.ldexp(desc[::-1], shift * np.arange(n, -1, -1))
    finite = np.isfinite(coeffs)
    if not finite.all():
        raise NumericalError(
            f"characteristic polynomial coefficient of x**{int(np.argmin(finite))} "
            "overflows the float range"
        )
    return OpenLoopRecord(Polynomial(coeffs), words, shift, digits, grids, beta)


def char_poly(A) -> Polynomial:
    """Characteristic polynomial of a square matrix, ascending and monic.

    Runs the trace recurrence with every product A M formed exactly from
    beta-bit slices on BLAS (beta is 22 at n = 64), and M carried as L
    integer digits per entry on power-of-two grids of its column (L = 9 at
    n = 64); the comment above has the details.  Each coefficient is
    rounded once, from about 212 bits of c_k.  This is the ``p`` of
    ``open_loop_record(A, e_1)``: the recurrence always carries one more
    column, x_k = M_{k-1} b, which adds nothing to M's columns, so p is the
    same bits for every b.  The package checks closed loops from a system's
    stored record, not with this function.

    Precision contract:

    * Window: after every step each column of M keeps the L digits from its
      top nonzero one, so an entry is off by less than one unit of the
      last, about 2**-((L-1) beta) <= 2**-168 of its column's largest entry.
    * Row spread: a row of A whose largest entry lies b bits below A's
      largest gets b // beta more group levels, so its products keep as
      many digits below the row's own scale as the largest row's do.
    * Exactness: every group sum and carry is exact, the group sums because
      ``n (G+1) 2**(2 beta - 2) (1 + 2**-5) <= 2**52`` for the plan
      ``_slice_plan`` picks, the carries because they move integers below
      2**53 by powers of two.

    The result matched the exact Berkowitz polynomial of
    ``perfbench/oracle.py`` bit for bit on the benchmark's verify-large
    closed loops (seeds 1-6, n = 24-64) and on its dense systems.  It does
    not on companion matrices with large last rows: on the Bass-Gura closed
    loop of an integrator chain with targets spread over [-2, -1], 2 of the
    coefficients are wrong at n = 30 and 31 at n = 48, most of them 0.0.  The
    matrix is scaled by a power of two first, which changes no rounding;
    since the digits are integers with a grid per column, only the trace's
    terms and the final coefficients meet the ends of the double range; a
    coefficient beyond it raises NumericalError.
    """
    A = _as_square(A, "A")
    return open_loop_record(A, np.eye(A.shape[0])[0]).p


class OpenLoopRecord:
    """A's characteristic polynomial with what the closed-loop polynomial of
    any gain needs: one run of the trace recurrence on ``(A, b)``.

    The rank-one determinant identity
    ``det(sI - A - b k^T) = det(sI - A) - k^T adj(sI - A) b`` and
    ``adj(sI - A) = sum_j s**(n-1-j) M_j`` give the closed-loop coefficient
    of ``s**(n-k)`` as ``c_k - k^T x_k`` with ``x_k = M_{k-1} b``.  The run
    carries x as one more column of M, ``x_{k+1} = A x_k + c_k b`` with
    ``c_k b`` cut exactly onto its grids, and keeps:

    * ``p``: ``char_poly(A)``, bit for bit;
    * ``words``: the four words of each c_k of ``2**-shift A``, so c_k is
      their sum times ``2**(shift k)``;
    * ``digits``, ``grids``: x_k is ``sum_j digits[k-1, j] 2**(grids[k-1]
      - (j+1) beta)``, L integer digits within ``2**(beta-1) (1 + 2**-5)``.

    The arrays are read-only.
    """

    __slots__ = ("p", "words", "shift", "digits", "grids", "beta", "_word_lead")

    def __init__(self, p, words, shift, digits, grids, beta):
        for arr in (words, digits, grids):
            arr.flags.writeable = False
        self.p, self.words, self.shift = p, words, shift
        self.digits, self.grids, self.beta = digits, grids, beta
        # the exponent just above c_k, the scale of each row's terms when
        # k^T x_k is smaller; a zero c_k sets no scale
        lead = np.frexp(words[:, 0])[1] + shift * np.arange(1, words.shape[0] + 1)
        self._word_lead = np.where(words[:, 0] != 0.0, lead, np.iinfo(np.int64).min)

    def closed_loop(self, k) -> Polynomial:
        """Characteristic polynomial of the exactly formed ``A + b k^T``.

        k is cut exactly into beta-bit slices on the grids
        ``2**(top - (i+1) beta)``; each ``digits[k-1, j] . K_i`` is one
        exact integer of one BLAS product, under the plan's bound (a sum of
        n products below ``2**(2 beta - 1) (1 + 2**-5)``).  Each coefficient
        ``c_k - k^T x_k`` is then one ``math.fsum`` of c_k's words and those
        integers, rounded once.  Its error before that rounding is c_k's
        own (``char_poly``'s contract) plus ``|k|^T`` times what x_k lost:
        the window's drops, less than ``2**-((L-1) beta)`` of x's largest
        entry at each step, carried on by A.  A coefficient beyond the
        float range raises NumericalError.
        """
        n, window = self.digits.shape[:2]
        k = _as_vector(k, n, "gain")
        beta = self.beta
        top = math.frexp(float(np.abs(k).max()))[1]
        # rest - rint(rest) is exact, and so is scaling it up by 2**beta
        rest, slices = np.ldexp(k, beta - top), []
        while rest.any():
            slices.append(np.rint(rest))
            rest -= slices[-1]
            rest *= 2.0**beta
        dots = self.digits @ np.array(slices).reshape(-1, n).T  # (n, L, slices)
        # each row is summed scaled by a power of two at or above its
        # largest term, so no term overflows on the way
        dot_lead = self.grids + (top + math.ceil(math.log2(n)) + 1)
        lead = np.maximum(self._word_lead, dot_lead)
        steps = beta * (np.arange(window)[:, None] + np.arange(len(slices)) + 2)
        words = np.ldexp(self.words, (self.shift * np.arange(1, n + 1) - lead)[:, None])
        dots = np.ldexp(-dots, (self.grids + top - lead)[:, None, None] - steps)
        desc = []
        for j, (w, d, e) in enumerate(zip(words.tolist(), dots.reshape(n, -1).tolist(),
                                          lead.tolist())):
            try:
                desc.append(math.ldexp(math.fsum(w + d), e))
            except OverflowError:
                raise NumericalError(
                    f"closed-loop characteristic polynomial coefficient of x**{n - 1 - j} "
                    "overflows the float range"
                ) from None
        return Polynomial(desc[::-1] + [1.0])


def eval_matrix(q: Polynomial, A) -> np.ndarray:
    """Evaluate a Polynomial at a square matrix by Horner's rule."""
    if not isinstance(q, Polynomial):
        raise ValidationError(f"eval_matrix needs a Polynomial, got {type(q).__name__}")
    A = _as_square(A, "A")
    eye = np.eye(A.shape[0])
    out = q.coeffs[-1] * eye
    for c in q.coeffs[-2::-1]:
        out = out @ A + c * eye
    return out

