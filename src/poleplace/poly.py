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

    @classmethod
    def _of(cls, coeffs: np.ndarray) -> "Polynomial":
        """A Polynomial of ``coeffs``, a fresh nonempty 1-D array of finite
        floats, taken over read-only without the checks and the copy; its
        caller, ``OpenLoopRecord.closed_loop``, builds it from rounded
        sums that are finite or raise first."""
        poly = cls.__new__(cls)
        coeffs.flags.writeable = False
        poly.coeffs = coeffs
        return poly

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
        is self-conjugate by construction, taken over without the checks.

        Its callers and why their values qualify:

        - ``linalg._hessenberg_eigenvalues`` and
          ``subspace.StepRecord.spectrum_after`` (built in
          ``subspace._run_plan``) read the values off Schur blocks: a 1x1
          block gives a real, and a 2x2 block an exact conjugate or real
          pair (``linalg._block_eigs``, ``linalg._standard_eigs``).  The
          first scales its form and raises NumericalError for a value
          past the float range; the second takes the carried form's
          values as they are, finite while its blocks' eigenvalues are.
        - ``subspace.paired_plan`` builds its groups as ``(z,
          z.conjugate())`` pairs of its spectra's values with positive
          imaginary part, and as reals ``complex(x)``, each its own
          partner; ``subspace._merge_close`` concatenates such groups.
        - ``Spectrum.minus`` removes a self-conjugate sub-multiset from a
          Spectrum.
        """
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

    def minus(self, other: "Spectrum") -> "Spectrum":
        """Multiset difference, in one pass over ``self``: each value of
        ``other`` removes its first occurrence not yet removed.  ``other``
        must be contained in ``self``.  The rest of a self-conjugate
        multiset less a self-conjugate sub-multiset is self-conjugate, so
        it is taken over as it stands (``_of``)."""
        take = other.counter()
        kept = []
        for z in self.values:
            if take.get(z, 0) > 0:
                take[z] -= 1
            else:
                kept.append(z)
        if +take:
            raise ValidationError("cannot remove values that are not in the spectrum")
        return Spectrum._of(tuple(kept))


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
# * A step's views and scratch are made once per top padding, the gather's
#   reads once per pattern of top rows; the trace and c_k's carry-in work on
#   a contiguous copy of the diagonal, whose places change only when the
#   columns of M move unevenly, and c_k is cut on Python floats.

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


def _carry(digits, beta: int, rounds: int, up):
    """Carry rounds over the levels (axis 0) of integer digits, in place;
    ``up`` is scratch shaped like ``digits[1:]``."""
    upper, lower = digits[:-1], digits[1:]
    for _ in range(rounds):
        np.multiply(lower, 2.0**-beta, out=up)
        np.rint(up, out=up)
        upper += up
        up *= 2.0**beta
        lower -= up


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
    words = [math.fsum(values) / k]
    while len(words) < _QUOTIENT_WORDS:
        values += [words[-1] * p for p in powers]
        words.append(math.fsum(values) / k)
    return words


def open_loop_record(A, b) -> OpenLoopRecord:
    """The trace recurrence on A, run once with ``x_k = M_{k-1} b`` as an
    extra column; ``OpenLoopRecord`` says what it keeps, ``char_poly`` what
    its polynomial's precision is."""
    A = _as_square(A, "A")
    n = A.shape[0]
    b = _as_vector(b, n, "b")
    magnitude = np.abs(A)
    shift = math.frexp(magnitude.max())[1]
    # a zero row reads exponent 0, at or above every other row's
    spread = -int(np.frexp(np.ldexp(magnitude.max(axis=1), -shift))[1].min())
    beta, window, levels, rounds = _slice_plan(n, spread)

    rest = np.ldexp(A, -shift)
    a_slices = []
    for i in range(1, levels + 1):
        a_slices.append(np.rint(np.ldexp(rest, i * beta)))
        rest -= np.ldexp(a_slices[-1], -i * beta)
        if not np.count_nonzero(rest):
            break
    depth = len(a_slices)
    # The state is kept transposed, column c of M in row c and x in row n,
    # so that a column and its digits are contiguous.  Epad is depth - 1
    # zero blocks, the digits D_0^T | ... | D_{L-1}^T, and zeros; A_stack is
    # A_{depth-1}^T over ... over A_0^T.  Group s, transposed, is then the
    # window of columns s n .. (s + depth) n of Epad times A_stack, one
    # product for every s.
    A_stack = np.concatenate(a_slices[::-1], axis=1).T.copy()
    blocks, cols = levels + depth - 1, n + 1
    Epad = np.zeros((cols, blocks * n))
    np.fill_diagonal(Epad[:n, (depth - 1) * n : depth * n], 2.0 ** (beta - 1))
    # the first depth - 1 windows start in the zero blocks; at large n the
    # products that skip those blocks are worth their extra calls
    skip = depth - 1 if n >= 32 else 0
    item = Epad.itemsize
    windows = np.ndarray((levels - skip, cols, depth * n), Epad.dtype, Epad, skip * n * item,
                         (n * item, blocks * n * item, item))
    # Column c's digit j stands on the grid 2**(1 + beta (lift_c - j - 1)),
    # so the grids of all columns are of the one family 2**(1 + beta m).
    # The columns of M lie ``below[c]`` lifts under the top one, ``lift_top``,
    # ``deepest`` at most; these change only where a step moves them unevenly.
    lift_top, below, deepest, lift_x = 0, [0] * n, 0, 0
    found, all_found = None, True  # every column has a nonzero digit
    pad0 = _top_padding(math.log2(n), beta)  # |N[:, c]| < n 2**e_c
    # a column this far below c_k's grid falls wholly below the window
    # that c_k opens on its diagonal
    far_bits = (window + 1) * beta + math.ceil(math.log2(n)) + 3
    # a step's state is T = store[pad_max - pad:]: the body, pad + levels
    # levels, then window - 1 zero levels that let any window be read; a
    # level above T is zeroed when a grown pad takes it in
    pad_max = _top_padding(far_bits, beta)
    height = pad_max + levels
    store = np.empty((height + window - 1, cols, n))
    store[height:] = 0.0
    store_diagonal = store[:height].reshape(height, cols * n)[:, : n * n : n + 1]  # a view
    up, diagonal = np.empty((height - 1, cols, n)), np.empty((2 * height - 1, n))
    levels_down = np.arange(height)[:, None]
    # Block b of row c of Epad is read from row (first[c] + b - depth + 1) cols
    # + c of T.reshape(-1, n); a block outside the window reads past the
    # end, which np.take clips to the last row, a zero one.
    reads = np.full((cols, blocks), 2**40)
    reads[:, depth - 1 : depth - 1 + window] = np.arange(window * cols).reshape(window, cols).T
    views, gathers = {}, {}  # by top padding and by the first rows read

    def state(pad):
        """At top padding pad: T, its rows, the body and x's levels in it,
        the group carry's scratch, the body's diagonal, a contiguous copy of
        it and that copy's carry scratch, the levels, the Hankel matrix and a
        row-wise "any" of the top pad + 1 levels with a true row below; past
        ``pad_max`` the view would wrap to the store's end."""
        if pad > pad_max:
            raise NumericalError(f"top padding {pad} exceeds the {pad_max} levels held")
        if pad not in views:
            T, count = store[pad_max - pad :], pad + levels
            views[pad] = (T, T.reshape(-1, n), T[:count], T[:count, n], up[pad_max - pad :],
                          store_diagonal[pad_max - pad :], diagonal[:count],
                          diagonal[height : height + count - 1], levels_down[:count],
                          np.ndarray((count, width), float, padded, 0, (item, item)),
                          np.ones((pad + 2, cols), dtype=bool))
        return views[pad]

    def lifted(lifts):
        """lift_top, below and deepest of the columns of M at ``lifts``."""
        top = max(lifts)
        return top, [top - v for v in lifts], top - min(lifts)

    # x runs one step behind M: step k forms x_k = A x_{k-1} + c_{k-1} b
    # from x_0 = 0 and c_0 = 1.  ``held`` is c_{k-1}'s digits, on the grids
    # 2**(1 + beta (g - p)) for place p, and g; b, scaled by 2**-b_shift
    # into [0.5, 1), is cut until nothing is left into slices on the grids
    # 2**-((i+1) beta), kept in reverse order.
    b_shift = math.frexp(np.abs(b).max())[1]
    rest = np.ldexp(b, -b_shift)
    b_slices = []
    while np.count_nonzero(rest):
        b_slices.append(np.rint(np.ldexp(rest, (len(b_slices) + 1) * beta)))
        rest -= np.ldexp(b_slices[-1], -len(b_slices) * beta)
    b_slices = np.array(b_slices[::-1]).reshape(-1, n)
    width = b_slices.shape[0]
    padded = np.empty(height + width - 1)
    held = (np.array([2.0 ** (beta - 1)]), -1)
    x_digits = Epad[n, (depth - 1) * n : (depth - 1 + window) * n].reshape(window, n)
    Epad_blocks = Epad.reshape(cols, blocks, n)
    # c_k's words (of 2**-shift A), x_k's digits, x_k's unscaled top grid and c_k
    words, digits, grids, desc = [], np.empty((n, window, n)), [], [1.0]
    places_cut, scale, remainder = 2 + math.ceil(54 / beta), 2.0**beta, math.remainder
    pad, step_pad, placed_pad = pad0, None, None  # pad grows for an x far below c_{k-1} b
    for k in range(1, n + 1):
        if pad != step_pad:
            T, rows, body, x_levels, scratch, dg, dc, dc_up, down, hankel, nonzero = state(pad)
            step_pad = pad
        T[:pad] = 0.0
        np.matmul(windows, A_stack, out=T[pad + skip : pad + levels])
        for s in range(skip):
            np.matmul(Epad[:, (depth - 1) * n : (depth + s) * n],
                      A_stack[(depth - 1 - s) * n :], out=T[pad + s])
        if held is not None and width:
            # c_{k-1} b joins x's group sums before they are carried.  Level
            # l of x takes c_{k-1}'s digit at place l - i - offset times b's
            # slice i: a Hankel matrix of the digits, read off a zero-padded
            # copy, times the slices in reverse.  A product is below
            # 2**(2 beta + 1.4), and a row of b has at most ceil(53 / beta)
            # + 1 nonzero slices, so with the group sum below 2**52 every
            # level stays below 2**53, exactly.
            c_digits, grid = held
            offset = lift_x + pad - 1 - grid
            lo = max(0, 1 - width - offset)
            hi = min(c_digits.size, pad + levels - offset)
            if lo < hi:
                padded.fill(0.0)
                padded[lo + width - 1 + offset : hi + width - 1 + offset] = c_digits[lo:hi]
                x_levels += hankel @ b_slices
        _carry(body, beta, rounds, scratch)
        # the trace: place the diagonal's digits in the family of grids, from
        # the top one down, and sum place by place, exactly: a place takes at
        # most n digits within h
        if placed_pad != pad:
            placed, placed_pad = np.add(below, down), pad
        np.copyto(dc, dg)
        sums = np.bincount(placed.ravel(), dc.ravel())
        top_grid = 1 + beta * (lift_top + pad - 2)
        terms = np.ldexp(-sums, np.arange(top_grid, top_grid - beta * sums.size, -beta))
        c = _quotient(terms.tolist(), k)
        desc.append(math.fsum(c))
        words += c
        held = None
        if k < n and c[0] != 0.0:
            # M_k = N_k + c_k I
            top = math.frexp(c[0])[1]
            lift_min = lift_top - deepest
            if 1 + beta * lift_min < top - far_bits or not (all_found or found[:n].all()):
                lift = lift_top - np.array(below)
                far = 1 + beta * lift < top - far_bits
                if not all_found:
                    far |= ~found[:n]
                body[:, :n][:, far] = 0.0
                lift[far] = -((1 - top) // beta)
                lift_top, below, deepest = lifted(lift.tolist())
                lift_min, placed = lift_top - deepest, np.add(below, down)
                np.copyto(dc, dg)
            need = _top_padding(top - (1 + beta * lift_min), beta)  # |c_k| < 2**top
            if need > pad:
                store[pad_max - need : pad_max - pad] = 0.0
                pad = step_pad = placed_pad = need
                T, rows, body, x_levels, scratch, dg, dc, dc_up, down, hankel, nonzero = state(pad)
                placed = np.add(below, down)
                np.copyto(dc, dg)
            # c_k's words in the family of grids.  A word's 53 bits span the
            # places from the one just above it (place 0 at most) down
            # ``places_cut`` places.  Its digit at a place is the rounded
            # rest; what is left, rest - rint(rest), is exact, and so is
            # scaling that by 2**beta onto the next place.
            top_grid = 1 + beta * (lift_top + pad - 2)
            start = [max(0, (top_grid - math.frexp(w)[1] - 1) // beta) for w in c]
            c_list = [0.0] * max(lift_top - lift_min + pad + levels, max(start) + places_cut)
            for w, p in zip(c, start):
                rest = math.ldexp(w, beta * p - top_grid)
                while rest:
                    left = remainder(rest, 1.0)
                    c_list[p] += rest - left
                    rest, p = left * scale, p + 1
            c_digits = np.array(c_list)
            dc += c_digits[placed]
            _carry(dc, beta, 1, dc_up)
            dg[...] = dc
            held = (c_digits, lift_top + pad - 2)
        # each column keeps the window of digits from its top nonzero one,
        # which is almost always within the first pad + 1 levels: the row
        # below them reads true, so a column with none there reads pad + 1
        np.logical_or.reduce(body[: pad + 1], axis=2, out=nonzero[: pad + 1])
        first = nonzero.argmax(axis=0).tolist()
        all_found = max(first) <= pad
        if not all_found:
            found_levels = body.any(axis=2)
            found = found_levels.any(axis=0)
            all_found = bool(found.all())
            first = np.where(found, found_levels.argmax(axis=0), pad - 1).tolist()
        if first[:n].count(first[0]) == n:
            lift_top += pad - 1 - first[0]
        else:
            lift_top, below, deepest = lifted(
                [lift_top - v + pad - 1 - f for v, f in zip(below, first)])
            placed_pad = None
        lift_x += pad - 1 - first[n]
        key = tuple(first)
        if key not in gathers:
            gathers[key] = reads + np.multiply(first, cols)[:, None]
        np.take(rows, gathers[key], axis=0, out=Epad_blocks, mode="clip")
        digits[k - 1] = x_digits
        grids.append(1 + beta * lift_x + shift * (k - 1) + b_shift)
        pad = pad0
        if held is not None:
            # c_k b is added at step k + 1.  An x_k that lies wholly below
            # the window it opens is dropped, as a column of M is
            # (``far_bits``); else the top padding grows to hold it.
            if 1 + beta * lift_x < top - far_bits or not (all_found or found[n]):
                Epad[n] = 0.0
                lift_x = -((1 - top) // beta)
            pad = max(pad0, _top_padding(top - (1 + beta * lift_x), beta))
    # undo the scaling: the coefficient of x**j scales by 2**(shift (n - j))
    coeffs = []
    for j, d in enumerate(desc[::-1]):
        try:
            coeffs.append(math.ldexp(d, shift * (n - j)))
        except OverflowError:
            raise NumericalError(f"characteristic polynomial coefficient of x**{j} "
                                 "overflows the float range") from None
    return OpenLoopRecord(Polynomial(coeffs), np.array(words).reshape(n, -1), shift, digits,
                          np.array(grids, dtype=np.int64), beta)


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

    __slots__ = ("p", "words", "shift", "digits", "grids", "beta", "_word_lead", "_word_exp",
                 "_dot_lead", "_steps")

    def __init__(self, p, words, shift, digits, grids, beta):
        for arr in (words, digits, grids):
            arr.flags.writeable = False
        self.p, self.words, self.shift = p, words, shift
        self.digits, self.grids, self.beta = digits, grids, beta
        n, window = digits.shape[:2]
        # what ``closed_loop`` reads for every gain: c_k's exponent, the
        # exponent just above c_k (the scale of each row's terms when k^T
        # x_k is smaller; a zero c_k sets no scale), x_k's lead above k's
        # own and the grid offset of digit j
        self._word_exp = shift * np.arange(1, n + 1)
        lead = np.frexp(words[:, 0])[1] + self._word_exp
        self._word_lead = np.where(words[:, 0] != 0.0, lead, np.iinfo(np.int64).min)
        self._dot_lead = grids + (math.ceil(math.log2(n)) + 1)
        self._steps = beta * (np.arange(window)[:, None] + 2)

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
        n = self.digits.shape[0]
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
        lead = np.maximum(self._word_lead, self._dot_lead + top)
        steps = self._steps + beta * np.arange(len(slices))
        # row j holds the words of c_{j+1}, then the integers of -k^T x_{j+1}
        terms = np.concatenate(
            (np.ldexp(self.words, (self._word_exp - lead)[:, None]),
             np.ldexp(-dots, (self.grids + top - lead)[:, None, None] - steps).reshape(n, -1)),
            axis=1)
        desc = []
        try:
            for row, e in zip(terms.tolist(), lead.tolist()):
                desc.append(math.ldexp(math.fsum(row), e))
        except OverflowError:
            raise NumericalError(
                f"closed-loop characteristic polynomial coefficient of x**{n - 1 - len(desc)} "
                "overflows the float range"
            ) from None
        desc.reverse()
        desc.append(1.0)
        return Polynomial._of(np.array(desc))


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

