"""Exact closed-loop residual oracle, sharing no code with poleplace.

A float matrix is an integer matrix divided by a power of two, so its
characteristic polynomial can be computed without rounding: Berkowitz's
division-free algorithm in Python integers, then one exact rescale.  The
wanted polynomial is expanded from the float targets in Fractions.  The
residual is therefore the true distance between the polynomial of the
float closed loop and the requested one, with no floating-point error of
its own (numpy's ``poly(eigvals(...))`` is off by up to 2e-4 at n = 16-20).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RESIDUAL_LIMIT = 1e-6  # the limit `poleplace verify` applies


def berkowitz(M: list[list[int]]) -> list[int]:
    """Coefficients of ``det(x I - M)``, descending from the leading 1.

    Division free, so exact on integer input.  Step r borders the leading
    r x r block with row R, column S and corner a; the new polynomial is a
    lower-triangular Toeplitz matrix with first column
    ``[1, -a, -R S, -R M_r S, ..., -R M_r^(r-1) S]`` times the old one.
    """
    n = len(M)
    p = [1]
    for r in range(n):
        R = M[r][:r]
        v = [M[i][r] for i in range(r)]
        col = [1, -M[r][r]]
        for j in range(r):
            col.append(-sum(x * y for x, y in zip(R, v)))
            if j + 1 < r:
                v = [sum(x * y for x, y in zip(M[i][:r], v)) for i in range(r)]
        p = [
            sum(col[i - j] * p[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
            for i in range(r + 2)
        ]
    return p


def char_poly_exact(M) -> list[Fraction]:
    """Exact characteristic polynomial of a float matrix, descending."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.all(np.isfinite(M)):
        raise ValueError("char_poly_exact needs a finite square matrix")
    ratios = [[float(x).as_integer_ratio() for x in row] for row in M]
    den = max((d for row in ratios for _, d in row), default=1)
    ints = [[num * (den // d) for num, d in row] for row in ratios]
    return [Fraction(c, den**j) for j, c in enumerate(berkowitz(ints))]


def poly_from_roots(roots) -> list[Fraction]:
    """Exact monic polynomial, descending, of a self-conjugate multiset of
    float values; each conjugate pair contributes one real quadratic."""
    p = [Fraction(1)]
    for z in roots:
        z = complex(z)
        if z.imag < 0.0:
            continue
        if z.imag == 0.0:
            factor = [Fraction(1), -Fraction(z.real)]
        else:
            re, im = Fraction(z.real), Fraction(z.imag)
            factor = [Fraction(1), -2 * re, re * re + im * im]
        out = [Fraction(0)] * (len(p) + len(factor) - 1)
        for i, a in enumerate(p):
            for j, c in enumerate(factor):
                out[i + j] += a * c
        p = out
    return p


def closed_loop_residual(A, b, k, targets) -> float:
    """``max |c_got - c_want| / max(1, |c_want|)`` over the coefficients of
    the float matrix ``A + b k^T`` and of the targets, exactly."""
    M = np.asarray(A, dtype=float) + np.outer(b, k)
    got = char_poly_exact(M)
    want = poly_from_roots(targets)
    if len(want) != len(got):
        raise ValueError(f"{len(want) - 1} targets for an order-{len(got) - 1} matrix")
    return float(max(abs(g - w) / max(1, abs(w)) for g, w in zip(got, want)))
