"""Seeded system families with eigenvalues too close to tell apart.

Each draw is ``(A, b, targets)``, built from ``np.random.default_rng(seed)``
in a fixed order, with targets drawn the way ``poleplace compare`` draws
them (``perfbench/inputs.py`` ``draw_targets``).
"""

from __future__ import annotations

import numpy as np

from test_verify import _load_perfbench

# a perturbed Jordan pair: eigenvalues 1 +- 1e-7, which no invariant
# subspace splits, to be moved to -1 and -2
JORDAN_PAIR = (np.array([[1.0, 1.0], [1e-14, 1.0]]), np.array([0.0, 1.0]), (-1 + 0j, -2 + 0j))


def jordan_draw(seed):
    """An m x m Jordan block ``mu I + N`` (m = 2 or 3) whose corner entry
    ``J[m - 1, 0] = eps`` splits its eigenvalue by about ``eps**(1/m)``
    (eps = 10**u, u on [-18, -6], or 0 below u = -17), beside n - m
    eigenvalues uniform on [-1, 1], in a random orthogonal basis; n is
    6-10 and b uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(6, 11)), int(rng.integers(2, 4))
    u = rng.uniform(-18.0, -6.0)
    J = rng.uniform(-1.0, 1.0) * np.eye(m) + np.eye(m, k=1)
    J[m - 1, 0] = 10.0**u if u >= -17.0 else 0.0
    D = np.zeros((n, n))
    D[:m, :m] = J
    D[m:, m:] = np.diag(rng.uniform(-1.0, 1.0, n - m))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = rng.uniform(-1.0, 1.0, n)
    return Q @ D @ Q.T, b, _load_perfbench("inputs").draw_targets(rng, n)


def close_draw(seed):
    """n = 6-10 eigenvalues uniform on [-1, 1], the second moved to
    ``ev[0] + delta`` (delta = 10**u, u on [-6, -1]) and, half the time,
    the third to ``ev[0] + 2 delta``, in a random non-orthogonal basis X;
    b uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 11))
    delta = 10.0 ** rng.uniform(-6.0, -1.0)
    ev = rng.uniform(-1.0, 1.0, n)
    ev[1] = ev[0] + delta
    if rng.random() < 0.5:
        ev[2] = ev[0] + 2 * delta
    X = rng.standard_normal((n, n))
    A = X @ np.diag(ev) @ np.linalg.inv(X)
    b = rng.uniform(-1.0, 1.0, n)
    return A, b, _load_perfbench("inputs").draw_targets(rng, n)


def jordan_family(st):
    """The Jordan family as a hypothesis strategy, from ``st``, the
    caller's ``hypothesis.strategies``."""
    return st.integers(0, 2**32 - 1).map(jordan_draw)
