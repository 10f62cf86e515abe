"""Test systems, pools and oracles shared by the test modules.

The small fixed systems, the random controllable draw, perfbench's
modules (its seeded pools and its exact oracle, which share no code with
the package), the exact gain in mpmath with its forward error, and seeded
families of systems that are hard to place: eigenvalues too close to tell
apart, and a pool past the conditioning gate.

Each family draw is ``(A, b, targets)``, built from
``np.random.default_rng(seed)`` in a fixed order; the Jordan and close
families draw their targets the way ``poleplace compare`` draws them
(``perfbench/inputs.py`` ``draw_targets``).
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from poleplace import (
    Spectrum,
    StateSpace,
    paired_plan,
    place_ackermann,
    place_bass_gura,
    place_general,
    place_sequential,
)
from poleplace.errors import PolePlacementError


def double_integrator():
    return StateSpace(A=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0])


def diag_system():
    return StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 1.0])


def random_controllable(rng, n):
    for _ in range(50):
        sys = StateSpace(A=rng.uniform(-1, 1, (n, n)), b=rng.uniform(-1, 1, n))
        if abs(np.linalg.det(sys._controllability)) > 1e-4:
            return sys
    raise AssertionError("no controllable draw")


def load_perfbench(name):
    # a module of perfbench, which shares no code with the package: the
    # exact Berkowitz polynomial (oracle) or the seeded pools (inputs)
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    if f"perfbench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        # registered first: a dataclass looks its module up while it is built
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules[f"perfbench_{name}"]


def exact_gain(A, b, targets, dps):
    """Ackermann's ``k* = -e_n^T C^-1 p(A)`` for the double data, in mpmath
    at ``dps`` digits, with no code of the package: the Krylov matrix,
    the target polynomial, its Horner evaluation at A and the solve."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        n = len(b)
        Am = mpmath.matrix(A.tolist())
        C, v = mpmath.matrix(n, n), mpmath.matrix(b.tolist())
        for j in range(n):
            C[:, j] = v
            v = Am * v
        p = [mpmath.mpc(1)]
        for z in targets:
            z = mpmath.mpc(z.real, z.imag)
            p = [hi - z * lo for hi, lo in zip(p + [0], [0] + p)]
        P = mpmath.eye(n)
        for c in p[1:]:
            P = P * Am + mpmath.re(c) * mpmath.eye(n)
        e_n = mpmath.matrix(n, 1)
        e_n[n - 1] = 1
        return -(mpmath.lu_solve(C.T, e_n).T * P)


def forward_error(k, exact) -> float:
    """``||k - k*|| / ||k*||``, taken at the working precision of k*."""
    import mpmath

    with mpmath.workdps(60):
        diff = [mpmath.mpf(float(x)) - y for x, y in zip(k, exact)]
        return float(mpmath.norm(mpmath.matrix(diff)) / mpmath.norm(exact))


@functools.lru_cache(maxsize=1)
def seed1_dense_gains():
    """perfbench's seed-1 dense pool (24 cases per size, as the benchmark
    draws it) and every gain placed on it: ``(system, targets, method,
    k)`` for Bass-Gura, Ackermann, general with the case's pulled set and
    sequential on its paired plan, in pool order, k being the repr of the
    error when the method refused."""
    runs = []
    for case in load_perfbench("inputs").dense_pool(1, 24):
        sys, targets = StateSpace(case.A, case.b), Spectrum(case.targets)
        methods = {
            "bass_gura": lambda: place_bass_gura(sys, targets),
            "ackermann": lambda: place_ackermann(sys, targets),
            "general": lambda: place_general(sys, targets, Spectrum(case.pulled)),
            "sequential": lambda: place_sequential(sys, paired_plan(sys, targets))[0],
        }
        for method, place in methods.items():
            try:
                k = place().k
            except PolePlacementError as exc:
                k = repr(exc)
            runs.append((sys, targets, method, k))
    return runs


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
    return Q @ D @ Q.T, b, load_perfbench("inputs").draw_targets(rng, n)


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
    return A, b, load_perfbench("inputs").draw_targets(rng, n)


def ill_conditioned_draw(n):
    """The pool past the conditioning gate, one pair per n, from
    ``default_rng(n)``: ``A = Q diag(-u) Q^T`` with Q orthogonal and u
    uniform on [0.5, 2], b standard normal, and n real targets uniform on
    [-3, -1], drawn after b."""
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(-rng.uniform(0.5, 2.0, n)) @ Q.T
    b = rng.standard_normal(n)
    return A, b, rng.uniform(-3.0, -1.0, n)


def jordan_family(st):
    """The Jordan family as a hypothesis strategy, from ``st``, the
    caller's ``hypothesis.strategies``."""
    return st.integers(0, 2**32 - 1).map(jordan_draw)
