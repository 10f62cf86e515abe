"""Benchmark inputs, generated from a seed with numpy alone.

Nothing here imports poleplace: the package receives only the finished
arrays and target lists, so a change to the package (its conditioning
gate, say) cannot change which problems a workload times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

DENSE_SIZES = (4, 8, 12, 16, 20)
# Cases per size.  50 cases make two passes give the 100 latencies the
# 90th percentile needs.  Doubling n = 48 puts the median latency inside
# the n = 48 group instead of on the jump between n = 32 and n = 48,
# where it would read the two groups' extremes; the 90th percentile falls
# inside the n = 64 group.
VERIFY_COUNTS = {24: 10, 32: 10, 48: 20, 64: 10}
KAPPA_LIMIT = 1e8  # the gate `poleplace gen` and `compare` apply
GATE_ATTEMPTS = 1000  # 4% of n = 20 draws pass the gate
PERTURBATION = 1e-4

_DENSE_STREAM = 0
_VERIFY_STREAM = 1


@dataclass(frozen=True)
class DenseCase:
    """One gated dense system with stable targets and a pulled subset."""

    A: np.ndarray
    b: np.ndarray
    targets: tuple[complex, ...]
    pulled: tuple[complex, ...]

    @property
    def n(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class VerifyCase:
    """A system whose closed loop under ``k_exact`` is ``Q L Q^T``.

    ``k`` is either ``k_exact`` (the CLI should accept it) or ``k_exact``
    perturbed entrywise by a relative ``PERTURBATION`` (it should reject).
    """

    A: np.ndarray
    b: np.ndarray
    targets: tuple[complex, ...]
    k: np.ndarray
    exact: bool

    @property
    def n(self) -> int:
        return self.b.size


def _rng(stream: int, seed: int, n: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([stream, seed, n, index]))


def krylov(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[b, Ab, ..., A**(n-1) b]``."""
    cols = [b]
    for _ in range(b.size - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def draw_targets(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    """Stable targets drawn the way ``poleplace compare`` draws them."""
    vals: list[complex] = []
    while len(vals) < n:
        if n - len(vals) >= 2 and rng.random() < 0.5:
            re = rng.uniform(-3.0, -0.1)
            im = rng.uniform(0.1, 3.0)
            vals += [complex(re, im), complex(re, -im)]
        else:
            vals.append(complex(rng.uniform(-3.0, -0.1), 0.0))
    return tuple(vals)


def conjugate_closed_subset(rng, targets) -> tuple[complex, ...]:
    """Each real target and each conjugate pair kept with probability 1/2."""
    out: list[complex] = []
    for z in targets:
        if z.imag < 0.0:
            continue
        if rng.random() < 0.5:
            out += [z] if z.imag == 0.0 else [z, z.conjugate()]
    return tuple(out)


def dense_case(seed: int, n: int, index: int) -> DenseCase:
    """Uniform [-1, 1] draws of A and b until ``cond(krylov) <= 1e8``."""
    rng = _rng(_DENSE_STREAM, seed, n, index)
    for _ in range(GATE_ATTEMPTS):
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        if np.linalg.cond(krylov(A, b)) <= KAPPA_LIMIT:
            break
    else:
        raise RuntimeError(
            f"no draw at n={n} passed cond <= {KAPPA_LIMIT:g} "
            f"in {GATE_ATTEMPTS} attempts"
        )
    targets = draw_targets(rng, n)
    return DenseCase(A, b, targets, conjugate_closed_subset(rng, targets))


def real_block_diagonal(targets) -> np.ndarray:
    """Real matrix with exactly the given self-conjugate spectrum: a 1x1
    block per real value, ``[[re, im], [-im, re]]`` per conjugate pair."""
    n = len(targets)
    L = np.zeros((n, n))
    i = 0
    for z in targets:
        if z.imag < 0.0:
            continue
        if z.imag == 0.0:
            L[i, i] = z.real
            i += 1
        else:
            L[i : i + 2, i : i + 2] = [[z.real, z.imag], [-z.imag, z.real]]
            i += 2
    return L


def verify_case(seed: int, n: int, index: int) -> VerifyCase:
    """``A = Q L Q^T - b k^T`` with Q random orthogonal; even indices carry
    the exact k, odd ones the perturbed k."""
    rng = _rng(_VERIFY_STREAM, seed, n, index)
    targets = draw_targets(rng, n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    b = rng.uniform(-1.0, 1.0, n)
    k = rng.uniform(-1.0, 1.0, n)
    A = Q @ real_block_diagonal(targets) @ Q.T - np.outer(b, k)
    exact = index % 2 == 0
    if not exact:
        k = k * (1.0 + PERTURBATION * rng.choice([-1.0, 1.0], n))
    return VerifyCase(A, b, targets, k, exact)


def dense_pool(seed: int, per_size: int) -> list[DenseCase]:
    """``per_size`` cases at every dense size, sizes interleaved."""
    return [dense_case(seed, n, i) for i in range(per_size) for n in DENSE_SIZES]


def verify_pool(seed: int) -> list[VerifyCase]:
    """``VERIFY_COUNTS`` cases per large size, half of them exact, sizes
    interleaved."""
    return [
        verify_case(seed, n, i)
        for i in range(max(VERIFY_COUNTS.values()))
        for n, count in VERIFY_COUNTS.items()
        if i < count
    ]


def fingerprint(pool) -> str:
    """SHA-256 over every array and target of a pool, in pool order."""
    h = hashlib.sha256()
    for case in pool:
        for name, value in sorted(vars(case).items()):
            h.update(name.encode())
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value, dtype=float).tobytes())
            elif isinstance(value, tuple):
                h.update(np.asarray(value, dtype=complex).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def pole_literal(z: complex) -> str:
    """A pole in the CLI's literal syntax, 17 significant digits."""
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    sign = "+" if z.imag > 0.0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def system_json(case) -> str:
    return json.dumps({"n": case.n, "A": case.A.tolist(), "b": case.b.tolist()})


def plan_json(case) -> str:
    return json.dumps({"poles": [pole_literal(z) for z in case.targets]})


def gain_argument(k: np.ndarray) -> str:
    """``--gain=`` value; repr round-trips every double exactly."""
    return "--gain=" + ",".join(repr(float(v)) for v in k)
