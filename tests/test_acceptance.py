"""Release acceptance suite: eight end-to-end checks over the whole package.

Each check prints one summary line, ``[PASS]`` or ``[FAIL]``, with the
measured numbers; run with ``-s`` to watch them go by.  The checks are
deliberately seeded so a regression reproduces exactly.
"""

import time

import mpmath
import numpy as np

from poleplace import AssignmentPlan, Spectrum, StateSpace
from poleplace.cli import _dense_system, _draw_targets, main
from poleplace.linalg import eigenvalues, real_schur, reorder_schur, solve_linear
from poleplace.placement import (
    controller_canonical,
    place_ackermann,
    place_bass_gura,
    place_eigenpair,
    place_general,
)
from poleplace.errors import UncontrollableError
from poleplace.subspace import (
    paired_plan,
    place_partial,
    place_sequential,
    place_simon_mitter,
)
from poleplace.verify import spectrum_distance

EPS = np.finfo(float).eps


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def conjugate_closed_subset(values, r):
    """A canonical size-r conjugate-closed subset, or None if none exists."""
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    pairs = [z for z in vals if z.imag > 0]
    reals = [z for z in vals if z.imag == 0]
    for p in range(min(len(pairs), r // 2), -1, -1):
        q = r - 2 * p
        if q <= len(reals):
            chosen = []
            for z in pairs[:p]:
                chosen += [z, z.conjugate()]
            return chosen + reals[:q]
    return None


def rel_gap(ka, kb):
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    scale = max(1.0, float(np.max(np.abs(ka))), float(np.max(np.abs(kb))))
    return float(np.max(np.abs(ka - kb))) / scale


# ---------------------------------------------------------------------------


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    di = StateSpace(A=[[0.0, 1.0], [0.0, 0.0]], b=[0.0, 1.0])
    targets = Spectrum([-1.0, -2.0])
    want = np.array([-2.0, -3.0])

    gains = [
        place_bass_gura(di, targets).k,
        place_ackermann(di, targets).k,
        place_partial(di, Spectrum([0.0, 0.0]), targets).k,
        place_eigenpair(di, np.array([2.0, 1.0]), -1.0).k,
    ]
    for pulled in ([], [-1.0], [-2.0], [-1.0, -2.0]):
        gains.append(place_general(di, targets, Spectrum(pulled)).k)
    full_err = max(float(np.max(np.abs(k - want))) for k in gains)

    diag = StateSpace(A=[[1.0, 0.0], [0.0, 2.0]], b=[1.0, 1.0])
    plan = AssignmentPlan((((1.0,), (-1.0,)), ((2.0,), (-3.0,))))
    gain, records = place_sequential(diag, plan)
    seq_err = max(
        float(np.max(np.abs(gain.k - [8.0, -15.0]))),
        float(np.max(np.abs(records[0].gain - [-2.0, 0.0]))),
        float(np.max(np.abs(records[1].gain - [10.0, -15.0]))),
    )

    dt = time.perf_counter() - t0
    ok = full_err <= 1e-10 and seq_err <= 1e-8 and dt < 1.0
    report(
        1,
        ok,
        f"worked examples: full-method error {full_err:.3e} (<=1e-10), "
        f"sequential error {seq_err:.3e} (<=1e-8), {dt:.2f}s (<1s)",
    )


def test_criterion_2_cross_method_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        sys_, _, _ = _dense_system(rng, n)
        targets = _draw_targets(rng, n)

        gains = [
            place_bass_gura(sys_, targets),
            place_ackermann(sys_, targets),
        ]
        for r in range(n + 1):
            pulled = conjugate_closed_subset(targets, r)
            if pulled is None:
                continue
            gains.append(place_general(sys_, targets, Spectrum(pulled)))
        seq, _ = place_sequential(sys_, paired_plan(sys_, targets))
        gains.append(seq)

        for g in gains:
            worst_res = max(worst_res, g.diagnostics.charpoly_residual)
        for i in range(len(gains)):
            for j in range(i + 1, len(gains)):
                worst_gap = max(worst_gap, rel_gap(gains[i].k, gains[j].k))

    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and worst_res <= 1e-6 and dt < 30.0
    report(
        2,
        ok,
        f"cross-method agreement over 200 systems: worst pairwise gap "
        f"{worst_gap:.3e} (<=1e-6), worst charpoly residual {worst_res:.3e} "
        f"(<=1e-6), {dt:.1f}s (<30s)",
    )


def test_criterion_3_partial_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_kept = 0.0
    worst_moved = 0.0
    done = 0
    draws = 0
    while done < 100:
        draws += 1
        assert draws < 2000, "gap filter rejected too many draws"
        A = rng.uniform(-1.0, 1.0, (8, 8))
        b = rng.uniform(-1.0, 1.0, 8)
        spec = eigenvalues(A).values
        gap = min(
            abs(spec[i] - spec[j])
            for i in range(8)
            for j in range(i + 1, 8)
        )
        if gap < 0.1:
            continue
        sys_ = StateSpace(A, b)

        want = 1 + done % 6
        reps = sorted(
            (z for z in spec if z.imag >= 0), key=lambda z: (z.real, z.imag)
        )
        moved = []
        for z in reps:
            if len(moved) >= want:
                break
            moved += [z, z.conjugate()] if z.imag > 0 else [z]
        # keep the target spread moderate: a one-shot degree-7 assignment
        # with widely spread roots is exactly the ill-conditioned case the
        # sequential method exists to avoid
        to = [-1.5 - 0.35 * i for i in range(len(moved))]

        gain = place_partial(sys_, Spectrum(moved), Spectrum(to))
        # the closed loop A + b k^T formed and solved in 30 digits: formed
        # in doubles, its rounding alone moves an eigenvalue by about
        # eps kappa(lambda) |b| |k|, which measures the rounding, not the
        # placement
        with mpmath.workdps(30):
            M = mpmath.matrix([[mpmath.mpf(A[i, j]) + mpmath.mpf(b[i]) * mpmath.mpf(gain.k[j])
                                for j in range(8)] for i in range(8)])
            closed = [complex(z) for z in mpmath.eig(M, left=False, right=False)]
        kept = [z for z in spec if not any(z == m for m in moved)]
        # strike the kept eigenvalues off the closed-loop spectrum first,
        # then the targets; mpmath's real eigenvalues carry imaginary parts
        # of rounding size, so the values are matched, not made a Spectrum
        for z in kept:
            near = min(range(len(closed)), key=lambda i: abs(closed[i] - z))
            worst_kept = max(worst_kept, abs(closed.pop(near) - z))
        for z in to:
            near = min(range(len(closed)), key=lambda i: abs(closed[i] - z))
            worst_moved = max(worst_moved, abs(closed.pop(near) - z))
        done += 1

    dt = time.perf_counter() - t0
    ok = worst_kept <= 1e-7 and worst_moved <= 1e-5 and dt < 30.0
    report(
        3,
        ok,
        f"partial assignment over 100 8x8 systems: kept drift "
        f"{worst_kept:.3e} (<=1e-7), moved landing {worst_moved:.3e} "
        f"(<=1e-5), {dt:.1f}s (<30s)",
    )


def test_criterion_4_special_case_collapses():
    rng = np.random.default_rng(41)
    worst_bg = 0.0
    worst_ack = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        sys_, _, _ = _dense_system(rng, n)
        targets = _draw_targets(rng, n)
        worst_bg = max(
            worst_bg,
            rel_gap(
                place_general(sys_, targets, Spectrum([])).k,
                place_bass_gura(sys_, targets).k,
            ),
        )
        worst_ack = max(
            worst_ack,
            rel_gap(
                place_general(sys_, targets, Spectrum(targets.values)).k,
                place_ackermann(sys_, targets).k,
            ),
        )

    rng = np.random.default_rng(42)
    worst_move_all = 0.0
    worst_sm = 0.0
    done = 0
    draws = 0
    while done < 50:
        draws += 1
        assert draws < 2000, "gap filter rejected too many draws"
        n = 5
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        spec = eigenvalues(A).values
        gap = min(
            abs(spec[i] - spec[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        if gap < 0.05:
            continue
        sys_ = StateSpace(A, b)
        targets = _draw_targets(rng, n)

        worst_move_all = max(
            worst_move_all,
            rel_gap(
                place_partial(sys_, Spectrum(spec), targets).k,
                place_ackermann(sys_, targets).k,
            ),
        )

        # odd n guarantees a real open-loop eigenvalue
        lam = max((z for z in spec if z.imag == 0), key=lambda z: z.real)
        to = lam.real - float(rng.uniform(0.5, 2.0))
        worst_sm = max(
            worst_sm,
            rel_gap(
                place_simon_mitter(sys_, lam.real, to).k,
                place_partial(sys_, Spectrum([lam]), Spectrum([to])).k,
            ),
        )
        done += 1

    ok = max(worst_bg, worst_ack, worst_move_all, worst_sm) <= 1e-6
    report(
        4,
        ok,
        f"special-case collapses over 50 trials each: general(0) vs "
        f"Bass-Gura {worst_bg:.3e}, general(n) vs Ackermann {worst_ack:.3e}, "
        f"move-all vs Ackermann {worst_move_all:.3e}, Simon-Mitter vs "
        f"partial {worst_sm:.3e} (all <=1e-6)",
    )


def _integer_similarity(rng, n):
    """A = S diag(ints) S^-1 with S unimodular, so A is exactly integer."""
    vals = rng.choice(np.arange(-4, 5), size=n, replace=False).astype(float)
    S = np.eye(n)
    Sinv = np.eye(n)
    for _ in range(3):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        j += j >= i
        s = float(rng.integers(-2, 3))
        E = np.eye(n)
        E[i, j] = s
        Einv = np.eye(n)
        Einv[i, j] = -s
        S = S @ E
        Sinv = Einv @ Sinv
    A = S @ np.diag(vals) @ Sinv
    b = rng.integers(-3, 4, n).astype(float)
    if not b.any():
        b[0] = 1.0
    return StateSpace(A, b), Spectrum(vals)


def test_criterion_5_degenerate_identities():
    rng = np.random.default_rng(5)
    done = 0
    draws = 0
    bg_exact = True
    worst_ack = 0.0
    while done < 50:
        draws += 1
        assert draws < 500, "too many uncontrollable integer draws"
        n = 3 + done % 3
        sys_, targets = _integer_similarity(rng, n)
        try:
            k_bg = place_bass_gura(sys_, targets).k
        except UncontrollableError:
            continue
        bg_exact = bg_exact and bool(np.all(k_bg == 0.0))
        k_ack = place_ackermann(sys_, targets).k
        bound = 1e-8 * float(np.max(np.abs(sys_.A))) ** n
        worst_ack = max(worst_ack, float(np.max(np.abs(k_ack))) / bound)
        done += 1

    ok = bg_exact and worst_ack <= 1.0
    report(
        5,
        ok,
        f"degenerate identities over 50 integer systems: Bass-Gura gain "
        f"exactly zero: {bg_exact}, Ackermann gain at {worst_ack:.3e} of "
        f"its Cayley-Hamilton bound (<=1)",
    )


def test_criterion_6_adjugate_identity():
    # The rank-one identity det(sI - A - b k^T) = det(sI - A) - k^T adj(sI - A) b
    # for the eigenpair gain k^T = w^T (lam1 I - A), w = omega / (omega^T b),
    # reads det(sI - A - b k^T) = (s - lam1) det(sI - A) w^T (sI - A)^-1 b:
    # the system's stored closed-loop polynomial at each sample against
    # that right-hand side from numpy
    rng = np.random.default_rng(61)
    lam1 = -1.5
    worst = 0.0
    done = 0
    draws = 0
    while done < 50:
        draws += 1
        assert draws < 500, "too many rejected draws"
        n = 2 + done % 4
        A = rng.uniform(-2.0, 2.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        sys_ = StateSpace(A, b)
        C = sys_._controllability
        if abs(np.linalg.det(C)) < 1e-4:
            continue
        gamma = np.append(rng.uniform(-1.0, 1.0, n - 1), 1.0)
        # omega^T = gamma^T C_c C^{-1}, the map every full-spectrum gain applies
        omega = solve_linear(C.T, controller_canonical(sys_).T @ gamma)
        rad = max(abs(z) for z in eigenvalues(A)) + 1.0
        samples = [rad + 0.5, -(rad + 1.0), rad + 2.5]
        closed = sys_._polynomial.closed_loop(place_eigenpair(sys_, omega, lam1).k)
        w = omega / (omega @ b)
        for s in samples:
            M = s * np.eye(n) - A
            got = np.polyval(closed.coeffs[::-1], s)
            want = (s - lam1) * np.linalg.det(M) * (w @ np.linalg.solve(M, b))
            worst = max(worst, abs(got - want) / max(1.0, abs(got)))
        done += 1

    ok = worst <= 1e-8
    report(
        6,
        ok,
        f"rank-one determinant identity over 50 eigenpair gains, 3 samples "
        f"each: stored closed-loop polynomial against (s - lam1) det(sI - A) "
        f"w^T (sI - A)^-1 b, worst residual {worst:.3e} (<=1e-8)",
    )


def test_criterion_7_schur_engine():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    worst_orth = 0.0
    worst_recon = 0.0
    worst_reorder = 0.0
    structure_ok = True
    for trial in range(200):
        n = 2 + trial % 19
        A = rng.uniform(-1.0, 1.0, (n, n)) * (10.0 if trial % 3 == 0 else 1.0)
        amax = float(np.max(np.abs(A)))
        dec = real_schur(A)

        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(dec.Q.T @ dec.Q - np.eye(n)))) / (64 * n * EPS),
        )
        worst_recon = max(
            worst_recon,
            float(np.max(np.abs(A - dec.Q @ dec.T @ dec.Q.T)))
            / (1024 * n * EPS * amax),
        )

        for bi, block in enumerate(dec.blocks):
            i = block.start
            p = block.size
            if p == 2:
                lo, hi = block.eigenvalues
                structure_ok = structure_ok and lo == hi.conjugate()
            for col in range(i + p, n):
                for row in range(i, i + p):
                    structure_ok = structure_ok and dec.T[row, col] == 0.0

        sel = [i for i in range(len(dec.blocks)) if rng.random() < 0.5]
        re = reorder_schur(dec, sel)
        before = Spectrum([z for blk in dec.blocks for z in blk.eigenvalues])
        after = Spectrum([z for blk in re.blocks for z in blk.eigenvalues])
        worst_reorder = max(
            worst_reorder,
            spectrum_distance(before, after) / (1e-9 * max(1.0, amax)),
        )

    dt = time.perf_counter() - t0
    ok = (
        worst_orth <= 1.0
        and worst_recon <= 1.0
        and worst_reorder <= 1.0
        and structure_ok
        and dt < 30.0
    )
    report(
        7,
        ok,
        f"Schur engine over 200 matrices n<=20: orthogonality at "
        f"{worst_orth:.2f} of bound, reconstruction at {worst_recon:.2f}, "
        f"reorder drift at {worst_reorder:.2f} (all <=1), exact "
        f"quasi-triangular structure: {structure_ok}, {dt:.1f}s (<30s)",
    )


def test_criterion_8_conditioning_study(capsys):
    rc = main(["compare", "--n", "4,8,12", "--trials", "20", "--seed", "0"])
    out = capsys.readouterr().out
    _, _, csv = out.partition("\n\n")
    lines = csv.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    seq = [r for r in rows if r["method"] == "sequential"]
    others = [r for r in rows if r["method"] != "sequential"]
    small_inverses = all(
        r["status"] == "ok" and int(r["largest_inverse"]) <= 2 for r in seq
    )
    kappas_reported = all(
        float(r["kappa_controllability"]) >= 1.0
        and float(r["max_step_kappa"]) >= 1.0
        for r in rows
        if r["status"] in ("ok", "warn")
    )
    ok = (
        rc == 0
        and len(rows) == 3 * 20 * 3
        and len(seq) == 60
        and small_inverses
        and kappas_reported
        and all(r["status"] in ("ok", "warn") for r in others)
    )
    with capsys.disabled():
        report(
            8,
            ok,
            f"conditioning study: exit {rc}, {len(rows)} rows, sequential "
            f"inverse sizes all <=2: {small_inverses}, condition numbers "
            f"reported on every completed row: {kappas_reported}",
        )
