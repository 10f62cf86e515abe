"""Hash what poleplace outputs on the perfbench input pools.

    python3 tools/output_digest.py [CHECKOUT] [SEED ...]

Imports the package from ``CHECKOUT/src`` (default: this checkout) and
draws the dense and verify pools of each seed (default 1 2 3) with
``CHECKOUT/perfbench/inputs.py``.  It prints one SHA-256 per output kind:

- ``gains``: every Bass-Gura, Ackermann, general and sequential gain's
  bytes, or the repr of the error it raised;
- ``diagnostics``: the repr of each gain's Diagnostics with its
  ``spectrum_residual`` set to None;
- ``spectrum``: each gain's ``spectrum_residual``, the one diagnostic the
  seeded closed-loop check computes with its own rounding;
- ``steps``: the fields of each sequential StepRecord (``STEP_FIELDS``:
  step, basis, gain, kappa and spectrum_after), arrays as bytes; records
  that carry more fields, as older checkouts' do, hash the same;
- ``partial``: each ``place_partial`` gain's bytes and Diagnostics repr
  (``spectrum_residual`` None, as above),
  or the repr of its error, moving 3 and then 4 open-loop eigenvalues
  (a conjugate-closed choice, to as many of the case's targets) on every
  dense case with n >= 6: the r > 2 step route, which runs the placement
  core (``placement._row``) on the compressed pair;
- ``simon_mitter``: the same of ``place_simon_mitter`` moving each dense
  case's first real eigenvalue to its first real target (or -1); it is
  the one-value partial step, so its gain is ``place_partial``'s, bitwise;
- ``place``: exit code, stdout and stderr of ``poleplace place`` with
  each full-spectrum method on every dense case;
- ``verify``: the same of ``poleplace verify`` on every verify case;
- ``record``: the open-loop record of every dense and verify system's
  ``(A, b)``: its polynomial's coefficients, ``words``, ``shift``,
  ``digits``, ``grids`` and ``beta``, or the repr of the error it raised;
- ``cli``: the same of ``poleplace place`` with the group methods on every
  dense case: ``sequential`` on the case's ``paired_plan`` written as
  groups, ``partial`` on that plan's first group and ``simon-mitter`` on
  the one-value group the ``simon_mitter`` kind places; then of
  ``poleplace compare --n 4,8,12 --trials 3 --seed 0`` once.  It covers
  the group methods' JSON (``steps``, ``step_kappas``) and ``compare``'s
  table and CSV;
- ``schur``: ``real_schur``'s T, Q, block starts and block sizes on every
  dense case, then the same of ``reorder_schur`` moving its last block to
  the front, or the repr of the error either raised: the Schur form and
  reorder every sequential step reads.

Two checkouts whose lines agree produce those outputs byte for byte;
``place``, ``verify`` and ``cli`` print the seeded check's residual and
poles, so they move with ``spectrum``.  ``verify`` can also move without
``spectrum``: the Schur engine's explicit QR step takes only well-scaled
loops, which the verify cases' are and the dense cases' full-spectrum and
sequential loops are not.  The partial and Simon-Mitter loops on dense
cases are well scaled, so the step moves ``spectrum`` and ``cli`` through
them, and no other line.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
SEEDS = [int(s) for s in sys.argv[2:]] or [1, 2, 3]
sys.path.insert(0, str(ROOT / "src"))

from poleplace import cli, linalg, placement, poly, subspace  # noqa: E402
from poleplace.errors import PolePlacementError  # noqa: E402
from poleplace.poly import Spectrum  # noqa: E402

spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)

DENSE_PER_SIZE = 24  # as perfbench/run.py draws the dense pool

STEP_FIELDS = ("step", "basis", "gain", "kappa", "spectrum_after")
KINDS = ("gains", "diagnostics", "spectrum", "steps", "place", "verify", "partial",
         "simon_mitter", "record", "cli", "schur")
digests = {kind: hashlib.sha256() for kind in KINDS}


def update(kind, *parts):
    for part in parts:
        digests[kind].update(part if isinstance(part, bytes) else repr(part).encode())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def update_diagnostics(kind, label, diag):
    update(kind, label, repr(replace(diag, spectrum_residual=None)))
    update("spectrum", label, repr(diag.spectrum_residual))


def record(kind, call, gains="gains", diagnostics="diagnostics"):
    try:
        gain = call()
    except PolePlacementError as exc:
        update(gains, kind, repr(exc))
        return
    update(gains, kind, gain.k.tobytes())
    update_diagnostics(diagnostics, kind, gain.diagnostics)


def conjugate_closed(values, count):
    """The first of ``values``, in order, that make a conjugate-closed set
    of ``count``, a pair counting two; None when there are too few reals."""
    chosen = []
    for z in values:
        group = [z] if z.imag == 0.0 else [z, z.conjugate()] if z.imag > 0.0 else []
        if len(chosen) + len(group) <= count:
            chosen += group
    return chosen if len(chosen) == count else None


def simon_mitter_choice(case, values):
    """The dense case's first real eigenvalue and its first real target
    (or -1); None when the case has no real eigenvalue."""
    reals = [z.real for z in values if z.imag == 0.0]
    if not reals:
        return None
    return reals[0], next((z.real for z in case.targets if z.imag == 0.0), -1.0)


def partial_and_simon_mitter(sys_, case, values):
    if case.n >= 6:
        for count in (3, 4):
            move = conjugate_closed(values, count)
            to = conjugate_closed(case.targets, count)
            if move is not None and to is not None:
                record("partial", lambda: subspace.place_partial(sys_, move, to),
                       "partial", "partial")
    choice = simon_mitter_choice(case, values)
    if choice is not None:
        record("simon_mitter", lambda: subspace.place_simon_mitter(sys_, *choice),
               "simon_mitter", "simon_mitter")


def place_groups(sys_, case, values, system, plan):
    """``poleplace place`` with the group methods on one dense case."""
    try:
        groups = subspace.paired_plan(sys_, Spectrum(case.targets)).groups
    except PolePlacementError as exc:
        update("cli", "paired_plan", repr(exc))
        groups = ()
    runs = [("sequential", groups), ("partial", groups[:1])] if groups else []
    choice = simon_mitter_choice(case, values)
    if choice is not None:
        runs.append(("simon-mitter", [((choice[0],), (choice[1],))]))
    for method, chosen in runs:
        plan.write_text(json.dumps({"groups": [
            {"move": [inputs.pole_literal(z) for z in move],
             "to": [inputs.pole_literal(z) for z in to]} for move, to in chosen]}))
        update("cli", method, *run_cli(["place", "--system", str(system), "--plan", str(plan),
                                        "--method", method]))


def record_arrays(A, b):
    try:
        rec = poly.open_loop_record(A, b)
    except PolePlacementError as exc:
        update("record", repr(exc))
        return
    update("record", *(arr.tobytes() for arr in (rec.p.coeffs, rec.words, rec.digits, rec.grids)),
           rec.shift, rec.beta)


def update_schur(dec):
    update("schur", dec.T.tobytes(), dec.Q.tobytes(), [(blk.start, blk.size) for blk in dec.blocks])


def record_schur(A):
    try:
        dec = linalg.real_schur(A)
        update_schur(dec)
        update_schur(linalg.reorder_schur(dec, [len(dec.blocks) - 1]))
    except PolePlacementError as exc:
        update("schur", repr(exc))


def record_steps(steps):
    for rec in steps:
        values = (getattr(rec, name) for name in STEP_FIELDS)
        update("steps", *(v.tobytes() if isinstance(v, np.ndarray) else v for v in values))


def dense(seed, workdir):
    for i, case in enumerate(inputs.dense_pool(seed, DENSE_PER_SIZE)):
        sys_ = placement.StateSpace(case.A, case.b)
        record_arrays(case.A, case.b)
        record_schur(case.A)
        targets, pulled = Spectrum(case.targets), Spectrum(case.pulled)
        record("bass_gura", lambda: placement.place_bass_gura(sys_, targets))
        record("ackermann", lambda: placement.place_ackermann(sys_, targets))
        record("general", lambda: placement.place_general(sys_, targets, pulled))
        try:
            gain, steps = subspace.place_sequential(sys_, subspace.paired_plan(sys_, targets))
        except PolePlacementError as exc:
            update("gains", "sequential", repr(exc))
            record_steps(getattr(exc, "records", ()))
        else:
            update("gains", "sequential", gain.k.tobytes())
            update_diagnostics("diagnostics", "sequential", gain.diagnostics)
            record_steps(steps)
        values = list(linalg.eigenvalues(case.A))
        partial_and_simon_mitter(sys_, case, values)
        system, plan = workdir / f"d{i}.json", workdir / f"p{i}.json"
        system.write_text(inputs.system_json(case))
        plan.write_text(inputs.plan_json(case))
        for method in ("bass-gura", "ackermann", "general"):
            argv = ["place", "--system", str(system), "--plan", str(plan), "--method", method]
            if method == "general":
                argv.append("--pulled=" + ",".join(inputs.pole_literal(z) for z in case.pulled))
            update("place", *run_cli(argv))
        place_groups(sys_, case, values, system, workdir / f"g{i}.json")


def verify(seed, workdir):
    for i, case in enumerate(inputs.verify_pool(seed)):
        record_arrays(case.A, case.b)
        system, plan = workdir / f"v{i}.json", workdir / f"q{i}.json"
        system.write_text(inputs.system_json(case))
        plan.write_text(inputs.plan_json(case))
        update("verify", *run_cli(["verify", "--system", str(system), "--plan", str(plan),
                                   inputs.gain_argument(case.k)]))


with tempfile.TemporaryDirectory() as tmp:
    for seed in SEEDS:
        dense(seed, Path(tmp))
        verify(seed, Path(tmp))
update("cli", "compare", *run_cli(["compare", "--n", "4,8,12", "--trials", "3", "--seed", "0"]))
for kind, h in digests.items():
    print(f"{kind:12s} {h.hexdigest()}")
