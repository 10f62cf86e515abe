"""Hash what poleplace outputs on the perfbench input pools.

    python3 tools/output_digest.py [CHECKOUT] [SEED ...]

Imports the package from ``CHECKOUT/src`` (default: this checkout) and
draws the dense and verify pools of each seed (default 1 2 3) with
``CHECKOUT/perfbench/inputs.py``.  It prints one SHA-256 per output kind:

- ``gains``: every Bass-Gura, Ackermann, general and sequential gain's
  bytes, or the repr of the error it raised;
- ``diagnostics``: the repr of each gain's Diagnostics;
- ``steps``: every field of each sequential StepRecord, arrays as bytes;
- ``place``: exit code, stdout and stderr of ``poleplace place`` with
  each full-spectrum method on every dense case;
- ``verify``: the same of ``poleplace verify`` on every verify case.

Two checkouts whose lines agree produce those outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
SEEDS = [int(s) for s in sys.argv[2:]] or [1, 2, 3]
sys.path.insert(0, str(ROOT / "src"))

from poleplace import cli, placement, subspace  # noqa: E402
from poleplace.errors import PolePlacementError  # noqa: E402
from poleplace.poly import Spectrum  # noqa: E402

spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)

DENSE_PER_SIZE = 24  # as perfbench/run.py draws the dense pool

digests = {kind: hashlib.sha256() for kind in ("gains", "diagnostics", "steps", "place", "verify")}


def update(kind, *parts):
    for part in parts:
        digests[kind].update(part if isinstance(part, bytes) else repr(part).encode())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record(kind, call):
    try:
        gain = call()
    except PolePlacementError as exc:
        update("gains", kind, repr(exc))
        return
    update("gains", kind, gain.k.tobytes())
    update("diagnostics", kind, repr(gain.diagnostics))


def record_steps(steps):
    for rec in steps:
        update("steps", *(v.tobytes() if isinstance(v, np.ndarray) else v
                          for v in vars(rec).values()))


def dense(seed, workdir):
    for i, case in enumerate(inputs.dense_pool(seed, DENSE_PER_SIZE)):
        sys_ = placement.StateSpace(case.A, case.b)
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
            update("diagnostics", "sequential", repr(gain.diagnostics))
            record_steps(steps)
        system, plan = workdir / f"d{i}.json", workdir / f"p{i}.json"
        system.write_text(inputs.system_json(case))
        plan.write_text(inputs.plan_json(case))
        for method in ("bass-gura", "ackermann", "general"):
            argv = ["place", "--system", str(system), "--plan", str(plan), "--method", method]
            if method == "general":
                argv.append("--pulled=" + ",".join(inputs.pole_literal(z) for z in case.pulled))
            update("place", *run_cli(argv))


def verify(seed, workdir):
    for i, case in enumerate(inputs.verify_pool(seed)):
        system, plan = workdir / f"v{i}.json", workdir / f"q{i}.json"
        system.write_text(inputs.system_json(case))
        plan.write_text(inputs.plan_json(case))
        update("verify", *run_cli(["verify", "--system", str(system), "--plan", str(plan),
                                   inputs.gain_argument(case.k)]))


with tempfile.TemporaryDirectory() as tmp:
    for seed in SEEDS:
        dense(seed, Path(tmp))
        verify(seed, Path(tmp))
for kind, h in digests.items():
    print(f"{kind:12s} {h.hexdigest()}")
