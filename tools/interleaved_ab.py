"""Time two checkouts against each other on a perfbench workload, in one process.

    python3 tools/interleaved_ab.py OLD NEW WORKLOAD SEED [SEED ...] [--passes P]

Loads ``OLD/src/poleplace`` and ``NEW/src/poleplace`` as two packages
under their own names, builds each seed's pool of operations for each
with this checkout's ``perfbench/run.py`` (the same inputs, the same op
builders), and runs the two sides op by op, alternating which goes first,
so both see the machine in the same state.  Every op is timed in CPU time
of the one thread that runs it, BLAS pinned to one thread as perfbench
pins it; ``P`` passes (default 3) over each pool, the first cold as in
perfbench.

Prints, per seed and over all seeds, each side's total thread time, its
operations per second and the ratio NEW / OLD of the totals, and each
side's count of operations that raised the package's error.  Under each
of those lines, one line per system size n gives each side's thread time
on the ops of that size and their ratio, and under those one line per op
label (bass_gura, ackermann, general, sequential, verify) does the same
on the ops of that label, so a change shows where its time goes.
Directly under each seed line and the all-seeds line, a 95%
bootstrap interval of the ratio NEW / OLD: 1000 resamples, with
replacement, of the op indices (each op's time summed over the passes),
drawn with ``np.random.default_rng(0)`` afresh for each interval.  Two
runs of the same checkout read 1.000 within a few tenths of a percent,
where separate perfbench runs minutes apart drift by several percent.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import thread_time  # noqa: E402

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("errors", "poly", "linalg", "placement", "subspace", "verify", "cli")
RESAMPLES = 1000


def load(checkout: Path, name: str) -> dict:
    """The package at ``checkout/src/poleplace``, imported as ``name``."""
    src = checkout / "src" / "poleplace"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in MODULES}


def timed_passes(sides, passes: int) -> None:
    """Run every side's ops ``passes`` times, op by op, alternating the
    side that goes first; adds each side's thread seconds, in total, by
    size, by label and by op, and failures."""
    count = len(sides[0]["ops"])
    for p in range(passes):
        for i in range(count):
            for side in (sides if (i + p) % 2 == 0 else sides[::-1]):
                op = side["ops"][i]
                start = thread_time()
                try:
                    op.call()
                except side["error"]:
                    side["failed"] += 1
                seconds = thread_time() - start
                side["seconds"] += seconds
                side["by_op"][i] += seconds
                side["by_n"][op.n] = side["by_n"].get(op.n, 0.0) + seconds
                side["by_label"][op.label] = side["by_label"].get(op.label, 0.0) + seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("workload", choices=("full-dense", "sequential-dense", "verify-large"))
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    sys.path.insert(0, str(PERFBENCH))
    run = importlib.import_module("run")
    packages = [load(args.old, "poleplace_old"), load(args.new, "poleplace_new")]
    # seconds, ops, failed, by n, by op, by label
    totals = [[0.0, 0, 0, {}, [], {}] for _ in packages]
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            sides = []
            for label, pp in zip(("old", "new"), packages):
                workdir = Path(tmp) / label
                workdir.mkdir()
                ops, _ = run.PREPARE[args.workload](pp, seed, args.workload, workdir)
                sides.append({"ops": ops, "error": pp["errors"].PolePlacementError,
                              "seconds": 0.0, "failed": 0, "by_n": {}, "by_label": {},
                              "by_op": [0.0] * len(ops)})
            timed_passes(sides, args.passes)
        ops = len(sides[0]["ops"]) * args.passes
        for side, total in zip(sides, totals):
            total[0] += side["seconds"]
            total[1] += ops
            total[2] += side["failed"]
            for n, seconds in side["by_n"].items():
                total[3][n] = total[3].get(n, 0.0) + seconds
            total[4] += side["by_op"]
            for label, seconds in side["by_label"].items():
                total[5][label] = total[5].get(label, 0.0) + seconds
        report(f"seed {seed}", [(s["seconds"], ops, s["failed"], s["by_n"], s["by_op"],
                                 s["by_label"]) for s in sides])
    if len(args.seeds) > 1:
        report("all seeds", totals)
    return 0


def interval(old_by_op, new_by_op) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of NEW / OLD total time over
    ``RESAMPLES`` bootstrap resamples of the op indices."""
    old, new = np.array(old_by_op), np.array(new_by_op)
    picks = np.random.default_rng(0).integers(0, old.size, (RESAMPLES, old.size))
    low, high = np.percentile(new[picks].sum(axis=1) / old[picks].sum(axis=1), [2.5, 97.5])
    return float(low), float(high)


def report(title: str, rows) -> None:
    old_s, ops, old_failed, old_by_n, old_by_op, old_by_label = rows[0]
    new_s, _, new_failed, new_by_n, new_by_op, new_by_label = rows[1]
    print(f"{title}: old {old_s:.3f} s ({ops / old_s:.2f} ops/s, {old_failed} failed), "
          f"new {new_s:.3f} s ({ops / new_s:.2f} ops/s, {new_failed} failed), "
          f"new/old {new_s / old_s:.4f}")
    low, high = interval(old_by_op, new_by_op)
    print(f"  new/old 95% bootstrap interval over {len(old_by_op)} ops: {low:.4f}-{high:.4f}")
    for n in sorted(old_by_n):
        print(f"  n={n}: old {old_by_n[n]:.3f} s, new {new_by_n[n]:.3f} s, "
              f"new/old {new_by_n[n] / old_by_n[n]:.4f}")
    for label in old_by_label:  # in the order the pool first runs them
        print(f"  {label}: old {old_by_label[label]:.3f} s, new {new_by_label[label]:.3f} s, "
              f"new/old {new_by_label[label] / old_by_label[label]:.4f}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
