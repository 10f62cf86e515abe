"""poleplace placement benchmark.

    python3 perfbench/run.py --workload full-dense --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    full-dense        place_bass_gura / place_ackermann / place_general on
                      gated dense systems, n in {4, 8, 12, 16, 20}
    sequential-dense  place_sequential(sys, paired_plan(sys, targets)) on the
                      same systems and targets
    verify-large      `poleplace verify` run in process through cli.main on
                      systems with a known answer, n in {24, 32, 48, 64}
    all               the three above in turn, in this one process

The loop is closed with one client and no think time.  Each timed run is
a fixed whole number of passes over the workload's fixed pool of
operations, set by --seconds and a nominal pass time, so every run of a
seed attempts the same operations and fails the same ones.  Times are
CPU times of the one thread that runs the operations; end-to-end times
are scaled to a reference speed measured alongside them (see speed.py).
Every output is checked by an exact oracle outside the timed interval.
--trace 0 prints the end-to-end metrics; --trace 1 runs every op
untraced and then traced, and prints per-layer metrics.  The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Exits 1 without a result when the checkout has no package
source.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported anywhere in the process.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
from spans import OP, TRACED, Tracer, clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "poleplace"

SETUP_REPS = 5
MIN_SAMPLES = 100  # leaves at least ten latencies above the 90th percentile
# CPU seconds one untraced pass over each workload's pool takes at the
# reference speed (speed.NOMINAL_S).  A run's pass count comes from
# --seconds and these, never from a clock, so every run of a seed
# attempts the same operations and fails the same ones.
PASS_SECONDS = {"full-dense": 7.5, "sequential-dense": 18.0, "verify-large": 7.5}
TRACE_COST = 2.5  # a traced pass runs each op untraced, then traced
DENSE_PER_SIZE = 24  # cases per size in the shared dense pool
WORKLOADS = ("full-dense", "sequential-dense", "verify-large")


@dataclass
class Op:
    label: str  # method name, for the failure tally
    n: int
    call: object  # zero-argument callable, the timed operation
    case: object  # the inputs.DenseCase or inputs.VerifyCase it runs


@dataclass
class Verdict:
    failed: bool
    kind: str | None = None  # failure class, e.g. "AmbiguousMatchError"
    malformed: str | None = None  # set when the output breaks its contract


# ---------------------------------------------------------------- workloads


def dense_ops(pp, seed: int, workload: str, workdir: Path) -> tuple[list[Op], str]:
    placement = pp["placement"]
    subspace = pp["subspace"]
    pool = inputs.dense_pool(seed, DENSE_PER_SIZE)
    ops = []
    for case in pool:
        sys_ = placement.StateSpace(case.A, case.b)
        targets = pp["poly"].Spectrum(case.targets)
        pulled = pp["poly"].Spectrum(case.pulled)
        if workload == "sequential-dense":
            ops.append(Op("sequential", case.n, lambda s=sys_, t=targets:
                          subspace.place_sequential(s, subspace.paired_plan(s, t))[0], case))
            continue
        ops += [
            Op("bass_gura", case.n,
               lambda s=sys_, t=targets: placement.place_bass_gura(s, t), case),
            Op("ackermann", case.n,
               lambda s=sys_, t=targets: placement.place_ackermann(s, t), case),
            Op("general", case.n,
               lambda s=sys_, t=targets, p=pulled: placement.place_general(s, t, p), case),
        ]
    return ops, inputs.fingerprint(pool)


def verify_ops(pp, seed: int, workload: str, workdir: Path) -> tuple[list[Op], str]:
    cli = pp["cli"]
    pool = inputs.verify_pool(seed)
    ops = []
    for i, case in enumerate(pool):
        system = workdir / f"system-{i}.json"
        plan = workdir / f"plan-{i}.json"
        system.write_text(inputs.system_json(case))
        plan.write_text(inputs.plan_json(case))
        argv = ["verify", "--system", str(system), "--plan", str(plan),
                inputs.gain_argument(case.k)]

        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        ops.append(Op("verify", case.n, call, case))
    return ops, inputs.fingerprint(pool)


PREPARE = {
    "full-dense": dense_ops,
    "sequential-dense": dense_ops,
    "verify-large": verify_ops,
}


# ---------------------------------------------------------------- checking


class Checker:
    """Classifies each outcome; exact residuals are cached by the gain's
    bytes, so a later pass that returns the same k costs a lookup."""

    def __init__(self, package_error):
        self.package_error = package_error
        self.residuals: dict[tuple[int, bytes], float] = {}

    def __call__(self, index: int, op: Op, result, error) -> Verdict:
        if error is not None:
            kind = type(error).__name__
            if isinstance(error, self.package_error):
                return Verdict(True, kind)
            return Verdict(True, kind, "".join(traceback.format_exception(error)))
        if op.label == "verify":
            return self._verify(op, result)
        return self._gain(index, op, result)

    def _gain(self, index: int, op: Op, gain) -> Verdict:
        k = getattr(gain, "k", None)
        if not (isinstance(k, np.ndarray) and k.shape == (op.n,) and np.all(np.isfinite(k))):
            return Verdict(True, "malformed gain", f"{op.label} n={op.n}: k is {k!r}")
        key = (index, k.tobytes())
        if key not in self.residuals:
            case = op.case
            self.residuals[key] = oracle.closed_loop_residual(case.A, case.b, k, case.targets)
        if self.residuals[key] > oracle.RESIDUAL_LIMIT:
            return Verdict(True, f"residual>{oracle.RESIDUAL_LIMIT:g}")
        return Verdict(False)

    @staticmethod
    def _verify(op: Op, result) -> Verdict:
        code, text = result
        if not isinstance(code, int) or not 0 <= code <= 4:
            return Verdict(True, f"exit {code!r}", f"verify returned {code!r}")
        truth = 0 if op.case.exact else 1
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        said = {0: "ok:", 1: "FAIL:"}.get(code)
        if said is not None and not last.startswith(said):
            return Verdict(True, f"exit {code}", f"exit {code} but last line {last!r}")
        if code != truth:
            return Verdict(True, f"exit {code} for truth {truth}")
        return Verdict(False)


# ---------------------------------------------------------------- timing


@dataclass
class Passes:
    latencies: list[list[float]]  # seconds, one list per pass in op order
    failed: int = 0

    def scaled(self, refs: list[list[float]]) -> Passes:
        """The latencies scaled to the reference speed by the kernel times
        ``refs``, taken one before each op in the same order."""
        flat = speed.scale([x for p in self.latencies for x in p],
                           [r for p in refs for r in p])
        width = len(self.latencies[0])
        return Passes([flat[i : i + width] for i in range(0, len(flat), width)],
                      self.failed)

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Pool size over the sum of each op's median latency across passes,
        so a slow stretch of the machine that covers fewer than half of an
        op's passes does not move it."""
        per_op = [statistics.median(lat) for lat in zip(*self.latencies)]
        return len(per_op) / sum(per_op)


def untraced(op_id: int):
    return contextlib.nullcontext(lambda call: call())


def pass_count(workload: str, pool_ops: int, seconds: float, trace: bool) -> int:
    """Whole passes nearest to ``seconds`` at the nominal pass cost; an
    untraced run makes at least enough for ``MIN_SAMPLES`` latencies."""
    nominal = PASS_SECONDS[workload] * (TRACE_COST if trace else 1.0)
    floor = 1 if trace else -(-MIN_SAMPLES // pool_ops)
    return max(floor, round(seconds / nominal))


def run_passes(ops, passes, modes, reference, checker, tally, problems):
    """``passes`` whole passes over ``ops``.

    Each op runs once under each of ``modes`` in turn, so the modes see the
    machine in the same state.  A mode maps an op id to a context that
    yields the op's runner; its set-up and tear-down are not timed.  The
    ``reference`` kernel runs once before each op.  Outputs are checked
    after each pass, outside the timed interval.  Returns one ``Passes``
    per mode, the kernel times per pass, and the wall seconds the passes
    took.
    """
    runs = [Passes([]) for _ in modes]
    refs: list[list[float]] = []
    elapsed = 0.0
    for _ in range(passes):
        outcomes = []
        begin = perf_counter()
        for run in runs:
            run.latencies.append([])
        refs.append([])
        for i, op in enumerate(ops):
            refs[-1].append(reference())
            for run, mode in zip(runs, modes):
                with mode(i) as runner:
                    start = clock()
                    try:
                        result, error = runner(op.call), None
                    except Exception as exc:  # classified below; a crash is a failed op
                        result, error = None, exc
                    run.latencies[-1].append(clock() - start)
                outcomes.append((run, i, op, result, error))
        elapsed += perf_counter() - begin
        for run, i, op, result, error in outcomes:
            verdict = checker(i, op, result, error)
            if verdict.failed:
                run.failed += 1
                tally[f"{verdict.kind} {op.label} n={op.n}"] += 1
            if verdict.malformed is not None:
                problems.append(verdict.malformed)
    return runs, refs, elapsed


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    own, kids = (resource.getrusage(who)
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def fresh_import() -> None:
    """Start a fresh interpreter that imports the package, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", f"import {PACKAGE}"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def run_workload(pp, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checker = Checker(pp["errors"].PolePlacementError)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    reference = speed.Reference()
    try:
        setups, setup_factors = [], []
        for _ in range(SETUP_REPS):
            before = reference.factor()
            start = cpu_seconds()
            fresh_import()
            ops, digest = PREPARE[workload](pp, seed, workload, workdir)
            try:
                ops[0].call()  # warm-up, untimed and unchecked
            except pp["errors"].PolePlacementError:
                pass
            setups.append(cpu_seconds() - start)
            setup_factors.append((before + reference.factor()) / 2)

        tally: Counter = Counter()
        problems: list[str] = []
        tracer = Tracer(PACKAGE) if trace else None
        modes = [untraced] + ([tracer.op] if trace else [])
        passes = pass_count(workload, len(ops), seconds, trace)
        runs, refs, elapsed = run_passes(ops, passes, modes, reference,
                                         checker, tally, problems)
        if trace:
            tracer.write_csv(OUT / f"spans-{workload}-seed{seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    # End-to-end times are read at the reference speed; per-layer ones
    # are the CPU times as measured.
    plain = runs[0] if trace else runs[0].scaled(refs)
    lat = sorted(x for p in plain.latencies for x in p)
    by_size: dict[int, list[float]] = {}
    for p in plain.latencies:
        for op, x in zip(ops, p):
            by_size.setdefault(op.n, []).append(x)
    p90 = statistics.quantiles(lat, n=10)[-1]
    raw = sorted(x for p in runs[0].latencies for x in p)
    unscaled = {
        "setup_s": statistics.median(setups),
        "ops_per_s": runs[0].ops_per_s,
        "latency_p50_ms": statistics.median(raw) * 1e3,
        "latency_p90_ms": statistics.quantiles(raw, n=10)[-1] * 1e3,
    }
    if trace:
        metrics = layer_metrics(tracer, *runs, failed / attempted)
    else:
        metrics = {
            "setup_s": (statistics.median(s * f for s, f in zip(setups, setup_factors)), "s"),
            "ops_per_s": (plain.ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "pool_ops": len(ops),
        "passes": len(runs[0].latencies),
        "timed_s": elapsed,
        "timed_cpu_s": sum(raw),
        "speed": speed.NOMINAL_S / statistics.median(r for p in refs for r in p),
        "unscaled": unscaled,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "failures": dict(sorted(tally.items())),
        "latency_samples": len(lat),
        "median_ms_by_n": {n: statistics.median(x) * 1e3 for n, x in sorted(by_size.items())},
        "samples_above_p90": sum(x > p90 for x in lat),
        "setup_runs_s": setups,
        "malformed": problems[:5],
        "correct": not problems,
        "metrics": metrics,
    }


def layer_metrics(tracer: Tracer, plain: Passes, traced: Passes, fail_share: float) -> dict:
    """Per-operation calls and self time of every traced function."""
    summary = tracer.summary()
    ops = traced.attempted
    out = {}
    for module, funcs in TRACED.items():
        for func in funcs:
            row = summary[f"{module}.{func}"]
            out[f"{module}.{func}.calls"] = (row["calls"] / ops, "calls/op")
            out[f"{module}.{func}.self_ms"] = (row["self_s"] * 1e3 / ops, "ms/op")
    op_time = summary[OP]["total_s"]
    diag = summary["verify.assemble_diagnostics"]
    split = summary["linalg.invariant_split"]
    out.update({
        f"{OP}.self_ms": (summary[OP]["self_s"] * 1e3 / ops, "ms/op"),
        "verify.assemble_diagnostics.total_ms": (diag["total_s"] * 1e3 / ops, "ms/op"),
        "verify.assemble_diagnostics.share": (diag["total_s"] / op_time, "ratio"),
        # no attempts means nothing was wasted
        "linalg.invariant_split.ok_ratio": (
            split["completed"] / split["calls"] if split["calls"] else 1.0, "ratio"),
        "trace.ops_per_s_untraced": (plain.ops_per_s, "1/s"),
        "trace.ops_per_s_traced": (traced.ops_per_s, "1/s"),
        "trace.overhead": (plain.ops_per_s / traced.ops_per_s, "ratio"),
        "fail_share": (fail_share, "ratio"),
    })
    return out


# ---------------------------------------------------------------- command line


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def load_package() -> dict:
    """Import poleplace from this checkout's src/, nowhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / PACKAGE}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"error: imported {pkg.__file__}, not the checkout's source")
    return {
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in ("errors", "poly", "linalg", "placement", "subspace", "verify", "cli")
    }


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"inputs sha256 {report['inputs_sha256'][:16]}  "
          f"{report['pool_ops']} ops per pass, passes {report['passes']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed / attempted':44s} {report['fail_share']:14.6g} ratio  "
          f"({report['failed']} of {report['attempted']})")
    print(f"  latency samples {report['latency_samples']}, "
          f"{report['samples_above_p90']} above p90")
    print("  median ms by n: " + ", ".join(
        f"{n}: {ms:.4g}" for n, ms in report["median_ms_by_n"].items()))
    print(f"  timed passes took {report['timed_s']:.4g} s wall, "
          f"{report['timed_cpu_s']:.4g} s CPU in the operations, "
          f"at {report['speed']:.4g} times the reference speed")
    print("  as measured: " + ", ".join(
        f"{name} {value:.6g}" for name, value in report["unscaled"].items()))
    for kind, count in report["failures"].items():
        print(f"  failed {count:5d}  {kind}")
    for text in report["malformed"]:
        print(f"  MALFORMED OUTPUT: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pp = load_package()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(pp, w, args.seed, args.seconds, bool(args.trace))
               for w in names]
    for report in reports:
        print_report(report)
    print(json.dumps({"environment": environment(), "runs": [
        {key: value for key, value in r.items() if key != "metrics"} for r in reports]}))

    prefix = (lambda r: f"{r['workload']}.") if len(reports) > 1 else (lambda r: "")
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            prefix(r) + name: {"value": value, "unit": unit}
            for r in reports for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
