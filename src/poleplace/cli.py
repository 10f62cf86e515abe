"""Command-line front end: place, verify, gen, compare.

JSON in, JSON or tables out, '-' for stdin/stdout.  Exit codes: 0 success,
1 verification failure, 2 validation, 3 numerical failure, 4 non-convergence,
141 stdout closed before the output was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import (
    NumericalError,
    PolePlacementError,
    ValidationError,
    _as_vector,
    _floats,
)
from .placement import (
    StateSpace,
    place_ackermann,
    place_bass_gura,
    place_general,
)
from .poly import Spectrum
from .subspace import (
    AssignmentPlan,
    paired_plan,
    place_partial,
    place_sequential,
    place_simon_mitter,
    plan_targets,
)
from .verify import ILL_CONDITIONED, RESIDUAL_LIMIT, _bottleneck, _closed_loop_check


# ---------------------------------------------------------------- literals

def parse_pole(text: str) -> complex:
    """Parse 'a', 'a+bi', 'a-bi' (i suffix only, whitespace ignored)."""
    s = "".join(str(text).split())
    if not s:
        raise ValidationError("empty pole literal")
    if "j" in s or "J" in s:
        raise ValidationError(
            f"pole literal {text!r} uses 'j'; the imaginary suffix is 'i'"
        )
    try:
        if not s.endswith(("i", "I")):
            return complex(float(s), 0.0)
        body = s[:-1]
        cut = 0
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "eE":
                cut = idx
                break
        re_txt, im_txt = body[:cut], body[cut:]
        if im_txt in ("", "+"):
            im = 1.0
        elif im_txt == "-":
            im = -1.0
        else:
            im = float(im_txt)
        return complex(float(re_txt) if re_txt else 0.0, im)
    except ValueError as exc:
        raise ValidationError(f"cannot parse pole literal {text!r}") from exc


def format_pole(z) -> str:
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{'+' if z.imag > 0 else '-'}{abs(z.imag):.17g}i"


def _parse_pole_list(text: str, what: str) -> list[complex]:
    items = [p for p in str(text).split(",") if p.strip()]
    if not items:
        raise ValidationError(f"{what} is empty")
    return [parse_pole(p) for p in items]


# ---------------------------------------------------------------- JSON io

def _emit_json(obj, indent: int = 0) -> str:
    # floats at 17 significant digits so every value round-trips in decimal;
    # a non-finite float, which JSON cannot hold, is written as null
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(key)}: {_emit_json(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = [_emit_json(v, indent + 1) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(inner) + "]"
        rows = [f"{pad}  {v}" for v in inner]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.17g}" if math.isfinite(obj) else "null"
    return json.dumps(obj)


def _write_json(obj, stream) -> None:
    stream.write(_emit_json(obj) + "\n")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _json_poles(value, where: str) -> Spectrum:
    """A JSON list of pole literals; any other JSON value is refused, so a
    string is not read as one pole per character."""
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a JSON list of poles")
    return Spectrum([parse_pole(p) for p in value])


def _holds_boolean(value) -> bool:
    """Whether a JSON value is a boolean, or a list holding one at any
    depth: numpy would read true as 1.0 where a number belongs."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))
    return bool in kinds or (list in kinds and any(map(_holds_boolean, value)))


def _json_gain(value, where: str) -> np.ndarray:
    """A JSON list of finite numbers as a 1-D float array."""
    try:
        if isinstance(value, list) and not _holds_boolean(value):
            return _as_vector(value, len(value), where)
    except ValidationError:
        pass
    raise ValidationError(f"{where} must be a JSON list of finite numbers")


def _system_from_dict(data, where: str) -> StateSpace:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    for key in ("n", "A", "b"):
        if key not in data:
            raise ValidationError(f"{where}: missing field {key!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"{where}: n must be a positive integer, got {n!r}")
    for key in ("A", "b"):
        if _holds_boolean(data[key]):
            raise ValidationError(f"{where}: {key} must hold numbers, not JSON booleans")
    A, b = (_floats(data[key], f"{where}: {key}") for key in ("A", "b"))
    if A.shape != (n, n):
        raise ValidationError(f"{where}: A has shape {A.shape}, expected ({n}, {n})")
    if b.shape != (n,):
        raise ValidationError(f"{where}: b has shape {b.shape}, expected ({n},)")
    return StateSpace(A, b)


def _load_plan(path: str):
    """Returns ('poles', Spectrum) or ('groups', AssignmentPlan)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    has_poles = "poles" in data
    has_groups = "groups" in data
    if has_poles == has_groups:
        raise ValidationError(
            f"{path}: plan needs exactly one of 'poles' or 'groups'"
        )
    if has_poles:
        if not isinstance(data["poles"], list) or not data["poles"]:
            raise ValidationError(f"{path}: 'poles' must be a nonempty list")
        return "poles", _json_poles(data["poles"], f"{path}: 'poles'")
    groups = data["groups"]
    if not isinstance(groups, list) or not groups:
        raise ValidationError(f"{path}: 'groups' must be a nonempty list")
    parsed = []
    for gi, grp in enumerate(groups):
        if not isinstance(grp, dict) or "move" not in grp or "to" not in grp:
            raise ValidationError(
                f"{path}: group {gi + 1} needs 'move' and 'to' lists"
            )
        move = _json_poles(grp["move"], f"{path}: group {gi + 1} 'move'")
        to = _json_poles(grp["to"], f"{path}: group {gi + 1} 'to'")
        parsed.append((move, to))
    return "groups", AssignmentPlan(tuple(parsed))


def _system_dict(sys_: StateSpace) -> dict:
    return {
        "n": sys_.n,
        "A": sys_.A.tolist(),
        "b": sys_.b.tolist(),
    }


# ---------------------------------------------------------------- place

def _gain_report(sys_: StateSpace, gain, expected, steps=None) -> dict:
    report = {
        "method": gain.method,
        "k": gain.k.tolist(),
        "system": _system_dict(sys_),
        "targets": [format_pole(z) for z in expected],
        "diagnostics": dataclasses.asdict(gain.diagnostics),
    }
    if steps is not None:
        report["steps"] = [
            {
                "step": rec.step,
                "subspace_dimension": rec.basis.shape[1],
                "gain": rec.gain.tolist(),
                "kappa": rec.kappa,
                "spectrum_after": [format_pole(z) for z in rec.spectrum_after],
            }
            for rec in steps
        ]
    return report


def cmd_place(args) -> int:
    sys_ = _system_from_dict(_read_json(args.system), args.system)
    kind, plan = _load_plan(args.plan)
    method = args.method
    steps = None
    if method in ("bass-gura", "ackermann", "general"):
        if kind != "poles":
            raise ValidationError(f"method {method} needs a 'poles' plan")
        targets = plan
        if method == "bass-gura":
            gain = place_bass_gura(sys_, targets)
        elif method == "ackermann":
            gain = place_ackermann(sys_, targets)
        else:
            if args.pulled is None:
                raise ValidationError(
                    "method general needs --pulled with a comma-separated "
                    "pole list (may be empty via '')"
                )
            pulled = (
                Spectrum([])
                if not args.pulled.strip()
                else Spectrum(_parse_pole_list(args.pulled, "--pulled"))
            )
            gain = place_general(sys_, targets, pulled)
        expected = targets
    else:
        if kind != "groups":
            raise ValidationError(f"method {method} needs a 'groups' plan")
        if method == "partial":
            if len(plan.groups) != 1:
                raise ValidationError(
                    f"method partial takes exactly one group, got {len(plan.groups)}"
                )
            move, to = plan.groups[0]
            gain = place_partial(sys_, move, to)
        elif method == "simon-mitter":
            if len(plan.groups) != 1 or len(plan.groups[0][0]) != 1:
                raise ValidationError(
                    "method simon-mitter takes one group moving one eigenvalue"
                )
            move, to = plan.groups[0]
            mu1, lam1 = tuple(move)[0], tuple(to)[0]
            gain = place_simon_mitter(sys_, mu1, lam1)
        else:
            gain, steps = place_sequential(sys_, plan)
        expected = plan_targets(sys_, plan)
    _write_json(_gain_report(sys_, gain, expected, steps), sys.stdout)
    return 0


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if args.gain == "-":
        report = _read_json("-")
        if not isinstance(report, dict) or "k" not in report:
            raise ValidationError("stdin: expected a placement report with 'k'")
        k = _json_gain(report["k"], "stdin report 'k'")
        if args.system is not None:
            sys_ = _system_from_dict(_read_json(args.system), args.system)
        elif "system" in report:
            sys_ = _system_from_dict(report["system"], "stdin report")
        else:
            raise ValidationError("stdin report has no system; pass --system")
        if args.plan is not None:
            kind, plan = _load_plan(args.plan)
            targets = plan if kind == "poles" else plan_targets(sys_, plan)
        elif "targets" in report:
            targets = _json_poles(report["targets"], "stdin report 'targets'")
        else:
            raise ValidationError("stdin report has no targets; pass --plan")
    else:
        if args.system is None or args.plan is None:
            raise ValidationError("verify needs --system and --plan with --gain values")
        entries = _parse_pole_list(args.gain, "--gain")
        if any(z.imag != 0.0 for z in entries):
            raise ValidationError("--gain must be real")
        k = np.array([z.real for z in entries])
        sys_ = _system_from_dict(_read_json(args.system), args.system)
        kind, plan = _load_plan(args.plan)
        targets = plan if kind == "poles" else plan_targets(sys_, plan)

    # an unknown spectrum leaves the verdict to charpoly_residual alone
    cres, achieved, unknown = _closed_loop_check(sys_, k, targets)
    print(f"charpoly_residual  {cres:.6e}")
    if achieved is None:
        print(f"spectrum_residual  unknown: {unknown}")
    else:
        # the table shows the pairing that defines spectrum_residual
        achieved = list(achieved)
        sres, pairing = _bottleneck(targets, achieved)
        print(f"spectrum_residual  {sres:.6e}")
        print(f"{'target':>24}  {'achieved':>24}  {'distance':>10}")
        pairs = [(t, achieved[j]) for t, j in zip(targets, pairing)]
        for t, a in sorted(pairs, key=lambda pair: (pair[0].real, pair[0].imag)):
            print(f"{format_pole(t):>24}  {format_pole(a):>24}  {abs(t - a):>10.3e}")
    if cres <= RESIDUAL_LIMIT:
        print(f"ok: charpoly_residual <= {RESIDUAL_LIMIT:g}")
        return 0
    print(f"FAIL: charpoly_residual > {RESIDUAL_LIMIT:g}")
    return 1


# ---------------------------------------------------------------- gen

def _chain_system(n: int) -> StateSpace:
    A = np.eye(n, k=1)
    b = np.zeros(n)
    b[n - 1] = 1.0
    return StateSpace(A, b)


def _dense_system(rng, n: int):
    for attempt in range(1, 101):
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        sys_ = StateSpace(A, b)
        kappa = sys_._kappa
        if kappa <= ILL_CONDITIONED:
            return sys_, attempt, kappa
    raise NumericalError(
        f"no controllable draw with kappa <= {ILL_CONDITIONED:g} in 100 attempts"
    )


def cmd_gen(args) -> int:
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    if args.family == "integrator-chain":
        sys_ = _chain_system(args.n)
        provenance = f"integrator-chain n={args.n}"
    else:
        rng = np.random.default_rng(args.seed)
        sys_, attempt, kappa = _dense_system(rng, args.n)
        provenance = (
            f"dense n={args.n} seed={args.seed} attempt={attempt} "
            f"kappa={kappa:.3e}"
        )
    out = _system_dict(sys_)
    out["provenance"] = provenance
    _write_json(out, sys.stdout)
    return 0


# ---------------------------------------------------------------- compare

def _draw_targets(rng, n: int) -> Spectrum:
    vals: list[complex] = []
    while len(vals) < n:
        if n - len(vals) >= 2 and rng.random() < 0.5:
            re = rng.uniform(-3.0, -0.1)
            im = rng.uniform(0.1, 3.0)
            vals += [complex(re, im), complex(re, -im)]
        else:
            vals.append(complex(rng.uniform(-3.0, -0.1), 0.0))
    return Spectrum(vals)


_COMPARE_COLUMNS = (
    "n",
    "trial",
    "method",
    "largest_inverse",
    "kappa_controllability",
    "max_step_kappa",
    "charpoly_residual",
    "spectrum_residual",
    "status",
)


def _compare_row(n, trial, method, sys_, targets) -> dict:
    row = dict.fromkeys(_COMPARE_COLUMNS, "")
    row.update(n=n, trial=trial, method=method)
    try:
        if method == "sequential":
            gain, records = place_sequential(sys_, paired_plan(sys_, targets))
            row["largest_inverse"] = max(r.basis.shape[1] for r in records)
            row["max_step_kappa"] = max(r.kappa for r in records)
        else:
            fn = place_bass_gura if method == "bass-gura" else place_ackermann
            gain = fn(sys_, targets)
            row["largest_inverse"] = sys_.n
            row["max_step_kappa"] = gain.diagnostics.kappa_controllability
        diag = gain.diagnostics
        row["kappa_controllability"] = diag.kappa_controllability
        row["charpoly_residual"] = diag.charpoly_residual
        row["spectrum_residual"] = diag.spectrum_residual
        row["status"] = "warn" if diag.warnings else "ok"
    except PolePlacementError as exc:
        row["status"] = type(exc).__name__
    return row


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def cmd_compare(args) -> int:
    sizes = []
    for part in str(args.n).split(","):
        part = part.strip()
        if part:
            try:
                sizes.append(int(part))
            except ValueError:
                raise ValidationError(f"--n entry {part!r} is not an integer")
    if not sizes or any(n < 1 for n in sizes):
        raise ValidationError(f"--n must list positive integers, got {args.n!r}")
    if args.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {args.trials}")

    rows = []
    for n in sizes:
        for trial in range(args.trials):
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, n, trial]))
            try:
                if args.family == "integrator-chain":
                    sys_ = _chain_system(n)
                else:
                    sys_, _, _ = _dense_system(rng, n)
                targets = _draw_targets(rng, n)
            except PolePlacementError as exc:
                for method in ("bass-gura", "ackermann", "sequential"):
                    row = dict.fromkeys(_COMPARE_COLUMNS, "")
                    row.update(n=n, trial=trial, method=method,
                               status=type(exc).__name__)
                    rows.append(row)
                continue
            for method in ("bass-gura", "ackermann", "sequential"):
                rows.append(_compare_row(n, trial, method, sys_, targets))

    widths = {c: len(c) for c in _COMPARE_COLUMNS}
    for row in rows:
        for c in _COMPARE_COLUMNS:
            widths[c] = max(widths[c], len(_cell(row[c])))
    print("  ".join(c.ljust(widths[c]) for c in _COMPARE_COLUMNS).rstrip())
    for row in rows:
        print("  ".join(_cell(row[c]).ljust(widths[c])
                        for c in _COMPARE_COLUMNS).rstrip())
    print()
    print(",".join(_COMPARE_COLUMNS))
    for row in rows:
        cells = []
        for c in _COMPARE_COLUMNS:
            v = row[c]
            cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        print(",".join(cells))
    return 0


# ---------------------------------------------------------------- driver

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it.  It holds no command
    functions; ``main`` looks each up by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="poleplace",
        description="Single-input pole placement: gains, verification, "
                    "test systems, conditioning comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="compute a feedback gain")
    p.add_argument("--system", required=True, help="system JSON path ('-' stdin)")
    p.add_argument("--plan", required=True, help="plan JSON path ('-' stdin)")
    p.add_argument(
        "--method",
        required=True,
        choices=["bass-gura", "ackermann", "general", "partial",
                 "sequential", "simon-mitter"],
    )
    p.add_argument(
        "--pulled",
        help="comma-separated pole literals pulled into matrix factors "
             "(general method only; '' pulls none)",
    )

    p = sub.add_parser("verify", help="check a gain against targets")
    p.add_argument("--system", help="system JSON path ('-' stdin)")
    p.add_argument("--plan", help="plan JSON path")
    p.add_argument(
        "--gain",
        required=True,
        help="comma-separated gain entries, or '-' to read a placement "
             "report from stdin",
    )

    p = sub.add_parser("gen", help="generate a test system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--family",
        choices=["dense", "integrator-chain"],
        default="dense",
    )

    p = sub.add_parser("compare", help="method comparison over random systems")
    p.add_argument("--n", default="4,8,12", help="comma-separated dimensions")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--family",
        choices=["dense", "integrator-chain"],
        default="dense",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"place": cmd_place, "verify": cmd_verify, "gen": cmd_gen,
               "compare": cmd_compare}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except PolePlacementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader left early (`poleplace compare | head`): end quietly,
        # as a process killed by SIGPIPE would, with stdout pointed at the
        # null device so that the interpreter's last flush cannot fail again
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # not a file: the interpreter flushes nothing
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
