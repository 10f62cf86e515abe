"""Command-line driver: literal parsing, JSON round-trips, the four
subcommands, and their exit codes.

Everything runs in process through ``main(argv)`` with captured stdio, so
the exit codes and output formats are tested exactly as a shell would see
them.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import poleplace
from poleplace import Spectrum, StateSpace
from poleplace.cli import (
    _COMPARE_COLUMNS,
    _build_parser,
    _compare_row,
    _emit_json,
    format_pole,
    main,
    parse_pole,
)
from poleplace.errors import ValidationError
from poleplace.verify import Diagnostics


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def di_system(tmp_path):
    return write_json(
        tmp_path / "system.json",
        {"n": 2, "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0]},
    )


def diag_system(tmp_path):
    return write_json(
        tmp_path / "diag.json",
        {"n": 2, "A": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 1.0]},
    )


def poles_plan(tmp_path, poles):
    return write_json(tmp_path / "plan.json", {"poles": poles})


def groups_plan(tmp_path, groups):
    return write_json(
        tmp_path / "gplan.json",
        {"groups": [{"move": m, "to": t} for m, t in groups]},
    )


# ---------------------------------------------------------------------------
# pole literals


def test_parse_pole_reals():
    assert parse_pole("-1") == -1 + 0j
    assert parse_pole("2.5") == 2.5 + 0j
    assert parse_pole("1e3") == 1000 + 0j


def test_parse_pole_complex():
    assert parse_pole("-1+2i") == -1 + 2j
    assert parse_pole("-1-2i") == -1 - 2j
    assert parse_pole(" -1 + 2 i ") == -1 + 2j
    assert parse_pole("2i") == 2j
    assert parse_pole("i") == 1j
    assert parse_pole("-i") == -1j
    assert parse_pole("+i") == 1j
    assert parse_pole("1e3i") == 1000j


def test_parse_pole_exponents_in_both_parts():
    assert parse_pole("1e-3+2e-4i") == complex(1e-3, 2e-4)
    assert parse_pole("1E-3-2E-4i") == complex(1e-3, -2e-4)
    assert parse_pole("3.5-1e2i") == complex(3.5, -100.0)


def test_parse_pole_rejects_j_suffix():
    with pytest.raises(ValidationError) as info:
        parse_pole("1+2j")
    assert "'i'" in str(info.value)


def test_parse_pole_rejects_garbage():
    for bad in ("", "abc", "1+2", "1+2x", "--"):
        with pytest.raises(ValidationError):
            parse_pole(bad)


def _parse_pole_by_hand(text):
    """The pole-literal parser as it stood before it read literals with
    ``complex``: split the imaginary part off at its last sign."""
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


def _parsed_or_refused(parse, text):
    # the bits of both parts (float.hex reads every NaN as 'nan'), or the message
    try:
        z = parse(text)
    except ValidationError as exc:
        return str(exc)
    return z.real.hex(), z.imag.hex()


def test_parse_pole_matches_the_hand_parser():
    # Python's complex literal with 'i' for 'j', parentheses refused, gives
    # the hand parser's bits on every literal it read and its message on
    # every literal it refused
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pieces = st.sampled_from([*"0123456789+-.eEiIjJ_() \t", "inf", "nan"])

    @hypothesis.settings(max_examples=2000, deadline=None)
    @hypothesis.given(st.lists(pieces, max_size=12).map("".join))
    @hypothesis.example("(1)")
    @hypothesis.example("( -2.5 )")
    @hypothesis.example("(1+2i)")
    @hypothesis.example("-0i")
    @hypothesis.example("-0-0i")
    @hypothesis.example("1e+i")
    @hypothesis.example("-nani")
    @hypothesis.example(" 1_0 - i ")
    def agrees(text):
        assert _parsed_or_refused(parse_pole, text) == _parsed_or_refused(
            _parse_pole_by_hand, text)

    agrees()


def test_format_pole_examples():
    assert format_pole(-1.0) == "-1"
    assert format_pole(complex(-1, 2)) == "-1+2i"
    assert format_pole(complex(0, -0.25)) == "0-0.25i"


def test_format_parse_round_trip():
    rng = np.random.default_rng(401)
    for _ in range(30):
        z = complex(rng.uniform(-10, 10), rng.choice([0.0, rng.uniform(-10, 10)]))
        assert parse_pole(format_pole(z)) == z


# ---------------------------------------------------------------------------
# JSON emission


def test_emit_json_floats_round_trip():
    x = 0.1 + 0.2
    text = _emit_json({"x": x, "row": [x, 1.0 / 3.0]})
    back = json.loads(text)
    assert back["x"] == x
    assert back["row"][1] == 1.0 / 3.0


def test_emit_json_scalar_lists_stay_inline():
    text = _emit_json({"k": [1.0, 2.0]})
    assert "[1, 2]" in text


def test_emit_json_nested_structure_is_valid():
    obj = {"a": {"b": [1, 2]}, "c": [{"d": None}, {"d": True}], "e": []}
    assert json.loads(_emit_json(obj)) == obj


# ---------------------------------------------------------------------------
# gen


def test_gen_integrator_chain(capsys):
    assert main(["gen", "--n", "2", "--family", "integrator-chain"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["A"] == [[0.0, 1.0], [0.0, 0.0]]
    assert out["b"] == [0.0, 1.0]
    assert out["provenance"] == "integrator-chain n=2"


def test_gen_is_deterministic(capsys):
    main(["gen", "--n", "5", "--seed", "7"])
    first = capsys.readouterr().out
    main(["gen", "--n", "5", "--seed", "7"])
    assert capsys.readouterr().out == first
    main(["gen", "--n", "5", "--seed", "8"])
    assert capsys.readouterr().out != first


def test_gen_dense_meets_conditioning_contract(capsys):
    from poleplace.linalg import condition_number

    assert main(["gen", "--n", "6", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    sys_ = StateSpace(np.array(out["A"]), np.array(out["b"]))
    assert condition_number(sys_._controllability) <= 1e8
    assert "dense n=6 seed=3" in out["provenance"]
    # the gate seen by numpy's SVD, independent of the estimator: each draw
    # gen rejected lies above 1e8 and the one it kept below, to within
    # numpy's own error (a few n eps kappa); at n = 20 seed 25, an estimator
    # that squares kappa rejects draw 50 (kappa 8.8e7) and keeps draw 83
    cases = [(n, seed) for n in (6, 12, 20) for seed in (1, 2, 3, 4)] + [(20, 25)]
    for n, seed in cases:
        assert main(["gen", "--n", str(n), "--seed", str(seed)]) == 0
        out = json.loads(capsys.readouterr().out)
        attempt = int(out["provenance"].split("attempt=")[1].split()[0])
        rng = np.random.default_rng(seed)
        for i in range(1, attempt + 1):
            A, b = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, n)
            s = np.linalg.svd(StateSpace(A, b)._controllability, compute_uv=False)
            if i < attempt:
                assert s[0] >= 1e8 * (1 - 1e-6) * s[-1]
            else:
                assert s[0] <= 1e8 * (1 + 1e-6) * s[-1]
                assert np.array_equal(A, out["A"]) and np.array_equal(b, out["b"])


def test_gen_rejects_bad_dimension(capsys):
    assert main(["gen", "--n", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "3", "--seed", "-1"],
    ["gen", "--n", "3", "--seed", "-1", "--family", "integrator-chain"],
    ["compare", "--n", "3", "--trials", "1", "--seed", "-1"],
    ["compare", "--n", "3", "--trials", "1", "--seed", "-1", "--family", "integrator-chain"],
])
def test_negative_seed_is_malformed_input(argv, capsys):
    # numpy's generators take no negative seed: refused as the line is
    # parsed, with one error line, exit 2 and nothing on stdout, also for
    # the integrator chain, which draws nothing
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: --seed must be >= 0, got -1"]


# ---------------------------------------------------------------------------
# place


def test_place_bass_gura_report(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--method", "bass-gura",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "bass_gura"
    assert_allclose(report["k"], [-2.0, -3.0], atol=1e-12)
    assert set(report["targets"]) == {"-1", "-2"}
    assert report["system"]["n"] == 2
    diag = report["diagnostics"]
    assert diag["charpoly_residual"] <= 1e-10
    assert diag["spectrum_residual"] <= 1e-8
    assert diag["warnings"] == []
    assert "steps" not in report


def test_place_ackermann_complex_targets(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1+1i", "-1-1i"]),
            "--method", "ackermann",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert_allclose(report["k"], [-2.0, -2.0], atol=1e-12)


def test_place_general_pulled_variants(tmp_path, capsys):
    argv = [
        "place",
        "--system", di_system(tmp_path),
        "--plan", poles_plan(tmp_path, ["-1", "-2"]),
        "--method", "general",
    ]
    assert main(argv + ["--pulled", ""]) == 0
    k_none = json.loads(capsys.readouterr().out)["k"]
    assert main(argv + ["--pulled", "-1"]) == 0
    k_one = json.loads(capsys.readouterr().out)["k"]
    assert_allclose(k_none, [-2.0, -3.0], atol=1e-12)
    assert_allclose(k_one, [-2.0, -3.0], atol=1e-10)


def test_place_general_requires_pulled(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--method", "general",
        ]
    )
    assert rc == 2
    assert "--pulled" in capsys.readouterr().err


def test_place_partial(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", groups_plan(tmp_path, [(["1"], ["-5"])]),
            "--method", "partial",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert_allclose(report["k"], [-6.0, 0.0], atol=1e-12)
    assert set(report["targets"]) == {"-5", "2"}
    assert report["diagnostics"]["step_kappas"] == [1.0]


def test_place_partial_rejects_multiple_groups(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan",
            groups_plan(tmp_path, [(["1"], ["-1"]), (["2"], ["-2"])]),
            "--method", "partial",
        ]
    )
    assert rc == 2
    assert "exactly one group" in capsys.readouterr().err


def test_place_partial_rejects_moving_more_than_n(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", groups_plan(tmp_path, [(["1", "1", "2"], ["-1", "-2", "-3"])]),
            "--method", "partial",
        ]
    )
    assert rc == 2
    assert "moved set has 3 values" in capsys.readouterr().err


def test_place_simon_mitter_null_shift(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", groups_plan(tmp_path, [(["2"], ["2"])]),
            "--method", "simon-mitter",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == [0.0, 0.0]


def test_place_simon_mitter_takes_the_schur_form_once(tmp_path, monkeypatch, capsys):
    # the rank-one move and the report's targets both read the Schur form
    # the system stores: one computation per system
    from poleplace import linalg, placement, subspace

    seen = []
    real_schur = linalg.real_schur

    def counted(A, *args, **kwargs):
        seen.append(np.shape(A))
        return real_schur(A, *args, **kwargs)

    for mod in (linalg, placement, subspace):
        monkeypatch.setattr(mod, "real_schur", counted, raising=False)
    system = write_json(
        tmp_path / "lower.json",
        {"n": 3, "A": [[1, 0, 0], [1, 2, 0], [0, 1, 3]], "b": [1, 1, 1]},
    )
    rc = main(
        [
            "place",
            "--system", system,
            "--plan", groups_plan(tmp_path, [(["1"], ["-1"])]),
            "--method", "simon-mitter",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["method"] == "simon_mitter"
    assert seen == [(3, 3)]


def test_place_simon_mitter_rejects_pair_group(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", groups_plan(tmp_path, [(["1", "2"], ["-1", "-2"])]),
            "--method", "simon-mitter",
        ]
    )
    assert rc == 2


def test_place_sequential_reports_steps(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan",
            groups_plan(tmp_path, [(["1"], ["-1"]), (["2"], ["-3"])]),
            "--method", "sequential",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert_allclose(report["k"], [8.0, -15.0], atol=1e-10)
    steps = report["steps"]
    assert [s["step"] for s in steps] == [1, 2]
    assert all(s["subspace_dimension"] == 1 for s in steps)
    assert_allclose(steps[0]["gain"], [-2.0, 0.0], atol=1e-12)
    after = sorted(parse_pole(t).real for t in steps[1]["spectrum_after"])
    assert_allclose(after, [-3.0, -1.0], atol=1e-8)


def test_place_reports_every_diagnostics_field_in_order(tmp_path, capsys):
    # the report's "diagnostics" is the Diagnostics record itself: its
    # fields, in order, tuples as lists
    fields = [f.name for f in dataclasses.fields(Diagnostics)]
    for plan, method in ((poles_plan(tmp_path, ["-1", "-2"]), "bass-gura"),
                         (groups_plan(tmp_path, [(["1"], ["-1"]), (["2"], ["-3"])]),
                          "sequential")):
        assert main(["place", "--system", diag_system(tmp_path), "--plan", plan,
                     "--method", method]) == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert list(diag) == fields
        assert len(diag["step_kappas"]) == (2 if method == "sequential" else 0)


def test_place_method_plan_kind_mismatch(tmp_path, capsys):
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--method", "partial",
        ]
    )
    assert rc == 2
    assert "'groups' plan" in capsys.readouterr().err
    rc = main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", groups_plan(tmp_path, [(["1"], ["-1"])]),
            "--method", "bass-gura",
        ]
    )
    assert rc == 2
    assert "'poles' plan" in capsys.readouterr().err


def test_place_uncontrollable_is_numerical_failure(tmp_path, capsys):
    system = write_json(
        tmp_path / "unc.json",
        {"n": 2, "A": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0, 0.0]},
    )
    rc = main(
        [
            "place",
            "--system", system,
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--method", "bass-gura",
        ]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["bass-gura", "ackermann"])
@pytest.mark.parametrize("diagonal, dimension", [([1, 1, 1, 2, 3], 3), ([1, 1, 2], 2)])
def test_place_uncontrollable_reports_the_controllable_dimension(tmp_path, capsys, method,
                                                                 diagonal, dimension):
    # b = ones reaches one mode per distinct eigenvalue; elimination breaks
    # down at column 1, but the refusal names the controllable dimension
    # and the modes b cannot reach, the repeats of the eigenvalue 1
    n = len(diagonal)
    modes = ", ".join(["1"] * (n - dimension))
    system = write_json(tmp_path / "s.json", {"n": n, "A": np.diag(diagonal).tolist(),
                                              "b": [1] * n})
    plan = poles_plan(tmp_path, [str(-i - 1) for i in range(n)])
    assert main(["place", "--system", system, "--plan", plan, "--method", method]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: controllability matrix is singular to working precision; "
                   f"rank estimate {dimension} < {n}; uncontrollable modes {modes}\n")


@pytest.mark.parametrize("scale", [100, 200])
@pytest.mark.parametrize(
    "method, quantity",
    [("bass-gura", "characteristic polynomial coefficient"),
     ("ackermann", "Krylov column"),
     ("ackermann", "characteristic polynomial coefficient")],
)
def test_place_out_of_range_system_is_numerical_failure(tmp_path, capsys, scale,
                                                       method, quantity):
    # valid input that leaves the float range: exit 3 with the quantity
    # named, and no RuntimeWarning on the way.  A dense A at 2**scale
    # overflows its characteristic coefficients as well as its Krylov
    # columns, and every method reads the coefficients first; a strictly
    # upper triangular one keeps them at zero, so Ackermann, which forms
    # no target polynomial, reaches the Krylov columns
    rng = np.random.default_rng(12)
    A = np.ldexp(rng.uniform(-1.0, 1.0, (12, 12)), scale)
    if quantity == "Krylov column":
        A = np.triu(A, 1)
    b = rng.uniform(-1.0, 1.0, 12)
    system = write_json(tmp_path / "big.json", {"n": 12, "A": A.tolist(), "b": b.tolist()})
    poles = [format_pole(np.ldexp(-1.0 - 0.1 * j, scale)) for j in range(12)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["place", "--system", system, "--plan", poles_plan(tmp_path, poles),
                   "--method", method])
    assert rc == 3
    err = capsys.readouterr().err
    assert quantity in err
    assert "overflows the float range" in err


def test_place_validates_plan_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", str(bad),
            "--method", "bass-gura",
        ]
    )
    assert rc == 2
    capsys.readouterr()

    both = write_json(
        tmp_path / "both.json", {"poles": ["-1"], "groups": []}
    )
    rc = main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", both,
            "--method", "bass-gura",
        ]
    )
    assert rc == 2
    assert "exactly one of" in capsys.readouterr().err

    jplan = poles_plan(tmp_path, ["-1+2j", "-1-2j"])
    rc = main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", jplan,
            "--method", "bass-gura",
        ]
    )
    assert rc == 2
    assert "'i'" in capsys.readouterr().err


def test_place_validates_system_shape(tmp_path, capsys):
    system = write_json(
        tmp_path / "shape.json",
        {"n": 3, "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0, 0.0]},
    )
    rc = main(
        [
            "place",
            "--system", system,
            "--plan", poles_plan(tmp_path, ["-1", "-2", "-3"]),
            "--method", "bass-gura",
        ]
    )
    assert rc == 2
    assert "expected (3, 3)" in capsys.readouterr().err


def test_place_names_the_shape_of_a_short_b(tmp_path, capsys):
    # b's refusal reads as A's and StateSpace's do: shape against shape
    system = write_json(
        tmp_path / "short-b.json",
        {"n": 3, "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], "b": [0.0, 1.0]},
    )
    plan = poles_plan(tmp_path, ["-1", "-2", "-3"])
    assert main(["place", "--system", system, "--plan", plan, "--method", "bass-gura"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {system}: b has shape (2,), expected (3,)"]


@pytest.mark.parametrize(
    "field, system",
    [("n", {"n": True, "A": [[1.0]], "b": [1.0]}),
     ("A", {"n": 1, "A": [[True]], "b": [1.0]}),
     ("A", {"n": 2, "A": [[0.0, 1.0], [False, 0.0]], "b": [0.0, 1.0]}),
     ("b", {"n": 1, "A": [[1.0]], "b": [True]}),
     ("b", {"n": 2, "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, True]})],
)
def test_place_refuses_json_booleans_where_numbers_belong(field, system, tmp_path, capsys):
    # isinstance(True, int) holds and numpy reads true as 1.0, so each of
    # these systems would place; a boolean is malformed input instead
    path = write_json(tmp_path / "bool.json", system)
    plan = poles_plan(tmp_path, ["-1", "-2"][: len(system["b"])])
    assert main(["place", "--system", path, "--plan", plan, "--method", "bass-gura"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {field} "), captured.err


def test_place_reads_system_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(json.dumps({"n": 2, "A": [[0, 1], [0, 0]], "b": [0, 1]})),
    )
    rc = main(
        [
            "place",
            "--system", "-",
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--method", "ackermann",
        ]
    )
    assert rc == 0
    assert_allclose(json.loads(capsys.readouterr().out)["k"], [-2.0, -3.0], atol=1e-12)


# ---------------------------------------------------------------------------
# malformed files and flags: exit 2, nothing on stdout and one error line
# (argparse's own refusals print their usage lines first)

DI = {"n": 2, "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0]}
POLES = {"poles": ["-1", "-2"]}


@pytest.mark.parametrize("argv, system, plan, message", [
    pytest.param(["place", "--method", "bass-gura"], DI, ["-1", "-2"],
                 "plan.json: expected a JSON object", id="plan not an object"),
    pytest.param(["place", "--method", "bass-gura"], DI, {"poles": []},
                 "plan.json: 'poles' must be a nonempty list", id="empty poles"),
    pytest.param(["place", "--method", "sequential"], DI, {"groups": []},
                 "plan.json: 'groups' must be a nonempty list", id="empty groups"),
    pytest.param(["place", "--method", "sequential"], DI, {"groups": [{"move": ["0"]}]},
                 "plan.json: group 1 needs 'move' and 'to' lists", id="group without to"),
    pytest.param(["place", "--method", "bass-gura"], [DI], POLES,
                 "system.json: expected a JSON object", id="system not an object"),
    pytest.param(["verify", "--gain=,"], DI, POLES, "--gain is empty", id="empty gain"),
    pytest.param(["compare", "--n", ","], None, None,
                 "--n must list positive integers, got ','", id="empty size list"),
    pytest.param(["gen", "--seed", "abc"], None, None,
                 "invalid int value: 'abc'", id="text seed"),
])
def test_malformed_input_exits_2_with_one_error_line(argv, system, plan, message,
                                                     tmp_path, capsys):
    if system is not None:
        argv = argv + ["--system", write_json(tmp_path / "system.json", system),
                       "--plan", write_json(tmp_path / "plan.json", plan)]
    try:
        code, usage = main(argv), False
    except SystemExit as exc:  # argparse's own refusal, which prints its usage lines too
        code, usage = exc.code, True
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines and lines[-1].endswith(message), err
    assert usage or (len(lines) == 1 and lines[0].startswith("error: ")), err


# ---------------------------------------------------------------------------
# verify


def test_verify_accepts_correct_gain(tmp_path, capsys):
    # leading minus needs the = form, as it would in a shell
    rc = main(
        [
            "verify",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--gain=-2,-3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "charpoly_residual" in out
    assert "spectrum_residual" in out
    assert out.strip().endswith("ok: charpoly_residual <= 1e-06")


def test_verify_rejects_wrong_gain(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--gain", "0,0",
        ]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_accepts_exact_gain_at_n64(tmp_path, capsys):
    # A = Q L Q^T - b k^T, so k places the spectrum of L exactly.  The
    # closed-loop char_poly must be accurate enough at n = 64 to accept it.
    n = 64
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    re = -rng.uniform(0.1, 3.0, n // 2)
    im = rng.uniform(0.1, 3.0, n // 2)
    L = np.zeros((n, n))
    for i in range(n // 2):
        L[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[re[i], im[i]], [-im[i], re[i]]]
    b = rng.uniform(-1.0, 1.0, n)
    k = rng.uniform(-1.0, 1.0, n)
    A = Q @ L @ Q.T - np.outer(b, k)
    poles = [f"{x!r}{s}{y!r}i" for x, y in zip(re.tolist(), im.tolist()) for s in "+-"]
    rc = main(
        [
            "verify",
            "--system", write_json(tmp_path / "s.json", {"n": n, "A": A.tolist(), "b": b.tolist()}),
            "--plan", poles_plan(tmp_path, poles),
            "--gain=" + ",".join(repr(float(v)) for v in k),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("ok: charpoly_residual <= 1e-06")


@pytest.mark.parametrize("n", [32, 48])
def test_verify_accepts_bass_gura_on_integrator_chain(tmp_path, capsys, monkeypatch, n):
    # the closed loop is a companion matrix whose float-formed char_poly
    # reads 0.0 for trailing coefficients from n = 30 on; the residual of
    # the exactly formed loop, from the stored open-loop record, accepts
    # the gain, and a copy perturbed by 1e-4 still fails
    assert main(["gen", "--family", "integrator-chain", "--n", str(n)]) == 0
    system = write_json(tmp_path / "chain.json", json.loads(capsys.readouterr().out))
    poles = [format_pole(complex(v)) for v in np.linspace(-2.0, -1.0, n)]
    plan = poles_plan(tmp_path, poles)
    assert main(["place", "--system", system, "--plan", plan, "--method", "bass-gura"]) == 0
    report = json.loads(capsys.readouterr().out)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(report)))
    assert main(["verify", "--gain", "-"]) == 0
    assert capsys.readouterr().out.strip().endswith("ok: charpoly_residual <= 1e-06")
    report["k"] = [v * (1 + 1e-4) for v in report["k"]]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(report)))
    assert main(["verify", "--gain", "-"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_place_targets_beyond_float_range_are_numerical_failure(tmp_path, capsys):
    # 48 targets at -1e30 on a valid system: the target polynomial's
    # constant term, 1e1440, leaves the float range; exit 3, not 2
    assert main(["gen", "--family", "integrator-chain", "--n", "48"]) == 0
    system = write_json(tmp_path / "chain.json", json.loads(capsys.readouterr().out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["place", "--system", system, "--plan", poles_plan(tmp_path, ["-1e30"] * 48),
                   "--method", "bass-gura"])
    assert rc == 3
    assert "target polynomial coefficient of x**0 overflows" in capsys.readouterr().err


def test_verify_closed_loop_beyond_float_range_is_numerical_failure(tmp_path, capsys):
    # the exactly formed loop's constant coefficient is -k . b = -3.4e308
    system = write_json(tmp_path / "one.json", {"n": 1, "A": [[0.0]], "b": [2.0]})
    rc = main(["verify", "--system", system, "--plan", poles_plan(tmp_path, ["-1"]),
               "--gain", "1.7e308"])
    assert rc == 3
    assert "closed-loop characteristic polynomial coefficient of x**0" in (
        capsys.readouterr().err)


def test_verify_closed_loop_matrix_beyond_float_range_is_numerical_failure(tmp_path, capsys):
    # k is orthogonal to b, so every k^T x_j is 0 and the polynomial route
    # passes; the loop's entries b_i k_j = 2e308 do not fit a double, and the
    # spectrum route says so: exit 3, one error line, no RuntimeWarning
    system = write_json(tmp_path / "s.json",
                        {"n": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "b": [2.0, 2.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--system", system, "--plan", poles_plan(tmp_path, ["1", "1"]),
                   "--gain=1e308,-1e308"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: the closed loop A + b k^T has entries beyond the float range\n"


@pytest.mark.parametrize("A, b, poles, gain", [
    ([[0.5, 0.0], [0.0, 0.25]], [1.5e308, 1.5e308], ["0.5", "0.25"], "0,0"),
    ([[0.0, 0.0, 0.0], [1.5e308, 0.0, 0.0], [1.5e308, 0.0, 0.0]], [1.0, 0.0, 0.0],
     ["0", "0", "0"], "1e-300,0,0"),
])
def test_verify_closed_loop_near_the_float_range_is_checked(tmp_path, capsys, A, b, poles, gain):
    # ||b|| = 2.1e308, and a nilpotent A whose controller-Hessenberg form
    # has the entry 2.1e308: each loop A + b k^T has finite entries and
    # spectrum, and the spectrum route checks it in scaled coordinates
    system = write_json(tmp_path / "s.json", {"n": len(b), "A": A, "b": b})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--system", system, "--plan", poles_plan(tmp_path, poles),
                   "--gain=" + gain])
    assert rc == 0
    out = capsys.readouterr().out
    assert float(out.split("spectrum_residual")[1].split()[0]) <= 1e-15


def test_verify_reports_a_check_that_cannot_converge(tmp_path, capsys, monkeypatch):
    # targets -1e13 (1 + 0.01 i) on default_rng(3)'s n = 12 pair: place
    # returns the gain, but the closed-loop check's QR iteration runs out
    # of its 480 sweeps; verify says so on the spectrum_residual line,
    # prints no pole table, and keeps charpoly_residual's verdict (exit 1)
    rng = np.random.default_rng(3)
    A, b = rng.uniform(-1, 1, (12, 12)), rng.uniform(-1, 1, 12)
    system = write_json(tmp_path / "far.json", {"n": 12, "A": A.tolist(), "b": b.tolist()})
    plan = poles_plan(tmp_path, [repr(-1e13 * (1 + 0.01 * i)) for i in range(12)])
    assert main(["place", "--system", system, "--plan", plan, "--method", "bass-gura"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", "--gain", "-"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("charpoly_residual  ")
    assert lines[1].startswith("spectrum_residual  unknown: QR iteration did not converge "
                               "within 480 sweeps (active block rows ")
    assert lines[2] == "FAIL: charpoly_residual > 1e-06"
    assert captured.err == ""


def test_place_reports_a_schur_form_that_cannot_converge(tmp_path, capsys, monkeypatch):
    # every QR sweep a no-op, so the Schur form of default_rng(3)'s dense
    # n = 6 pair runs out of its 240 sweeps with nothing deflated: exit 4,
    # nothing on stdout and the message as the one error line
    rng = np.random.default_rng(3)
    A, b = rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, 6)
    system = write_json(tmp_path / "dense.json", {"n": 6, "A": A.tolist(), "b": b.tolist()})
    plan = poleplace.paired_plan(StateSpace(A, b), [-1, -2, -3, -4, -5, -6])
    groups = [([format_pole(z) for z in move], [format_pole(w) for w in to])
              for move, to in plan.groups]
    monkeypatch.setattr(poleplace.linalg, "_francis_step", lambda *args: 0)
    assert main(["place", "--system", system, "--plan", groups_plan(tmp_path, groups),
                 "--method", "sequential"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: QR iteration did not converge within 240 sweeps "
                            "(active block rows 0..5)\n")


def test_verify_table_is_the_pairing_behind_spectrum_residual(tmp_path, capsys):
    # a perturbed gain moves every eigenvalue, so nearest-first pairing in
    # target order would overstate the largest distance
    rng = np.random.default_rng(31)
    for n in (6, 10, 16):
        A = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, n)
        poles = [format_pole(complex(v)) for v in np.linspace(-2.0, -0.5, n)]
        k = rng.uniform(-1.0, 1.0, n)
        assert main(
            [
                "verify",
                "--system", write_json(tmp_path / "s.json", {"n": n, "A": A.tolist(), "b": b.tolist()}),
                "--plan", poles_plan(tmp_path, poles),
                "--gain=" + ",".join(repr(float(v)) for v in k),
            ]
        ) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        residual = lines[1].split()
        assert residual[0] == "spectrum_residual"
        rows = [line.split() for line in lines[3 : 3 + n]]
        assert [row[0] for row in rows] == poles
        largest = max(abs(parse_pole(t) - parse_pole(a)) for t, a, _ in rows)
        assert f"{largest:.6e}" == residual[1]


def test_verify_spectrum_does_not_lean_on_the_request(tmp_path, capsys):
    # the request seeds the shifts of the closed-loop Schur iteration, yet a
    # gain off by 1e-4 relative still fails, and the achieved values it
    # prints are the spectrum computed without the request, to 1e-12
    from poleplace.linalg import eigenvalues
    from poleplace.verify import spectrum_distance

    n = 16
    rng = np.random.default_rng(37)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    re, im = -rng.uniform(0.1, 3.0, n // 2), rng.uniform(0.1, 3.0, n // 2)
    L = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -2)
    for i in range(n // 2):
        L[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[re[i], im[i]], [-im[i], re[i]]]
    b, k = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    A = Q @ L @ Q.T - np.outer(b, k)
    system = write_json(tmp_path / "s.json", {"n": n, "A": A.tolist(), "b": b.tolist()})
    plan = poles_plan(tmp_path, [f"{x!r}{s}{y!r}i" for x, y in zip(re.tolist(), im.tolist())
                                 for s in "+-"])
    bad = k * (1.0 + 1e-4 * rng.choice([-1.0, 1.0], n))
    for gain, code in ((k, 0), (bad, 1)):
        assert main(["verify", "--system", system, "--plan", plan,
                     "--gain=" + ",".join(repr(float(v)) for v in gain)]) == code
        rows = capsys.readouterr().out.splitlines()[3 : 3 + n]
        achieved = [parse_pole(row.split()[1]) for row in rows]
        plain = eigenvalues(A + np.outer(b, gain))
        scale = max(abs(z) for z in plain)
        assert spectrum_distance(achieved, plain) <= 1e-12 * scale


def test_closed_stdout_ends_quietly_with_exit_141():
    # `poleplace compare ... | head -3`: a reader that leaves early is no
    # failure of the program, so no traceback, and the shell's code for a
    # process ended by SIGPIPE (128 + 13), not verify's 1
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(poleplace.__file__)))
    script = "import sys; from poleplace.cli import run; run()"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-c", script, "compare", "--n", "4,8", "--trials", "5", "--seed", "0"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 141
    assert done.stderr == b""


def test_verify_gain_must_be_real(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--gain", "1+2i,0",
        ]
    )
    assert rc == 2
    assert "real" in capsys.readouterr().err


def test_verify_gain_length_mismatch(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--gain", "1,2,3",
        ]
    )
    assert rc == 2
    assert "gain has shape (3,), expected (2,)" in capsys.readouterr().err


def test_verify_requires_system_and_plan_with_values(capsys):
    assert main(["verify", "--gain", "1,2"]) == 2
    assert "--system" in capsys.readouterr().err


def test_verify_reads_report_from_stdin(tmp_path, capsys, monkeypatch):
    main(
        [
            "place",
            "--system", di_system(tmp_path),
            "--plan", poles_plan(tmp_path, ["-1", "-2"]),
            "--method", "bass-gura",
        ]
    )
    report = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(report))
    assert main(["verify", "--gain", "-"]) == 0
    assert "ok:" in capsys.readouterr().out


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_place_writes_an_infinite_diagnostic_as_null(tmp_path, capsys, monkeypatch):
    # b = (1, 1e-20) is uncontrollable to working precision, so kappa of C
    # is inf; the partial step still places the one moved value, and the
    # report stays strict JSON that verify reads back from stdin
    system = write_json(tmp_path / "tiny.json",
                        {"n": 2, "A": [[1, 0], [0, 2]], "b": [1, 1e-20]})
    plan = groups_plan(tmp_path, [(["1"], ["-1"])])
    assert main(["place", "--system", system, "--plan", plan, "--method", "partial"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_refuse_constant)
    assert report["diagnostics"]["kappa_controllability"] is None
    assert "condition number inf" in report["diagnostics"]["warnings"][0]
    monkeypatch.setattr("sys.stdin", io.StringIO(captured.out))
    assert main(["verify", "--gain", "-"]) == 0


def test_emit_json_writes_non_finite_floats_as_null():
    obj = {"x": float("inf"), "row": [float("-inf"), np.float64("nan"), 1.5]}
    assert json.loads(_emit_json(obj), parse_constant=_refuse_constant) == {
        "x": None, "row": [None, None, 1.5]}


def test_verify_stdin_report_with_plan_override(tmp_path, capsys, monkeypatch):
    main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan",
            groups_plan(tmp_path, [(["1"], ["-1"]), (["2"], ["-3"])]),
            "--method", "sequential",
        ]
    )
    report = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(report))
    rc = main(
        [
            "verify",
            "--gain", "-",
            "--plan",
            groups_plan(tmp_path, [(["1"], ["-1"]), (["2"], ["-3"])]),
        ]
    )
    assert rc == 0


def test_verify_stdin_report_must_carry_gain(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"x": 1})))
    assert main(["verify", "--gain", "-"]) == 2
    assert "'k'" in capsys.readouterr().err


def _single_error_line(err, field):
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:") and repr(field) in lines[0]


# the double integrator's report for the gain that places -1 and -2
_DI_REPORT = {
    "k": [-2.0, -3.0],
    "system": {"n": 2, "A": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0]},
    "targets": ["-1", "-2"],
}


@pytest.mark.parametrize(
    "field, value",
    [("k", "abc"), ("k", {"a": 1}), ("k", [1, "x"]), ("k", [1, None]), ("k", 5),
     ("k", [[-2.0, -3.0]]), ("k", [True, -3.0]), ("k", [-2.0, False]), ("targets", 5),
     ("targets", "12")],
)
def test_verify_stdin_report_rejects_malformed_fields(field, value, capsys, monkeypatch):
    # a report field of the wrong JSON type is malformed input: exit 2 with
    # one error line naming the field, not a traceback, and a string is
    # not read as one pole per character
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(dict(_DI_REPORT, **{field: value}))))
    assert main(["verify", "--gain", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_error_line(captured.err, field)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_DI_REPORT)))
    assert main(["verify", "--gain", "-"]) == 0


@pytest.mark.parametrize("method, plan", [
    ("bass-gura", {"poles": ["-1", "-2+1e-3i", "-2-1e-3i"]}),
    ("sequential", {"groups": [{"move": ["1"], "to": ["-1"]},
                               {"move": ["2", "3"], "to": ["-2+1i", "-2-1i"]}]}),
])
def test_verify_modes_agree(method, plan, tmp_path, capsys, monkeypatch):
    # a place report on stdin, and the same system, plan and k spelled out
    # as flags, print the same bytes with the same exit code
    system = write_json(tmp_path / "lower.json",
                        {"n": 3, "A": [[1, 0, 0], [1, 2, 0], [0, 1, 3]], "b": [1, 1, 1]})
    plan = write_json(tmp_path / "plan.json", plan)
    assert main(["place", "--system", system, "--plan", plan, "--method", method]) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(report))
    piped = main(["verify", "--gain", "-"]), capsys.readouterr()
    k = ",".join(map(repr, json.loads(report)["k"]))
    spelled = main(["verify", "--system", system, "--plan", plan, f"--gain={k}"]), capsys.readouterr()
    assert piped == spelled
    assert piped[0] == 0 and piped[1].err == "" and "ok:" in piped[1].out


@pytest.mark.parametrize("report, message", [
    ({"system": _DI_REPORT["system"], "targets": ["-1", "-2"]},
     "stdin: expected a placement report with 'k'"),
    ({"k": "abc"}, "stdin report 'k' must be a JSON list of finite numbers"),
    ({"k": [-2.0, -3.0]}, "stdin report has no system; pass --system"),
    ({"k": [-2.0, -3.0], "system": {"n": 2}}, "stdin report: missing field 'A'"),
    ({"k": [1.0, 2.0, 3.0], "system": _DI_REPORT["system"]},
     "stdin report has no targets; pass --plan"),
    ({"k": [1.0, 2.0, 3.0], "system": _DI_REPORT["system"], "targets": 5},
     "stdin report 'targets' must be a JSON list of poles"),
])
def test_verify_reads_a_stdin_report_k_then_system_then_targets(report, message, capsys,
                                                                 monkeypatch):
    # the first missing or malformed of k, system and targets is the one
    # refused, whatever follows it; a k of the wrong length is refused
    # only once the targets are read
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(report)))
    assert main(["verify", "--gain", "-"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "field, value", [("move", 5), ("move", "12"), ("move", {"a": 1}), ("to", "13")],
)
def test_groups_plan_rejects_pole_fields_that_are_not_lists(field, value, tmp_path, capsys):
    # "12" would otherwise read as the two poles 1 and 2, which this system has
    group = dict({"move": ["1", "2"], "to": ["-1", "-3"]}, **{field: value})
    plan = write_json(tmp_path / "groups.json", {"groups": [group]})
    rc = main(["place", "--system", diag_system(tmp_path), "--plan", plan,
               "--method", "partial"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_error_line(captured.err, field)


# ---------------------------------------------------------------------------
# compare


def _split_compare_output(text):
    table, _, csv = text.partition("\n\n")
    lines = [ln for ln in csv.strip().splitlines()]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return table, header, rows


def test_compare_emits_table_and_csv(capsys):
    rc = main(["compare", "--n", "2,3", "--trials", "2", "--seed", "1"])
    assert rc == 0
    table, header, rows = _split_compare_output(capsys.readouterr().out)
    assert header == list(_COMPARE_COLUMNS)
    assert len(rows) == 2 * 2 * 3
    assert table.splitlines()[0].startswith("n")
    for row in rows:
        assert row["status"] in ("ok", "warn")
        assert float(row["charpoly_residual"]) >= 0.0
        if row["method"] == "sequential":
            assert int(row["largest_inverse"]) <= 2
        else:
            assert int(row["largest_inverse"]) == int(row["n"])


def test_compare_chain_family(capsys):
    rc = main(
        ["compare", "--n", "3", "--trials", "1", "--seed", "0",
         "--family", "integrator-chain"]
    )
    assert rc == 0
    _, _, rows = _split_compare_output(capsys.readouterr().out)
    for row in rows:
        assert row["status"] == "ok"
        if row["method"] == "sequential":
            # the chain's open-loop spectrum is 0 with multiplicity n; the
            # paired plan moves the repeated value in one step of size n
            assert float(row["charpoly_residual"]) <= 1e-12
        else:
            # the chain controllability matrix is perfectly conditioned
            assert abs(float(row["kappa_controllability"]) - 1.0) <= 1e-9


def test_compare_takes_each_kappa_once(monkeypatch, capsys):
    # the gate, Bass-Gura, Ackermann and sequential assignment on one drawn
    # system all read the condition number the system stores: one
    # computation per controllability matrix, rejected draws included
    from poleplace import cli, linalg, placement, subspace, verify

    seen = []
    condition_number = linalg.condition_number

    def counted(M):
        if M.shape[0] >= 4:  # the n x n matrix, not a sequential step's
            seen.append(M.tobytes())
        return condition_number(M)

    for mod in (cli, linalg, placement, subspace, verify):
        monkeypatch.setattr(mod, "condition_number", counted, raising=False)
    assert main(["compare", "--n", "4,6", "--trials", "2", "--seed", "3"]) == 0
    _, _, rows = _split_compare_output(capsys.readouterr().out)
    assert len(rows) == 2 * 2 * 3
    assert len(seen) >= 2 * 2
    assert len(set(seen)) == len(seen)


def test_compare_validates_arguments(capsys):
    assert main(["compare", "--n", "2,x"]) == 2
    capsys.readouterr()
    assert main(["compare", "--n", "4", "--trials", "0"]) == 2
    capsys.readouterr()


def test_compare_reports_a_failed_draw(monkeypatch, capsys):
    # a draw that raises gives its trial three rows, one per method, with
    # the error's name as status and every numeric cell empty
    from poleplace import cli
    from poleplace.errors import NumericalError

    dense_system = cli._dense_system

    def refuse_n3(rng, n):
        if n == 3:
            raise NumericalError("no controllable draw")
        return dense_system(rng, n)

    monkeypatch.setattr(cli, "_dense_system", refuse_n3)
    assert main(["compare", "--n", "2,3", "--trials", "1", "--seed", "1"]) == 0
    table, header, rows = _split_compare_output(capsys.readouterr().out)
    numeric = ("largest_inverse", "kappa_controllability", "max_step_kappa",
               "charpoly_residual", "spectrum_residual")
    assert [row["method"] for row in rows[3:]] == ["bass-gura", "ackermann", "sequential"]
    for row in rows[3:]:
        assert (row["n"], row["trial"], row["status"]) == ("3", "0", "NumericalError")
        assert all(row[c] == "" for c in numeric)
    for row in rows[:3]:
        assert row["n"] == "2" and row["status"] in ("ok", "warn")
        assert all(row[c] != "" for c in numeric)
    assert [line.split() for line in table.splitlines()[4:]] == [
        ["3", "0", method, "NumericalError"]
        for method in ("bass-gura", "ackermann", "sequential")]


def test_compare_row_records_failures():
    sys_ = StateSpace(A=np.diag([1.0, 2.0]), b=[1.0, 0.0])
    row = _compare_row(2, 0, "ackermann", sys_, Spectrum([-1.0, -2.0]))
    assert row["status"] == "UncontrollableError"
    assert row["charpoly_residual"] == ""


# ---------------------------------------------------------------------------
# round trips


def test_gen_place_verify_round_trip(tmp_path, capsys, monkeypatch):
    methods = ("bass-gura", "ackermann", "general")
    for seed in range(50):
        n = 2 + seed % 7
        assert main(["gen", "--n", str(n), "--seed", str(seed)]) == 0
        system = tmp_path / f"sys{seed}.json"
        system.write_text(capsys.readouterr().out)
        poles = [format_pole(complex(v)) for v in np.linspace(-3.0, -0.5, n)]
        plan = write_json(tmp_path / f"plan{seed}.json", {"poles": poles})
        argv = [
            "place",
            "--system", str(system),
            "--plan", plan,
            "--method", methods[seed % 3],
        ]
        if methods[seed % 3] == "general":
            argv += ["--pulled", poles[0]]
        assert main(argv) == 0
        report = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(report))
        assert main(["verify", "--gain", "-"]) == 0
        capsys.readouterr()


def test_sequential_round_trip(tmp_path, capsys, monkeypatch):
    plan = groups_plan(tmp_path, [(["1"], ["-2"]), (["2"], ["-4"])])
    assert main(
        [
            "place",
            "--system", diag_system(tmp_path),
            "--plan", plan,
            "--method", "sequential",
        ]
    ) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(report))
    assert main(["verify", "--gain", "-"]) == 0
    capsys.readouterr()


def test_sequential_places_an_uncontrollable_target_mode_on_its_default_plan(
        tmp_path, capsys, monkeypatch):
    # A = diag(1, 2, 3), b = (1, 1, 0) and targets (-1, -2, 3): the mode at
    # 3 is out of reach but already a target, so paired_plan, written as
    # groups, leaves it out; place exits 0 and verify accepts the gain
    A, b = np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 0.0]
    plan = poleplace.paired_plan(StateSpace(A, b), [-1.0, -2.0, 3.0])
    groups = [([format_pole(z) for z in m], [format_pole(z) for z in t]) for m, t in plan.groups]
    assert groups == [(["2"], ["-2"]), (["1"], ["-1"])]
    system = write_json(tmp_path / "s.json", {"n": 3, "A": A.tolist(), "b": b})
    assert main(["place", "--system", system, "--plan", groups_plan(tmp_path, groups),
                 "--method", "sequential"]) == 0
    report = capsys.readouterr().out
    assert_allclose(json.loads(report)["k"], [6.0, -12.0, 0.0], rtol=0.0, atol=1e-13)
    monkeypatch.setattr("sys.stdin", io.StringIO(report))
    assert main(["verify", "--gain", "-"]) == 0
    capsys.readouterr()


def test_main_runs_in_one_process_match_separate_processes(tmp_path, capsys):
    # the parser is built once per process and shared by every main call;
    # runs of different subcommands, a usage error among them, print and
    # exit exactly as they do each in a fresh interpreter
    runs = [
        ["gen", "--n", "3", "--seed", "4"],
        ["place", "--system", di_system(tmp_path)],
        ["verify", "--system", di_system(tmp_path),
         "--plan", poles_plan(tmp_path, ["-1", "-2"]), "--gain=-2,-3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(poleplace.__file__)))
    script = "import sys; from poleplace.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, got.out, got.err) == (alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [0, 2, 0]
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("module", ["poleplace", "poleplace.cli"])
def test_module_forms_run_the_command(module, capsys):
    # `python -m poleplace` and `python -m poleplace.cli` are the command:
    # the same gen JSON as main, and main's exit code on a bad argument
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(poleplace.__file__)))
    codes = []
    for argv in (["gen", "--n", "2"], ["gen", "--n", "2", "--bogus"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, got.out, got.err)
        codes.append(code)
    assert codes == [0, 2]


def test_main_looks_commands_up_when_it_runs(monkeypatch, capsys):
    # the shared parser holds no command functions, so a command replaced
    # after the parser was built, as a tracing wrapper does, is the one run
    from poleplace import cli

    assert main(["gen", "--n", "2"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_gen", lambda args: calls.append(args.n) or 0)
    assert main(["gen", "--n", "3"]) == 0
    assert calls == [3]
    capsys.readouterr()
