"""One way to coerce inputs: every public entry point converts caller data
through the helpers of ``poleplace.errors``, so malformed input of any
kind raises ValidationError (exit code 2 on the command line), and the
same finite numbers give the same bits whatever container holds them.
Valid input whose gain leaves the float range raises NumericalError
(exit code 3) instead."""

import io
import json
import warnings

import numpy as np
import pytest

from poleplace import (
    Polynomial,
    Spectrum,
    StateSpace,
    char_poly,
    charpoly_residual,
    eigenvalues,
    invariant_split,
    paired_plan,
    place_ackermann,
    place_bass_gura,
    place_eigenpair,
    place_general,
    place_partial,
    place_sequential,
    place_simon_mitter,
    real_schur,
    reorder_schur,
)
from poleplace.cli import main
from poleplace.errors import (
    NumericalError,
    PolePlacementError,
    UncontrollableError,
    ValidationError,
)
from poleplace.linalg import condition_number, krylov, solve_linear
from poleplace.placement import omega_vector
from poleplace.poly import eval_matrix, open_loop_record
from poleplace.verify import assemble_diagnostics

NAN = float("nan")
HUGE = 10**400  # an integer no double can hold


def system():
    """A controllable order-3 pair; 3 is no square, so no wrong shape of b
    flattens to the right length."""
    return StateSpace(np.diag([1.0, 2.0, 3.0]) + np.eye(3, k=1), [0.0, 0.0, 1.0])


TARGETS = Spectrum([-1.0, -2.0, -3.0])
LINEAR = Polynomial([1.0, 1.0])

# Malformed calls, each of which must raise ValidationError: not a bare
# ValueError, TypeError, IndexError or OverflowError, not a ComplexWarning
# that drops an imaginary part, and not a result.
PROBES = {
    "StateSpace ragged A": lambda: StateSpace([[1, 2], [3]], [1, 1]),
    "StateSpace complex A": lambda: StateSpace(1j * np.eye(2), [1, 1]),
    "StateSpace text A": lambda: StateSpace("ab", [1.0]),
    "StateSpace 400-digit integer in b": lambda: StateSpace(np.eye(2), [HUGE, 1]),
    "solve_linear 0-d rhs": lambda: solve_linear(np.eye(2), 5.0),
    "solve_linear ragged matrix": lambda: solve_linear([[1, 2], [3]], [1, 1]),
    "solve_linear complex rhs": lambda: solve_linear(np.eye(2), [1j, 0]),
    "krylov complex b": lambda: krylov(np.eye(2), np.array([1j, 1.0])),
    "condition_number text": lambda: condition_number("abc"),
    "condition_number complex": lambda: condition_number(1j * np.eye(2)),
    "Polynomial text": lambda: Polynomial(["a"]),
    "Polynomial complex": lambda: Polynomial([1, 2j]),
    "Spectrum None": lambda: Spectrum(None),
    "Spectrum text": lambda: Spectrum(["x"]),
    "char_poly ragged": lambda: char_poly([[1, 2], [3]]),
    "char_poly complex": lambda: char_poly(1j * np.eye(2)),
    "open_loop_record text b": lambda: open_loop_record(np.eye(2), ["a", "b"]),
    "charpoly_residual text gain": lambda: charpoly_residual(system(), "abc", TARGETS),
    "eval_matrix NaN matrix": lambda: eval_matrix(LINEAR, np.full((2, 2), NAN)),
    "eval_matrix empty matrix": lambda: eval_matrix(LINEAR, np.zeros((0, 0))),
    "omega_vector None": lambda: omega_vector(system(), None),
    "place_eigenpair NaN omega": lambda: place_eigenpair(system(), [NAN, 0, 0], -1.0),
    "place_eigenpair text lam1": lambda: place_eigenpair(system(), [0, 0, 1], "x"),
    "assemble_diagnostics NaN gain": lambda: assemble_diagnostics(system(), [NAN] * 3),
    "place_bass_gura None targets": lambda: place_bass_gura(system(), None),
    "place_simon_mitter None mu1": lambda: place_simon_mitter(system(), None, -1.0),
    "reorder_schur text select": lambda: reorder_schur(real_schur(np.diag([1.0, 2.0])), ["a"]),
}


@pytest.mark.parametrize("name", PROBES)
def test_malformed_input_raises_validation_error(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning is no refusal
        with pytest.raises(ValidationError):
            PROBES[name]()


def test_scalar_arguments_are_finite_real_numbers():
    sys_ = system()
    omega = [0.0, 0.0, 1.0]
    for bad in (None, "x", NAN, np.inf, 1j, [1.0], np.ones((1, 1)), HUGE):
        with pytest.raises(ValidationError):
            place_eigenpair(sys_, omega, bad)
        with pytest.raises(ValidationError):
            place_simon_mitter(sys_, bad, -1.0)
        with pytest.raises(ValidationError):
            place_simon_mitter(sys_, 1.0, bad)
    # a Spectrum's values are complex: a zero imaginary part is real
    want = place_simon_mitter(sys_, 1.0, -1.0).k
    assert place_simon_mitter(sys_, 1 + 0j, -1 + 0j).k.tobytes() == want.tobytes()


def test_sequences_of_values_and_indices_are_refused_alike():
    A = np.diag([1.0, 2.0, 3.0])
    dec = real_schur(A)
    for bad in (None, "ab", [0.5], [[0, 1]], [NAN], [HUGE]):
        with pytest.raises(ValidationError):
            reorder_schur(dec, bad)
    assert reorder_schur(dec, {2, 1}).blocks == reorder_schur(dec, [1, 2]).blocks
    for bad in (None, 5, "ab", [None]):
        with pytest.raises(ValidationError):
            eigenvalues(A, near=bad)
        with pytest.raises(ValidationError):
            place_sequential(system(), bad)
    with pytest.raises(ValidationError):
        place_sequential(system(), [((1.0,),)])


def test_assemble_diagnostics_checks_the_gain_without_targets():
    sys_ = system()
    for bad in ([1.0, 2.0], [1.0, 2.0, np.inf], "abc", None):
        with pytest.raises(ValidationError):
            assemble_diagnostics(sys_, bad)
        with pytest.raises(ValidationError):
            assemble_diagnostics(sys_, bad, TARGETS)


# ---------------------------------------------------------------------------
# the property: every kind of malformed array, at every array argument

N = 3


def _valid(shape):
    return np.arange(1.0, 1.0 + np.prod(shape, dtype=int)).reshape(shape)


KINDS = ("ragged", "text", "none", "complex", "nonfinite", "shape", "scalar", "empty", "huge")

# name -> (call taking the argument, valid shape, shapes it must refuse);
# a Polynomial of one coefficient may be given as a scalar
ARGUMENTS = {
    "StateSpace A": (lambda x: StateSpace(x, np.ones(N)), (N, N), [(N,), (N, N + 1), (1, 1, N)]),
    "StateSpace b": (lambda x: StateSpace(np.eye(N), x), (N,), [(N + 1,), (2, N), (N - 1, 1)]),
    "solve_linear M": (lambda x: solve_linear(x, np.ones(N)), (N, N), [(N,), (N, N + 1)]),
    "solve_linear rhs": (lambda x: solve_linear(np.eye(N), x), (N,), [(N + 1,), (N + 1, 2)]),
    "krylov A": (lambda x: krylov(x, np.ones(N)), (N, N), [(N,), (N + 1, N)]),
    "krylov b": (lambda x: krylov(np.eye(N), x), (N,), [(N + 1,), (N, 1)]),
    "condition_number": (condition_number, (N, N), [(N,), (1, 1, N)]),
    "char_poly": (char_poly, (N, N), [(N,), (N, N + 1)]),
    "eval_matrix": (lambda x: eval_matrix(LINEAR, x), (N, N), [(N,), (N, N + 1)]),
    "real_schur": (real_schur, (N, N), [(N,), (N, N + 1)]),
    "eigenvalues": (eigenvalues, (N, N), [(N,), (N, N + 1)]),
    "invariant_split": (lambda x: invariant_split(x, [1.0]), (N, N), [(N,), (N, N + 1)]),
    "Polynomial": (Polynomial, (N,), [(N, N), (1, 1, N)], ("scalar",)),
    "omega_vector": (lambda x: omega_vector(system(), x), (N,), [(N + 1,), (N, N)]),
    "place_eigenpair": (lambda x: place_eigenpair(system(), x, -1.0), (N,), [(N + 1,), (N, 1)]),
    "charpoly_residual": (lambda x: charpoly_residual(system(), x, TARGETS), (N,),
                          [(N + 1,), (N, 1)]),
    "assemble_diagnostics": (lambda x: assemble_diagnostics(system(), x), (N,),
                             [(N - 1,), (1, N)]),
}


def test_malformed_arrays_raise_validation_error_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def malformed(draw, shape, wrong_shapes, allowed=()):
        kind = draw(st.sampled_from([kind for kind in KINDS if kind not in allowed]))
        if kind == "ragged":
            rows = [list(_valid((N,))), list(_valid((N - 1,)))]
            return rows if len(shape) == 2 else rows[::-1]
        if kind == "text":
            return draw(st.one_of(st.text(), st.lists(st.text(), min_size=1, max_size=N)))
        if kind == "none":
            return draw(st.sampled_from([None, [None] * N, [1.0, None, 2.0]]))
        x = _valid(shape)
        flat = x.reshape(-1)
        where = draw(st.integers(0, flat.size - 1))
        if kind == "complex":
            x = x.astype(complex)
            x.reshape(-1)[where] += 1j * draw(st.sampled_from([1.0, -0.5, 1e-300]))
            return x if draw(st.booleans()) else x.tolist()
        if kind == "nonfinite":
            flat[where] = draw(st.sampled_from([NAN, np.inf, -np.inf]))
            return x if draw(st.booleans()) else x.tolist()
        if kind == "huge":
            rows = x.astype(int).tolist()
            if len(shape) == 2:
                rows[where // shape[1]][where % shape[1]] = HUGE
            else:
                rows[where] = HUGE
            return rows
        if kind == "shape":
            return _valid(draw(st.sampled_from(wrong_shapes)))
        if kind == "scalar":
            return draw(st.sampled_from([2.0, np.float64(2.0), np.array(2.0)]))
        return draw(st.sampled_from([[], np.zeros(0), np.zeros((0, 0))]))

    for call, shape, *refused in ARGUMENTS.values():

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(malformed(shape, *refused))
        def check(x):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError):
                    call(x)

        check()


def _outcome(call):
    """The bytes of what a call returns, or the repr of its error."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return repr(exc)
    if hasattr(value, "k"):
        value = (value.k, repr(value.diagnostics))
    if hasattr(value, "blocks"):
        value = (value.Q, value.T, value.blocks)
    parts = value if isinstance(value, tuple) else (value,)
    return tuple(p.tobytes() if isinstance(p, np.ndarray) else repr(p) for p in parts)


def test_containers_give_the_bits_of_float64_input_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def integer_data(draw):
        n = draw(st.integers(1, 5))
        entries = st.integers(-8, 8)
        A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), float)
        b = np.array(draw(st.lists(entries, min_size=n, max_size=n)), float)
        k = np.array(draw(st.lists(entries, min_size=n, max_size=n)), float)
        return A.reshape(n, n), b, k

    def forms(x):
        """x as nested lists, nested tuples, int64 and float32 arrays."""
        as_tuple = tuple(map(tuple, x.tolist())) if x.ndim == 2 else tuple(x.tolist())
        return [x.astype(int).tolist(), as_tuple, x.astype(np.int64), x.astype(np.float32)]

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(integer_data())
    def check(data):
        A, b, k = data
        n = b.size
        targets = Spectrum([-1.0 - i for i in range(n)])
        sys_ = StateSpace(A, b)
        calls = [
            lambda A, b, k: (StateSpace(A, b).A, StateSpace(A, b).b),
            lambda A, b, k: place_bass_gura(StateSpace(A, b), targets),
            lambda A, b, k: place_ackermann(StateSpace(A, b), targets),
            lambda A, b, k: place_general(StateSpace(A, b), targets, targets),
            lambda A, b, k: solve_linear(A, b),
            lambda A, b, k: krylov(A, b),
            lambda A, b, k: condition_number(A),
            lambda A, b, k: char_poly(A).coeffs,
            lambda A, b, k: eval_matrix(Polynomial(b), A),
            lambda A, b, k: real_schur(A),
            lambda A, b, k: eigenvalues(A, near=k),
            lambda A, b, k: open_loop_record(A, b).closed_loop(k).coeffs,
            lambda A, b, k: charpoly_residual(sys_, k, targets),
            lambda A, b, k: assemble_diagnostics(sys_, k, targets),
            lambda A, b, k: omega_vector(sys_, k),
            lambda A, b, k: place_eigenpair(sys_, k, k[0]),
        ]
        for call in calls:
            want = _outcome(lambda: call(A, b, k))
            for A_, b_, k_ in zip(forms(A), forms(b), forms(k)):
                assert _outcome(lambda: call(A_, b_, k_)) == want

    check()


# ---------------------------------------------------------------------------
# the command line: an integer no double holds is malformed input


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_refuses_a_400_digit_integer_in_a_system(tmp_path, capsys):
    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 2, "A": [[HUGE, 0], [0, 1]], "b": [1, 1]}))
    plan = tmp_path / "p.json"
    plan.write_text(json.dumps({"poles": ["-1", "-2"]}))
    code, out, err = _run(["place", "--system", str(system), "--plan", str(plan),
                           "--method", "bass-gura"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and ": A must hold" in err


def test_cli_refuses_a_400_digit_integer_in_a_report_gain(capsys, monkeypatch):
    report = {"k": [HUGE, 1], "system": {"n": 2, "A": [[0, 1], [0, 0]], "b": [0, 1]},
              "targets": ["-1", "-2"]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(report)))
    code, out, err = _run(["verify", "--gain", "-"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: stdin report 'k' must be a JSON list of finite numbers\n"


# ---------------------------------------------------------------------------
# the refusal of a controllable pair too badly scaled for the Krylov route


@pytest.mark.parametrize("s", [20, 40])
def test_badly_scaled_refusal_says_the_form_is_controllable(s):
    # a random n = 12 pair, A and the targets scaled by 2**s: the Krylov
    # pivot fails at a low column, while the controller-Hessenberg form's
    # min(|beta|, |h_{i+1,i}|) / max|H| reads 0.18 at every scale
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (12, 12))
    b = rng.uniform(-1, 1, 12)
    sys_ = StateSpace(np.ldexp(A, s), b)
    targets = Spectrum([np.ldexp(-1.0 - 0.1 * i, s) for i in range(12)])
    column = {20: 3, 40: 2}[s]
    for place in (place_bass_gura, place_ackermann):
        with pytest.raises(UncontrollableError) as info:
            place(sys_, targets)
        assert str(info.value) == (
            f"controllability matrix fails its pivot test at column {column} of 12, yet the "
            "controller-Hessenberg form shows all 12 states controllable: the pair is too "
            "badly scaled for the Krylov route")


# ---------------------------------------------------------------------------
# valid input whose gain leaves the float range: a NumericalError (exit
# code 3), not a RuntimeWarning and a ValidationError blaming the input

OVERFLOWS = {
    # 1/(C^T)'s pivot times the coefficient gap overflows in the substitution
    "gain": (np.diag([1.0, 1.001]), [1.0, 1.0], [1e153, -1e153]),
    # the target polynomial's coefficients minus p(A)'s overflow
    "gamma": (np.diag([1e154, 1.5e154]), [1.0, 1.0], [1e154, -1.5e154]),
    # C_c^T gamma overflows
    "rhs": ([[1e155, 0.0], [0.0, 1.0]], [1.0, 1.0], [-1e155, 0.5]),
}


def _strict(call):
    """call() with every RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return call()


@pytest.mark.parametrize("place", [place_bass_gura, place_ackermann,
                                   lambda sys_, t: place_general(sys_, t, [])],
                         ids=["bass_gura", "ackermann", "general"])
def test_gain_beyond_the_float_range_is_a_numerical_error(place):
    A, b, targets = OVERFLOWS["gain"]
    with pytest.raises(NumericalError, match="^the gain has entries beyond the float range$"):
        _strict(lambda: place(StateSpace(A, b), targets))


@pytest.mark.parametrize("name", ["gamma", "rhs"])
def test_bass_gura_past_the_float_range_is_a_numerical_error(name):
    # the pair's Krylov pivot already refuses both, as Ackermann says
    A, b, targets = OVERFLOWS[name]
    with pytest.raises(UncontrollableError) as info:
        _strict(lambda: place_bass_gura(StateSpace(A, b), targets))
    with pytest.raises(UncontrollableError) as same:
        place_ackermann(StateSpace(A, b), targets)
    assert str(info.value) == str(same.value)


def test_eigenpair_gain_beyond_the_float_range_is_a_numerical_error():
    sys_ = StateSpace(np.diag([1.0, 2.0]), [1e-300, 1e-300])
    with pytest.raises(NumericalError, match="^the gain has entries beyond the float range$"):
        _strict(lambda: place_eigenpair(sys_, [1.0, 0.0], 1e10))


def test_omega_beyond_the_float_range_is_a_numerical_error():
    A, b, _ = OVERFLOWS["gain"]
    with pytest.raises(NumericalError, match="^omega has entries beyond the float range$"):
        _strict(lambda: omega_vector(StateSpace(A, b), [1e308, 0.0]))


@pytest.mark.parametrize("name", ["gain", "gamma"])
def test_cli_place_beyond_the_float_range_exits_3(name, tmp_path, capsys):
    A, b, targets = OVERFLOWS[name]
    system = tmp_path / "s.json"
    system.write_text(json.dumps({"n": 2, "A": np.asarray(A).tolist(), "b": b}))
    plan = tmp_path / "p.json"
    plan.write_text(json.dumps({"poles": [repr(t) for t in targets]}))
    code, out, err = _strict(lambda: _run(["place", "--system", str(system), "--plan",
                                           str(plan), "--method", "bass-gura"], capsys))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_scaled_pairs_get_a_gain_or_a_numerical_error_property():
    # dense pairs of order n <= 8 with A scaled by 2**s (|s| <= 600), b by
    # 2**t (|t| <= 300) and targets within 2**40 of A's scale: each method
    # returns a finite gain or raises a PolePlacementError that does not
    # blame the input, with no RuntimeWarning on the way
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def scaled_pairs(draw):
        n = draw(st.integers(1, 8))
        s, t = draw(st.integers(-600, 600)), draw(st.integers(-300, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        A = np.ldexp(rng.uniform(-1, 1, (n, n)), s)
        b = np.ldexp(rng.uniform(-1, 1, n), t)
        targets = []
        while len(targets) < n:
            e = s + draw(st.integers(-40, 40))
            if n - len(targets) >= 2 and draw(st.booleans()):
                z = complex(np.ldexp(rng.uniform(-1, 1), e), np.ldexp(rng.uniform(0.1, 1), e))
                targets += [z, z.conjugate()]
            else:
                targets.append(float(np.ldexp(rng.uniform(-1, 1), e)))
        return A, b, targets

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(scaled_pairs())
    @hypothesis.example(OVERFLOWS["gain"])
    @hypothesis.example(OVERFLOWS["gamma"])
    @hypothesis.example(OVERFLOWS["rhs"])
    def check(pair):
        A, b, values = pair
        sys_, targets = StateSpace(A, b), Spectrum(values)
        # the first real target, or the first pair: a self-conjugate part
        pulled = values[:1] if isinstance(values[0], float) else values[:2]
        methods = {
            "bass_gura": lambda: place_bass_gura(sys_, targets),
            "ackermann": lambda: place_ackermann(sys_, targets),
            "general": lambda: place_general(sys_, targets, pulled),
            "sequential": lambda: place_sequential(sys_, paired_plan(sys_, targets))[0],
        }
        for name, call in methods.items():
            try:
                gain = _strict(call)
            except PolePlacementError as exc:
                assert not isinstance(exc, ValidationError), (name, exc)
            else:
                assert np.isfinite(gain.k).all(), name

    check()


# ---------------------------------------------------------------------------
# b at any scale: k(A, 2**t b, T) = 2**-t k(A, b, T), bit for bit


# A = diag(1, 2, 3), b = 2**t (1, 1, 1): the one-value gate once formed
# |omega||b| by squaring b's entries, which overflows at t = 520
ONE_VALUE_REPRO = (np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0], [-1.0, -2.0, -3.0])


@pytest.mark.parametrize("t", [0, 520, 1000])
def test_one_value_gate_takes_b_at_its_own_scale(t):
    A, b, _ = ONE_VALUE_REPRO
    base = StateSpace(A, b)
    sys_ = StateSpace(A, np.ldexp(b, t))
    simon_mitter = _strict(lambda: place_simon_mitter(sys_, 1.0, -1.0)).k
    partial = _strict(lambda: place_partial(sys_, [1.0], [-1.0])).k
    assert simon_mitter.tobytes() == partial.tobytes()
    want = np.ldexp(place_simon_mitter(base, 1.0, -1.0).k, -t)
    assert simon_mitter.tobytes() == want.tobytes()
    # the eigenpair gain scales alike, and omega's own scale drops out
    eigenpair = _strict(lambda: place_eigenpair(sys_, [1e200, 0.0, 0.0], -1.0)).k
    assert eigenpair.tobytes() == np.ldexp(
        place_eigenpair(base, [1.0, 0.0, 0.0], -1.0).k, -t).tobytes()
    assert eigenpair.tobytes() == _strict(
        lambda: place_eigenpair(sys_, np.ldexp([1e200, 0.0, 0.0], 200), -1.0)).k.tobytes()


def _gain_or_error(call):
    """``("gain", k)`` of call() under ``_strict``, or ``("error", class)``."""
    try:
        return "gain", _strict(call).k
    except PolePlacementError as exc:
        return "error", type(exc)


def _normal(k) -> bool:
    """Every entry of k is zero or a normal float."""
    a = np.abs(k)
    return bool(np.all((a == 0.0) | ((a >= np.finfo(float).tiny) & np.isfinite(a))))


def test_scaling_b_scales_every_gain_by_the_inverse_power_property():
    # dense pairs of order n <= 8 with b scaled by 2**t (-300 <= t <= 1000):
    # each method's gain is bitwise 2**-t times its gain at t = 0, or both
    # raise the same error class, with no RuntimeWarning on the way; draws
    # whose gain leaves the normal range at either scale compare nothing
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def scaled_b(draw):
        n = draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        targets = []
        while len(targets) < n:
            if n - len(targets) >= 2 and draw(st.booleans()):
                z = complex(-rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
                targets += [z, z.conjugate()]
            else:
                targets.append(-rng.uniform(0.1, 3.0))
        return (rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n), targets,
                draw(st.integers(-300, 1000)))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(scaled_b())
    @hypothesis.example((*ONE_VALUE_REPRO, 520))
    @hypothesis.example((*ONE_VALUE_REPRO, 1000))
    def check(case):
        A, b, values, t = case
        targets = Spectrum(values)
        pulled = values[:1] if isinstance(values[0], float) else values[:2]
        blocks = StateSpace(A, b)._schur.blocks
        first = blocks[0].eigenvalues
        reals = [z.real for blk in blocks for z in blk.eigenvalues if z.imag == 0.0]

        def methods(sys_):
            calls = {
                "bass_gura": lambda: place_bass_gura(sys_, targets),
                "ackermann": lambda: place_ackermann(sys_, targets),
                "general": lambda: place_general(sys_, targets, pulled),
                "sequential": lambda: place_sequential(sys_, paired_plan(sys_, targets))[0],
                "partial": lambda: place_partial(sys_, first, [-1.0, -2.0][: len(first)]),
            }
            if reals:
                calls["simon_mitter"] = lambda: place_simon_mitter(sys_, reals[0], -1.0)
            return calls

        base = methods(StateSpace(A, b))
        scaled = methods(StateSpace(A, np.ldexp(b, t)))
        for name in base:
            kind, got = _gain_or_error(base[name])
            kind_t, got_t = _gain_or_error(scaled[name])
            if kind == "error":
                assert (kind_t, got_t) == (kind, got), name
                continue
            with np.errstate(over="ignore", under="ignore"):
                want = np.ldexp(got, -t)
            if _normal(got) and _normal(want):
                assert kind_t == "gain", (name, got_t)
                assert got_t.tobytes() == want.tobytes(), name

    check()
