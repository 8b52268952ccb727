"""Property tests of the compiled expression engine.

Random well-kinded trees are printed, reparsed (so every node carries its
source position) and compiled.  The compiled engine must agree with the
scalar tree walker in ``dsl_reference``, lane by lane and bit for bit
across batches, and its forward-mode derivatives must agree with
complex-step and central differences along the same directions: the body
coordinates, and the material action ``F -> F (I + t E_ab)`` on the gradient.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsl_reference import walk_model
from matdist import dsl
from matdist.dsl import MATRIX, SCALAR, VECTOR, BinOp, Call, IfExpr, Name, Neg, Num, Power, Transpose
from matdist.errors import EvaluationError, ModelParseError

RELOPS = ("<=", "<", ">=", ">", "==")

# ---------------------------------------------------------------------------
# random trees


def _scalar_product_kind(lk, rk):
    if lk == SCALAR:
        return rk
    if rk == SCALAR:
        return lk
    return VECTOR if rk == VECTOR else MATRIX


def _leaf(kind):
    if kind == SCALAR:
        return st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 0.25]).map(Num),
                         st.sampled_from(["X1", "X2", "X3"]).map(lambda n: Name(n, SCALAR)))
    if kind == VECTOR:
        return st.just(Name("X", VECTOR))
    return st.sampled_from([Name("F", MATRIX), Name("I", MATRIX)])


@functools.lru_cache(maxsize=None)
def trees(kind, depth, smooth=False):
    """Trees of ``kind`` up to ``depth`` levels; ``smooth`` leaves out abs() and if()."""
    if depth == 0:
        return _leaf(kind)

    def sub(k):
        return trees(k, depth - 1, smooth)

    def binop(op, lk, rk):
        kind_out = _scalar_product_kind(lk, rk) if op == "*" else lk
        return st.builds(lambda a, b: BinOp(op, a, b, kind_out), sub(lk), sub(rk))

    def call(func, *kinds):
        return st.builds(lambda *args: Call(func, args, kind), *[sub(k) for k in kinds])

    options = [
        _leaf(kind),
        st.builds(lambda a: Neg(a, kind), sub(kind)),
        binop("+", kind, kind),
        binop("-", kind, kind),
        binop("/", kind, SCALAR),
    ]
    if not smooth:
        options.append(st.builds(lambda op, a, b, t, o: IfExpr(op, a, b, t, o, kind),
                                 st.sampled_from(RELOPS), sub(SCALAR), sub(SCALAR),
                                 sub(kind), sub(kind)))
    if kind == SCALAR:
        options += [
            binop("*", SCALAR, SCALAR),
            st.builds(lambda b, e: Power(b, e, SCALAR), sub(SCALAR), st.integers(-3, 3)),
            call("det", MATRIX), call("tr", MATRIX), call("exp", SCALAR), call("log", SCALAR),
            call("sqrt", SCALAR), call("norm2", VECTOR), call("dot", VECTOR, VECTOR),
        ]
        if not smooth:
            options.append(call("abs", SCALAR))
    elif kind == VECTOR:
        options += [binop("*", SCALAR, VECTOR), binop("*", VECTOR, SCALAR),
                    binop("*", MATRIX, VECTOR), call("cross", VECTOR, VECTOR)]
    else:
        options += [binop("*", SCALAR, MATRIX), binop("*", MATRIX, SCALAR),
                    binop("*", MATRIX, MATRIX), st.builds(lambda a: Transpose(a, MATRIX), sub(MATRIX)),
                    call("inv", MATRIX), call("outer", VECTOR, VECTOR)]
    return st.one_of(options)


def models(smooth=False):
    """Parsed models whose response is a random tree of random kind."""
    def build(tree):
        source = f"response = {dsl.pretty_expr(tree)}\n"
        mdef = dsl.parse_source(source)
        assert mdef.response == tree, source  # printing and parsing lose nothing
        return mdef
    kinds = st.sampled_from([SCALAR, VECTOR, MATRIX])
    return kinds.flatmap(lambda k: trees(k, 3, smooth)).map(build)


# ---------------------------------------------------------------------------
# lanes

_WELL = np.array([[1.2, 0.3, -0.4], [0.1, 0.9, 0.2], [-0.3, 0.5, 1.4]])
MATRICES = [np.eye(3), np.diag([2.0, 0.5, 1.0]), _WELL,
            np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]),  # singular
            np.zeros((3, 3))]
_COORD = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))
_LANE = st.tuples(st.tuples(_COORD, _COORD, _COORD), st.sampled_from(range(len(MATRICES))))
LANES = st.lists(_LANE, min_size=1, max_size=6).map(
    lambda lanes: (np.array([x for x, _ in lanes]), np.array([MATRICES[f] for _, f in lanes])))


def _generic_jet(seed):
    """A jet with no ties or special values between coordinates; F well conditioned."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.15, 0.95, 3) * rng.choice([-1.0, 1.0], 3)
    return X, _WELL + rng.uniform(-0.3, 0.3, (3, 3))


JETS = st.integers(0, 2**32 - 1).map(_generic_jet)


def _relerr(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


# ---------------------------------------------------------------------------
# evaluation


@settings(max_examples=300, deadline=None)
@given(mdef=models(), lanes=LANES)
def test_compiled_matches_walker_lane_by_lane_and_in_batch(mdef, lanes):
    Xs, Fs = lanes
    program = dsl.compile_model(mdef)
    singles = []
    with np.errstate(all="ignore"):
        for X, F in zip(Xs, Fs):
            try:
                expected, expected_error = walk_model(mdef, X, F), None
            except EvaluationError as exc:
                expected, expected_error = None, str(exc)
            except OverflowError:
                assume(False)  # Python's float power raises where numpy returns inf
            try:
                got, got_error = program.evaluate(X[None], F[None])[0], None
            except EvaluationError as exc:
                got, got_error = None, str(exc)
            assert got_error == expected_error
            if expected is not None:
                finite = np.isfinite(expected)
                np.testing.assert_array_equal(np.isfinite(got), finite)
                np.testing.assert_array_equal(got[~finite], expected[~finite])
                assert np.all(_relerr(got[finite], expected[finite]) <= 1e-12)
            singles.append(got)
        if any(single is None for single in singles):
            with pytest.raises(EvaluationError):
                program.evaluate(Xs, Fs)
        else:
            batch = program.evaluate(Xs, Fs)
            for row, single in zip(batch, singles):
                np.testing.assert_array_equal(row, single)


@pytest.mark.parametrize("source", [
    "det(F) + tr(F) + exp(X1) + log(X2) + sqrt(X3) + abs(-X1) + norm2(X) + dot(X, F * X)",
    "cross(X, F * X) + inv(F) * X / X2",
    "outer(X, X) - F' * F + X1^2 * I + X2^-1 * F",
] + [f"if(X1 {op} X2, X1 + X2, X1 * X2)" for op in RELOPS])
def test_every_function_and_relop_matches_walker(source):
    mdef = dsl.parse_source(f"response = {source}\n")
    program = dsl.compile_model(mdef)
    Xs = np.array([[0.3, 0.7, 0.2], [0.7, 0.3, 0.9], [0.5, 0.5, 0.4]])
    Fs = np.array([_WELL, np.diag([2.0, 0.5, 1.0]), _WELL.T])
    batch = program.evaluate(Xs, Fs)
    for row, X, F in zip(batch, Xs, Fs):
        assert np.all(_relerr(row, walk_model(mdef, X, F)) <= 1e-12)


def test_if_runs_each_branch_on_its_lanes_only():
    # lanes with X1 = 0 select the first branch; dividing by X1 there would raise
    mdef = dsl.parse_source("response = if(X1 == 0, X2, X2 / X1)\n")
    Xs = np.array([[0.0, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 3.0, 0.0], [-4.0, 2.0, 0.0]])
    out = dsl.compile_model(mdef).evaluate(Xs, np.broadcast_to(np.eye(3), (4, 3, 3)))
    np.testing.assert_array_equal(out[:, 0], [1.0, 0.5, 3.0, -0.5])


def test_errors_name_the_failing_node():
    mdef = dsl.parse_source("let a = X1 + 1\nresponse = log(a) + 1 / X2\n")
    program = dsl.compile_model(mdef)
    F = np.eye(3)[None]
    with pytest.raises(EvaluationError, match="log of non-positive value at line 2, column 12"):
        program.evaluate(np.array([[-1.0, 1.0, 0.0]]), F)
    with pytest.raises(EvaluationError, match="division by zero at line 2, column 23"):
        program.evaluate(np.array([[1.0, 0.0, 0.0]]), F)


# ---------------------------------------------------------------------------
# derivatives


def _jet_lanes(X, F, steps):
    """Lane ``i`` moves ``X_j`` by ``steps[i]`` (``j = i mod 12 < 3``), or ``F`` to
    ``F (I + steps[i] E_ab)`` (``j = 3 + 3a + b``): the directions of the derivative axis."""
    dtype = np.result_type(steps, float)
    Xs = np.repeat(X[None].astype(dtype), len(steps), axis=0)
    Fs = np.repeat(F[None].astype(dtype), len(steps), axis=0)
    for lane, step in enumerate(steps):
        j = lane % 12
        if j < 3:
            Xs[lane, j] += step
        else:
            a, b = divmod(j - 3, 3)
            Fs[lane, :, b] += step * F[:, a]  # F E_ab holds column a of F in column b
    return Xs, Fs


@settings(max_examples=200, deadline=None)
@given(mdef=models(smooth=True), jet=JETS)
def test_forward_mode_matches_complex_step(mdef, jet):
    X, F = jet
    program = dsl.compile_model(mdef)
    with np.errstate(all="ignore"):
        try:
            W, D = program.derivatives(X[None], F[None])
        except EvaluationError:
            assume(False)
        assume(np.all(np.isfinite(W)) and np.all(np.isfinite(D)))
        assume(np.abs(W).max() < 1e6 and np.abs(D).max() < 1e6)
        h = 1e-20
        Xc, Fc = _jet_lanes(X, F, np.full(12, 1j * h))
        try:
            cs = program.evaluate(Xc, Fc).imag.T / h  # (dim, 12)
        except EvaluationError:
            assume(False)
    assert np.all(_relerr(D[0], cs) <= 1e-9)


@settings(max_examples=200, deadline=None)
@given(mdef=models(), jet=JETS)
def test_forward_mode_matches_central_differences(mdef, jet):
    X, F = jet
    program = dsl.compile_model(mdef)
    with np.errstate(all="ignore"):
        try:
            W, D = program.derivatives(X[None], F[None])
        except EvaluationError:
            assume(False)
        assume(np.all(np.isfinite(W)) and np.all(np.isfinite(D)))
        assume(np.abs(W).max() < 1e6 and np.abs(D).max() < 1e6)

        def central(h):
            Xs, Fs = _jet_lanes(X, F, np.concatenate([np.full(12, h), np.full(12, -h)]))
            values = program.evaluate(Xs, Fs)
            return ((values[:12] - values[12:]) / (2.0 * h)).T

        try:
            coarse, fine = central(1e-6), central(1e-7)
        except EvaluationError:
            assume(False)
    scale = max(1.0, np.abs(W).max())
    # a kink of abs() or if() inside the step shows as unstable quotients
    assume(np.all(np.abs(coarse - fine) <= 1e-6 * scale))
    assert np.all(np.abs(D[0] - coarse) <= 1e-5 * np.maximum(scale, np.abs(coarse)))


@settings(max_examples=40, deadline=None)
@given(mdef=models(), seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([dsl._LANE_CHUNK + 1, 2 * dsl._LANE_CHUNK + 37]),
       with_gradients=st.booleans())
def test_chunked_derivatives_equal_one_pass(mdef, seed, n, with_gradients):
    rng = np.random.default_rng(seed)
    Xs = rng.uniform(0.15, 0.95, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))
    Fs = _WELL + rng.uniform(-0.3, 0.3, (n, 3, 3)) if with_gradients else None
    program = dsl.compile_model(mdef)
    with np.errstate(all="ignore"):
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dsl, "_LANE_CHUNK", n)  # every lane in one pass
                whole = program.derivatives(Xs, Fs)
        except EvaluationError:
            assume(False)
        chunked = program.derivatives(Xs, Fs)
    for got, want in zip(chunked, whole):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_shipped_example1_derivatives_match_builtin(example1):
    import os

    import matdist
    from matdist.response import load_model_file

    from conftest import random_invertible

    path = os.path.join(os.path.dirname(matdist.__file__), "mdl", "example1.mdl")
    parsed = load_model_file(path)
    rng = np.random.default_rng(12)
    for _ in range(100):
        X = rng.uniform(-0.99, 0.99, 3)
        Fs = np.array([random_invertible(rng) for _ in range(3)])
        Xs = np.repeat(X[None], len(Fs), axis=0)
        got, want = parsed._derivatives(Xs, Fs), example1._derivatives(Xs, Fs)
        assert got.shape == want.shape == (len(Fs), 9, 12)  # the material-frame block
        assert np.all(_relerr(got, want) <= 1e-12)


# ---------------------------------------------------------------------------
# parsing


_SOURCE_CHARS = "X123FI +-*/^()',<>=.e0589\nabcdfgilnoprstuvx_#"
_STATEMENT = st.one_of(
    st.text(alphabet=_SOURCE_CHARS, max_size=40).map(lambda t: "response = " + t),
    st.text(alphabet=_SOURCE_CHARS, max_size=30).map(lambda t: "let u = " + t),
    st.text(alphabet="-0123456789.e+", max_size=12).map(lambda t: "param a = " + t),
    st.text(alphabet=_SOURCE_CHARS, max_size=40),
    st.text(max_size=40),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_STATEMENT, max_size=4).map("\n".join))
def test_parse_source_fails_only_with_parse_errors(text):
    try:
        mdef = dsl.parse_source(text)
    except ModelParseError:
        return
    first = dsl.pretty_source(mdef)
    second = dsl.pretty_source(dsl.parse_source(first))
    assert first == second


@pytest.mark.parametrize("source", [
    "response = " + "(" * 120 + "1" + ")" * 120,
    "response = " + "-" * 500 + "1",
    "response = 1" + " + 1" * 200,
])
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ModelParseError, match="nests deeper"):
        dsl.parse_source(source)
