"""Expression-language tests: grammar, resolution, evaluation, printing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracbvp.exprlang import (
    BinOp,
    Bound,
    Call,
    Comp,
    ConstRef,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    TimeVar,
    bind,
    evaluate,
    parse,
    pretty,
    pretty_source,
)

GYRE_SOURCE = "-2*exp(t)/(1+exp(t))^2 * u1 - 2*omega*exp(t)*(1-exp(t))/(1+exp(t))^3"


def test_parse_forcing_expression():
    exprs = parse(GYRE_SOURCE, 1, {"omega": 4649.56})
    assert len(exprs) == 1
    val = evaluate(exprs, 0.0, [1.0])
    # at t=0 the second term vanishes and the first is -2*1/4
    assert val[0] == pytest.approx(-0.5)


def test_parse_zero():
    exprs = parse("0", 1, {})
    assert exprs == (Num(0.0),)
    assert np.all(evaluate(exprs, np.linspace(0, 1, 5), [np.zeros(5)]) == 0.0)


def test_parse_two_components():
    exprs = parse("u2; -u1", 2, {})
    assert len(exprs) == 2
    out = evaluate(exprs, 0.0, [3.0, 4.0])
    assert out.tolist() == [4.0, -3.0]


def test_component_count_mismatch():
    with pytest.raises(ExprSyntaxError):
        parse("u2; -u1", 1, {})
    with pytest.raises(ExprSyntaxError):
        parse("t", 2, {})


def test_unknown_identifier_positioned():
    with pytest.raises(ExprSyntaxError) as err:
        parse("t + bogus", 1, {})
    assert err.value.line == 1
    assert err.value.col == 5


def test_component_index_out_of_range():
    with pytest.raises(ExprSyntaxError):
        parse("u3", 2, {})
    # u0 is not a valid component name either
    with pytest.raises(ExprSyntaxError):
        parse("u0", 2, {})


def test_syntax_error_has_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2", 1, {})
    assert err.value.col == 5
    with pytest.raises(ExprSyntaxError):
        parse("", 1, {})
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2", 1, {})
    with pytest.raises(ExprSyntaxError):
        parse("1 2", 1, {})


def test_call_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse("exp(1, 2)", 1, {})
    with pytest.raises(ExprSyntaxError):
        parse("pow(2)", 1, {})
    assert evaluate(parse("pow(2, 10)", 1, {}), 0.0, [0.0])[0] == 1024.0


# --- precedence and associativity -----------------------------------------

@pytest.mark.parametrize(
    "source,expected",
    [
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("2^3^2", 512.0),  # right-associative
        ("-2^2", -4.0),  # ^ binds tighter than unary minus
        ("(-2)^2", 4.0),
        ("2^-1", 0.5),
        ("6/3/2", 1.0),  # left-associative
        ("1-2-3", -4.0),
        ("0^0", 1.0),
        ("--3", 3.0),
    ],
)
def test_precedence(source, expected):
    assert evaluate(parse(source, 1, {}), 0.0, [0.0])[0] == pytest.approx(expected)


def test_functions():
    exprs = parse("exp(t); log(t); sin(t); cos(t); sqrt(t); abs(-t)", 6, {})
    out = evaluate(exprs, 2.0, np.zeros(6))
    assert out == pytest.approx(
        [math.e**2, math.log(2), math.sin(2), math.cos(2), math.sqrt(2), 2.0]
    )


def test_constants_resolve_at_parse_time():
    exprs = parse("c * t", 1, {"c": 2.5})
    assert isinstance(exprs[0], BinOp)
    assert exprs[0].left == ConstRef("c", 2.5)
    assert evaluate(exprs, 2.0, [0.0])[0] == 5.0


# --- evaluation semantics --------------------------------------------------

def test_vectorized_evaluation_shape():
    exprs = parse("t * u1; u2", 2, {})
    t = np.linspace(0, 1, 11)
    u = np.vstack([t + 1, -t])
    out = evaluate(exprs, t, u)
    assert out.shape == (2, 11)
    assert np.allclose(out[0], t * (t + 1))
    assert np.allclose(out[1], -t)


def test_eval_error_pinpoints_component_and_inputs():
    exprs = parse("1 / t; t", 2, {})
    with pytest.raises(ExprEvalError) as err:
        evaluate(exprs, np.array([1.0, 0.0]), np.zeros((2, 2)))
    assert "component 1" in str(err.value)
    assert err.value.t == 0.0


def test_eval_error_on_log_of_negative():
    exprs = parse("log(u1)", 1, {})
    with pytest.raises(ExprEvalError):
        evaluate(exprs, 0.0, [-1.0])


_T5 = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize(
    "t, u, want_t",
    [
        (0.5, [-1.0], 0.5),  # scalar t and components
        (_T5, [-1.0], 0.0),  # scalar components along array t
        (_T5, np.where(np.arange(5) == 4, -1.0, 1.0)[np.newaxis], 1.0),  # (n, N)
        (_T5, np.where(np.arange(15) == 14, -1.0, 1.0).reshape(1, 3, 5), 1.0),  # (n, B, N)
    ],
)
def test_eval_error_reports_the_offending_point(t, u, want_t):
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse("log(u1)", 1, {}), t, u)
    assert err.value.t == want_t
    assert list(err.value.u) == [-1.0]


def test_broadcast_components_equal_the_dense_arrays():
    exprs = parse("t * u1 + sin(u2) - exp(-t) * u1 / u2; 2", 2, {})
    t, u1, u2 = np.meshgrid(np.linspace(0, 1, 4), np.linspace(-1, 2, 5), np.linspace(1, 3, 6),
                            indexing="ij", sparse=True)
    sparse = evaluate(exprs, t, [u1, u2])
    full = [np.broadcast_to(a, (4, 5, 6)).ravel() for a in (t, u1, u2)]
    dense = evaluate(exprs, full[0], np.stack(full[1:]))
    assert sparse.shape == (2, 4, 5, 6)
    assert np.array_equal(sparse.reshape(2, -1), dense)


def test_eval_error_on_broadcast_axes_reports_the_offending_point():
    t = np.linspace(0.0, 1.0, 3)[:, np.newaxis, np.newaxis]
    u1 = np.array([1.0, 0.0, 2.0])[np.newaxis, :, np.newaxis]
    u2 = np.array([5.0, 6.0])[np.newaxis, np.newaxis, :]
    with pytest.raises(ExprEvalError) as err:
        evaluate(parse("u2; log(u1) + t", 2, {}), t, [u1, u2])
    assert "component 2" in str(err.value)
    assert err.value.t == 0.0
    assert list(err.value.u) == [0.0, 5.0]


def test_scalar_evaluation_returns_vector():
    out = evaluate(parse("t + u1", 1, {}), 1.5, [2.0])
    assert out.shape == (1,)
    assert out[0] == 3.5


# --- pretty printer ---------------------------------------------------------

@pytest.mark.parametrize(
    "source",
    [
        "1+2*3",
        "(1+2)*3",
        "2^3^2",
        "-2^2",
        "(-2)^2",
        "-(1+t)",
        "t*(u1+1)/(u1-1)",
        "exp(t)^2",
        "pow(t,2)",
        GYRE_SOURCE,
    ],
)
def test_pretty_round_trip(source):
    exprs = parse(source, 1, {"omega": 4649.56})
    text = pretty_source(exprs)
    again = parse(text, 1, {"omega": 4649.56})
    assert again == exprs


def test_pretty_drops_redundant_parens():
    exprs = parse("((1)+(2*3))", 1, {})
    assert pretty(exprs[0]) == "1+2*3"


_leaf = st.sampled_from([Num(2.0), Num(0.5), TimeVar(), Comp(0), ConstRef("w", 3.0)])


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), sub, sub),
        st.builds(Call, st.just("sin"), st.tuples(sub)),
        st.builds(Call, st.just("pow"), st.tuples(sub, sub)),
    )


@given(_tree(4))
def test_pretty_parse_identity_on_random_trees(tree):
    text = pretty(tree)
    parsed = parse(text, 1, {"w": 3.0})
    assert parsed == (tree,)


@given(_tree(3), st.floats(0.1, 2.0), st.floats(-2.0, 2.0))
def test_pretty_preserves_value(tree, t, u1):
    text = pretty(tree)
    with np.errstate(all="ignore"):
        try:
            v1 = evaluate((tree,), t, [u1])
        except ExprEvalError:
            return  # non-finite for these inputs either way
    v2 = evaluate(parse(text, 1, {"w": 3.0}), t, [u1])
    assert v1[0] == pytest.approx(v2[0], rel=1e-12, abs=1e-12)


# --- f with its t-only subtrees bound -----------------------------------------

_T = np.linspace(0.0, 1.0, 401)
_U = np.random.default_rng(7).uniform(0.5, 2.5, size=(3, 401))


def _outcome(exprs, t, u):
    """The array evaluate returns, or the (message, t, u) of its ExprEvalError."""
    try:
        return evaluate(exprs, t, u)
    except ExprEvalError as exc:
        return str(exc), exc.t, exc.u


def _same_outcome(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a[:2] == b[:2] and np.array_equal(a[2], b[2])


@pytest.mark.parametrize(
    "source",
    ["2*3 - 1", "-2", "exp(t)/(1+t^2) - sin(3*t)", "u1*u1 - 2*u1", "-u1^0.5", GYRE_SOURCE,
     "log(t)*u1", "log(t)", "u1/(t - 0.5)", "t; u1 + cos(t)*2"],
)
def test_bound_evaluation_is_bit_identical(source):
    n = source.count(";") + 1
    exprs = parse(source, n, {"omega": 4649.56})
    bound = bind(exprs, _T)
    for u in (_U[:n], _U[:, np.newaxis].repeat(n, axis=1).transpose(1, 0, 2), _U[0, :n, np.newaxis]):
        # one iterate (n, N), a stack of three iterates, and one column per component
        want = _outcome(exprs, _T, u)
        assert _same_outcome(_outcome(bound, _T, u), want)
    if source.startswith("log(t)"):
        # non-finite at t = 0: the same error, with the same t and u
        assert isinstance(want, tuple) and want[1] == 0.0


def test_bind_keeps_only_the_subtrees_that_read_u():
    (gyre,) = bind(parse(GYRE_SOURCE, 1, {"omega": 4649.56}), _T)
    # f = a(t) * u1 - b(t): two arrays, bound read-only on the nodes
    assert isinstance(gyre, BinOp) and gyre.op == "-"
    assert isinstance(gyre.left, BinOp) and gyre.left.right == Comp(0)
    for node in (gyre.left.left, gyre.right):
        assert isinstance(node, Bound) and node.value.shape == _T.shape
        assert not node.value.flags.writeable
    # leaves stay as they are; a constant subtree binds to its scalar
    assert bind(parse("t; u1; 2", 3, {}), _T) == (TimeVar(), Comp(0), Num(2.0))
    (const,) = bind(parse("2*w", 1, {"w": 3.5}), _T)
    assert isinstance(const, Bound) and const.value == 7.0


@given(_tree(3), st.floats(-1.0, 2.0), st.floats(-2.0, 2.0))
def test_bound_random_trees_are_bit_identical(tree, shift, u1):
    t = _T + shift
    u = [u1 + _T]
    assert _same_outcome(_outcome(bind((tree,), t), t, u), _outcome((tree,), t, u))
