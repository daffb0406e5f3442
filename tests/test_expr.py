"""Parser, differentiation, and evaluation tests for the expression engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bclab.expr import Call, Const, ExprError, Pow, Var, parse_expr


def _eval(source: str, **point):
    return parse_expr(source).evaluate(point)


# ===== parsing and evaluation ===============================================

def test_numbers_and_precedence():
    assert _eval("2 + 3*4") == 14.0
    assert _eval("(2 + 3)*4") == 20.0
    assert _eval("2 - 3 - 4") == -5.0  # left associative
    assert _eval("12/4/3") == 1.0
    assert _eval("-2^2") == -4.0  # unary minus binds looser than power
    assert _eval("1.5e2") == 150.0
    assert _eval("2.5E-1") == 0.25


def test_functions_and_constants():
    assert _eval("sin(0)") == 0.0
    assert _eval("cos(0)") == 1.0
    assert _eval("exp(0)") == 1.0
    assert _eval("sqrt(4)") == 2.0
    assert _eval("pi") == pytest.approx(math.pi)
    assert _eval("e") == pytest.approx(math.e)
    assert _eval("sin(pi/2)") == pytest.approx(1.0)


def test_variables():
    assert _eval("x0 + 2*x1", x0=1.0, x1=3.0) == 7.0
    e = parse_expr("x0*x2 - x1")
    assert e.variables() == {"x0", "x1", "x2"}


def test_spec_cli_expression_value():
    # the scenario-file sample entry: value 1.0 at (x0, x1) = (0, pi/2)
    e = parse_expr("1 + 0.1*sin(x0)*cos(x1)")
    assert e.evaluate({"x0": 0.0, "x1": math.pi / 2}) == pytest.approx(1.0)


def test_numpy_vectorized_evaluation():
    e = parse_expr("sin(x0)^2 + cos(x0)^2")
    x = np.linspace(-3, 3, 17)
    np.testing.assert_allclose(e.evaluate({"x0": x}), np.ones_like(x), atol=1e-15)


def test_power_requires_literal_exponent():
    with pytest.raises(ExprError, match="exponent must be a numeric literal, got 'x1'"):
        parse_expr("x0^x1")
    # '^' does not chain: its exponent is a literal, not another power
    with pytest.raises(ExprError, match=r"unexpected token '\^'"):
        parse_expr("x0^2^3")


# ===== error positions =======================================================

def test_error_position_binary_junk():
    # column of the offending '*' token, 1-based
    with pytest.raises(ExprError) as err:
        parse_expr("1 + * 2")
    assert (err.value.line, err.value.col) == (1, 5)


def test_error_position_unknown_function():
    with pytest.raises(ExprError) as err:
        parse_expr("1 + tan(x0)")
    assert err.value.col == 5


def test_error_position_unbalanced_paren():
    with pytest.raises(ExprError):
        parse_expr("(1 + 2")


def test_error_position_trailing_garbage():
    with pytest.raises(ExprError) as err:
        parse_expr("1 + 2 )")
    assert err.value.col == 7


def test_error_variable_out_of_range():
    with pytest.raises(ExprError) as err:
        parse_expr("x0 + x3", n_vars=2)
    assert "x3" in err.value.message
    assert err.value.col == 6


def test_error_empty_input():
    with pytest.raises(ExprError):
        parse_expr("")


# ===== differentiation: hand-derived oracles =================================

# (expression, variable, hand-derived derivative)
_DIFF_CASES = [
    ("x0^3", "x0", "3*x0^2"),
    ("sin(2*x0)", "x0", "2*cos(2*x0)"),
    ("exp(x0*x1)", "x1", "x0*exp(x0*x1)"),
    ("sqrt(1 + x0^2)", "x0", "x0/sqrt(1 + x0^2)"),
    ("cos(x0)/x1", "x0", "-sin(x0)/x1"),
    ("cos(x0)/x1", "x1", "-cos(x0)/x1^2"),
    ("x0*x1 + x1^2", "x1", "x0 + 2*x1"),
    ("1/(1 - 0.2*x1)", "x1", "0.2/(1 - 0.2*x1)^2"),
]


@pytest.mark.parametrize("source,name,expected", _DIFF_CASES)
def test_diff_against_hand_oracle(source, name, expected):
    d = parse_expr(source).diff(name)
    ref = parse_expr(expected)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.1, 1.5, size=(20, 2))
    for x0, x1 in pts:
        env = {"x0": x0, "x1": x1}
        assert d.evaluate(env) == pytest.approx(ref.evaluate(env), rel=1e-12, abs=1e-12)


def test_diff_of_constant_and_foreign_variable():
    assert parse_expr("3.5").diff("x0").evaluate({}) == 0.0
    assert parse_expr("x1").diff("x0").evaluate({"x1": 2.0}) == 0.0


def test_diff_matches_finite_differences():
    source = "sin(x0)*exp(0.3*x1) + x0^2/(2 + cos(x1))"
    e = parse_expr(source)
    d0 = e.diff("x0")
    step = 1e-6
    rng = np.random.default_rng(11)
    for x0, x1 in rng.uniform(-1.0, 1.0, size=(10, 2)):
        up = e.evaluate({"x0": x0 + step, "x1": x1})
        dn = e.evaluate({"x0": x0 - step, "x1": x1})
        assert d0.evaluate({"x0": x0, "x1": x1}) == pytest.approx((up - dn) / (2 * step), abs=1e-8)


# ===== round trips ===========================================================

def _leaf():
    return st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: Const(float(v))),
        st.sampled_from(["x0", "x1", "x2"]).map(Var),
    )


def _node(children):
    def binary(cls):
        return st.tuples(children, children).map(lambda ab: cls(*ab))

    from bclab.expr import Add, Div, Mul, Neg, Sub

    return st.one_of(
        binary(Add),
        binary(Sub),
        binary(Mul),
        binary(Div),
        children.map(Neg),
        children.map(lambda a: Pow(a, Const(2.0))),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(lambda fa: Call(*fa)),
    )


_ast = st.recursive(_leaf(), _node, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_ast)
def test_render_parse_round_trip(tree):
    text = tree.render()
    again = parse_expr(text)
    assert again.render() == text


@settings(max_examples=100, deadline=None)
@given(_ast)
@example(parse_expr("exp((4*7)^2)"))  # scalar math.exp overflows on both sides
def test_round_trip_preserves_values(tree):
    text = tree.render()
    again = parse_expr(text)
    env = {"x0": 0.37, "x1": -0.81, "x2": 1.29}

    def safe(e):
        try:
            with np.errstate(all="ignore"):
                return float(e.evaluate(env))
        except (ZeroDivisionError, OverflowError):
            return math.nan

    a, b = safe(tree), safe(again)
    if math.isfinite(a) and math.isfinite(b):
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
    else:
        assert (not math.isfinite(a)) and (not math.isfinite(b))
