import pytest
from hypothesis import given, strategies as st

from casim.errors import ValidationError
from casim.exprs import Expr


def test_arithmetic_and_names():
    e = Expr("x + y * 2 - 1")
    assert set(e.names) == {"x", "y"}
    assert e.eval({"x": 3, "y": 4}) == 10


def test_comparisons_and_boolean():
    assert Expr("x >= 0 and y < 10").eval({"x": 1, "y": 2})
    assert not Expr("not (x == 1)").eval({"x": 1})
    assert Expr("0 <= x <= 5").eval({"x": 3})


def test_floor_div_and_mod():
    assert Expr("x // 3").eval({"x": 10}) == 3
    assert Expr("x % 3").eval({"x": 10}) == 1


def test_unary_minus():
    assert Expr("-x + 5").eval({"x": 2}) == 3


@pytest.mark.parametrize("bad", [
    "x ** 2",
    "__import__('os')",
    "x.bit_length()",
    "[1, 2]",
    "x if y else 0",
    "1.5 + x",
    "f(x)",
])
def test_disallowed_constructs_rejected(bad):
    with pytest.raises(ValidationError):
        Expr(bad)


def test_syntax_error_rejected():
    with pytest.raises(ValidationError):
        Expr("x +")


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_eval_agrees_with_python(x, y):
    text = "x * 2 - y % 7 + (x // 3) * (y + 1)"
    assert Expr(text).eval({"x": x, "y": y}) == eval(text)


@pytest.mark.parametrize("text, env, expected", [
    # `and`/`or` yield a bool, not the operand that decided them
    ("x or 5", {"x": 0}, True),
    ("x or 5", {"x": 3}, True),
    ("x and 5", {"x": 3}, True),
    ("x and 5", {"x": 0}, False),
    ("(x or 5) + 1", {"x": 0}, 2),
    ("order + 1", {"order": 1}, 2),
    ("not x", {"x": 0}, True),
    ("not x", {"x": -2}, False),
    ("0 < x < 5 < 9", {"x": 3}, True),
    ("0 < x < 5 < 9", {"x": 7}, False),
    # a failed link short-circuits the rest of the chain
    ("1 < x < 1 // x", {"x": 0}, False),
    ("x == 1 == True", {"x": 1}, True),
    ("x // 2 + x % 2", {"x": -3}, -1),
])
def test_eval_semantics(text, env, expected):
    value = Expr(text).eval(env)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("text", ["x // 0", "x % 0", "x % (x - x)",
                                  "x > 0 and 1 // 0"])
def test_division_by_zero_raises(text):
    with pytest.raises(ZeroDivisionError):
        Expr(text).eval({"x": 4})
