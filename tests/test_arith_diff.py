"""Differential test of arithmetic.  A goal is/2 or a comparison in a
clause body is evaluated on the clause text through the call's frame; the
same goal as a query, or inside call/1, is evaluated as a built term.
Both must agree with an oracle written here over `Fraction`, on the value
and its type, or on the class and message of the error."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import run_query
from prolite.errors import (EvaluationError, InstantiationError,
                            PlTypeError, PrologRuntimeError, ZeroDivisor)

# the values of the bound variables, D's through a compound that holds a
# bound variable; U stays unbound
ENV = {"A": 3, "B": -2, "C": Fraction(1, 2), "D": Fraction(5, 2)}
BIND = "C = 1 rdiv 2, D = A - C"

LEAVES = st.one_of(
    st.integers(-5, 5).map(lambda n: ("int", n)),
    st.sampled_from(["A", "B", "C", "D", "U"]).map(lambda v: ("var", v)),
    st.sampled_from(["pi", "a"]).map(lambda a: ("atom", a)))
# exponents stay small, so that no value outgrows the test
EXPONENTS = st.one_of(
    st.integers(-3, 3).map(lambda n: ("int", n)),
    st.sampled_from(["A", "B", "C"]).map(lambda v: ("var", v)),
    st.just(("atom", "pi")))


def _extend(children):
    return st.one_of(
        st.tuples(st.just("fn"),
                  st.sampled_from(["-", "abs", "sign", "sqrt", "float"]),
                  children),
        st.tuples(st.just("fn"), st.sampled_from(["min", "max"]), children,
                  children),
        st.tuples(st.just("op"),
                  st.sampled_from(["+", "-", "*", "/", "//", "mod", "rem"]),
                  children, children),
        st.tuples(st.just("op"), st.just("^"), children, EXPONENTS))


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=10)


def text(e):
    kind = e[0]
    if kind == "int":
        return f"({e[1]})" if e[1] < 0 else str(e[1])
    if kind in ("var", "atom"):
        return e[1]
    if kind == "fn":
        return f"{e[1]}({', '.join(text(a) for a in e[2:])})"
    return f"({text(e[2])} {e[1]} {text(e[3])})"


# --- the oracle --------------------------------------------------------

def _norm(v):
    return int(v) if type(v) is Fraction and v.denominator == 1 else v


def _floor_root(n, k):
    """Largest r with r ** k <= n, by bisection."""
    lo, hi = 0, 1
    while hi ** k <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= n else (lo, mid)
    return lo


def _root(x, k):
    """The k-th root of the rational x >= 0 when it is rational."""
    x = Fraction(x)
    num = _floor_root(x.numerator, k)
    den = _floor_root(x.denominator, k)
    if num ** k == x.numerator and den ** k == x.denominator:
        return Fraction(num, den)
    return None


def _integers(name, x, y, zero):
    if y == 0:
        raise ZeroDivisor(f"{zero} by zero")
    if type(x) is not int or type(y) is not int:
        raise PlTypeError(f"{name} expects integers")


def _sqrt(x):
    if x < 0:
        raise EvaluationError("sqrt of a negative number")
    root = None if type(x) is float else _root(x, 2)
    return math.sqrt(x) if root is None else _norm(root)


def _power(x, y):
    if type(y) is int and type(x) is not float:
        return _norm(Fraction(x) ** y)
    if x < 0 and float(y) != int(float(y)):
        raise EvaluationError("negative base with a non-integer exponent")
    if type(y) is Fraction and type(x) is not float:
        root = _root(x, y.denominator)
        if root is not None:
            return _norm(root ** y.numerator)
    return float(x) ** float(y)


def _arith(op, x, y):
    floats = type(x) is float or type(y) is float
    if op in ("+", "-", "*"):
        x, y = (float(x), float(y)) if floats else (Fraction(x), Fraction(y))
        value = x + y if op == "+" else x - y if op == "-" else x * y
        return value if floats else _norm(value)
    if op == "/":
        if y == 0:
            raise ZeroDivisor("division by zero")
        return float(x) / float(y) if floats \
            else _norm(Fraction(x) / Fraction(y))
    if op in ("//", "rem"):
        _integers(op, x, y, "division" if op == "//" else "rem")
        q = abs(x) // abs(y)
        q = q if (x < 0) == (y < 0) else -q
        return q if op == "//" else x - y * q
    if op == "mod":
        _integers(op, x, y, "mod")
        return x - y * math.floor(Fraction(x, y))
    return _power(x, y)


def _function(name, *xs):
    x = xs[0]
    if name == "min":
        return xs[1] if xs[1] < x else x
    if name == "max":
        return xs[1] if xs[1] > x else x
    if name == "-":
        return -x
    if name == "abs":
        return -x if x < 0 else x
    if name == "sign":
        sign = 1 if x > 0 else -1 if x < 0 else 0
        return float(sign) if type(x) is float else sign
    if name == "float":
        return float(x)
    return _sqrt(x)


def oracle(e):
    kind = e[0]
    if kind == "int":
        return e[1]
    if kind == "var":
        if e[1] not in ENV:
            raise InstantiationError(f"unbound variable in arithmetic: {e[1]}")
        return ENV[e[1]]
    if kind == "atom":
        if e[1] == "pi":
            return math.pi
        raise PlTypeError(f"non-numeric leaf in arithmetic: {e[1]}")
    args = [oracle(a) for a in e[2:]]
    name = f"{e[1]}/{len(args)}"
    try:
        value = _function(e[1], *args) if kind == "fn" \
            else _arith(e[1], *args)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"{name}: {type(exc).__name__}: {exc}") \
            from None
    if type(value) is float and not math.isfinite(value):
        raise EvaluationError(f"{name}: float result {value}")
    return value


# --- the three ways in --------------------------------------------------

def outcome(compute):
    try:
        value = compute()
    except PrologRuntimeError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("value", value, type(value).__name__)


def answer(program, query):
    solutions = run_query(program, query)
    assert len(solutions) == 1
    return solutions[0].bindings["R"]


def answers_is(expr):
    goal = f"R is {text(expr)}"
    return {
        "oracle": outcome(lambda: oracle(expr)),
        "clause": outcome(lambda: answer(
            f"t(A, B, R) :- {BIND}, {goal}.\n", "t(3, -2, R)")),
        "query": outcome(lambda: answer("", f"A = 3, B = -2, {BIND}, {goal}")),
        "call": outcome(lambda: answer(
            f"t(A, B, R) :- {BIND}, call({goal}).\n", "t(3, -2, R)")),
    }


COMPARISONS = {"=:=": lambda x, y: x == y, "=\\=": lambda x, y: x != y,
               "<": lambda x, y: x < y, ">": lambda x, y: x > y,
               "=<": lambda x, y: x <= y, ">=": lambda x, y: x >= y}


def answers_compare(left, op, right):
    goal = f"{text(left)} {op} {text(right)}"

    def holds(program, query):
        return lambda: len(run_query(program, query)) == 1

    return {
        "oracle": outcome(lambda: COMPARISONS[op](oracle(left),
                                                  oracle(right))),
        "clause": outcome(holds(f"t(A, B) :- {BIND}, {goal}.\n",
                                "t(3, -2)")),
        "query": outcome(holds("", f"A = 3, B = -2, {BIND}, {goal}")),
        "call": outcome(holds(f"t(A, B) :- {BIND}, call(({goal})).\n",
                              "t(3, -2)")),
    }


def assert_agree(found, label):
    assert len(set(found.values())) == 1, (label, found)


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
def test_is_agrees_on_every_path_and_with_the_oracle(expr):
    assert_agree(answers_is(expr), text(expr))


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS, st.sampled_from(sorted(COMPARISONS)), EXPRESSIONS)
def test_comparisons_agree_on_every_path_and_with_the_oracle(left, op,
                                                             right):
    assert_agree(answers_compare(left, op, right),
                 f"{text(left)} {op} {text(right)}")


def _op(name, x, y):
    return ("op", name, x, y)


N, V = (lambda n: ("int", n)), (lambda v: ("var", v))

CASES = [
    (_op("//", N(-7), N(2)), ("value", -3, "int")),
    (_op("rem", N(-7), N(2)), ("value", -1, "int")),
    (_op("mod", N(-7), N(2)), ("value", 1, "int")),
    (_op("^", V("B"), N(-3)), ("value", Fraction(-1, 8), "Fraction")),
    (_op("^", N(9), V("C")), ("value", 3, "int")),
    (_op("*", V("D"), N(2)), ("value", 5, "int")),
    (("fn", "sqrt", _op("/", N(1), N(4))), ("value", Fraction(1, 2),
                                            "Fraction")),
    (("fn", "min", N(1), ("fn", "float", N(1))), ("value", 1, "int")),
    (_op("^", N(0), N(-1)), ("error", "EvaluationError",
                             "^/2: ZeroDivisionError: Fraction(1, 0)")),
    (_op("^", V("B"), V("C")), ("error", "EvaluationError",
                                "negative base with a non-integer exponent")),
    (_op("//", N(1), N(0)), ("error", "ZeroDivisor", "division by zero")),
    (_op("//", V("C"), N(1)), ("error", "PlTypeError",
                               "// expects integers")),
    (_op("+", ("atom", "a"), V("U")), ("error", "PlTypeError",
                                       "non-numeric leaf in arithmetic: a")),
    (_op("+", V("U"), ("atom", "a")), ("error", "InstantiationError",
                                       "unbound variable in arithmetic: U")),
    # sign/1 keeps the type of its argument: a float's sign is inexact
    (("fn", "sign", ("fn", "float", N(-2))), ("value", -1.0, "float")),
    (("fn", "sign", ("atom", "pi")), ("value", 1.0, "float")),
    (("fn", "sign", N(-3)), ("value", -1, "int")),
]


def test_the_oracle_and_every_path_give_known_answers():
    for expr, expected in CASES:
        found = answers_is(expr)
        assert set(found.values()) == {expected}, (text(expr), found)
