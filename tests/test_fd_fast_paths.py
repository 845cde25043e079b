"""The fast paths of FD posting and propagation against plain references:
`FdDomain.remove`, which splits only the interval holding the value,
and `FdDomain.contains`, which bisects, against a set of values, and
`linearize` against a plain recursive reference; and the first error
that a malformed constraint goal reports."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prolite.clpfd import FdDomain
from prolite.errors import NonLinearUnsupported, PlTypeError
from prolite.orchestrator import run_candidate
from prolite.terms import Atom, Bindings, Struct, Var, linearize

INF = float("inf")


# --- FdDomain.remove ----------------------------------------------------

def _random_domain(rng):
    """A finite domain of one to five intervals, some of them singletons."""
    values, at = [], rng.randint(-8, 8)
    for _ in range(rng.randint(1, 5)):
        width = rng.choice([0, 0, 1, 2, 4])
        values += range(at, at + width + 1)
        at += width + rng.randint(2, 4)
    return FdDomain.from_values(values)


def _check_remove(dom, v):
    out = dom.remove(v)
    before = set(dom.values())
    assert dom.contains(v) == (v in before), (dom, v)
    if v not in before:
        assert out is dom, (dom, v)
        return
    after = before - {v}
    assert set(out.values()) == after, (dom, v)
    assert out == FdDomain.from_values(after), (dom, v)
    assert out.card == len(after)
    if after:
        assert (out.lo, out.hi) == (min(after), max(after))
    else:
        assert out.lo > out.hi


def test_remove_agrees_with_a_set_of_values():
    rng = random.Random(20261019)
    for _ in range(300):
        dom = _random_domain(rng)
        # below, above, in every hole, at every interval end and in every
        # singleton interval
        for v in range(dom.lo - 2, dom.hi + 3):
            _check_remove(dom, v)


@pytest.mark.parametrize("intervals, v, expected", [
    (((-INF, 4),), 4, ((-INF, 3),)),
    (((-INF, 4),), 0, ((-INF, -1), (1, 4))),
    (((-INF, 4), (7, INF)), 5, None),
    (((-INF, 4), (7, INF)), 7, ((-INF, 4), (8, INF))),
    (((-INF, INF),), 0, ((-INF, -1), (1, INF))),
    (((3, 3),), 3, ()),
])
def test_remove_on_infinite_and_singleton_domains(intervals, v, expected):
    dom = FdDomain(intervals)
    out = dom.remove(v)
    if expected is None:
        assert out is dom
        return
    fresh = FdDomain(expected)
    assert out.intervals == fresh.intervals
    assert (out.lo, out.hi, out.card) == (fresh.lo, fresh.hi, fresh.card)


# --- linearize against a recursive reference -----------------------------

X, Y, Z = Var("X"), Var("Y"), Var("Z")
UNBOUND = (X, Y, Z)


def _bindings():
    """X, Y, Z unbound; A bound to 3; W an alias of X; S bound to a
    compound over X and Y, so that a term holding S twice shares it."""
    b = Bindings()
    a, w, s = Var("A"), Var("W"), Var("S")
    b.bind(a, 3)
    b.bind(w, X)
    b.bind(s, Struct("+", (X, Struct("*", (2, Y)))))
    return b, (a, w, s)


B, BOUND = _bindings()

LEAVES = st.one_of(st.integers(-3, 3), st.sampled_from(UNBOUND + BOUND),
                   st.just(Atom("a")))


def _extend(children):
    return st.one_of(
        st.builds(lambda op, l, r: Struct(op, (l, r)),
                  st.sampled_from(["+", "-", "*"]), children, children),
        st.builds(lambda op, t: Struct(op, (t,)),
                  st.sampled_from(["-", "+"]), children),
        st.builds(lambda t: Struct("abs", (t,)), children),
        st.builds(lambda t, m: Struct("mod", (t, m)), children,
                  st.integers(1, 5)))


SMALL = st.recursive(LEAVES, _extend, max_leaves=12)


@st.composite
def long_sums(draw):
    """Sums of 60 to 80 terms, left-nested."""
    n = draw(st.integers(60, 80))
    leaves = draw(st.lists(st.one_of(st.integers(-3, 3),
                                     st.sampled_from(UNBOUND + BOUND)),
                           min_size=n, max_size=n))
    t = leaves[0]
    for leaf in leaves[1:]:
        t = Struct("+", (t, leaf))
    return t


def _integer(t):
    if type(t) is int:
        return t
    raise PlTypeError(f"unsupported constraint expression: {t!r}")


def _rational(t):
    if type(t) in (int, Fraction):
        return Fraction(t)
    raise PlTypeError(f"unsupported rational expression: {t!r}")


def _run(normalise, expr, constant=_integer):
    """What normalise gives for expr, with every hook call in order and
    the type of every number."""
    calls = []

    def leaf(var):
        calls.append(("leaf", var.id))
        return ("key", var.id)

    def special(t):
        if t.name not in ("abs", "mod"):
            return None
        calls.append(("special", t.name))

        def finish(value):
            coeffs, k = value
            calls.append(("finish", t.name,
                          [(key, c, type(c)) for key, c in coeffs.items()],
                          k, type(k)))
            # in the store's numbers, as the stores' own hooks return
            return {("aux", len(calls)): constant(1)}, constant(0)
        return t.args[:1], finish

    try:
        coeffs, k = normalise(expr, B, constant, leaf, special)
    except Exception as exc:  # both ways must raise the same error
        return ("error", type(exc).__name__, str(exc), calls)
    return ("value", [(key, c, type(c)) for key, c in coeffs.items()],
            k, type(k), calls)


def _reference(expr, bindings, constant, leaf, special):
    """linearize by plain recursion: every compound read where it is met,
    each number read by constant when it is met, so the arithmetic is in
    the store's own numbers; a special compound's value is kept, so its
    hooks run once however often it is met."""
    keys, specials = {}, {}

    def read(t):
        t = bindings.deref(t)
        if isinstance(t, Var):
            if t.id not in keys:
                keys[t.id] = leaf(t)
            return {keys[t.id]: constant(1)}, constant(0)
        if not isinstance(t, Struct):
            return {}, constant(t)
        if id(t) in specials:
            return specials[id(t)]
        op, args = (t.name, len(t.args)), t.args
        if op == ("+", 1):
            return read(args[0])
        if op == ("-", 1):
            coeffs, k = read(args[0])
            return {v: -c for v, c in coeffs.items()}, -k
        if op in (("+", 2), ("-", 2), ("*", 2)):
            (lc, lk), (rc, rk) = read(args[0]), read(args[1])
            if op == ("*", 2):
                # a ground side, one with no non-zero coefficient, scales
                # the other; the left one is tried first
                if not any(lc.values()):
                    scale, coeffs, k = lk, rc, rk
                elif not any(rc.values()):
                    scale, coeffs, k = rk, lc, lk
                else:
                    raise NonLinearUnsupported(
                        "product of two non-ground expressions")
                return {v: scale * c for v, c in coeffs.items()}, scale * k
            sign = 1 if t.name == "+" else -1
            coeffs = dict(lc)
            for v, c in rc.items():
                coeffs[v] = coeffs.get(v, 0) + sign * c
            return coeffs, lk + sign * rk
        found = special(t)
        if found is None:
            return {}, constant(t)
        args, finish = found
        specials[id(t)] = finish(*[read(a) for a in args])
        return specials[id(t)]

    coeffs, k = read(expr)
    return {v: c for v, c in coeffs.items() if c != 0}, k


def _agree(expr):
    # the FD store reads integers, the rational store Fractions
    for constant in (_integer, _rational):
        assert _run(linearize, expr, constant) \
            == _run(_reference, expr, constant), expr


@settings(max_examples=400, deadline=None)
@given(SMALL)
def test_linearize_agrees_with_the_reference(expr):
    _agree(expr)


@settings(max_examples=60, deadline=None)
@given(long_sums())
def test_linearize_agrees_with_the_reference_on_long_sums(expr):
    _agree(expr)


def _sum(n):
    t = X
    for _ in range(n):
        t = Struct("+", (t, Y))
    return t


def _doubled(n):
    """A built term whose compounds share without a variable between
    them, as in a findall/3 copy: t(i) = t(i-1) - 2 * t(i-1)."""
    t = Struct("+", (X, Y))
    for _ in range(n):
        t = Struct("-", (t, Struct("*", (2, t))))
    return t


def _nested_again():
    """A compound met twice, then compounds inside it met again."""
    e1 = Struct("+", (X, Y))
    e2 = Struct("+", (e1, Z))
    e3 = Struct("-", (e2, X))
    return Struct("+", (Struct("+", (Struct("+", (e3, e3)), e2)), e1))


A, W, S = BOUND
V = Var("V")        # bound to abs(X), so that a term holding V shares it
B.bind(V, Struct("abs", (X,)))
GROUND_ZERO = Struct("-", (X, X))
PRODUCT = Struct("*", (Struct("+", (X, Y)), 2))


@pytest.mark.parametrize("expr", [
    Struct("-", (X, Struct("+", (Y, A)))),
    Struct("*", (3, Struct("-", (S, W)))),
    _sum(64),
    Struct("+", (X, Struct("abs", (Y,)))),
    Struct("-", (Struct("mod", (X, 3)), Z)),
    _sum(65),
    # a product whose ground side holds a variable: the variable is no
    # key of the product, so it is placed where it is next met
    Struct("+", (Struct("*", (GROUND_ZERO, 2)), Y)),
    Struct("+", (Struct("+", (Struct("*", (GROUND_ZERO, 2)), Y)), X)),
    Struct("*", (GROUND_ZERO, Struct("-", (Y, X)))),
    Struct("+", (S, Struct("*", (S, 2)))),
    Struct("*", (X, Struct("+", (Y, Atom("a"))))),
    Struct("*", (Struct("+", (X, Y)), Z)),
    Struct("+", (V, Struct("*", (2, Struct("-", (V, Y)))))),
    Struct("*", (V, Struct("mod", (V, 2)))),
    Struct("+", (Struct("*", (Fraction(1, 2), X)), Fraction(3, 4))),
    Struct("*", (Struct("-", (Y, Fraction(1, 3))), Fraction(3, 2))),
    _doubled(6),
    _nested_again(),
    # products nested in forms read on their own: the scale is pending
    # until the form joins other terms
    Struct("*", (Struct("*", (Struct("+", (X, Y)), 2)), Struct("-", (2, 5)))),
    Struct("*", (Struct("+", (1, Struct("*", (X, 2)))), 3)),
    Struct("*", (Struct("+", (X, Struct("*", (Y, 2)))), 3)),
    Struct("+", (PRODUCT, Struct("-", (Z, PRODUCT)))),
    Struct("abs", (Struct("*", (PRODUCT, 3)),)),
    Struct("+", (Struct("*", (Struct("*", (Y, 3)), 0)), X)),
    Struct("*", (Struct("*", (PRODUCT, 0)), Struct("+", (Y, 1)))),
    Struct("*", (X, Struct("+", (Struct("-", (Y, Y)), 2)))),
    Struct("*", (Struct("*", (X, Fraction(1, 2))), 4)),
])
def test_linearize_agrees_with_the_reference_on_chosen_terms(expr):
    _agree(expr)


# --- the first error of a malformed constraint goal ----------------------

@pytest.mark.parametrize("goal, status, answer, detail", [
    ("X #= foo", "runtime-error", None,
     "unsupported constraint expression: foo"),
    ("X #= Y * Z", "runtime-error", None,
     "product of two non-ground expressions"),
    ("X #= f(Y)", "runtime-error", None,
     "unsupported constraint expression: f(_G_)"),
    ("X #= Y mod Z", "runtime-error", None,
     "mod requires a ground positive modulus"),
    ("X #= Y mod 0", "runtime-error", None,
     "mod requires a ground positive modulus"),
    ("X #= abs(Y, Z)", "runtime-error", None,
     "unsupported constraint expression: abs(_G_, _G_)"),
    ("X #= a + Y", "runtime-error", None,
     "unsupported constraint expression: a"),
    ("X #= - (Y * Z)", "runtime-error", None,
     "product of two non-ground expressions"),
    # which variable labeling meets first follows the order in which the
    # variable hook gave the variables domains
    ("X #= Y + (Z - Z) * W", "underdetermined", None,
     "X has no finite domain"),
    ("X #= 2 * (Y - Y) * W", "underdetermined", None,
     "Y has no finite domain"),
    ("{X = a}", "runtime-error", None,
     "unsupported rational expression: a"),
    ("{X = Y / Z}", "runtime-error", None, "division by a variable"),
    ("{X = 1 / 0}", "runtime-error", None, "division by zero in constraint"),
    ("{X = 1 / (Y - Y)}", "runtime-error", None,
     "division by zero in constraint"),
    ("{X = Y * Y}", "runtime-error", None,
     "product of two non-ground expressions"),
    ("{X = abs(Y)}", "runtime-error", None,
     "unsupported rational expression: abs(_G_)"),
    ("{X = (Y - Y) * W + 1}", "ok", 1, ""),
    ("{X #= 1}", "runtime-error", None, "unsupported rational relation '#='"),
    ("{foo}", "runtime-error", None, "bad brace constraint: foo"),
    ("{X = 1, f(Y)}", "runtime-error", None, "bad brace constraint: f(_G_)"),
    ("X #= Y, {Y = 2}", "runtime-error", None,
     "Y is constrained by another store"),
])
def test_a_malformed_constraint_reports_its_first_error(goal, status, answer,
                                                        detail):
    result = run_candidate(f"problem(A) :- {goal}, A = X.\n")
    # a variable's id depends on how many the process made before
    masked = re.sub(r"_G\d+", "_G_", re.sub(r"#\d+", "#_", result.detail))
    assert (result.status, result.answer, masked) == (status, answer, detail)
