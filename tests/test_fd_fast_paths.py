"""The fast paths of FD posting and propagation against plain references:
`FdDomain.remove`, which splits only the interval holding the value,
against a set of values, and `linearize`, which reads a small `+ - *`
term by recursion, against the walk it falls back to."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prolite import terms
from prolite.clpfd import FdDomain
from prolite.errors import PlTypeError
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


# --- linearize: the small-term path against the walk ---------------------

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
    """Sums of 60 to 80 terms, on both sides of the 64-compound budget."""
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
    return Fraction(_integer(t))


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
            calls.append(("finish", t.name, list(value[0].items()),
                          value[1]))
            return {("aux", len(calls)): 1}, 0
        return t.args[:1], finish

    try:
        coeffs, k = normalise(expr, B, constant, leaf, special)
    except Exception as exc:  # both ways must raise the same error
        return ("error", type(exc).__name__, str(exc), calls)
    return ("value", [(key, c, type(c)) for key, c in coeffs.items()],
            k, type(k), calls)


def _agree(expr):
    # the FD store reads integers, the rational store Fractions
    for constant in (_integer, _rational):
        assert _run(linearize, expr, constant) \
            == _run(terms._linearize_walk, expr, constant), expr


@settings(max_examples=400, deadline=None)
@given(SMALL)
def test_linearize_agrees_with_the_walk(expr):
    _agree(expr)


@settings(max_examples=60, deadline=None)
@given(long_sums())
def test_linearize_agrees_with_the_walk_past_the_budget(expr):
    _agree(expr)


def _walks(expr, monkeypatch):
    """Whether linearize fell back to the walk on expr."""
    called = []
    walk = terms._linearize_walk

    def counted(*args):
        called.append(True)
        return walk(*args)
    monkeypatch.setattr(terms, "_linearize_walk", counted)
    _run(linearize, expr)
    monkeypatch.setattr(terms, "_linearize_walk", walk)
    _agree(expr)
    return bool(called)


def _sum(n):
    t = X
    for _ in range(n):
        t = Struct("+", (t, Y))
    return t


def test_small_terms_are_read_without_the_walk(monkeypatch):
    s, w = BOUND[2], BOUND[1]
    for expr in (Struct("-", (X, Struct("+", (Y, BOUND[0])))),
                 Struct("*", (3, Struct("-", (s, w)))),
                 _sum(64)):
        assert not _walks(expr, monkeypatch), expr


def test_specials_and_large_terms_fall_back_to_the_walk(monkeypatch):
    for expr in (Struct("+", (X, Struct("abs", (Y,)))),
                 Struct("-", (Struct("mod", (X, 3)), Z)),
                 _sum(65),
                 # a product whose ground side holds a variable
                 Struct("+", (Struct("*", (Struct("-", (X, X)), 2)), Y))):
        assert _walks(expr, monkeypatch), expr
