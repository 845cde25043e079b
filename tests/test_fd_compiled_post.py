"""A clause-body # goal read once at consult against the same goal built
and read by terms.linearize: posted on two states prepared the same way,
both must give the same return or error and leave the same FD store,
trail length and step count.  And the first answers of the benchmark's
queens and SEND+MORE post every # goal through FdStore.post."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from engine_corpus import QUEENS_PROGRAM, SEND_MORE_PROGRAM
from prolite.clpfd import REL_OPS, RETIRED, FdStore, LinearProp
from prolite.engine import (BUILTINS, SolveState, _LinearPost, _PostGoal,
                            _linear_post, _push_body, consult, solve)
from prolite.reader import parse_program, parse_term_text
from prolite.terms import Atom, Struct, Var

DB = consult(parse_program("p.\n"))
CLAUSE_VARS = tuple(Var(name) for name in "ABCD")   # variables of the text

# --- random linear templates --------------------------------------------

LITERALS = st.one_of(st.integers(-3, 3), st.just(Struct("-", (2, 1))))


def _extend(children):
    return st.one_of(
        st.builds(lambda op, l, r: Struct(op, (l, r)),
                  st.sampled_from(["+", "-"]), children, children),
        st.builds(lambda op, t: Struct(op, (t,)),
                  st.sampled_from(["-", "+"]), children),
        st.builds(lambda c, t: Struct("*", (c, t)), LITERALS, children),
        st.builds(lambda t, c: Struct("*", (t, c)), children, LITERALS))


EXPRESSIONS = st.recursive(
    st.one_of(st.integers(-4, 4), st.sampled_from(CLAUSE_VARS)), _extend,
    max_leaves=8)
TEMPLATES = st.builds(lambda rel, l, r: Struct(rel, (l, r)),
                      st.sampled_from(sorted(REL_OPS)), EXPRESSIONS,
                      EXPRESSIONS)

# what each clause variable holds when the goal runs: "absent" is a
# variable the goal meets first (as _ does), "same" the value of an
# earlier variable and "bound" a variable bound to it
KINDS = ["absent", "unbound", "fd", "same", "bound", "int", "fraction",
         "compound", "atom", "rational"]
CASES = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 5)),
                 min_size=len(CLAUSE_VARS), max_size=len(CLAUSE_VARS))


def _prepare(case):
    """A fresh state and the frame of case, made the same way each time,
    and the id below every variable made for them."""
    start = Var("start").id
    state = SolveState(DB)
    fd, frame, made = state.fd, {}, []
    for var, (kind, n) in zip(CLAUSE_VARS, case):
        if kind == "absent":
            continue
        if kind == "int":
            value = n - 2
        elif kind == "fraction":
            value = Fraction(2 * n + 1, 2)
        elif kind == "atom":
            value = Atom("foo")
        elif kind == "compound":
            value = Struct("f", (Var("F"),)) if n % 2 \
                else Struct("+", (Var("F"), n))
        elif kind in ("same", "bound") and made:
            value = made[n % len(made)]
            if kind == "bound":
                value, other = Var("W"), value
                state.bindings.bind(value, other)
        else:
            value = Var(var.name.lower())
            if kind == "fd":
                fd.post(Struct("#>=", (value, -n)))
                fd.post(Struct("#=<", (value, n)))
                if made and made[-1].id in fd.domains:
                    fd.post(Struct("#\\=", (value, Struct("+", (made[-1],
                                                                 1)))))
            elif kind == "rational":
                state.r.post(Struct("=<", (value, n)))
            made.append(value)
        frame[var.id] = value
    return state, frame, start


def _snapshot(state, start):
    """The FD store, trail length and steps of state, each variable named
    by its id less start."""
    def rel(t):
        return ("var", t.id - start) if type(t) is Var else t

    def prop(p):
        if p is RETIRED:
            return "retired"
        if isinstance(p, LinearProp):
            return ("linear", p.rel, p.k, [(c, rel(v)) for c, v in p.coeffs])
        return (type(p).__name__, rel(p.x), rel(p.y), getattr(p, "m", None))

    fd = state.fd
    return {
        "domains": [(vid - start, d.intervals)
                    for vid, d in fd.domains.items()],
        "props": [(i, prop(p)) for i, p in fd.props.items()],
        "watchers": [(vid - start, w) for vid, w in fd.watchers.items()],
        "soft_watchers": [(vid - start, w)
                          for vid, w in fd.soft_watchers.items()],
        "bound": sorted(vid - start for vid in state.bindings.map),
        "trail": len(state.bindings.trail),
        "steps": state.steps,
    }


def _post(case, template, compiled):
    """(return or error, snapshot) of template posted on a state prepared
    by case, compiled as a _LinearPost or built as the goal term."""
    state, frame, start = _prepare(case)
    post = _linear_post(template)
    assert type(post) is _LinearPost
    goal = _push_body((post if compiled else template,), frame, 0, None)[0]
    assert type(goal) is (_PostGoal if compiled else Struct)
    try:
        if compiled:
            outcome = ("return", state.fd.post(goal))
        else:
            outcome = ("return", BUILTINS[(goal.name, 2)](state, goal.args))
    except Exception as exc:
        text = re.sub(r"_G(\d+)", lambda m: f"_G{int(m[1]) - start}",
                      str(exc))
        outcome = ("error", type(exc).__name__, text)
    return outcome, _snapshot(state, start)


@seed(20261022)
@settings(max_examples=600, deadline=None)
@given(TEMPLATES, CASES)
def test_a_compiled_post_acts_as_the_built_goal(template, case):
    assert _post(case, template, True) == _post(case, template, False)


def _consulted(text):
    """The body goal text as consult keeps it."""
    db = consult(parse_program(f"p :- {text}.\n"))
    (_, (goal,)), = db.table[("p", 0)].clauses
    return goal


@pytest.mark.parametrize("text", [
    "X #= Y * Z", "X #= abs(Y)", "X #= Y mod 3", "X #= a", "X #= 1 / 2",
    "X #= 1 rdiv 2", "X #= f(Y)", "X #= 2.5 * Y", "X = Y", "X #= Y * (Z - 1)",
])
def test_a_goal_not_linear_in_its_clause_variables_stays_built(text):
    assert type(_consulted(text)) is Struct


def test_the_form_keeps_every_clause_variable_in_order():
    # X - X sums to 0 and is still claimed, so it keeps its slot
    post = _consulted("Y + X - X #= 2 * (Z + 3) + Y")
    assert [(v.name, c) for v, c in post.slots] \
        == [("Y", 0), ("X", 0), ("Z", -2)]
    assert post.k == -6


# --- the one entry point -------------------------------------------------

@pytest.mark.parametrize("program, query, posts", [
    (QUEENS_PROGRAM, "queens(8, A)", 100),
    (SEND_MORE_PROGRAM, "puzzle(A)", 47),
])
def test_every_post_enters_the_store_once(monkeypatch, program, query,
                                          posts):
    # the traced clpfd.post span wraps FdStore.post, so a read that
    # went round it would hide posts from the trace
    goals = []
    post = FdStore.post

    def counted(store, goal):
        goals.append(type(goal))
        return post(store, goal)

    monkeypatch.setattr(FdStore, "post", counted)
    next(solve(parse_term_text(query), consult(parse_program(program))))
    assert len(goals) == posts
    assert set(goals) == {_PostGoal}

