"""Which store a # goal goes to, and the first error it reports.

A # goal belongs to the rational store when it holds a Fraction or a
float, a variable the rational store owns, or a / or rdiv anywhere;
otherwise to the FD store.  The pins below are run through
`run_candidate`, and random goals that mix those marks with malformed
leaves are run against a reference copy of the plain rule: walk the
goal, choose the store, post the goal there."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from engine_corpus import QUEENS_PROGRAM, SEND_MORE_PROGRAM
from helpers import run_query
from prolite import consult, solve
from prolite.clpfd import FdStore
from prolite.engine import BUILTINS, Budget, SolveState
from prolite.errors import PlTypeError, PrologRuntimeError
from prolite.orchestrator import run_candidate
from prolite.reader import parse_program, parse_term_text
from prolite.terms import Struct, Var, list_to_python
from prolite.writer import term_to_text

REL_OPS = ("#=", "#\\=", "#<", "#>", "#=<", "#>=")


def _masked(text):
    # a variable's id depends on how many the process made before
    return re.sub(r"#\d+", "#_", text)


@pytest.mark.parametrize("goal, status, answer, detail", [
    ("X #= foo + 1/2", "runtime-error", None,
     "unsupported rational expression: Atom(foo)"),
    ("X #= Y * Z + 1/2", "runtime-error", None,
     "product of two non-ground expressions"),
    ("X #= Y mod Z + 1 rdiv 2", "runtime-error", None,
     "unsupported rational expression: Struct(mod, [Var(Y#_), Var(Z#_)])"),
    ("X #= abs(Y, Z) + 0.5", "runtime-error", None,
     "unsupported rational expression: Struct(abs, [Var(Y#_), Var(Z#_)])"),
    ("X #= Y + 1/2, Y = 1", "ok", Fraction(3, 2), ""),
    ("X #\\= Y + 1/2", "runtime-error", None,
     "unsupported rational relation '#\\\\='"),
    ("Y #>= 0, X #= Y + 1/2", "runtime-error", None,
     "Y is constrained by another store"),
    ("{Y = 1/2}, X #= foo + Y", "runtime-error", None,
     "unsupported rational expression: Atom(foo)"),
])
def test_a_constraint_goal_is_routed_by_its_rational_marks(goal, status,
                                                           answer, detail):
    result = run_candidate(f"problem(A) :- {goal}, A = X.\n")
    assert (result.status, result.answer, _masked(result.detail)) == (
        status, answer, detail)


# --- a rerouted post, and the walk it no longer needs --------------------

def _post(state, text):
    """Run the # builtin of the goal text on state, as the engine does."""
    goal = parse_term_text(text)
    return BUILTINS[(goal.name, 2)](state, goal.args, None)


def _fd_tables(state):
    fd = state.fd
    return (fd.domains, fd.props, fd.watchers, list(fd._queue),
            fd._queued)


def test_a_rerouted_post_leaves_nothing_in_the_fd_store():
    state = SolveState(consult(parse_program("")))
    # the FD read claims X, Y and Z, then meets 1/2
    assert _post(state, "X #= Y + 2 * Z + 1/2")
    assert _fd_tables(state) == ({}, {}, {}, [], set())
    assert [store is state.r
            for store, _ in state.bindings.owner.values()] == [True] * 3
    # here it also flattens abs and mod onto auxiliary variables and
    # propagators before it meets the mark, and the rational store then
    # reports the first term it cannot read
    for text in ("X #= abs(Y) + Y mod 3 + 1 rdiv 2",
                 "X #= abs(Y) + Y mod 3 + foo + 0.5"):
        state = SolveState(consult(parse_program("")))
        with pytest.raises(PlTypeError,
                           match="unsupported rational expression"):
            _post(state, text)
        assert _fd_tables(state) == ({}, {}, {}, [], set())
        assert all(store is state.r
                   for store, _ in state.bindings.owner.values())


def test_a_rerouted_post_answers_from_the_rational_store():
    sol, = run_query("", "A #= Z + 1 rdiv 2, Z = 1")
    assert term_to_text(sol.bindings["A"]) == "3 rdiv 2"


def test_an_fd_post_that_meets_no_error_walks_its_goal_once(monkeypatch):
    def second_walk(store, args):
        raise AssertionError("the goal was walked a second time")

    monkeypatch.setattr(FdStore, "_rational_mark", second_walk)
    for program, query, answer in [
            (QUEENS_PROGRAM, "queens(8, A)", [1, 5, 8, 6, 3, 7, 2, 4]),
            (SEND_MORE_PROGRAM, "puzzle(A)", [9, 5, 6, 7, 1, 0, 8, 2])]:
        sol = next(solve(parse_term_text(query),
                         consult(parse_program(program))))
        assert list_to_python(sol.bindings["A"]) == answer


# --- random goals against the reference route-then-post ------------------

def _reference_route(state, args):
    """True when a #-constraint belongs to the rational solver."""
    stack = list(args)
    walked = set()
    while stack:
        t = state.bindings.deref(stack.pop())
        if type(t) is Fraction or type(t) is float:
            return True
        if isinstance(t, Var) and state.bindings.owner_of(t) is state.r:
            return True
        if isinstance(t, Struct) and id(t) not in walked:
            if t.name in ("/", "rdiv") and len(t.args) == 2:
                return True
            walked.add(id(t))
            stack.extend(t.args)
    return False


def _reference_post(op):
    def post(state, args, barrier):
        store = state.r if _reference_route(state, args) else state.fd
        return (None,) if store.post(Struct(op, args)) else ()
    return post


def _databases():
    engine_db = consult(parse_program(""))
    reference_db = consult(parse_program(""))
    for op in REL_OPS:
        reference_db.table[(op, 2)] = _reference_post(op)
    return engine_db, reference_db


ENGINE_DB, REFERENCE_DB = _databases()

LEAVES = ("X", "Y", "Z", "W", "3", "0", "foo", "1/2", "1 rdiv 2", "0.5",
          "Y * Z", "Y mod Z", "Y mod 3", "abs(Y, Z)", "abs(Z)", "f(1/2)")
# goals run before the # goal: an FD variable, a rational one bound to a
# value and an unbound one, a plain binding
BEFORE = ("", "Y #>= 0, ", "Z #>= 0, Z #=< 4, ", "{Y = 1/2}, ",
          "{Z = W + 1}, ", "Y = 2, ", "Z = 1.5, ")
AFTER = ("", ", Y = 1", ", X = 2", ", Z = 3")

_expr = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["2", "-1"]), inner).map(
            lambda t: f"({t[0]} * {t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "Y"])).map(
            lambda t: f"({t[0]} * {t[1]})"),
        inner.map(lambda e: f"(- {e})")),
    max_leaves=5)


def _outcome(db, text):
    """Text of the first three answers of the query text on db, with
    their steps, or of the error it ends in; fresh variables are numbered
    in order of first appearance."""
    names = {}
    return re.sub(r"_G\d+", lambda m: names.setdefault(
        m.group(), f"_V{len(names)}"), repr(_run(db, text)))


def _run(db, text):
    """The first three answers of the query text on db, or the error it
    ends in."""
    answers = []
    try:
        for sol in solve(parse_term_text(text), db,
                         Budget(max_inference_steps=20_000,
                                wall_timeout=10.0)):
            answers.append((
                sorted((name, _masked(term_to_text(t)))
                       for name, t in sol.bindings.items()),
                sol.notes, sorted(sol.underdetermined), sol.steps))
            if len(answers) == 3:
                break
    except PrologRuntimeError as exc:
        return type(exc).__name__, _masked(str(exc)), answers
    return "ok", answers


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(BEFORE), _expr, st.sampled_from(REL_OPS), _expr,
       st.sampled_from(AFTER))
def test_a_constraint_goal_posts_as_the_reference_routes_it(before, lhs, op,
                                                            rhs, after):
    text = f"{before}{lhs} {op} {rhs}{after}"
    assert _outcome(ENGINE_DB, text) == _outcome(REFERENCE_DB, text), text
