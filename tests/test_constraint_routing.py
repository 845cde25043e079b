"""A # goal is integer arithmetic and a {} goal rational arithmetic.

A # goal goes to the FD store only.  One that holds a Fraction or a
float, or a / or rdiv, ends in the FD read's PlTypeError, and one that
holds a variable the rational store owns in Bindings.claim's TypeMix,
unless the read meets another error first.  The pins below are run
through `run_candidate`.  Random goals that mix those marks with
malformed leaves are sorted by a reference walk for a mark: a goal
without one posts as the reference posts it, and one with a mark ends
in an error before any answer."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prolite import consult, solve
from prolite.engine import BUILTINS, Budget, SolveState
from prolite.errors import PlTypeError, PrologRuntimeError
from prolite.orchestrator import run_candidate
from prolite.reader import parse_program, parse_term_text
from prolite.terms import Struct, Var
from prolite.writer import term_to_text

REL_OPS = ("#=", "#\\=", "#<", "#>", "#=<", "#>=")


def _masked(text):
    # a variable's id depends on how many the process made before
    return re.sub(r"#\d+", "#_", text)


# a rational mark ends a # goal in the FD read's error, unless the read
# meets another error before it
@pytest.mark.parametrize("goal, status, answer, detail", [
    ("X #= foo + 1/2", "runtime-error", None,
     "unsupported constraint expression: foo"),
    ("X #= Y * Z + 1/2", "runtime-error", None,
     "product of two non-ground expressions"),
    ("X #= Y mod Z + 1 rdiv 2", "runtime-error", None,
     "mod requires a ground positive modulus"),
    ("X #= abs(Y, Z) + 0.5", "runtime-error", None,
     "unsupported constraint expression: abs(_G_, _G_)"),
    ("X #= Y + 1/2, Y = 1", "runtime-error", None,
     "unsupported constraint expression: 1 / 2"),
    ("X #\\= Y + 1/2", "runtime-error", None,
     "unsupported constraint expression: 1 / 2"),
    ("Y #>= 0, X #= Y + 1/2", "runtime-error", None,
     "unsupported constraint expression: 1 / 2"),
    ("{Y = 1/2}, X #= foo + Y", "runtime-error", None,
     "unsupported constraint expression: foo"),
    ("X #= 7/2", "runtime-error", None,
     "unsupported constraint expression: 7 / 2"),
    ("{Y = 1/2}, X #= 2*Y + 3", "runtime-error", None,
     "unsupported constraint expression: 1 rdiv 2"),
    ("{Z = W + 1}, X #= Z", "runtime-error", None,
     "Z is constrained by another store"),
    ("Z = 1.5, X #= Z", "runtime-error", None,
     "unsupported constraint expression: 3 rdiv 2"),
    ("X #= Z + 1 rdiv 2, Z = 1", "runtime-error", None,
     "unsupported constraint expression: 1 rdiv 2"),
])
def test_a_constraint_goal_is_routed_by_its_rational_marks(goal, status,
                                                           answer, detail):
    result = run_candidate(f"problem(A) :- {goal}, A = X.\n")
    masked = re.sub(r"_G\d+", "_G_", result.detail)
    assert (result.status, result.answer, masked) == (status, answer, detail)


# --- a failed read --------------------------------------------------------

def _post(state, text):
    """Run the # builtin of the goal text on state, as the engine does."""
    goal = parse_term_text(text)
    return BUILTINS[(goal.name, 2)](state, goal.args, None)


def _fd_tables(state):
    fd = state.fd
    return (fd.domains, fd.props, fd.watchers, list(fd._queue),
            fd._queued)


def test_a_failed_read_leaves_nothing_in_the_fd_store():
    # the FD read claims X, Y and Z, then meets 1/2; in the others it also
    # flattens abs and mod onto auxiliary variables and propagators first
    for text in ("X #= Y + 2 * Z + 1/2",
                 "X #= abs(Y) + Y mod 3 + 1 rdiv 2",
                 "X #= abs(Y) + Y mod 3 + foo + 0.5"):
        state = SolveState(consult(parse_program("")))
        with pytest.raises(PlTypeError,
                           match="unsupported constraint expression"):
            _post(state, text)
        assert _fd_tables(state) == ({}, {}, {}, [], set())
        assert state.bindings.owner == {}


# --- random goals against the reference route-then-post ------------------

def _reference_route(state, args):
    """True when a #-constraint holds a rational mark: a Fraction or a
    float, a variable the rational store owns, or a / or rdiv."""
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


# whether each # goal the reference posted held a rational mark
ROUTES = []


def _reference_post(op):
    def post(state, args, barrier):
        rational = _reference_route(state, args)
        ROUTES.append(rational)
        store = state.r if rational else state.fd
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


def _numbered(ending):
    """Text of an ending of _run, with fresh variables numbered in order
    of first appearance."""
    names = {}
    return re.sub(r"_G\d+", lambda m: names.setdefault(
        m.group(), f"_V{len(names)}"), repr(ending))


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
    # a goal without a rational mark posts to the FD store as the
    # reference posts it; one with a mark ends in the error of the FD
    # read, which meets the mark unless another error comes first
    text = f"{before}{lhs} {op} {rhs}{after}"
    ROUTES.clear()
    reference = _run(REFERENCE_DB, text)
    ending = _run(ENGINE_DB, text)
    if any(ROUTES):
        assert ending[0] in ("PlTypeError", "TypeMix",
                             "NonLinearUnsupported"), text
        assert ending[2] == [], text
    else:
        assert _numbered(ending) == _numbered(reference), text
