"""Resolution engine: clause search, cut, control constructs, builtins,
exact arithmetic, and budget enforcement."""

from fractions import Fraction

import pytest

from helpers import run_query
from prolite import Budget, consult, parse_program, solve_first
from prolite.errors import (BudgetExceeded, BuiltinRedefinition,
                            ExistenceError, InstantiationError,
                            ZeroDivisor)
from prolite.engine import SolveState
from prolite.reader import Program, parse_term_text
from prolite.terms import Atom, Clause, Struct, Var


FAMILY = """\
parent(tom, bob).
parent(tom, liz).
parent(bob, ann).
parent(bob, pat).
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
"""


def values(solutions, name):
    return [s.bindings[name] for s in solutions]


def test_facts_enumerate_in_clause_order():
    sols = run_query(FAMILY, "parent(tom, X)")
    assert values(sols, "X") == [Atom("bob"), Atom("liz")]


def test_conjunction_backtracks_across_goals():
    sols = run_query(FAMILY, "grandparent(tom, X)")
    assert values(sols, "X") == [Atom("ann"), Atom("pat")]


def test_no_solutions_is_empty():
    assert run_query(FAMILY, "parent(liz, X)") == []


def test_unknown_predicate_raises_existence_error():
    with pytest.raises(ExistenceError):
        run_query(FAMILY, "sibling(bob, liz)")


def test_cut_commits_to_first_answer():
    program = FAMILY + "first_child(X, Y) :- parent(X, Y), !.\n"
    sols = run_query(program, "first_child(tom, Y)")
    assert values(sols, "Y") == [Atom("bob")]


def test_cut_is_local_to_the_called_predicate():
    program = FAMILY + "one_child(X) :- parent(X, _), !.\n"
    sols = run_query(program, "parent(tom, C), one_child(bob)")
    assert len(sols) == 2  # the inner cut must not prune the outer choice


def test_negation_as_failure():
    assert len(run_query(FAMILY, "\\+ parent(liz, bob)")) == 1
    assert run_query(FAMILY, "\\+ parent(tom, bob)") == []


def test_if_then_else_both_arms():
    program = "classify(X, neg) :- ( X < 0 -> true ; fail ).\n" \
              "classify(X, nonneg) :- ( X < 0 -> fail ; true ).\n"
    assert values(run_query(program, "classify(-3, K)"), "K") == [Atom("neg")]
    assert values(run_query(program, "classify(3, K)"), "K") == \
        [Atom("nonneg")]


def test_if_then_commits_to_first_condition_proof():
    sols = run_query(FAMILY, "( parent(tom, X) -> true ; fail )")
    assert values(sols, "X") == [Atom("bob")]


def test_disjunction_order():
    sols = run_query("", "( X = 1 ; X = 2 ), Y = X")
    assert values(sols, "Y") == [1, 2]


def test_exact_rational_arithmetic():
    sol, more = solve_first(parse_term_text("X is 1 / 3 + 1 / 6"),
                            consult(parse_program("")))
    assert sol.bindings["X"] == Fraction(1, 2)
    assert not more


def test_integer_arithmetic_functions():
    sols = run_query("", "A is 7 // 2, B is -7 mod 3, C is abs(-4), "
                         "D is min(2, 5), E is 2 ^ 10, F is sqrt(49)")
    b = sols[0].bindings
    assert (b["A"], b["B"], b["C"], b["D"], b["E"], b["F"]) == \
        (3, 2, 4, 2, 1024, 7)


def test_sqrt_of_non_square_is_float():
    sols = run_query("", "X is sqrt(2)")
    assert sols[0].bindings["X"] == pytest.approx(2 ** 0.5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisor):
        run_query("", "X is 1 / 0")


def test_is_requires_ground_expression():
    with pytest.raises(InstantiationError):
        run_query("", "X is Y + 1")


def test_comparison_builtins():
    assert len(run_query("", "1 + 2 =:= 3, 2 < 3, 3 =< 3, 5 > 4, "
                             "4 >= 4, 1 =\\= 2")) == 1


def test_structural_equality_does_not_bind():
    assert run_query("", "X == Y") == []
    assert len(run_query("", "X = Y, X == Y")) == 1
    assert len(run_query("", "f(X) \\== f(Y)")) == 1


def test_unify_and_not_unify():
    sols = run_query("", "f(X, b) = f(a, Y)")
    assert sols[0].bindings["X"] == Atom("a")
    assert sols[0].bindings["Y"] == Atom("b")
    assert run_query("", "f(a) \\= f(X)") == []


def test_between_enumerates():
    assert values(run_query("", "between(1, 4, X)"), "X") == [1, 2, 3, 4]


def test_length_both_modes():
    assert run_query("", "length([a, b, c], N)")[0].bindings["N"] == 3
    sols = run_query("", "length(L, 2)")
    assert len(sols) == 1


def test_msort_sorts_keeping_duplicates():
    sols = run_query("", "msort([3, 1, 2, 1], L)")
    lst = sols[0].bindings["L"]
    from prolite.terms import list_to_python
    assert list_to_python(lst) == [1, 1, 2, 3]


def test_findall_collects_all_proofs():
    sols = run_query(FAMILY, "findall(C, parent(tom, C), L)")
    from prolite.terms import list_to_python
    assert list_to_python(sols[0].bindings["L"]) == [Atom("bob"), Atom("liz")]


def test_findall_empty_on_failure():
    sols = run_query(FAMILY, "findall(C, parent(liz, C), L)")
    assert sols[0].bindings["L"] is parse_term_text("[]")


def test_library_member_and_append():
    assert len(run_query("", "member(b, [a, b, c])")) == 1
    sols = run_query("", "append(X, Y, [1, 2])")
    assert len(sols) == 3


def test_library_nth():
    assert run_query("", "nth0(1, [a, b, c], E)")[0].bindings["E"] == Atom("b")
    assert run_query("", "nth1(1, [a, b, c], E)")[0].bindings["E"] == Atom("a")


def test_forall():
    assert len(run_query(FAMILY,
                         "forall(parent(tom, C), parent(tom, C))")) == 1
    assert run_query(FAMILY, "forall(parent(tom, C), C == bob)") == []


def test_builtin_redefinition_rejected():
    with pytest.raises(BuiltinRedefinition):
        consult(parse_program("is(X, Y) :- fail.\n"))
    with pytest.raises(BuiltinRedefinition):
        consult(parse_program("member(X, Y) :- fail.\n"))


RESERVED = ["!/0", "true/0", "fail/0", "false/0", ",/2", ";/2", "->/2",
            "\\+/1", "call/1", "#=/2", "#\\=/2", "#</2", "#>/2", "#=</2",
            "#>=/2", "{}/1", "label/1", "labeling/2"]


@pytest.mark.parametrize("key", RESERVED)
def test_reserved_indicator_cannot_be_consulted(key):
    name, arity = key.rsplit("/", 1)
    args = [Atom("a")] * int(arity)
    head = Struct(name, args) if args else Atom(name)
    with pytest.raises(BuiltinRedefinition):
        consult(Program([Clause(head)]))


def test_same_name_other_arity_consults():
    sols = run_query("label(X, Y, Z) :- Z is X + Y.\n", "label(1, 2, Z)")
    assert values(sols, "Z") == [3]


def test_infinite_recursion_hits_budget():
    with pytest.raises(BudgetExceeded):
        run_query("loop :- loop.\n", "loop",
                  budget=Budget(max_inference_steps=10_000,
                                wall_timeout=5.0))


def test_backtracking_restores_bindings():
    program = "p(1). p(2).\nq(2).\n"
    sols = run_query(program, "p(X), q(X)")
    assert values(sols, "X") == [2]


def test_undo_to_one_mark_twice_drops_what_was_posted_between():
    state = SolveState(consult(parse_program("")))
    x = Var("X")
    m = state.mark()
    state.undo_to(m)
    assert state.r.post(Struct("=", (x, 1)))
    assert state.bindings.deref(x) == 1
    state.undo_to(m)
    assert state.r.rows == {}
    assert isinstance(state.bindings.deref(x), Var)


def test_backtracked_posts_leave_no_notes():
    sols = run_query("", "( between(1, 4000, I), {X = I}, fail ; true )")
    assert [s.notes for s in sols] == [()]


def test_solutions_are_deterministic():
    query = "between(1, 5, X), Y is X * X, Y mod 2 =:= 1"
    first = [(s.bindings["X"], s.bindings["Y"]) for s in run_query("", query)]
    second = [(s.bindings["X"], s.bindings["Y"]) for s in run_query("", query)]
    assert first == second == [(1, 1), (3, 9), (5, 25)]


def test_deep_recursion_reports_depth_budget():
    program = "count(0).\ncount(N) :- N > 0, M is N - 1, count(M).\n"
    assert len(run_query(program, "count(500)")) == 1
    with pytest.raises(BudgetExceeded):
        run_query("dig(N) :- M is N + 1, dig(M).\n", "dig(0)",
                  budget=Budget(max_inference_steps=100_000_000,
                                wall_timeout=30.0))
