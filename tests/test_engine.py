"""Resolution engine: clause search, cut, control constructs, builtins,
exact arithmetic, and budget enforcement."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from helpers import run_query
from prolite import Budget, consult, engine, parse_program, solve
from prolite.errors import (BudgetExceeded, BuiltinRedefinition,
                            ExistenceError, InstantiationError,
                            PlTypeError, ZeroDivisor)
from prolite.engine import SolveState
from prolite.harness import FIXTURES, gen_navigate
from prolite.orchestrator import run_candidate
from prolite.reader import Program, parse_term_text
from prolite.terms import Atom, Clause, Struct, Var, list_to_python
from prolite.writer import term_to_text


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


CUT_IN_A_CONDITION = [
    ("problem(A) :- ( member(X, [1, 2, 3]), !, X > 1 -> A = 1 ; A = 2 ).", 2),
    ("problem(A) :- G = (member(X, [1, 2, 3]), !, X > 1), "
     "( G -> A = 1 ; A = 0 ).", 0),
    ("problem(A) :- ( \\+ ((member(X, [1, 2]), !, X > 5)) -> A = 3 "
     "; A = 4 ).", 3),
    ("problem(A) :- \\+ (member(X, [1, 2]), X > 5), A = 5.", 5),
]


@pytest.mark.parametrize("source, answer", CUT_IN_A_CONDITION,
                         ids=["condition", "condition-through-variable",
                              "negation", "negated-conjunction"])
def test_cut_in_a_condition_or_negation_is_local_to_it(source, answer):
    assert values(run_query(source, "problem(A)"), "A") == [answer]
    result = run_candidate(source)
    assert (result.status, result.answer) == ("ok", answer)


def test_disjunction_order():
    sols = run_query("", "( X = 1 ; X = 2 ), Y = X")
    assert values(sols, "Y") == [1, 2]


def test_exact_rational_arithmetic():
    sols = list(solve(parse_term_text("X is 1 / 3 + 1 / 6"),
                      consult(parse_program(""))))
    assert len(sols) == 1
    assert sols[0].bindings["X"] == Fraction(1, 2)


def test_integer_arithmetic_functions():
    sols = run_query("", "A is 7 // 2, B is -7 mod 3, C is abs(-4), "
                         "D is min(2, 5), E is 2 ^ 10, F is sqrt(49)")
    b = sols[0].bindings
    assert (b["A"], b["B"], b["C"], b["D"], b["E"], b["F"]) == \
        (3, 2, 4, 2, 1024, 7)


@pytest.mark.parametrize("expr, value", [
    ("-7 // 2", -3), ("7 // -2", -3), ("-7 // -2", 3), ("7 // 2", 3),
    ("-8 // 2", -4), ("1 // -2", 0), ("-7 rem 2", -1), ("7 rem -2", 1),
    ("-7 mod 2", 1), ("7 mod -2", -1)])
def test_integer_division_truncates_toward_zero(expr, value):
    # ISO 9.1.7: // and rem truncate toward zero, mod floors
    query = run_query("", f"X is {expr}")[0].bindings["X"]
    body = run_candidate(f"problem(A) :- A is {expr}.").answer
    assert [(x, type(x)) for x in (query, body)] == [(value, int)] * 2


@pytest.mark.parametrize("expr", [
    "1.5 // 2", "float(7) // 2", "7 // float(2)", "(1 rdiv 2) // 1"])
def test_integer_division_of_a_non_integer_is_a_type_error(expr):
    with pytest.raises(PlTypeError, match="^// expects integers$"):
        run_query("", f"X is {expr}")
    result = run_candidate(f"problem(A) :- A is {expr}.")
    assert (result.status, result.detail) == \
        ("runtime-error", "// expects integers")


def test_an_arithmetic_goal_reads_its_clause_frame_after_backtracking():
    program = "p(1). p(10).\nq(X) :- p(A), X is A + 1, X > 5.\n"
    assert values(run_query(program, "q(X)"), "X") == [11]


@pytest.mark.parametrize("body, answers", [
    ("X #> 3, X is 5", [5]), ("X #> 5, X is 5", []),
    ("{X = 5/2}, X is 5 rdiv 2", [Fraction(5, 2)]),
    ("{X >= 2}, X is 5 rdiv 2", [Fraction(5, 2)]),
    ("{X >= 3}, X is 5 rdiv 2", [])])
def test_is_binds_a_constrained_variable_through_its_store(body, answers):
    assert values(run_query(f"q(X) :- {body}.\n", "q(X)"), "X") == answers


@pytest.mark.parametrize("body", [
    "X is Y + 1", "Y + 1 > X", "X =:= 2 * (Y - 3)",
    "X is " + " + ".join(["Y"] + ["X"] * 300)])
def test_an_unbound_first_occurrence_in_arithmetic_is_named(body):
    with pytest.raises(InstantiationError,
                       match="^unbound variable in arithmetic: Y$"):
        run_query(f"q(X) :- {body}.\n", "q(1)")


def test_a_300_deep_chain_in_clause_text_runs():
    # ((N + N) + N) + ... nests 299 deep, past the compounds evaluated by
    # recursion, so the clause text is built and evaluated as a term
    chain = " + ".join(["N"] * 300)
    program = f"q(N, X) :- X is {chain}, X =:= {chain}, {chain} < X + 1.\n"
    assert values(run_query(program, "q(2, X)"), "X") == [600]


def test_sqrt_of_non_square_is_float():
    sols = run_query("", "X is sqrt(2)")
    assert sols[0].bindings["X"] == pytest.approx(2 ** 0.5)


@pytest.mark.parametrize("expr, value", [
    ("2 ^ -1", Fraction(1, 2)),
    ("(1 rdiv 2) ^ -3", 8),
    ("9 ^ (1 rdiv 2)", 3),
    ("8 ^ (2 rdiv 3)", 4),
    ("2 ^ (1 rdiv 2)", 2 ** 0.5),
])
def test_power_is_exact_when_the_result_is_rational(expr, value):
    x = run_query("", f"X is {expr}")[0].bindings["X"]
    assert (x, type(x)) == (value, type(value))
    result = run_candidate(f"problem(A) :- A is {expr}.")
    assert (result.status, result.exact) == \
        ("ok", not isinstance(value, float))


@pytest.mark.parametrize("expr", [
    "float(10 ^ 400)", "0 ^ -1", "(-8) ^ (1 rdiv 3)", "sqrt(float(-1))",
    "sqrt(10 ^ 400 + 1)", "float(10) ^ 400",
    "float(10 ^ 300) * float(10 ^ 300)",
    "float(10 ^ 300) * float(10 ^ 300) - float(10 ^ 300) * float(10 ^ 300)",
    "float(10 ^ 300) / float(1 rdiv 10 ^ 300)"])
def test_arithmetic_without_a_result_is_a_runtime_error(expr):
    assert run_candidate(f"problem(A) :- A is {expr}.").status == \
        "runtime-error"


def test_power_operator():
    assert run_candidate("problem(A) :- A is 2 ** 3.").answer == 8
    assert run_query("", "X is 2 ** -1")[0].bindings["X"] == Fraction(1, 2)
    result = run_candidate("problem(A) :- A is 2 ** -1.")
    assert (result.status, result.answer, result.exact) == ("ok", 0.5, True)
    result = run_candidate("problem(A) :- A is 2 ** 3 ** 4.")
    assert result.status == "parse-error"
    assert "operator priority clash at '**'" in result.detail


@pytest.mark.parametrize("goal", ["G", "call(G)"])
def test_a_variable_goal_runs_as_call(goal):
    # ISO converts a body variable G to call(G), so its cut is local
    source = f"problem(A) :- member(A, [1, 2]), G = !, {goal}, A > 1."
    result = run_candidate(source)
    assert (result.status, result.answer) == ("ok", 2)


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


def test_msort_and_equality_follow_the_standard_order():
    # floats come from float/1: the reader reads 1.0 as the exact 1
    sols = run_query("", "F is float(1), H is F / 2, "
                         "msort([1, F, a, X, f(b), H], L)")
    lst = list_to_python(sols[0].bindings["L"])
    assert isinstance(lst[0], Var)
    assert [(t, type(t)) for t in lst[1:4]] == \
        [(0.5, float), (1.0, float), (1, int)]
    assert lst[4:] == [Atom("a"), Struct("f", (Atom("b"),))]
    assert run_query("", "F is float(1), F == 1") == []
    assert len(run_query("", "F is float(1), F \\== 1")) == 1


@pytest.mark.parametrize("body, status, answer, detail", [
    # ISO 7.2: compounds by arity, then by name, then by arguments
    ("msort([g(a), f(a, b), f(b), a, 1, X], L), "
     "L == [X, 1, a, f(b), g(a), f(a, b)], A = 1", "ok", 1, ""),
    ("X is foo(1), A = 1", "runtime-error", None,
     "unknown arithmetic function foo/1"),
    ("A is e", "ok", 2.718281828459045, ""),
    ("between(1, 5/2, X), A = X", "runtime-error", None,
     "between/3 expects integer bounds"),
    ("between(a, 3, X), A = X", "runtime-error", None,
     "between/3 expects integer bounds"),
    # the bounds are integers, not arithmetic, as in SWI-Prolog
    ("between(1+1, 3, X), A = X", "runtime-error", None,
     "between/3 expects integer bounds"),
    ("between(1, N, X), A = X", "runtime-error", None,
     "between/3: bounds not instantiated"),
    ("length(L, N), A = 1", "runtime-error", None,
     "length/2: list and length both unbound"),
    ("msort(foo, L), A = 1", "runtime-error", None,
     "msort/2 expects a proper list"),
    ("label(foo), A = 1", "runtime-error", None,
     "label/1 expects a proper list"),
    ("X #>= 1, X #=< 2, labeling(foo, [X]), A = 1", "runtime-error", None,
     "labeling/2 expects an option list"),
    # leftmost labels X before Y, whose domain is the smaller
    ("X #>= 1, X #=< 3, Y #>= 1, Y #=< 2, "
     "findall(X-Y, labeling([leftmost], [X, Y]), P), "
     "P == [1-1, 1-2, 2-1, 2-2, 3-1, 3-2], A = 1", "ok", 1, ""),
    ("X #>= 1, X #=< 2, labeling([bogus], [X]), A = 1", "runtime-error",
     None, "unknown labeling option bogus"),
], ids=["msort-compounds", "unknown-function", "inexact-e",
        "between-fraction", "between-atom", "between-expression",
        "between-unbound", "length-unbound",
        "msort-non-list", "label-non-list", "labeling-bad-options",
        "labeling-leftmost", "labeling-unknown-option"])
def test_builtin_answers_and_errors_reach_the_verdict(body, status, answer,
                                                      detail):
    result = run_candidate(f"problem(A) :- {body}.\n")
    assert (result.status, result.answer, result.detail) == \
        (status, answer, detail)
    assert result.exact is not isinstance(answer, float)


def test_findall_collects_all_proofs():
    sols = run_query(FAMILY, "findall(C, parent(tom, C), L)")
    from prolite.terms import list_to_python
    assert list_to_python(sols[0].bindings["L"]) == [Atom("bob"), Atom("liz")]


def test_findall_empty_on_failure():
    sols = run_query(FAMILY, "findall(C, parent(liz, C), L)")
    assert sols[0].bindings["L"] is parse_term_text("[]")


@pytest.mark.parametrize("constraint", ["X #> 0", "{X > 0}"])
def test_findall_result_a_store_owns_goes_through_that_store(constraint):
    # an unbound result no store owns is bound to the answer list
    # directly; one a constraint store owns must still be refused by it
    assert run_query("", f"{constraint}, findall(Y, member(Y, [1]), X)") \
        == []


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
    m = state.bindings.mark()
    state.bindings.undo_to(m)
    assert state.r.post(Struct("=", (x, 1)))
    assert state.bindings.deref(x) == 1
    state.bindings.undo_to(m)
    assert state.r.rows == {}
    assert isinstance(state.bindings.deref(x), Var)


def test_backtracked_posts_leave_one_answer():
    sols = run_query("", "( between(1, 4000, I), {X = I}, fail ; true )")
    assert len(sols) == 1


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


def held(pred):
    """The ids of the clause entries a _Predicate holds, by list."""
    return ([id(e) for e in pred.clauses], [id(e) for e in pred.open],
            {key: [id(e) for e in bucket]
             for key, bucket in pred.by_key.items()})


def test_library_is_shared_and_left_unchanged_by_queries():
    keys = [("member", 2), ("append", 3), ("nth1", 3), ("all_different", 1)]
    first = consult(parse_program("p(1).\n"))
    second = consult(parse_program("q(2).\n"))
    preds = {key: first.table[key] for key in keys}
    assert all(type(pred) is engine._Predicate for pred in preds.values())
    assert all(second.table[key] is preds[key] for key in keys)
    before = {key: held(pred) for key, pred in preds.items()}

    assert len(run_query("", "member(X, [a, b, c])")) == 3
    assert len(run_query("", "append(X, Y, [1, 2, 3])")) == 4
    assert run_query("", "nth1(2, [a, b, c], E)")[0].bindings["E"] == Atom("b")
    assert len(run_query("", "X #>= 1, X #=< 3, Y #>= 1, Y #=< 3, "
                             "all_different([X, Y]), label([X, Y])")) == 6

    third = consult(parse_program("r(3).\n"))
    for key in keys:
        assert third.table[key] is preds[key]
        assert held(third.table[key]) == before[key]
    with pytest.raises(BuiltinRedefinition):
        consult(parse_program("member(X, [X]).\n"))


def test_consult_names_the_first_reserved_indicator_in_source_order():
    with pytest.raises(BuiltinRedefinition, match="member/2"):
        consult(parse_program("p. member(X, Y). is(X, Y).\n"))


def test_queries_on_shared_databases_leave_every_table_unchanged():
    # the fixtures' entry queries on four threads, each Database shared
    # by all of them; no entry of a table, nor what a _Predicate in it
    # holds, may change
    dbs = [(consult(parse_program(p.reference_program)),
            parse_term_text(p.entry)) for p in FIXTURES]
    snapshots = [{key: (entry, held(entry) if type(entry) is
                        engine._Predicate else None)
                  for key, entry in db.table.items()} for db, _ in dbs]
    expected = [next(solve(query, db)).bindings for db, query in dbs]

    def answers(shift):
        order = dbs[shift:] + dbs[:shift]
        return [next(solve(query, db)).bindings for db, query in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(answers, range(4)))
    finally:
        sys.setswitchinterval(interval)
    for shift, got in enumerate(results):
        assert got == expected[shift:] + expected[:shift]
    for (db, _), before in zip(dbs, snapshots):
        assert db.table.keys() == before.keys()
        for key, entry in db.table.items():
            assert entry is before[key][0], key
            if type(entry) is engine._Predicate:
                assert held(entry) == before[key][1], key


# --- first-argument filtering -----------------------------------------

KEYED = """\
k(1, int).
k(1 rdiv 2, rational).
k(0.5, decimal).
k(2.0, two).
k(a, atom).
k(f(x), compound).
k(f(x, y), compound2).
k([], nil).
k([_|_], list).
k(_, any).
"""


@pytest.mark.parametrize("query, answers", [
    ("k(1, T)", ["int", "any"]),
    ("k(2, T)", ["two", "any"]),  # 2.0 reads as Fraction(2), equal to 2
    ("k(1 rdiv 2, T)", ["rational", "decimal", "any"]),
    ("X is float(1), k(X, T)", ["any"]),  # 1.0 never unifies with 1
    ("X is float(1 rdiv 2), k(X, T)", ["any"]),
    ("k(a, T)", ["atom", "any"]),
    ("k(b, T)", ["any"]),
    ("k(f(Y), T)", ["compound", "any"]),
    ("k(f(z), T)", ["any"]),
    ("k(f(_, _), T)", ["compound2", "any"]),
    ("k([], T)", ["nil", "any"]),
    ("k([1, 2], T)", ["list", "any"]),
    ("X = [_], k(X, T)", ["list", "any"]),
    ("k(_, T)", ["int", "rational", "decimal", "two", "atom", "compound",
                 "compound2", "nil", "list", "any"]),
])
def test_first_argument_filter_keeps_exactly_the_unifying_clauses(
        query, answers):
    assert [t.name for t in values(run_query(KEYED, query), "T")] == answers


KEYED_NUMBERS = "n(1, one).\nn(2, two).\nn(5, five).\nn(a, atom).\n"


def test_constrained_first_arguments_try_every_clause():
    sols = run_query(KEYED_NUMBERS, "X #>= 1, X #=< 3, n(X, T)")
    assert [(s.bindings["X"], s.bindings["T"].name) for s in sols] == \
        [(1, "one"), (2, "two")]
    sols = run_query(KEYED_NUMBERS, "{X = Y + 1}, n(X, T)")
    assert [(s.bindings["Y"], s.bindings["T"].name) for s in sols] == \
        [(0, "one"), (1, "two"), (4, "five")]


def test_cut_in_a_filtered_predicate():
    program = "c(1, a) :- !.\nc(2, b) :- !.\nc(_, z).\n"

    def names(query):
        return [t.name for t in values(run_query(program, query), "T")]

    assert names("c(2, T)") == ["b"]
    assert names("c(3, T)") == ["z"]
    sols = run_query(program, "c(X, T)")
    assert [(s.bindings["X"], s.bindings["T"].name) for s in sols] == \
        [(1, "a")]
    # the cut commits the filtered call only, not the caller's choices
    sols = run_query(program, "member(X, [3, 2]), c(X, T)")
    assert [s.bindings["T"].name for s in sols] == ["z", "b"]


NREV = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""


@pytest.mark.parametrize("name, steps", [("nrev30", 496), ("navigate", 38)])
def test_skipped_clauses_cost_no_steps(name, steps):
    # the smallest budgets that succeed, measured before clauses were
    # filtered by their first argument: a skipped clause costs nothing
    # and every call still costs one step
    if name == "nrev30":
        source = NREV
        query = f"nrev({list(range(1, 31))}, R)"
    else:
        problem = gen_navigate(5, 1)[0]
        source, query = problem.reference_program, problem.entry
    assert run_query(source, query,
                     budget=Budget(max_inference_steps=steps))
    with pytest.raises(BudgetExceeded):
        run_query(source, query, budget=Budget(max_inference_steps=steps - 1))


# --- the resolution machine: depth, memory and cut ----------------------

COUNT = "count(0).\ncount(N) :- N > 0, M is N - 1, count(M).\n"


def test_deterministic_recursion_runs_100000_levels_deep():
    assert len(run_query(COUNT, "count(100000)")) == 1


def test_if_then_else_recursion_runs_100000_levels_deep():
    program = "c(N) :- ( N =:= 0 -> true ; M is N - 1, c(M) ).\n"
    assert len(run_query(program, "c(100000)")) == 1


def test_findall_over_a_10000_element_member_is_fast():
    started = time.monotonic()
    sols = run_query("", f"L = {list(range(10_000))}, "
                         "findall(x, member(_, L), M), length(M, N)")
    assert time.monotonic() - started < 2.0
    assert values(sols, "N") == [10_000]


def test_nrev_of_500_elements():
    items = list(range(500))
    sols = run_query(NREV, f"nrev({items}, R)")
    assert len(sols) == 1
    assert list_to_python(sols[0].bindings["R"]) == items[::-1]


def test_solving_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    run_query(COUNT, "count(3000)")
    assert sys.getrecursionlimit() == before


def test_exceeding_the_trail_cap_reports_memory(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", 10_000)
    with pytest.raises(BudgetExceeded, match="memory"):
        run_query(COUNT, "count(50000)",
                  budget=Budget(max_inference_steps=10_000_000,
                                wall_timeout=30.0))
    result = run_candidate("grow(N, [N|T]) :- M is N + 1, grow(M, T).\n"
                           "problem(A) :- grow(0, A).\n")
    assert result.status == "budget-exceeded"
    assert "memory" in result.detail


@pytest.mark.parametrize("program, query, answers", [
    # answers and the steps spent up to each, as the recursive engine
    # this machine replaced gave them
    ("d(0, []) :- !.\n"
     "d(N, [N|T]) :- ( N > 2, ! ; true ), M is N - 1, d(M, T).\n",
     "d(4, L)", [("L", "[4, 3, 2, 1]", 26)]),
    ("e(0, []).\n"
     "e(N, [X|T]) :- N > 0, ( member(X, [a, b]), X == b -> true ; X = c ), "
     "M is N - 1, e(M, T).\n",
     "e(3, L)", [("L", "[b, b, b]", 31)]),
    ("f(N, R) :- ( N >= 3 -> !, R = stop ; M is N + 1, f(M, R) ).\n"
     "f(_, other).\n",
     "f(0, R)", [("R", "stop", 21)] + [("R", "other", 21)] * 3),
    ("g(N, N).\n"
     "g(N, R) :- N < 4, ( N mod 2 =:= 0, ! ; true ), M is N + 1, g(M, R).\n",
     "g(0, R)", [("R", str(n), 1 + 7 * n) for n in range(5)]),
])
def test_cut_in_disjunction_and_if_then_else_of_a_recursive_clause(
        program, query, answers):
    sols = run_query(program, query)
    assert [(name, term_to_text(s.bindings[name]), s.steps)
            for s, (name, _, _) in zip(sols, answers)] == answers
    assert len(sols) == len(answers)


@pytest.mark.parametrize("query, count", [
    # ISO: call((! ; true)) cuts its own disjunction, whether the cut
    # reached the term through a head argument or a bound variable
    ("p(!)", 1),
    ("Y = !, p(Y)", 1),
    ("b", 1),
    ("X = !, G = (X ; true), call(G)", 1),
    ("G = (X ; true), X = !, call(G)", 1),
    # a variable written as a goal acts as call/1, however deep it sits
    ("q(!)", 2),
    ("Y = !, q(Y)", 2),
    ("d(!)", 2),
    ("Y = !, d(Y)", 2),
])
def test_a_bound_variable_in_a_goal_built_as_data_is_its_value(query,
                                                               count):
    program = ("p(X) :- G = (X ; true), call(G).\n"
               "b :- X = !, G = (X ; true), call(G).\n"
               "q(X) :- (X ; true).\n"
               "d(X) :- ( " + "fail ; " * 300 + "X ; true ).\n")
    assert len(run_query(program, query)) == count
