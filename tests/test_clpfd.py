"""Finite-domain solver: propagation, labeling, and randomized
equivalence against brute-force enumeration."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (EXPLODING, brute_solution_set, fd_solution_set,
                     linked_csp, random_csp, run_query)
from prolite import Budget, consult, solve
from prolite.clpfd import FIXED, FdDomain
from prolite.engine import SolveState
from prolite.errors import PrologRuntimeError, UnboundedDomain
from prolite.harness.oracles import csp_brute_oracle
from prolite.orchestrator import run_candidate
from prolite.reader import parse_program, parse_term_text
from prolite.terms import Struct, Var, list_to_python


def test_domain_interval_algebra():
    d = FdDomain.from_range(1, 9)
    assert d.size() == 9
    d2 = d.remove(5)
    assert d2.size() == 8
    assert 5 not in d2.values()
    d3 = d2.intersect(FdDomain.from_range(4, 6))
    assert sorted(d3.values()) == [4, 6]
    assert FdDomain.from_values([1, 2, 3]).intersect(
        FdDomain.from_values([4])).size() == 0


INF = float("inf")


@pytest.mark.parametrize("dom, lo, hi, size", [
    (FdDomain(()), INF, -INF, 0),
    (FdDomain.from_range(3, 2), INF, -INF, 0),
    (FdDomain(), -INF, INF, INF),
    (FdDomain(((-INF, 4),)), -INF, 4, INF),
    (FdDomain(((1, 2), (5, 5), (7, INF))), 1, INF, INF),
    (FdDomain(((1, 2), (5, 5), (7, 9))), 1, 9, 6),
    (FdDomain.from_range(4, 4), 4, 4, 1),
    (FdDomain.from_values([8, 2, 3, 5]), 2, 8, 4),
    (FdDomain.from_range(1, 9).clip(3, 20), 3, 9, 7),
    (FdDomain().clip(-5, INF), -5, INF, INF),
    (FdDomain.from_range(1, 9).clip(10, 20), INF, -INF, 0),
    (FdDomain.from_range(1, 9).remove(1), 2, 9, 8),
    (FdDomain.from_range(1, 9).remove(5), 1, 9, 8),
    (FdDomain.from_range(1, 9).remove(12), 1, 9, 9),
    (FdDomain.from_range(4, 4).remove(4), INF, -INF, 0),
    (FdDomain(((-INF, 0), (5, INF))).remove(5), -INF, INF, INF),
    (FdDomain(((1, 3), (6, 9))).intersect(FdDomain.from_range(2, 7)),
     2, 7, 4),
    (FdDomain(((1, 3), (6, 9))).intersect(FdDomain.from_range(4, 5)),
     INF, -INF, 0),
], ids=["empty", "empty-range", "all", "half-line", "multi-unbounded",
        "multi", "singleton", "from-values", "clip", "clip-unbounded",
        "clip-empty", "remove-lo", "remove-inner", "remove-outside",
        "remove-last", "remove-unbounded", "intersect", "intersect-empty"])
def test_domains_cache_their_bounds_and_size(dom, lo, hi, size):
    assert (dom.lo, dom.hi, dom.card, dom.size()) == (lo, hi, size, size)
    assert dom.size() == (sum(b - a + 1 for a, b in dom.intervals)
                          if dom.is_finite() else INF)
    assert dom.is_finite() == (size != INF)


X, Y = Var("X"), Var("Y")


@pytest.mark.parametrize("relation, bound, after", [
    (Struct("#=<", (Struct("+", (X, Y)), 5)), {X: 3}, ((0, 2),)),
    (Struct("#=<", (Struct("+", (X, Y)), 5)), {X: 3, Y: 2}, True),
    (Struct("#=<", (Struct("+", (X, Y)), 5)), {X: 3, Y: 3}, False),
    (Struct("#=<", (Struct("-", (X, Struct("*", (2, Y)))), 1)), {X: 7},
     ((3, 9),)),
    (Struct("#=<", (Struct("-", (X, Struct("*", (2, Y)))), 1)),
     {X: 7, Y: 2}, False),
    (Struct("#=", (Struct("+", (X, Struct("*", (2, Y)))), 7)), {X: 3},
     ((2, 2),)),
    (Struct("#=", (Struct("+", (X, Struct("*", (2, Y)))), 7)),
     {X: 3, Y: 1}, False),
    (Struct("#\\=", (X, Struct("+", (Y, 2)))), {X: 5}, ((0, 2), (4, 9))),
    (Struct("#\\=", (X, Struct("+", (Y, 2)))), {X: 5, Y: 4}, True),
    (Struct("#\\=", (X, Struct("+", (Y, 2)))), {X: 5, Y: 3}, False),
    (Struct("#\\=", (X, Struct("+", (Y, 2)))), {Y: 3}, ((0, 4), (6, 9))),
], ids=["le", "le-both", "le-both-fails", "le-negative", "le-negative-fails",
        "eq", "eq-both-fails", "ne", "ne-both", "ne-both-fails",
        "ne-other-side"])
def test_propagators_read_operands_bound_to_integers(relation, bound, after):
    # the operands are bound after the post, as unification and labeling
    # bind them, and the propagators then run over the integers; after is
    # the domain left to the unbound operand, or whether propagation
    # succeeds when both are bound
    store = SolveState(None).fd
    for var in (X, Y):
        assert store.post(Struct("#>=", (var, 0)))
        assert store.post(Struct("#=<", (var, 9)))
    assert store.post(relation)
    for var, value in bound.items():
        store.bindings.bind(var, value)
    ok = all(prop.propagate(store) for prop in store.props.values())
    if isinstance(after, bool):
        assert ok == after
    else:
        free, = (var for var in (X, Y) if var not in bound)
        assert ok and store.dom(free) == FdDomain(after)


def test_simple_labeling_is_lexicographic():
    sols = run_query("", "X #>= 1, X #=< 2, Y #>= 1, Y #=< 2, "
                         "label([X, Y])")
    got = [(s.bindings["X"], s.bindings["Y"]) for s in sols]
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_equality_propagates_to_singleton_without_labeling():
    sols = run_query("", "X #>= 0, X #=< 9, X + 3 #= 7")
    assert sols[0].bindings["X"] == 4


def test_bounds_propagation_tightens():
    sols = run_query("", "X #>= 0, X #=< 9, Y #>= 0, Y #=< 9, "
                         "X + Y #= 4, X #> Y, label([X, Y])")
    got = {(s.bindings["X"], s.bindings["Y"]) for s in sols}
    assert got == {(3, 1), (4, 0)}


def test_disequality_prunes_values():
    sols = run_query("", "X #>= 0, X #=< 4, X #\\= 2, label([X])")
    assert [s.bindings["X"] for s in sols] == [0, 1, 3, 4]


def test_mod_constraint():
    sols = run_query("", "X #>= 0, X #=< 9, X mod 2 #\\= 0, label([X])")
    assert [s.bindings["X"] for s in sols] == [1, 3, 5, 7, 9]


def test_abs_constraint():
    sols = run_query("", "X #>= 1, X #=< 9, abs(X - 5) #= 2, label([X])")
    assert [s.bindings["X"] for s in sols] == [3, 7]


def test_contradiction_fails_not_errors():
    assert run_query("", "X #>= 0, X #=< 9, X #> 5, X #< 3") == []


def test_opposed_strict_orders_fail_without_bounds():
    assert run_query("", "X #> Y, Y #> X") == []


def test_labeling_unbounded_domain_raises():
    with pytest.raises(UnboundedDomain):
        run_query("", "X #> 3, label([X])")


def test_auto_labeling_fires_at_answer_time():
    sols = run_query("", "X #>= 1, X #=< 3, X #\\= 2")
    assert [s.bindings["X"] for s in sols] == [1, 3]
    assert any("auto-label" in note for note in sols[0].notes)


def test_first_fail_strategy_same_solution_set():
    base = "X #>= 0, X #=< 5, Y #>= 0, Y #=< 2, X + Y #= 4"
    default = {(s.bindings["X"], s.bindings["Y"])
               for s in run_query("", base + ", label([X, Y])")}
    ff = {(s.bindings["X"], s.bindings["Y"])
          for s in run_query("", base + ", labeling([ff], [X, Y])")}
    assert default == ff


def test_all_different():
    sols = run_query("", "X #>= 1, X #=< 2, Y #>= 1, Y #=< 2, "
                         "Z #>= 1, Z #=< 3, all_different([X, Y, Z]), "
                         "label([X, Y, Z])")
    got = {(s.bindings["X"], s.bindings["Y"], s.bindings["Z"])
           for s in sols}
    assert got == {(1, 2, 3), (2, 1, 3)}


def test_unification_with_integer_narrows_domain():
    sols = run_query("", "X #>= 0, X #=< 9, X + Y #= 5, Y #>= 0, "
                         "Y #=< 9, X = 2")
    assert sols[0].bindings["Y"] == 3
    assert run_query("", "X #>= 0, X #=< 9, X = 42") == []


def test_aliasing_two_constrained_vars():
    sols = run_query("", "X #>= 0, X #=< 5, Y #>= 3, Y #=< 9, X = Y, "
                         "label([X])")
    assert [s.bindings["X"] for s in sols] == [3, 4, 5]


def test_backtracking_restores_domains():
    sols = run_query("", "X #>= 0, X #=< 9, "
                         "( X #< 2 ; X #> 7 ), label([X])")
    assert [s.bindings["X"] for s in sols] == [0, 1, 8, 9]


def test_linear_combination_large_coefficients():
    sols = run_query("", "A #>= 0, A #=< 9, B #>= 0, B #=< 9, "
                         "100 * A + 10 * B #= 730, label([A, B])")
    assert [(s.bindings["A"], s.bindings["B"]) for s in sols] == [(7, 3)]


def test_random_equivalence_with_brute_force():
    rng = random.Random(20240824)
    for _ in range(60):
        goal, names, domains, predicate = random_csp(rng)
        assert fd_solution_set(goal, names) == \
            brute_solution_set(domains, predicate), goal


BUDGET = Budget(max_inference_steps=1000, wall_timeout=0.5)

# (body of problem(A), exec status, answer, elapsed-time bound in s)
UNBOUNDED = [
    ("Y #= X + 1, X = Y, X #>= 0, A = 1", "no-solution", None, 0.1),
    ("X #> Y, Y #> Z, Z #> X, X #>= 0, A = 1", "no-solution", None, 0.1),
    ("X #>= 0, X #= 2*Y, X #= 2*Z + 1, A = 1", "budget-exceeded", None,
     2 * BUDGET.wall_timeout + 0.5),
    ("X #> Y, Y #> Z, Z #> X, A = 1", "no-solution", None, 0.1),
    ("X #> Y, Y #> Z, Z = X, A = 1", "no-solution", None, 0.1),
    ("X - Y #= -1, X = Y, A = 1", "no-solution", None, 0.1),
    ("X + Y #= 10, X = Y, A = X", "ok", 5, 0.1),
    ("( X + Y #= 3, X + Y #= 4 -> A = 1 ; A = 2 )", "ok", 2, 0.1),
    ("( X #> Y, Y #> X -> A = 1 ; A = 2 )", "ok", 2, 0.1),
    ("X #>= 0, X #=< 1000000000, Y #>= 0, Y #=< 1000000000, "
     "X #> Y, Y #> X, A = 1", "no-solution", None, 0.1),
]


@pytest.mark.parametrize("body, status, answer, seconds", UNBOUNDED,
                         ids=["alias-cycle", "strict-cycle-bounded-below",
                              "parity", "strict-cycle", "strict-chain-alias",
                              "difference-alias", "sum-alias",
                              "equal-forms-condition",
                              "opposed-orders-condition",
                              "opposed-orders-wide-domains"])
def test_unbounded_domains_are_decided_or_hit_the_budget(body, status,
                                                          answer, seconds):
    started = time.perf_counter()
    result = run_candidate(f"problem(A) :- {body}.", budget=BUDGET)
    elapsed = time.perf_counter() - started
    assert (result.status, result.answer) == (status, answer), result.detail
    assert elapsed < seconds


def _ladder(n):
    """Two chains of n unbounded #= posts, then n + 1 rungs between them:
    every rung after the first closes a cycle that the relaxation check
    has to eliminate again."""
    return ", ".join([f"X{i + 1} #= X{i} + 1" for i in range(n)]
                     + [f"Y{i + 1} #= Y{i} + 1" for i in range(n)]
                     + [f"X{i} #= Y{i}" for i in range(n + 1)]) + ", A = 1"


LONG = Budget(max_inference_steps=10**9, wall_timeout=0.5)
STEPS = Budget(max_inference_steps=20_000, wall_timeout=10.0)
CHAIN = ", ".join(f"X{i + 1} #= X{i} + 1" for i in range(400))


@pytest.mark.parametrize("body, budget, status, answer", [
    (CHAIN + ", X0 = 0, A = X400", STEPS, "ok", 400),
    (CHAIN + ", X0 = 0, A = X400", BUDGET, "budget-exceeded", None),
    (_ladder(300), LONG, "budget-exceeded", None),
    (_ladder(300), BUDGET, "budget-exceeded", None),
    (_ladder(30), STEPS, "underdetermined", None),
    (EXPLODING.replace("=<", "#=<") + ", A = 1", STEPS, "underdetermined",
     None),
    (EXPLODING.replace("=<", "#=<") + ", A = 1", BUDGET, "underdetermined",
     None),
], ids=["chain", "chain-few-steps", "ladder", "ladder-few-steps",
        "ladder-tails-dropped", "elimination-past-the-cap",
        "elimination-few-steps"])
def test_relaxation_checks_are_charged_to_the_budget(body, budget, status,
                                                     answer):
    started = time.perf_counter()
    result = run_candidate(f"problem(A) :- {body}.", budget=budget)
    elapsed = time.perf_counter() - started
    assert (result.status, result.answer) == (status, answer), result.detail
    assert elapsed < 2 * budget.wall_timeout + 0.5


# A variable belongs to at most one constraint store: aliasing variables
# of the FD and the rational store is a runtime error, and labeling a
# variable without a finite FD domain is underdetermined.
@pytest.mark.parametrize("body, status, answer", [
    ("X #>= 0, X #=< 5, {Y + Z = 21/2}, Y = X, {Z = 1}, A = X",
     "runtime-error", None),
    ("X #>= 0, X #=< 5, {Y + Z = 21/2}, X = Y, {Z = 1}, A = X",
     "runtime-error", None),
    ("X #>= 0, X #=< 5, {Y + Z = 10}, Y = X, {Z = 1}, A = X",
     "runtime-error", None),
    ("X #>= 0, X #=< 5, {Y + Z = 10}, X = Y, {Z = 1}, A = X",
     "runtime-error", None),
    ("{X + Y = 3}, label([X]), A = X", "underdetermined", None),
    ("label([X]), A = X", "underdetermined", None),
    ("{X + Y = 10}, X = Y, A = X", "ok", 5),
    ("X #>= 0, X #=< 5, Y = X, Y = 4, A = X", "ok", 4),
], ids=["fraction-alias-rational-first", "fraction-alias-fd-first",
        "integer-alias-rational-first", "integer-alias-fd-first",
        "label-rational", "label-plain", "rational-alias", "plain-alias"])
def test_each_variable_has_one_store(body, status, answer):
    result = run_candidate(f"problem(A) :- {body}.")
    assert (result.status, result.answer) == (status, answer), result.detail


def test_an_alias_relinks_a_propagator_over_a_bound_operand():
    # Y = 4 grounds an operand of the sum; X = Z then relinks the sum,
    # which folds 4 into its constant and merges X and Z: 2 * X #= 6
    result = run_candidate(
        "problem(A) :- X #>= 0, X #=< 9, Z #>= 0, Z #=< 9, Y #>= 0, "
        "X + Y + Z #= 10, Y = 4, X = Z, A = X.")
    assert (result.status, result.answer) == ("ok", 3), result.detail


@st.composite
def _mixed_conjunctions(draw):
    """(goal text, {name: (lo, hi)}): X and Y get finite bounds first;
    then, in any order, a {} equation over Z and W, an alias of X or Y
    with Z or W, a {} or = goal that fixes Z or W, and up to two more
    # relations over X and Y or aliases of any two variables."""
    bounds, goals = {}, []
    for name in "XY":
        lo = draw(st.integers(-3, 3))
        bounds[name] = (lo, lo + draw(st.integers(0, 6)))
        goals.append(f"{name} #>= {lo}, {name} #=< {bounds[name][1]}")
    fd, rational = st.sampled_from("XY"), st.sampled_from("ZW")
    number = st.integers(-6, 12)
    fraction = st.builds("{}/{}".format, number, st.integers(1, 2))
    drawn = [
        draw(st.builds("{{Z + W = {}}}".format, fraction)),
        draw(st.one_of(st.builds("{} = {}".format, fd, rational),
                       st.builds("{} = {}".format, rational, fd))),
        draw(st.one_of(st.builds("{{{} = {}}}".format, rational, fraction),
                       st.builds("{} = {}".format, rational, number))),
    ] + draw(st.lists(st.one_of(
        st.builds("{} + {} {} {}".format, fd, fd,
                  st.sampled_from(["#\\=", "#=<", "#>="]), number),
        st.permutations("XYZW").map(lambda vs: f"{vs[0]} = {vs[1]}")),
        max_size=2))
    goals += draw(st.permutations(drawn))
    return ", ".join(goals), bounds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mixed_conjunctions())
def test_fd_variables_keep_their_domains_under_aliasing(case):
    goal, bounds = case
    try:
        solutions = run_query("", goal, budget=BUDGET)
    except PrologRuntimeError:
        return
    for sol in solutions:
        for name, (lo, hi) in bounds.items():
            value = sol.bindings[name]
            assert type(value) is int and lo <= value <= hi, (goal, sol)


@pytest.mark.parametrize("body, status, answer", [
    ("label([foo]), A = 1", "runtime-error", None),
    ("label([2.5]), A = 1", "runtime-error", None),
    ("X #>= 0, X #=< 3, labeling([ff], [X, f(X)]), A = X", "runtime-error",
     None),
    ("X #>= 0, X #=< 3, label([2, X]), A = X", "ok", 0),
], ids=["atom", "number", "compound", "integer"])
def test_labeling_accepts_only_variables_and_integers(body, status, answer):
    result = run_candidate(f"problem(A) :- {body}.")
    assert (result.status, result.answer) == (status, answer), result.detail


def test_labeling_a_huge_domain_stops_on_the_budget():
    started = time.perf_counter()
    result = run_candidate(
        "problem(A) :- X #>= 0, X #=< 1000000000, label([X]), "
        "X > 999999998, A = X.", budget=BUDGET)
    elapsed = time.perf_counter() - started
    assert result.status == "budget-exceeded", result.detail
    assert elapsed < 2 * BUDGET.wall_timeout + 0.5


def test_leftmost_labeling_enumerates_in_lexicographic_order():
    # without a disjunction every total assignment is reached once, in
    # the order of the leftmost search tree; a disjunction would repeat
    # the enumeration once per branch
    rng = random.Random(20261018)
    checked = 0
    while checked < 40:
        goal, names, domains, predicate = random_csp(rng)
        if ";" in goal:
            continue
        checked += 1
        expected = sorted(brute_solution_set(domains, predicate))
        got = [tuple(s.bindings[n] for n in names)
               for s in run_query("", goal)]
        assert got == expected, goal
        ff = goal.replace("label([", "labeling([ff], [")
        assert fd_solution_set(ff, names) == set(expected), ff


def test_leftmost_labeling_resumes_past_variables_fixed_by_propagation():
    # propagation fixes variables before and after the position being
    # labeled; the leftmost order must stay lexicographic in the order
    # the label list first names the variables
    rng = random.Random(20261019)
    for _ in range(80):
        goal, order, domains, predicate = linked_csp(rng)
        expected = []
        for combo in itertools.product(*(domains[i] for i in order)):
            vals = dict(zip(order, combo))
            if predicate([vals[i] for i in range(len(domains))]):
                expected.append(combo)
        names = [f"V{i}" for i in order]
        got = [tuple(s.bindings[n] for n in names)
               for s in run_query("", goal)]
        assert got == expected, goal
        ff = goal.replace("label([", "labeling([ff], [")
        assert fd_solution_set(ff, names) == set(expected), ff


QUEENS = """\
queens(N, Qs) :- length(Qs, N), doms(Qs, N), safe(Qs), labeling([ff], Qs).
doms([], _).
doms([Q|Qs], N) :- Q #>= 1, Q #=< N, doms(Qs, N).
safe([]).
safe([Q|Qs]) :- noattack(Q, Qs, 1), safe(Qs).
noattack(_, [], _).
noattack(Q, [Q1|Qs], D) :-
    Q #\\= Q1, Q #\\= Q1 + D, Q #\\= Q1 - D,
    D1 is D + 1, noattack(Q, Qs, D1).
"""


def _queens_brute_count(n):
    return sum(all(abs(p[i] - p[j]) != j - i
                   for i in range(n) for j in range(i + 1, n))
               for p in itertools.permutations(range(n)))


@pytest.mark.parametrize("n, count", [(4, 2), (5, 10), (6, 4), (7, 40),
                                      (8, 92)])
def test_queens_solution_counts(n, count):
    sols = run_query(QUEENS, f"findall(Q, queens({n}, Q), L), length(L, C)")
    assert sols[0].bindings["C"] == _queens_brute_count(n) == count


def test_eight_queens_first_answer_within_its_step_budget():
    # 996 steps when propagators wake only on the events they read,
    # 3,009 when every domain change wakes every watcher: the budget
    # lies between, so losing the event filter fails this test
    db = consult(parse_program(QUEENS))
    sol = next(solve(parse_term_text("queens(8, A)"), db,
                     budget=Budget(max_inference_steps=2500,
                                   wall_timeout=10.0)))
    assert list_to_python(sol.bindings["A"]) == [1, 5, 8, 6, 3, 7, 2, 4]


def _disequality_network(rng):
    """(goal text, variable names, domains, python predicate) of 3 to 5
    variables over small ranges tied by X #\\= Y + c and all_different/1,
    then maybe one variable labeled, then up to two aliases X = Y, then
    every variable labeled.  The early label fixes a variable, so
    disequalities are entailed and retired before an alias relinks
    their operands, and backtracking over it must bring them back."""
    n = rng.randint(3, 5)
    domains = []
    for _ in range(n):
        lo = rng.randint(0, 3)
        domains.append(range(lo, lo + rng.randint(1, 3) + 1))
    goals = [f"V{i} #>= {d.start}, V{i} #=< {d.stop - 1}"
             for i, d in enumerate(domains)]
    preds = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.3:
            idxs = rng.sample(range(n), rng.randint(2, n))
            goals.append(f"all_different([{', '.join(f'V{i}' for i in idxs)}])")
            preds.append(lambda vals, idxs=idxs:
                         len({vals[i] for i in idxs}) == len(idxs))
        else:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            goals.append(f"V{i} #\\= V{j} + {c}")
            preds.append(lambda vals, i=i, j=j, c=c: vals[i] != vals[j] + c)
    if rng.random() < 0.5:
        goals.append(f"label([V{rng.randrange(n)}])")
    for _ in range(rng.randint(0, 2)):
        i, j = rng.sample(range(n), 2)
        goals.append(f"V{i} = V{j}")
        preds.append(lambda vals, i=i, j=j: vals[i] == vals[j])
    names = [f"V{i}" for i in range(n)]
    goals.append(f"label([{', '.join(names)}])")

    def predicate(*vals):
        return all(p(vals) for p in preds)

    return ", ".join(goals), names, domains, predicate


def test_retired_disequalities_return_on_backtracking_and_aliasing():
    rng = random.Random(20261020)
    for _ in range(200):
        goal, names, domains, predicate = _disequality_network(rng)
        vs = ", ".join(names)
        sols = run_query("", f"findall([{vs}], ({goal}), L)")
        got = [tuple(list_to_python(s))
               for s in list_to_python(sols[0].bindings["L"])]
        assert sorted(got) == csp_brute_oracle(domains, predicate), goal


def test_eight_queens_first_answer_retires_entailed_disequalities():
    # 996 steps when a disequality that has acted is retired, 1,760
    # when it wakes at every later fixed operand: the budget lies
    # between, so losing retirement fails this test
    db = consult(parse_program(QUEENS))
    sol = next(solve(parse_term_text("queens(8, A)"), db,
                     budget=Budget(max_inference_steps=1300,
                                   wall_timeout=10.0)))
    assert list_to_python(sol.bindings["A"]) == [1, 5, 8, 6, 3, 7, 2, 4]


def test_eight_queens_first_answer_skips_retired_disequalities():
    # 996 steps when a queued RETIRED is popped without a run, 1,028 when
    # each such pop is charged a step: the budget lies between
    db = consult(parse_program(QUEENS))
    sol = next(solve(parse_term_text("queens(8, A)"), db,
                     budget=Budget(max_inference_steps=1000,
                                   wall_timeout=10.0)))
    assert list_to_python(sol.bindings["A"]) == [1, 5, 8, 6, 3, 7, 2, 4]


def test_unary_posts_narrow_once_and_add_no_propagator():
    state = SolveState(None)
    store = state.fd
    x = Var("X")
    for rel, lhs, rhs in [("#>=", x, 1), ("#\\=", x, 3),
                          ("#=<", Struct("*", (2, x)), 9)]:
        assert store.post(Struct(rel, (lhs, rhs)))
    assert store.dom(x) == FdDomain(((1, 2), (4, 4)))
    assert (store.props, state.steps) == ({}, 3)
    assert not store.post(Struct("#=", (x, 3)))


# --- the two watcher tables -----------------------------------------------

def test_each_event_queues_only_the_propagators_it_can_wake():
    # X #\= Y waits for a singleton, X + Y #=< 10 for a bounds move
    state = SolveState(None)
    store = state.fd
    x, y = Var("X"), Var("Y")
    for var in (x, y):
        assert store.post(Struct("#>=", (var, 0)))
        assert store.post(Struct("#=<", (var, 9)))
    assert store.post(Struct("#\\=", (x, y)))
    assert store.post(Struct("#=<", (Struct("+", (x, y)), 10)))
    ne, le = sorted(store.props)
    assert (store.props[ne].rel, store.props[le].rel) == ("ne", "le")
    mark = store.bindings.mark()
    # a value removed from the middle wakes neither
    assert store.set_dom_raw(x.id, store.dom(x).remove(5))
    assert list(store._queue) == []
    # narrowed bounds wake only the #=<
    assert store.set_dom_raw(x.id, store.dom(x).clip(0, 8))
    assert list(store._queue) == [le]
    store._clear_queue()
    store.bindings.undo_to(mark)
    # a singleton wakes both, in post order
    assert store.set_dom_raw(x.id, FdDomain.from_range(3, 3))
    assert list(store._queue) == [ne, le]
    steps = state.steps
    # the #\= removes 3 from Y and retires; the #=< lowers Y's max to 7,
    # which wakes it once more
    assert store.propagate_fixpoint()
    assert state.steps == steps + 3 and store.props[ne].wake > FIXED
    assert store.dom(y) == FdDomain(((0, 2), (4, 7)))
    # the retired disequality stays out of the queue on a later singleton
    assert store.set_dom_raw(y.id, FdDomain.from_range(5, 5))
    assert list(store._queue) == [le]
    assert store.propagate_fixpoint() and state.steps == steps + 4


def _soft_subsequence_holds(store):
    props = store.props
    for vid, full in store.watchers.items():
        soft = tuple(i for i in full if props[i].wake < FIXED)
        assert store.soft_watchers.get(vid, ()) == soft
    assert set(store.soft_watchers) <= set(store.watchers)


def _store_state(state):
    fd = state.fd
    return (dict(fd.domains), dict(fd.props), dict(fd.watchers),
            dict(fd.soft_watchers), dict(state.bindings.map))


_ops = st.one_of(
    st.tuples(st.just("linear"),
              st.sampled_from(["#=", "#\\=", "#=<", "#<", "#>="]),
              st.lists(st.tuples(st.sampled_from([-2, -1, 1, 2]),
                                 st.integers(0, 3)), min_size=1, max_size=3),
              st.integers(-3, 8)),
    st.tuples(st.just("mod"), st.integers(0, 3), st.integers(2, 4),
              st.integers(0, 3)),
    st.tuples(st.just("abs"), st.integers(0, 3), st.integers(-3, 3),
              st.integers(0, 3)),
    st.tuples(st.just("alias"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("bind"), st.integers(0, 3), st.integers(-1, 6)),
    st.tuples(st.just("undo"), st.integers(0, 20)),
)


def _goal(op, vs):
    kind = op[0]
    if kind == "linear":
        _, rel, terms, k = op
        lhs = Struct("*", (terms[0][0], vs[terms[0][1]]))
        for c, i in terms[1:]:
            lhs = Struct("+", (lhs, Struct("*", (c, vs[i]))))
        return Struct(rel, (lhs, k))
    if kind == "mod":
        _, i, m, j = op
        return Struct("#=", (vs[j], Struct("mod", (vs[i], m))))
    _, i, k, j = op
    return Struct("#=", (vs[j], Struct("abs", (Struct("-", (vs[i], k)),))))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=14))
def test_soft_watchers_stay_the_filtered_full_tuple(ops):
    # after every post, alias, binding and rewind, each variable's soft
    # table is the wake < FIXED subsequence of its full tuple, and a
    # rewind to a mark restores both tables and the domains exactly
    state = SolveState(consult(parse_program("")))
    bindings, fd = state.bindings, state.fd
    vs = [Var(f"V{i}") for i in range(4)]
    for v in vs:
        assert fd.post(Struct("#>=", (v, 0)))
        assert fd.post(Struct("#=<", (v, 5)))
    marks = [(bindings.mark(), _store_state(state))]
    for op in ops:
        if op[0] == "undo":
            mark, before = marks[op[1] % len(marks)]
            bindings.undo_to(mark)
            del marks[op[1] % len(marks) + 1:]
            assert _store_state(state) == before
            _soft_subsequence_holds(fd)
            continue
        mark, before = marks[-1]
        if op[0] == "alias":
            ok = state.unify(vs[op[1]], vs[op[2]])
        elif op[0] == "bind":
            ok = state.unify(vs[op[1]], op[2])
        else:
            ok = fd.post(_goal(op, vs))
        assert not fd._queue and not fd._queued
        _soft_subsequence_holds(fd)
        if ok:
            marks.append((bindings.mark(), _store_state(state)))
        else:
            # a failed goal is rewound, as backtracking rewinds it
            bindings.undo_to(mark)
            assert _store_state(state) == before
