"""Hostile candidate programs: huge answers, deep terms, terms that
share subterms, cyclic bindings, long labelings, long sums posted as
constraints, deeply nested clause text, builtin redo loops and many
`{}` inequalities end in their exec status within the budget, and neither the reader nor the walks over
those terms raise a Python RecursionError.  A long prose completion is
searched for a program in time linear in its length, also when every
line opens a block comment or a quoted token."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from prolite import (Budget, consult, engine, parse_program,
                     parse_term_text, solve)
from prolite.cli import main
from prolite.errors import BudgetExceeded
from prolite.orchestrator import (ExtractionFailure, extract_program,
                                  run_candidate)
from prolite.terms import Atom, Struct
from prolite.writer import term_to_text

NEST = """\
s(0, z).
s(N, s(X)) :- N > 0, M is N - 1, s(M, X).
sum(0, 0).
sum(N, E + 1) :- N > 0, M is N - 1, sum(M, E).
"""


@pytest.mark.parametrize("body, status, answer", [
    ("findall(X, between(1, 100000, X), A)", "non-numeric", None),
    ("s(2000, A)", "non-numeric", None),
    ("sum(5000, E), A is E", "ok", 5000),
    ("sum(3000, E), A #= E", "ok", 3000),
    ("sum(3000, E), {A = E}", "ok", 3000),
    ("s(3000, X), s(3000, Y), X == Y, msort([Y, X], [Z, _]), "
     "findall(X, true, [C]), C = Z, A = 1", "ok", 1),
    ("length(L, 1500), doms(L), label(L), A = 1", "ok", 1),
])
def test_deep_terms_and_answers(body, status, answer):
    program = NEST + ("doms([]).\ndoms([V|T]) :- V #>= 0, V #=< 1, "
                      "doms(T).\n") + f"problem(A) :- {body}.\n"
    result = run_candidate(program)
    assert (result.status, result.answer) == (status, answer), result.detail


def test_a_deep_term_prints():
    term = Atom("z")
    for _ in range(5000):
        term = Struct("s", (term,))
    text = term_to_text(term)
    assert text == "s(" * 5000 + "z" + ")" * 5000
    db = consult(parse_program(NEST))
    sols = list(solve(parse_term_text("s(5000, X)"), db))
    assert term_to_text(sols[0].bindings["X"]) == text


def test_clause_text_nested_deeper_than_the_python_stack_runs():
    # the reader reads a list and a left-nested operator chain of any
    # length without recursing, so a head or body template can be far
    # deeper than a recursive walk over it could go
    n = 3000
    items = ", ".join(str(i) for i in range(n))
    program = (f"big([{items}]).\n"
               f"sum(A) :- A is {' + '.join(['1'] * n)}.\n"
               "problem(A) :- big(L), length(L, N), "
               f"findall(X, between(0, {n - 1}, X), M), big(M), "
               "sum(S), A is N + S.\n")
    result = run_candidate(program)
    assert (result.status, result.answer) == ("ok", 2 * n), result.detail


def test_a_builtin_redo_loop_stops_on_the_wall_clock():
    budget = Budget(max_inference_steps=1000, wall_timeout=0.2)
    program = ("problem(A) :- findall(X, between(1, 300000, X), L), "
               "length(L, A).\n")
    started = time.monotonic()
    result = run_candidate(program, budget=budget)
    elapsed = time.monotonic() - started
    assert result.status == "budget-exceeded"
    assert "time" in result.detail
    assert elapsed < 2 * budget.wall_timeout + 0.5


@pytest.mark.parametrize("body", [
    "findall(X, between(1, 2000, X), A)",
    "length(A, 2000)",
])
def test_answers_larger_than_the_memory_budget_are_refused(body,
                                                          monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", 1000)
    result = run_candidate(f"problem(A) :- {body}.\n")
    assert result.status == "budget-exceeded"
    assert "memory" in result.detail


@pytest.mark.parametrize("body, former_status, former_answer", [
    # each of these binds a variable to a term that holds it, which the
    # occurs check fails; the parameters keep the verdict each case had
    # when unification had no occurs check and made a cyclic term
    ("A = f(A)", "budget-exceeded", None),
    ("X = X + 1, A is X", "budget-exceeded", None),
    ("X = X + 1, A #= X", "budget-exceeded", None),
    ("X = X + 1, {A = X}", "budget-exceeded", None),
    ("X = f(X), findall(X, true, _), A = 1", "budget-exceeded", None),
    ("X = f(X), Y = f(Y), X == Y, A = 1", "ok", 1),
    ("X = f(X), Y = f(Y), X = Y, A = 1", "ok", 1),
    ("X = f(X, a), Y = f(Y, b), ( X = Y -> A = 1 ; A = 0 )", "ok", 0),
    ("X = f(X, a), Y = f(Y, b), X \\== Y, A = 1", "ok", 1),
    ("L = [1, 2|L], msort(L, A)", "runtime-error", None),
    ("L = [1, 2|L], ( length(L, 3) -> A = 1 ; A = 0 )", "ok", 0),
])
def test_cyclic_terms_end(body, former_status, former_answer):
    started = time.monotonic()
    result = run_candidate(f"problem(A) :- {body}.\n")
    assert (result.status, result.answer) == ("no-solution", None), \
        result.detail
    assert time.monotonic() - started < 5.0


def _chain(var, n, op):
    """Goals binding var0 .. var<n>, each var<i> to a term that holds
    var<i-1> twice: f(X, X) nested n deep, or X + X summing to 2^n."""
    goals = [f"{var}0 = " + ("a" if op == "f" else "1")]
    for i in range(1, n + 1):
        prev = f"{var}{i - 1}"
        goals.append(f"{var}{i} = " + (f"f({prev}, {prev})" if op == "f"
                                       else f"{prev} + {prev}"))
    return ", ".join(goals)


SHARED = 60


@pytest.mark.parametrize("body, status, answer", [
    (f"{_chain('X', SHARED, 'f')}, {_chain('Y', SHARED, 'f')}, "
     f"X{SHARED} = Y{SHARED}, A = 1", "ok", 1),
    (f"{_chain('X', SHARED, 'f')}, {_chain('Y', SHARED, 'f')}, "
     f"X{SHARED} == Y{SHARED}, A = 1", "ok", 1),
    (f"{_chain('X', SHARED, 'f')}, A = X{SHARED}", "non-numeric", None),
    (f"{_chain('X', SHARED, 'f')}, findall(X{SHARED}, true, [A])",
     "non-numeric", None),
    (f"{_chain('X', SHARED, '+')}, {{A = X{SHARED}}}", "ok", 2 ** SHARED),
    (f"{_chain('X', SHARED, '+')}, A is X{SHARED}", "ok", 2 ** SHARED),
    (f"{_chain('X', SHARED, '+')}, A #= X{SHARED}", "ok", 2 ** SHARED),
    (f"{_chain('X', SHARED, 'f')}, findall(X{SHARED}, true, [C]), "
     f"msort([X{SHARED}, C], _), A = 1", "ok", 1),
    (f"{_chain('X', SHARED, '+')}, findall(X{SHARED}, true, [E]), A is E",
     "ok", 2 ** SHARED),
    (f"{_chain('X', SHARED, '+')}, findall(X{SHARED}, true, [E]), A #= E",
     "ok", 2 ** SHARED),
    (f"{_chain('X', SHARED, '+')}, findall(X{SHARED}, true, [E]), "
     "{A = E}", "ok", 2 ** SHARED),
    (f"{_chain('X', SHARED, 'f')}, findall(X{SHARED}, true, [E]), A #= E",
     "budget-exceeded", None),
    (f"{_chain('X', SHARED, 'f')}, findall(X{SHARED}, true, [E]), "
     "{A = E}", "budget-exceeded", None),
    (f"{_chain('X', SHARED, 'f')}, findall(X{SHARED}, true, [E]), "
     "label([E]), A = 1", "budget-exceeded", None),
], ids=["=", "==", "answer", "findall", "braces", "is", "#=", "msort",
        "is-copy", "#=-copy", "braces-copy", "#=-unreadable-copy",
        "braces-unreadable-copy", "label-unreadable-copy"])
def test_shared_subterms_are_walked_once(body, status, answer):
    # a term of 2^60 leaves as a tree and 60 compounds as a DAG: every
    # walk on the way (unify, ==, the occurs check, rebuild for answers
    # and copies, term_vars, arithmetic, linear forms) must visit each
    # shared compound once, since none of them checks the clock; the
    # writer, which writes the term a #, {} or label/1 goal cannot read
    # into its error, counts the terms it writes against the memory bound
    budget = Budget(max_inference_steps=10 ** 6, wall_timeout=1.0)
    started = time.monotonic()
    result = run_candidate(f"problem(A) :- {body}.\n", budget=budget)
    elapsed = time.monotonic() - started
    assert (result.status, result.answer) == (status, answer), result.detail
    assert elapsed <= 2 * budget.wall_timeout + 0.5


def test_labeling_stops_on_the_wall_clock():
    # 12 variables in 1..11 that must all differ: disequality propagation
    # does not see the pigeonhole, so one label/1 call walks a tree of
    # about 11! leaves, far past the half second allowed however cheap
    # each node is
    budget = Budget(max_inference_steps=10 ** 6, wall_timeout=0.5)
    program = ("doms([]).\ndoms([V|T]) :- V #>= 1, V #=< 11, doms(T).\n"
               "problem(A) :- length(L, 12), doms(L), all_different(L), "
               "label(L), A = 1.\n")
    started = time.monotonic()
    result = run_candidate(program, budget=budget)
    elapsed = time.monotonic() - started
    assert result.status == "budget-exceeded"
    assert "time" in result.detail
    assert elapsed <= 2 * budget.wall_timeout + 0.5


def test_labeling_charges_a_step_per_value():
    # findall/3 over one label/1 of a huge domain collects an answer per
    # value tried, and each value is charged a step, so the step budget
    # ends it long before the answer list reaches the memory bound
    budget = Budget(max_inference_steps=1000, wall_timeout=2.0)
    program = ("problem(A) :- findall(X, (X #>= 0, X #=< 1000000000, "
               "label([X])), L), length(L, A).\n")
    started = time.monotonic()
    result = run_candidate(program, budget=budget)
    elapsed = time.monotonic() - started
    assert result.status == "budget-exceeded"
    assert "steps" in result.detail
    assert elapsed <= 2 * budget.wall_timeout + 0.5


BAKERY = """\
% A bakery bakes eight goods each day from limited stock.  It bakes 40
% loaves of bread, and ten fewer rolls than twice the bread.  How many
% loaves and rolls does it bake together?
problem(A) :-
    % daily minimum and maximum of each good
    { Bread >= 20, Bread =< 80, Rolls >= 30, Rolls =< 120,
      Bagels >= 10, Bagels =< 60, Muffins >= 12, Muffins =< 48,
      Scones >= 8, Scones =< 40, Croissants >= 15, Croissants =< 70,
      Pies >= 4, Pies =< 20, Cakes >= 2, Cakes =< 12 },
    % flour, butter, sugar, eggs, milk, yeast, oven, staff, packaging,
    % shelf, salt, fruit, chocolate, cream, trays, boxes
    { 5*Bread + 2*Rolls + 3*Bagels + 2*Muffins + 2*Scones
          + 3*Croissants + 6*Pies + 8*Cakes =< 700,
      Rolls + 2*Muffins + 3*Scones + 5*Croissants + 4*Pies + 6*Cakes =< 400,
      Bagels + 3*Muffins + 2*Scones + Croissants + 4*Pies + 9*Cakes =< 240,
      2*Muffins + Scones + Croissants + 3*Pies + 6*Cakes =< 150,
      Bread + Rolls + 2*Muffins + 2*Scones + 2*Croissants + Pies
          + 3*Cakes =< 300,
      2*Bread + Rolls + 2*Bagels + Croissants =< 220,
      6*Bread + 2*Rolls + 3*Bagels + 3*Muffins + 3*Scones
          + 2*Croissants + 9*Pies + 12*Cakes =< 800,
      4*Bread + 2*Rolls + 3*Bagels + 2*Muffins + 3*Scones
          + 5*Croissants + 8*Pies + 15*Cakes =< 750,
      Bread + Rolls + Bagels + Muffins + Scones + Croissants + 2*Pies
          + 3*Cakes =< 240,
      Bread + Rolls + Bagels + Muffins + Scones + Croissants + Pies
          + Cakes =< 240,
      2*Bread + Rolls + Bagels + Scones + Pies =< 200,
      3*Muffins + 2*Scones + 5*Pies + 4*Cakes =< 180,
      2*Muffins + Croissants + 5*Cakes =< 100,
      Scones + 2*Pies + 6*Cakes =< 60,
      2*Bread + Rolls + Bagels + Muffins + Scones + Croissants + 2*Pies
          + 2*Cakes =< 280,
      Bagels + Muffins + Scones + Croissants + 3*Pies + 4*Cakes =< 150 },
    % what the owner asks for
    { Rolls >= Bread, Croissants >= 2*Pies, Muffins >= Scones,
      Bagels + Scones =< Rolls, Cakes =< Pies, 2*Cakes + Pies =< Scones,
      Bread + Rolls =< 3*Croissants + 20, Muffins - Bagels =< 5 },
    SHELF
    { Bread = 40, Rolls = 2*Bread - 10 },
    A is Bread + Rolls.
"""
# a plan that meets every row of BAKERY
PLAN = ("Bread = 40, Rolls = 70, Bagels = 20, Muffins = 24, Scones = 16, "
        "Croissants = 30, Pies = 8, Cakes = 4")
# more goods than the shelf row (at most 240) lets the bakery put out
OVERFULL = ("{ Bread + Rolls + Bagels + Muffins + Scones + Croissants + Pies "
            "+ Cakes >= 241 },")


@pytest.mark.parametrize("shelf, status, answer", [
    ("", "ok", 110),
    (OVERFULL, "no-solution", None),
], ids=["feasible", "over-the-shelf"])
def test_forty_inequality_rows_are_decided(shelf, status, answer):
    program = BAKERY.replace("SHELF", shelf)
    # 40 inequality rows (41 over the shelf) over 8 variables
    assert program.count("=<") + program.count(">=") == 40 + bool(shelf)
    # as arithmetic comparisons, PLAN meets every row but OVERFULL
    rows = program.split(":-", 1)[1].rsplit("{ Bread = 40", 1)[0]
    rows = rows.replace("{", "").replace("}", "").rstrip(", \n")
    met = run_candidate(f"problem(A) :- {PLAN}, {rows}, A = 1.\n")
    assert met.status == status
    budget = Budget(max_inference_steps=10 ** 6, wall_timeout=1.0)
    started = time.monotonic()
    result = run_candidate(program, budget=budget)
    elapsed = time.monotonic() - started
    assert (result.status, result.answer) == (status, answer), result.detail
    assert elapsed <= 2 * budget.wall_timeout + 0.5


def _seeded_rows(seed, rows=20, n=8):
    """rows random inequalities over X0..X{n-1}, all met by one point of
    small positive integers, so the origin is far from feasible."""
    rng = random.Random(seed)
    point = [rng.randint(1, 9) for _ in range(n)]
    out = []
    for _ in range(rows):
        coeffs = {i: rng.choice([-3, -2, -1, 1, 2, 3])
                  for i in rng.sample(range(n), rng.randint(2, 4))}
        value = sum(c * point[i] for i, c in coeffs.items())
        lhs = " + ".join(f"{c}*X{i}" for i, c in sorted(coeffs.items()))
        if rng.random() < 0.5:
            out.append(f"{lhs} >= {value - rng.randint(0, 3)}")
        else:
            out.append(f"{lhs} =< {value + rng.randint(0, 3)}")
    return ", ".join(out)


def test_simplex_pivots_are_charged_to_the_budget():
    program = f"problem(A) :- {{{_seeded_rows(0)}}}, A = 1.\n"
    # about 180 steps, nearly all of them simplex pivots
    few = Budget(max_inference_steps=50, wall_timeout=1.0)
    result = run_candidate(program, budget=few)
    assert (result.status, result.detail) == ("budget-exceeded",
                                              "budget exceeded (steps)")
    many = Budget(max_inference_steps=10 ** 6, wall_timeout=1.0)
    started = time.monotonic()
    result = run_candidate(program, budget=many)
    assert (result.status, result.answer) == ("ok", 1), result.detail
    assert time.monotonic() - started <= 2 * many.wall_timeout + 0.5


def test_clause_text_nested_10000_deep_is_a_parse_error():
    nested = "f(" * 10000 + "a" + ")" * 10000
    result = run_candidate(f"problem(A) :- A = {nested}.\n")
    assert result.status == "parse-error"
    assert "nested deeper" in result.detail


def test_a_body_of_10000_goals_runs():
    result = run_candidate("problem(A) :- " + "true, " * 10000 + "A = 1.\n")
    assert (result.status, result.answer) == ("ok", 1), result.detail


_WRAPPERS = ["f({})", "({})", "[{}]", "{{{}}}", "- {}", "\\+ {}",
             "g(a, {})", "[a|{}]", "{} + 1", "1 + {}", "(a, {})", "{} ; b",
             "a ^ {}", "a -> {}", "- ({})", "[{}, b]"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_WRAPPERS), min_size=1, max_size=40),
       st.integers(1, 60))
def test_random_nesting_never_escapes_the_reader(wrappers, repeats):
    term = "x"
    for wrapper in wrappers * repeats:
        term = wrapper.format(term)
    result = run_candidate(f"problem(A) :- X = ({term}), A = 1.\n")
    assert result.status in ("ok", "parse-error"), result.detail


@pytest.mark.parametrize("depth", [3000, 10000])
@pytest.mark.parametrize("wrap, post, answer", [
    ("E / 2", "{A = E}", 0.0),
    ("abs(E)", "A #= E", 1),
], ids=["divide", "abs"])
def test_constraint_specials_nested_deep_post(depth, wrap, post, answer):
    # the stores' special compounds (/ for clpr, abs and mod for clpfd)
    # are flattened on the linear walk's own stack, not by recursion
    program = (f"d(0, 1).\nd(N, {wrap}) :- N > 0, M is N - 1, d(M, E).\n"
               f"problem(A) :- d({depth}, E), {post}.\n")
    result = run_candidate(program)
    assert (result.status, result.answer) == ("ok", answer), result.detail


SUMS = """\
l(0, 0).
l(N, E + _) :- N > 0, M is N - 1, l(M, E).
r(0, 0).
r(N, _ + E) :- N > 0, M is N - 1, r(M, E).
rd(0, 0).
rd(N, _ - E) :- N > 0, M is N - 1, rd(M, E).
"""


@pytest.mark.parametrize("post", ["S #= E", "{S = E}"], ids=["fd", "braces"])
@pytest.mark.parametrize("clause, n", [("l", 5000), ("r", 5000), ("rd", 5000),
                                       ("l", 20000)])
def test_a_post_costs_time_linear_in_its_expression(clause, n, post):
    # a sum of n fresh variables, nested to the left, to the right or as
    # right-nested differences, each compound reached through a
    # variable: a post reads no clock, so merging each operand into the
    # other or copying each compound's coefficients, O(n^2) either way,
    # would run far past the budget
    budget = Budget(max_inference_steps=10 ** 6, wall_timeout=1.0)
    program = SUMS + (f"problem(A) :- {clause}({n}, E), \\+ \\+ {post}, "
                      "A = 1.\n")
    started = time.monotonic()
    result = run_candidate(program, budget=budget)
    elapsed = time.monotonic() - started
    assert (result.status, result.answer) == ("ok", 1), result.detail
    assert elapsed <= 2 * budget.wall_timeout + 0.5


SHARED_ANSWER = "c(0, a).\nc(N, f(Y, Y)) :- N > 0, M is N - 1, c(M, Y).\n"


def test_printing_a_shared_answer_is_bounded(tmp_path, capsys):
    # c(60, A) is 61 compounds as a DAG and 2^61 - 1 terms as text: the
    # writer counts what it writes against the memory budget
    path = tmp_path / "c.pl"
    path.write_text(SHARED_ANSWER)
    started = time.monotonic()
    code = main(["run", str(path), "-q", "c(60, A)"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget exceeded (memory)" in captured.err
    assert elapsed <= 2 * engine.DEFAULT_WALL_TIMEOUT + 0.5
    assert main(["run", str(path), "-q", "c(2, A)"]) == 0
    assert capsys.readouterr().out == "A = f(f(a, a), f(a, a))\n"


def test_printing_a_shared_answer_stops_on_the_wall_clock(tmp_path, capsys):
    # c(17, A) is 2^18 - 1 terms as text, within the memory budget but
    # far more writing than 0.05 s allows: the writer reads the query's
    # deadline
    path = tmp_path / "c.pl"
    path.write_text(SHARED_ANSWER)
    wall = 0.05
    started = time.monotonic()
    code = main(["run", str(path), "-q", "c(17, A)",
                 "--wall-timeout", str(wall)])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget exceeded (time)" in captured.err
    assert elapsed <= 2 * wall + 0.5


def test_the_writer_reads_the_memory_budget_when_it_writes(monkeypatch):
    db = consult(parse_program(SHARED_ANSWER))
    term = next(solve(parse_term_text("c(3, A)"), db)).bindings["A"]
    assert term_to_text(term).count("a") == 8
    monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", 14)
    with pytest.raises(BudgetExceeded, match="memory"):
        term_to_text(term)
    monkeypatch.setattr(engine, "DEFAULT_MAX_MEMORY", 15)
    assert term_to_text(term).count("a") == 8


def test_long_prose_with_a_last_line_that_does_not_lex_ends_quickly():
    # no fenced block, and every line suffix ends in an unclosed quote:
    # tokenizing each suffix in turn took over 20 s at 2,000 lines
    prose = ["The answer follows from the constraints given here."] * 1999
    completion = "\n".join(prose + ["I don't know."])
    started = time.monotonic()
    with pytest.raises(ExtractionFailure):
        extract_program(completion)
    assert time.monotonic() - started < 0.5


def _opening_lines(opener, last=None):
    """4,000 lines of 100 characters that each open a block comment or a
    quoted token, then last in place of the final one if given."""
    line = opener + "x" * (98 - len(opener)) + " ."
    lines = [line] * 4000
    if last is not None:
        lines[-1] = last
    return "\n".join(lines)


@pytest.mark.parametrize("completion", [
    _opening_lines("/* "),
    _opening_lines("\\'"),
    _opening_lines("/* ", "*/ \x01 ."),
    _opening_lines("\\'", "' \x01 ."),
], ids=["open-comments", "open-quotes", "comment-closed-then-illegal",
        "quote-closed-then-illegal"])
def test_lines_that_each_open_a_long_token_end_quickly(completion):
    # every line start opens a comment or quoted token that never closes,
    # or closes on the last line just before a character that does not
    # lex; matching it from each line start took 0.7-1.7 s at 1,000 lines
    # and 2.8-7.0 s at 2,000
    started = time.monotonic()
    with pytest.raises(ExtractionFailure):
        extract_program(completion)
    assert time.monotonic() - started < 0.5
