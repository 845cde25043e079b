"""Hostile candidate programs: huge answers, deep and cyclic terms and
builtin redo loops end in their exec status within the budget, and the
walks over those terms raise no Python RecursionError."""

import time

import pytest

from prolite import (Budget, consult, engine, parse_program,
                     parse_term_text, solve)
from prolite.orchestrator import run_candidate
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


@pytest.mark.parametrize("body, status, answer", [
    # unification has no occurs check, so these bindings make cyclic
    # terms; every walk over them ends
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
def test_cyclic_terms_end(body, status, answer):
    started = time.monotonic()
    result = run_candidate(f"problem(A) :- {body}.\n")
    assert (result.status, result.answer) == (status, answer), result.detail
    assert time.monotonic() - started < 5.0
