"""Rational constraint solver: exact linear equations, inequality
consistency, residues, and randomized equivalence against an
independent Gaussian elimination."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (EXPLODING, random_linear_system, run_query,
                     solve_linear_via_engine)
from prolite.errors import NonLinearUnsupported, TypeMix
from prolite.orchestrator import run_candidate


def test_single_equation_binds_exactly():
    sols = run_query("", "{X = 1 rdiv 3}")
    assert sols[0].bindings["X"] == Fraction(1, 3)


def test_two_by_two_system():
    sols = run_query("", "{A + 3 = 2 * (B - 3)}, {B + 2 = (A - 2) + 1}")
    assert sols[0].bindings["A"] == 15
    assert sols[0].bindings["B"] == 12


def test_incremental_posting_binds_when_determined():
    sols = run_query("", "{X + Y = 10}, {X - Y = 4}")
    assert sols[0].bindings["X"] == 7
    assert sols[0].bindings["Y"] == 3


def test_division_yields_exact_rationals():
    sols = run_query("", "{3 * X = 1}, {Y = X + 1 rdiv 6}")
    assert sols[0].bindings["X"] == Fraction(1, 3)
    assert sols[0].bindings["Y"] == Fraction(1, 2)


def test_underdetermined_answer_is_flagged():
    sols = run_query("", "{X + Y = 3}")
    assert sols and "X" in sols[0].underdetermined
    assert "Y" in sols[0].underdetermined


def test_inconsistent_equations_fail():
    assert run_query("", "{X + Y = 3}, {X + Y = 4}") == []


def test_redundant_equation_succeeds():
    sols = run_query("", "{X + Y = 3}, {2 * X + 2 * Y = 6}")
    assert len(sols) == 1


def test_inequalities_consistent_path():
    sols = run_query("", "{X >= 1}, {X =< 5}, {X = 4}")
    assert sols[0].bindings["X"] == 4


def test_inequalities_inconsistent_by_elimination():
    assert run_query("", "{X + Y =< 4}, {X >= 3}, {Y >= 2}") == []


@pytest.mark.parametrize("rows", ["X =< 0, Y =< 0, X + Y = 1",
                                  "X + Y = 1, X =< 0, Y =< 0"])
def test_equality_is_checked_against_earlier_inequalities(rows):
    result = run_candidate(f"problem(A) :- {{{rows}}}, A = 1.")
    assert result.status == "no-solution"


def _random_row(rng, rel):
    terms = [f"{rng.randint(-3, 3)} * {v}" for v in "XYZ"
             if rng.random() < 0.7]
    return f"{' + '.join(terms) or '0'} {rel} {rng.randint(-5, 5)}"


def test_row_order_does_not_change_the_status():
    rng = random.Random(2024)
    statuses = set()
    for _ in range(120):
        eqs = [_random_row(rng, "=") for _ in range(rng.randint(1, 2))]
        ineqs = [_random_row(rng, rng.choice(["=<", "<", ">=", ">"]))
                 for _ in range(rng.randint(2, 6))]
        results = {
            order: run_candidate("problem(A) :- "
                                 + ", ".join(f"{{{r}}}" for r in rows)
                                 + ", A = 1.").status
            for order, rows in (("equalities first", eqs + ineqs),
                                ("inequalities first", ineqs + eqs))}
        assert len(set(results.values())) == 1, (eqs, ineqs, results)
        statuses.update(results.values())
    assert statuses == {"ok", "no-solution"}


def test_strict_inequality():
    assert run_query("", "{X < 2}, {X > 2}") == []
    assert run_query("", "{X < 2}, {X = 2}") == []
    assert len(run_query("", "{X < 2}, {X = 1}")) == 1


def test_ground_check():
    assert len(run_query("", "{2 + 2 = 4}")) == 1
    assert run_query("", "{2 + 2 = 5}") == []


def test_nonlinear_product_rejected():
    with pytest.raises(NonLinearUnsupported):
        run_query("", "{X * Y = 4}")


def test_division_by_variable_rejected():
    with pytest.raises(NonLinearUnsupported):
        run_query("", "{1 / X = 2}")


def test_mixing_fd_var_into_rational_constraint_rejected():
    with pytest.raises(TypeMix):
        run_query("", "X #>= 0, X #=< 9, {X + Y = 3}")


def test_inequality_cap():
    # no cap on the number of inequality rows: fourteen are decided
    goals = ", ".join(f"{{X + {i} * Y >= {i}}}" for i in range(14))
    assert len(run_query("", goals)) == 1


def test_elimination_past_the_row_cap_raises():
    # rows whose Fourier-Motzkin elimination grows past 20,000 rows are
    # decided by the simplex; the all-zero point meets every one
    zero = ", ".join(f"{v} = 0" for v in "ABCDEF")
    assert len(run_query("", f"{zero}, {EXPLODING}")) == 1
    assert len(run_query("", "{" + EXPLODING + "}")) == 1


@pytest.mark.parametrize("extra, status", [("", "ok"),
                                           (", X + Y + Z < 0", "no-solution")])
def test_thirteen_rows_over_three_variables(extra, status):
    rows = [f"X + {i}*Y + {12 - i}*Z >= {i}" for i in range(10)]
    rows += ["X >= 0", "Y >= 0", "Z >= 0"]
    result = run_candidate(f"problem(A) :- {{{', '.join(rows)}{extra}}}, "
                           "A = 1.")
    assert result.status == status, result.detail


def test_elimination_order_keeps_rows_few():
    # eliminating the lowest variable first grows these nine rows past
    # millions; the fewest-new-rows order stays under the cap
    goals = ("3*C + F - B =< 1, 3*E + 2*C - 3*B =< 2, -C - 2*A - 2*F =< 1, "
             "3*C - 3*E - 3*D =< 9, -2*C - D - A =< 6, F - A + 3*B =< 9, "
             "2*D - 2*B + 2*C =< 9, 3*A + 2*D + F =< 6, E + 2*F + 2*B =< 4")
    assert len(run_query("", "{" + goals + "}")) == 1


def test_backtracking_discards_posted_rows():
    sols = run_query("", "( {X = 1}, fail ; {X = 2} )")
    assert [s.bindings["X"] for s in sols] == [2]


def test_rational_route_chosen_for_decimals():
    sols = run_query("", "{X = 0.5 + 0.25}")
    assert sols[0].bindings["X"] == Fraction(3, 4)


def test_random_equivalence_with_gaussian_oracle():
    rng = random.Random(77)
    for _ in range(60):
        a, b, expected = random_linear_system(rng)
        assert solve_linear_via_engine(a, b) == expected, (a, b)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:]
                                              for r in rows[1:]])
               for j in range(len(rows)))


@st.composite
def _unique_integer_systems(draw):
    """(coefficient rows, integer solution) with a non-singular matrix,
    so the solution is the only one, rational or integer."""
    n = draw(st.integers(2, 3))
    coeff = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(_det(rows) != 0)
    solution = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return rows, solution


@settings(max_examples=60, deadline=None)
@given(_unique_integer_systems())
def test_fd_and_rational_stores_agree_on_integer_systems(system):
    rows, solution = system
    n = len(solution)
    equations = []
    for row, value in zip(rows, solution):
        lhs = " + ".join(f"({c}) * X{i}" for i, c in enumerate(row))
        equations.append((lhs, sum(c * x for c, x in zip(row, solution))))
    fd_goal = ", ".join(
        [f"{lhs} #= {rhs}" for lhs, rhs in equations]
        + [f"X{i} #>= -5, X{i} #=< 5" for i in range(n)])
    r_goal = ", ".join(f"{{{lhs} = {rhs}}}" for lhs, rhs in equations)
    expected = [{f"X{i}": x for i, x in enumerate(solution)}]
    assert [s.bindings for s in run_query("", fd_goal)] == expected
    assert [s.bindings for s in run_query("", r_goal)] == expected
