"""Differential test of `{}` inequalities.  The rational store decides
them with a simplex; the oracle here is Fourier-Motzkin elimination over
`Fraction`, uncapped, which small systems keep small.  Both must give the
same verdict, a solution or none, on seeded systems of strict and non-strict
rows, and on a few fixed strict cases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from prolite import Budget
from prolite.orchestrator import run_candidate

BUDGET = Budget(max_inference_steps=100_000, wall_timeout=2.0)
RELS = ["<", "=<", ">", ">="]


def fm_feasible(rows):
    """Whether rows ({var: coeff}, rel, k), each sum(coeff * var) rel k
    with rel one of RELS, have a rational solution."""
    # as (expr, const, strict), each meaning expr + const < 0 or =< 0
    work = []
    for expr, rel, k in rows:
        sign = 1 if rel in ("<", "=<") else -1
        work.append(({v: Fraction(sign * c) for v, c in expr.items()},
                     Fraction(-sign * k), rel in ("<", ">")))
    while True:
        names = sorted({v for expr, _, _ in work for v in expr})
        if not names:
            return all(const < 0 if strict else const <= 0
                       for _, const, strict in work)
        v = names[0]
        pos = [row for row in work if row[0].get(v, 0) > 0]
        neg = [row for row in work if row[0].get(v, 0) < 0]
        work = [row for row in work if v not in row[0]]
        for pe, pk, ps in pos:
            for ne, nk, ns in neg:
                a, b = -ne[v], pe[v]
                expr = {x: a * pe.get(x, 0) + b * ne.get(x, 0)
                        for x in set(pe) | set(ne) if x != v}
                work.append(({x: c for x, c in expr.items() if c},
                             a * pk + b * nk, ps or ns))


def _render(rows):
    def side(expr):
        return " + ".join(f"{c}*{v}" for v, c in sorted(expr.items()))
    return [f"{side(expr)} {rel} {k}" for expr, rel, k in rows]


def _verdict(texts, split):
    if split:
        goals = ", ".join(f"{{{t}}}" for t in texts)
    else:
        goals = "{" + ", ".join(texts) + "}"
    result = run_candidate(f"problem(A) :- {goals}, A = 1.", budget=BUDGET)
    return result.status


def _system(rng):
    names = ["X", "Y", "Z", "W"][:rng.randint(1, 4)]
    rows = []
    for _ in range(rng.randint(1, 7)):
        used = rng.sample(names, rng.randint(1, len(names)))
        rows.append(({v: rng.choice([-3, -2, -1, 1, 2, 3]) for v in used},
                     rng.choice(RELS), rng.randint(-6, 6)))
    return rows


def test_simplex_agrees_with_fourier_motzkin_on_seeded_systems():
    rng = random.Random(19)
    feasible = 0
    for n in range(400):
        rows = _system(rng)
        expected = "ok" if fm_feasible(rows) else "no-solution"
        texts = _render(rows)
        assert _verdict(texts, split=n % 2 == 0) == expected, texts
        feasible += expected == "ok"
    # both verdicts are well represented
    assert 100 <= feasible <= 300, feasible


@pytest.mark.parametrize("rows, status", [
    ("X < Y, Y < X", "no-solution"),
    ("X =< Y, Y =< X", "ok"),
    ("X > 0, X < 0", "no-solution"),
    ("X >= 0, X =< 0", "ok"),
    ("X + Y < 2, X > 1, Y > 1", "no-solution"),
    ("X + Y =< 2, X >= 1, Y >= 1", "ok"),
    ("X - Y < 1, Y - Z < 1, Z - X < -2", "no-solution"),
    ("X - Y =< 1, Y - Z =< 1, Z - X =< -2", "ok"),
])
def test_strict_rows_are_decided_exactly(rows, status):
    texts = rows.split(", ")
    assert _verdict(texts, split=False) == status
    assert _verdict(texts, split=True) == status


def test_the_oracle_decides_strict_rows_exactly():
    x_lt_y, y_lt_x = ({"X": 1, "Y": -1}, "<", 0), ({"X": -1, "Y": 1}, "<", 0)
    assert not fm_feasible([x_lt_y, y_lt_x])
    assert fm_feasible([(x_lt_y[0], "=<", 0), (y_lt_x[0], "=<", 0)])
    assert not fm_feasible([({"X": 1}, ">", 0), ({"X": 1}, "<", 0)])
    assert fm_feasible([({"X": 1}, ">=", 0), ({"X": 1}, "=<", 0)])
    assert not fm_feasible([({"X": 2}, ">", 3), ({"X": -1}, ">=", -1)])
