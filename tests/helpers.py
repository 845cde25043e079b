"""Shared test helpers: random constraint instances rendered both as
engine goal text and as plain-Python predicates, plus an independently
written grid-walk simulator used to cross-check the harness one."""

from __future__ import annotations

import itertools
from fractions import Fraction

from prolite import consult, solve
from prolite.reader import parse_program, parse_term_text


def run_query(program_text, query_text, **kwargs):
    db = consult(parse_program(program_text))
    return list(solve(parse_term_text(query_text), db, **kwargs))


# Ten inequalities over six variables, all met by the all-zero point,
# whose Fourier-Motzkin elimination grows past 20,000 rows in whatever
# order it eliminates; the simplex decides them in a few pivots.
EXPLODING = ("-3*A + B + C - 2*D - 3*E =< 6, -3*A - B - 2*C - 3*D - 3*F =< 8, "
             "A + B + 2*C + D - F =< 3, A + 2*D + 3*F =< 4, "
             "-A + D + 3*E - F =< 9, 2*B - 3*C + 3*D + E - F =< 8, "
             "3*B + C - 3*D + 2*E =< 5, -3*A - B + 2*C + D - 2*E - 3*F =< 3, "
             "2*A + 2*B + 2*C - D + 2*E =< 0, "
             "3*A - 2*B + 2*C - 3*D - E - 2*F =< 8")


# ---------------------------------------------------------------------------
# random finite-domain CSPs

REL_TEXT = {"=": "#=", "<": "#<", "<=": "#=<", ">": "#>", ">=": "#>=",
            "!=": "#\\="}
REL_FUN = {"=": lambda a, b: a == b, "<": lambda a, b: a < b,
           "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
           ">=": lambda a, b: a >= b, "!=": lambda a, b: a != b}


def _linear(rng, n):
    """A linear constraint over a random subset of the variables."""
    size = rng.randint(1, min(3, n))
    idxs = rng.sample(range(n), size)
    coeffs = {i: rng.choice([-3, -2, -1, 1, 2, 3]) for i in idxs}
    rel = rng.choice(list(REL_TEXT))
    const = rng.randint(-10, 25)
    text = " + ".join(f"{c} * V{i}" for i, c in sorted(coeffs.items()))
    goal = f"{text} {REL_TEXT[rel]} {const}"
    fun = REL_FUN[rel]

    def pred(vals, coeffs=coeffs, fun=fun, const=const):
        return fun(sum(c * vals[i] for i, c in coeffs.items()), const)

    return goal, pred


def _mod(rng, n):
    i = rng.randrange(n)
    m = rng.randint(2, 5)
    r = rng.randint(0, m - 1)
    return (f"V{i} mod {m} #= {r}",
            lambda vals, i=i, m=m, r=r: vals[i] % m == r)


def _abs(rng, n):
    i, j = rng.randrange(n), rng.randrange(n)
    d = rng.randint(0, 9)
    return (f"abs(V{i} - V{j}) #= {d}",
            lambda vals, i=i, j=j, d=d: abs(vals[i] - vals[j]) == d)


def _neq(rng, n):
    i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
    return (f"V{i} #\\= V{j}",
            lambda vals, i=i, j=j: vals[i] != vals[j])


def _disj(rng, n):
    g1, p1 = _linear(rng, n)
    g2, p2 = _linear(rng, n)
    return (f"( {g1} ; {g2} )",
            lambda vals, p1=p1, p2=p2: p1(vals) or p2(vals))


def _domains(rng, n):
    """n random small ranges and the goals that post them on V0..Vn-1."""
    domains = []
    for _ in range(n):
        lo = rng.randint(0, 4)
        hi = min(9, lo + rng.randint(1, 5))
        domains.append(range(lo, hi + 1))
    return domains, [f"V{i} #>= {d.start}, V{i} #=< {d.stop - 1}"
                     for i, d in enumerate(domains)]


def random_csp(rng, max_vars=5, max_constraints=6):
    """(goal text, variable names, domains, python predicate)."""
    n = rng.randint(2, max_vars)
    domains, goals = _domains(rng, n)
    makers = [_linear, _linear, _mod, _abs, _neq, _disj]
    count = rng.randint(2, max_constraints)
    picked = [rng.choice(makers)(rng, n) for _ in range(count)]
    goals += [g for g, _ in picked]
    names = [f"V{i}" for i in range(n)]
    goals.append(f"label([{', '.join(names)}])")
    preds = [p for _, p in picked]

    def predicate(*vals):
        return all(p(vals) for p in preds)

    return ", ".join(goals), names, domains, predicate


def linked_csp(rng, max_vars=5):
    """(goal text, variable indexes in the order label/1 first meets
    them, domains, python predicate over the values by index) of a
    random CSP whose propagation fixes variables while labeling runs.

    Pairs tied by a sum or a difference fix each other, a variable may
    be fixed before labeling starts, and the label list is shuffled and
    may name a variable twice or hold an integer, so variables are
    fixed both before and after the position being labeled.  Every
    constant comes from one hidden assignment, which the random linear
    constraints may still exclude.
    """
    n = rng.randint(3, max_vars)
    domains, goals = _domains(rng, n)
    hidden = [rng.choice(d) for d in domains]
    picked = [rng.choice([_linear, _neq])(rng, n)
              for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            s = hidden[i] + hidden[j]
            picked.append((f"V{i} + V{j} #= {s}",
                           lambda vals, i=i, j=j, s=s: vals[i] + vals[j] == s))
        else:
            d = hidden[i] - hidden[j]
            picked.append((f"V{i} - V{j} #= {d}",
                           lambda vals, i=i, j=j, d=d: vals[i] - vals[j] == d))
    if rng.random() < 0.5:
        k = rng.randrange(n)
        picked.append((f"V{k} #= {hidden[k]}",
                       lambda vals, k=k, v=hidden[k]: vals[k] == v))
    items = [f"V{i}" for i in rng.sample(range(n), n)]
    if rng.random() < 0.5:
        items.insert(rng.randint(0, n), f"V{rng.randrange(n)}")
    if rng.random() < 0.3:
        items.insert(rng.randint(0, len(items)), str(rng.randint(0, 9)))
    order = []
    for item in items:
        if item[0] == "V" and int(item[1:]) not in order:
            order.append(int(item[1:]))
    goals += [g for g, _ in picked]
    goals.append(f"label([{', '.join(items)}])")
    preds = [p for _, p in picked]

    def predicate(vals):
        return all(p(vals) for p in preds)

    return ", ".join(goals), order, domains, predicate


def fd_solution_set(goal_text, names):
    """All labelled solutions of a conjunction of constraint goals."""
    solutions = set()
    for sol in run_query("", goal_text):
        solutions.add(tuple(sol.bindings[name] for name in names))
    return solutions


def brute_solution_set(domains, predicate):
    return {combo for combo in itertools.product(*domains)
            if predicate(*combo)}


# ---------------------------------------------------------------------------
# random rational linear systems

def random_linear_system(rng, max_n=6):
    """A random square integer system; resampled until nonsingular."""
    from prolite.harness.oracles import linear_gold_oracle
    from prolite.errors import Singular, Inconsistent
    while True:
        n = rng.randint(1, max_n)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        try:
            xs = linear_gold_oracle(a, b)
        except (Singular, Inconsistent):
            continue
        return a, b, xs


def linear_system_goal(a, b):
    """Engine goal text posting the system as rational constraints."""
    goals = []
    for row, const in zip(a, b):
        terms = [f"{c} * X{j}" for j, c in enumerate(row) if c != 0]
        lhs = " + ".join(terms) if terms else "0"
        goals.append(f"{{{lhs} = {const}}}")
    names = [f"X{j}" for j in range(len(a))]
    return ", ".join(goals), names


def solve_linear_via_engine(a, b):
    goal, names = linear_system_goal(a, b)
    sols = run_query("", goal)
    assert len(sols) == 1
    return [Fraction(sols[0].bindings[name]) for name in names]


# ---------------------------------------------------------------------------
# independent grid-walk simulator (complex-number implementation,
# sharing nothing with the harness simulator)

def complex_walk(instructions):
    """Final (x, y) using complex arithmetic: position is a complex
    number, the heading a unit complex, north = +1j, east = +1."""
    pos = 0 + 0j
    heading = 1j  # north
    for ins in instructions:
        if ins[0] == "turn":
            which = ins[1]
            if which == "left":
                heading *= 1j
            elif which == "right":
                heading *= -1j
            else:
                heading *= -1
        elif ins[0] == "step":
            _, n, d = ins
            facing = {"forward": heading, "backward": -heading,
                      "left": heading * 1j, "right": heading * -1j}[d]
            pos += n * facing
        elif ins[0] == "face_step":
            _, n, d = ins
            heading = 1j
            pos += n * (heading if d == "forward" else -heading)
        else:
            raise ValueError(ins)
    return int(pos.real), int(pos.imag)
