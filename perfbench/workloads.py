"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same problems, programs and queries.  Expected answers are computed
from the independent oracles in ``prolite.harness`` or in plain Python
here, never by the engine under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from prolite.errors import Inconsistent, Singular
from prolite.harness.navigate import gen_navigate, navigate_oracle
from prolite.harness.oracles import csp_brute_oracle, linear_gold_oracle

# --- eval workloads ----------------------------------------------------

NAVIGATE_PER_PASS = 100     # generated problems per `prolite eval` pass
FLAKY_P = 0.5
FLAKY_REPEATS = 3
MAX_ATTEMPTS = 50           # the CLI's default retry cap


def navigate_pass(seed, index, seen):
    """Problems for eval pass `index`: a fresh gen-navigate chunk.

    Programs whose text already appeared in this run (`seen` holds
    their hashes) are dropped, so no source text repeats between
    passes.  Returns (dataset records, {problem id: oracle answer}).
    """
    records, golds = [], {}
    for problem in gen_navigate(seed * 100_000 + index, NAVIGATE_PER_PASS):
        key = hash(problem.reference_program)
        if key in seen:
            continue
        seen.add(key)
        golds[problem.id] = navigate_oracle(problem.instructions)
        records.append({
            "id": problem.id,
            "category": problem.category,
            "statement": problem.statement,
            "answer": problem.gold,
            "entanglement": problem.entanglement,
            "entry": problem.entry,
            "reference_program": problem.reference_program,
        })
    return records, golds


def write_dataset(path, records):
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_programs(items, work):
    """Write each item's program to its own file; returns the paths."""
    paths = []
    for i, item in enumerate(items):
        path = work / f"item{i}.pl"
        path.write_text(item.program, encoding="utf-8")
        paths.append(path)
    return paths


def flaky_attempts(seed, problem_id, repeat):
    """(attempts, succeeded) for one flaky run, by replaying the
    provider's coin flips: a run ends at the first good completion or
    at the cap."""
    rng = random.Random(f"{seed}|{problem_id}|{repeat}")
    for k in range(MAX_ATTEMPTS):
        if rng.random() >= FLAKY_P:
            return k + 1, True
    return MAX_ATTEMPTS, False


# --- solve-search ------------------------------------------------------

@dataclass
class Item:
    """One `prolite run` invocation and the oracle for its answer.

    accepts(value) gets the value printed for the answer variable,
    parsed back into Python ints, Fractions and lists (True for a query
    without variables), and says whether it is the oracle's answer.
    """
    family: str
    program: str
    query: str
    accepts: object
    inferences: int = 0     # known logical inferences (nrev only)


NREV_PROGRAM = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""

QUEENS_PROGRAM = """\
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

SEND_MORE_PROGRAM = """\
puzzle([S,E,N,D,M,O,R,Y]) :-
    Vars = [S,E,N,D,M,O,R,Y], digits(Vars),
    S #\\= 0, M #\\= 0, all_different(Vars),
    1000*S + 100*E + 10*N + D + 1000*M + 100*O + 10*R + E
        #= 10000*M + 1000*O + 100*N + 10*E + Y,
    label(Vars).
digits([]).
digits([V|Vs]) :- V #>= 0, V #=< 9, digits(Vs).
"""

COUNT_PROGRAM = """\
count(0).
count(N) :- N > 0, M is N - 1, count(M).
"""

NREV_LENGTHS = (16, 24, 32)
QUEENS_SIZES = (11, 12)
CSPS_PER_ROUND = 3
CSP_VARS = 4
CSP_DOMAIN = 6
CSP_SOLUTIONS = (20, 150)
SYSTEMS_PER_ROUND = 2
CHAIN_LENGTH = 30
COUNT_STEPS = 400
RATIONAL_VARS = 20
RATIONAL_COUNT_STEPS = 300


def nrev_item(rng, n):
    items = [rng.randrange(1000) for _ in range(n)]
    return Item("nrev", NREV_PROGRAM, f"nrev({_list_text(items)}, A)",
                accepts=lambda value: value == list(reversed(items)),
                inferences=(n + 1) * (n + 2) // 2)


def queens_ok(n):
    def check(qs):
        return (isinstance(qs, list) and len(qs) == n
                and all(isinstance(q, int) and 1 <= q <= n for q in qs)
                and all(qs[i] != qs[j] and abs(qs[i] - qs[j]) != j - i
                        for i in range(n) for j in range(i + 1, n)))
    return check


def queens_item(n):
    return Item("queens", QUEENS_PROGRAM, f"queens({n}, A)",
                accepts=queens_ok(n))


def send_more_ok(v):
    if not (isinstance(v, list) and len(v) == 8
            and all(isinstance(d, int) and 0 <= d <= 9 for d in v)):
        return False
    s, e, n, d, m, o, r, y = v
    return (len(set(v)) == 8 and s != 0 and m != 0
            and 1000*s + 100*e + 10*n + d + 1000*m + 100*o + 10*r + e
            == 10000*m + 1000*o + 100*n + 10*e + y)


def send_more_item():
    return Item("send_more", SEND_MORE_PROGRAM, "puzzle(A)",
                accepts=send_more_ok)


_REL = {"#=": lambda a, b: a == b, "#\\=": lambda a, b: a != b,
        "#<": lambda a, b: a < b, "#=<": lambda a, b: a <= b,
        "#>": lambda a, b: a > b, "#>=": lambda a, b: a >= b}


def csp_item(rng):
    """Random FD CSP with CSP_SOLUTIONS solutions, all found through
    findall and checked against exhaustive enumeration.  Instances
    outside that range are redrawn, so every CSP costs about the same."""
    while True:
        domains, goals, preds = _random_csp(rng)
        solutions = csp_brute_oracle(
            domains, lambda *v: all(p(v) for p in preds))
        if CSP_SOLUTIONS[0] <= len(solutions) <= CSP_SOLUTIONS[1]:
            break
    names = ", ".join(f"V{i}" for i in range(len(domains)))
    bounds = [f"V{i} #>= {d.start}, V{i} #=< {d.stop - 1}"
              for i, d in enumerate(domains)]
    body = ", ".join(bounds + goals + [f"label([{names}])"])
    program = f"csp(L) :- findall([{names}], ({body}), L).\n"
    return Item("csp", program, "csp(A)",
                accepts=lambda value: isinstance(value, list)
                and sorted(tuple(v) for v in value) == solutions)


def _random_csp(rng):
    """(domains, constraint goal texts, Python predicates)."""
    n = CSP_VARS
    domains = []
    for _ in range(n):
        lo = rng.randint(0, 3)
        domains.append(range(lo, lo + CSP_DOMAIN))
    goals, preds = [], []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("linear", "linear", "neq", "abs", "mod"))
        if kind == "linear":
            idxs = rng.sample(range(n), rng.randint(2, 3))
            coeffs = [(rng.choice((-3, -2, -1, 1, 2, 3)), i) for i in idxs]
            rel = rng.choice(sorted(_REL))
            const = rng.randint(-5, 20)
            goals.append(" + ".join(f"{c} * V{i}" for c, i in coeffs)
                         + f" {rel} {const}")
            preds.append(lambda v, cs=coeffs, f=_REL[rel], k=const:
                         f(sum(c * v[i] for c, i in cs), k))
        elif kind == "neq":
            i, j = rng.sample(range(n), 2)
            goals.append(f"V{i} #\\= V{j}")
            preds.append(lambda v, i=i, j=j: v[i] != v[j])
        elif kind == "abs":
            i, j = rng.sample(range(n), 2)
            d = rng.randint(0, 4)
            goals.append(f"abs(V{i} - V{j}) #>= {d}")
            preds.append(lambda v, i=i, j=j, d=d: abs(v[i] - v[j]) >= d)
        else:
            i = rng.randrange(n)
            m = rng.randint(2, 4)
            r = rng.randrange(m)
            goals.append(f"V{i} mod {m} #= {r}")
            preds.append(lambda v, i=i, m=m, r=r: v[i] % m == r)
    return domains, goals, preds


def linear_system_item(rng):
    """Random nonsingular system posted as {} constraints, checked
    against exact Gaussian elimination."""
    while True:
        n = rng.randint(3, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        try:
            xs = linear_gold_oracle(a, b)
        except (Singular, Inconsistent):
            continue
        break
    rows = []
    for row, const in zip(a, b):
        terms = [f"{c} * X{j}" for j, c in enumerate(row) if c != 0]
        rows.append(f"{{{' + '.join(terms) or '0'} = {const}}}")
    names = ", ".join(f"X{j}" for j in range(n))
    program = f"sys([{names}]) :- {', '.join(rows)}.\n"
    expected = [_plain(x) for x in xs]
    return Item("linear_system", program, "sys(A)",
                accepts=lambda value: value == expected)


def chain_item(rng):
    """X0 = c, X(i+1) = a*X(i) + b over a {} chain; the answer is the
    last variable, recomputed here with Fractions."""
    start = Fraction(rng.randint(-5, 5))
    steps = [(Fraction(rng.choice((-2, -1, 2, 3)), rng.choice((1, 2, 3))),
              Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))))
             for _ in range(CHAIN_LENGTH)]
    goals = [f"{{X0 = {_rat_text(start)}}}"]
    value = start
    for i, (mul, add) in enumerate(steps):
        goals.append(f"{{X{i + 1} = {_rat_text(mul)} * X{i} + "
                     f"{_rat_text(add)}}}")
        value = mul * value + add
    program = f"chain(X{CHAIN_LENGTH}) :- {', '.join(goals)}.\n"
    expected = _plain(value)
    return Item("chain", program, "chain(A)",
                accepts=lambda value: value == expected)


def count_item(rng):
    n = COUNT_STEPS + rng.randrange(20)
    return Item("count", COUNT_PROGRAM, f"count({n})",
                accepts=lambda value: value is True)


def count_rational_item(rng):
    """The count loop while rational variables are bound in the store."""
    values, goals = [], []
    value = Fraction(0)
    for i in range(RATIONAL_VARS):
        num, den = rng.randint(1, 9), rng.randint(2, 7)
        value += Fraction(num, den)
        values.append(_plain(value))
        prev = f"R{i - 1} + " if i else ""
        goals.append(f"{{R{i} = {prev}{num}/{den}}}")
    names = ", ".join(f"R{i}" for i in range(RATIONAL_VARS))
    program = (COUNT_PROGRAM
               + f"rvars([{names}]) :- {', '.join(goals)}.\n")
    return Item("count_rational", program,
                f"rvars(A), count({RATIONAL_COUNT_STEPS})",
                accepts=lambda value: value == values)


def search_round(seed, index):
    """The items of solve-search round `index`: the same families and
    sizes in a fixed order, so every round costs about the same."""
    rng = random.Random(f"solve-search|{seed}|{index}")
    items = [nrev_item(rng, n) for n in NREV_LENGTHS]
    items += [queens_item(n) for n in QUEENS_SIZES]
    items.append(send_more_item())
    items += [csp_item(rng) for _ in range(CSPS_PER_ROUND)]
    items += [linear_system_item(rng) for _ in range(SYSTEMS_PER_ROUND)]
    items.append(chain_item(rng))
    items.append(count_item(rng))
    items.append(count_rational_item(rng))
    return items


FAMILIES = ("nrev", "queens", "send_more", "csp", "linear_system", "chain",
            "count", "count_rational")


def _list_text(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def _rat_text(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q.numerator} / {q.denominator})"


def _plain(q):
    """An exact value as the writer prints it: int when integral."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q
