"""A fixed corpus of programs and the record of how the engine runs them.

`tests/golden/engine_runs.json` holds, for every program here, the
first answers (at most five) as text, the inference steps spent up to
each, how enumeration ended, and the exec status `run_candidate` gives.
It is a change detector for the resolution machine, not an oracle: a
line may change only when the old line is shown to be a defect.

The corpus is the 8 fixtures, 200 generated navigate problems, the
engine-bound programs of the benchmark (nrev, queens, SEND+MORE, count;
their text is copied here so the benchmark stays independent), a few
hand-written control-flow and FD-propagation cases, and about 300
seeded small programs mixing facts, recursion, cut, `;`, `->`, `\\+`,
`call/1` and variable goals, `findall/3`, `between/3`, `is`,
comparisons, FD goals and `{}` goals.

Regenerate with `PYTHONPATH=src python tests/engine_corpus.py`.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

from prolite import Budget, consult, parse_program, parse_term_text, solve
from prolite.errors import ProliteError
from prolite.harness import FIXTURES, gen_navigate
from prolite.orchestrator import run_candidate
from prolite.terms import Atom, Struct, Var
from prolite.writer import term_to_text

GOLDEN = Path(__file__).parent / "golden" / "engine_runs.json"
BUDGET = Budget(max_inference_steps=20_000, wall_timeout=60.0)
# Runaway programs stop on steps long before any depth or memory bound.
SMALL_BUDGET = Budget(max_inference_steps=1_500, wall_timeout=60.0)
MAX_ANSWERS = 5

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

# Control flow the random programs reach only by chance.
HANDWRITTEN = (
    ("cut-in-disjunction",
     "p(X) :- member(X, [1, 2, 3]), ( X > 1, ! ; fail ).\n"
     "problem(A) :- p(A).\n"),
    ("cut-in-condition",
     "p(X) :- ( member(X, [1, 2, 3]), ! -> true ; X = 0 ).\n"
     "problem(A) :- p(A) ; A = 9.\n"),
    ("if-then-no-else",
     "p(X, Y) :- ( X > 1 -> Y = big ).\n"
     "problem(A) :- member(X, [1, 2, 3]), p(X, A).\n"),
    ("recursive-if-then-else",
     "c(N, N) :- N >= 5, !.\n"
     "c(N, R) :- ( N mod 2 =:= 0 -> M is N + 3 ; M is N + 1 ), c(M, R).\n"
     "problem(A) :- member(S, [0, 1, 2]), c(S, A).\n"),
    ("recursive-cut-in-disjunction",
     "d(0, []) :- !.\n"
     "d(N, [N|T]) :- ( N > 2, ! ; true ), M is N - 1, d(M, T).\n"
     "problem(A) :- d(4, A).\n"),
    ("variable-goal-cut-is-local",
     "problem(A) :- member(A, [1, 2]), G = !, G, A > 1.\n"),
    ("call-cut-is-local",
     "problem(A) :- member(A, [1, 2]), call(!), A > 1.\n"),
    ("head-bound-variable-goal",
     "run(G) :- G.\n"
     "problem(A) :- run((member(A, [1, 2, 3]), !)) ; A = 0.\n"),
    ("head-bound-goal-in-disjunction",
     "alt(G, X) :- ( G ; X = 7 ).\n"
     "problem(A) :- alt((A = 1 ; A = 2), A).\n"),
    ("head-bound-ite-in-disjunction",
     "alt(G) :- ( G ; true ).\n"
     "problem(A) :- alt((member(A, [1, 2]) -> true)), nonvar_ok(A).\n"
     "nonvar_ok(A) :- A > 0.\n"),
    ("head-bound-goal-in-conjunction",
     "both(G, H) :- (G, H).\n"
     "problem(A) :- both(member(A, [1, 2, 3]), A > 1).\n"),
    ("negation-of-negation",
     "problem(A) :- \\+ \\+ A = 1, var_left(A).\n"
     "var_left(A) :- \\+ A == 1, A = 2.\n"),
    ("forall",
     "problem(A) :- L = [1, 2, 3], forall(member(X, L), X > 0), "
     "length(L, A).\n"),
    ("nested-findall",
     "problem(A) :- findall(L, (member(X, [1, 2]), "
     "findall(Y, between(1, X, Y), L)), A).\n"),
    ("cut-inside-findall",
     "problem(A) :- findall(X, (member(X, [1, 2, 3]), X > 1, !), A).\n"),
    ("findall-of-failure",
     "problem(A) :- findall(X, (member(X, [1, 2]), fail), A).\n"),
    ("unbound-variable-goal",
     "problem(A) :- A = 1, G.\n"),
    ("non-callable-goal",
     "problem(A) :- G = 1, A = 2, G.\n"),
    ("unknown-predicate",
     "problem(A) :- nope(A).\n"),
    ("auto-label",
     "problem(A) :- A #>= 1, A #=< 3.\n"),
    ("rational-residue",
     "problem(A) :- {A = B + 1}.\n"),
    ("between-cut",
     "problem(A) :- between(1, 10, A), A * A > 20, !.\n"),
    ("infinite-generator",
     "nat(0).\nnat(N) :- nat(M), N is M + 1.\n"
     "problem(A) :- nat(A), A > 3.\n"),
    ("left-recursion-budget",
     "p(X) :- p(X).\nproblem(A) :- p(A).\n"),
    ("deep-answer",
     "s(0, z) :- !.\ns(N, s(X)) :- M is N - 1, s(M, X).\n"
     "problem(A) :- s(30, A).\n"),
    ("first-argument-index",
     "k(1, one).\nk(a, atom).\nk(f(_), compound).\nk(_, any).\n"
     "k([], nil).\nk([_|_], list).\n"
     "problem(A) :- member(K, [1, a, f(x), [], [y], 2]), k(K, A).\n"),
    ("label-in-findall",
     "problem(A) :- findall(X-Y, (X #>= 1, X #=< 3, Y #= 4 - X, "
     "label([X])), A).\n"),
    ("msort-ground",
     "problem(A) :- msort([c, 2, b, f(a), 1, a, 2], A).\n"),
    # FD paths the benchmark's queens, SEND+MORE and CSP items do not
    # reach: aliasing two FD variables after posting (on_alias re-links
    # and re-runs their propagators), mod and abs woken by a hole, and
    # holes followed by a bounds change
    ("fd-alias-after-post",
     "problem(A) :- X #>= 0, X #=< 5, Y #>= 2, Y #=< 9, Z #= X + Y, "
     "W #= 2 * Y - X, X = Y, label([X, Z, W]), A = X-Z-W.\n"),
    ("fd-alias-onto-disequality",
     "problem(A) :- X #>= 0, X #=< 3, Y #>= 0, Y #=< 3, X #\\= Y, "
     "( X = Y, A = same ; A = apart ).\n"),
    ("fd-alias-chain",
     "problem(A) :- X #>= 1, X #=< 9, Y #= X + 2, Z #>= 4, Z #=< 6, "
     "X = Z, Y #\\= 7, label([X]), A = X-Y.\n"),
    ("fd-mod-woken-by-hole",
     "problem(A) :- X #>= 0, X #=< 8, M #= X mod 3, X #\\= 1, X #\\= 4, "
     "X #\\= 7, label([X]), A = X-M.\n"),
    ("fd-abs-woken-by-hole",
     "problem(A) :- X #>= -4, X #=< 4, Y #= abs(X), X #\\= 2, X #\\= -2, "
     "Y #\\= 0, label([Y, X]), A = X-Y.\n"),
    ("fd-holes-then-bounds",
     "problem(A) :- X #>= 1, X #=< 9, X #\\= 3, X #\\= 5, X #\\= 9, "
     "X #\\= 1, Y #= X + 1, Y #=< 6, Z #>= 0, Z #=< 9, Z #\\= X, "
     "label([X, Z]), A = X-Z.\n"),
)


# --- seeded small programs --------------------------------------------

ATOMS = ("a", "b", "c")
VARS = ("X", "Y", "Z", "W")


def _small_program(rng):
    """problem/1 over a few facts and rules, in the style of the
    fixtures: a goal that binds the answer, then random goals over a
    small variable pool."""
    lines = []
    for _ in range(rng.randint(2, 5)):
        key = rng.choice(ATOMS + ("1", "2", "f(a)", "_"))
        lines.append(f"f({key}, {rng.randint(0, 5)}).")
    lines.append("len([], 0).")
    lines.append("len([_|T], N) :- len(T, M), N is M + 1.")
    lines.append("sum([], 0).")
    lines.append("sum([H|T], S) :- sum(T, S0), S is S0 + H.")
    lines.append("down(0, []) :- !.")
    lines.append("down(N, [N|T]) :- N > 0, M is N - 1, down(M, T).")
    for _ in range(rng.randint(1, 3)):
        body = _body(rng, ["X", "Y"], 1)
        lines.append(f"g(X, Y) :- {body}.")
    first = rng.choice(("member(A, [3, 1, 2])", "between(0, 3, A)",
                        "f(_, A)", "g(1, A)", "g(a, A)", "down(3, A)",
                        "A #>= 0, A #=< 3"))
    body = _body(rng, ["A"], 1)
    lines.append(f"problem(A) :- {first}, {body}.")
    return "\n".join(lines) + "\n"


def _body(rng, bound, depth):
    """A comma-joined conjunction; `bound` lists variables that earlier
    goals (or the head) may have bound."""
    goals = []
    for _ in range(rng.randint(1, 4)):
        goals.append(_goal(rng, bound, depth))
    return ", ".join(goals)


def _term(rng, bound):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(ATOMS)
    if kind == 1:
        return str(rng.randint(-3, 9))
    if kind == 2 and bound:
        return rng.choice(bound)
    if kind == 3:
        return f"[{rng.randint(0, 4)}, {rng.choice(ATOMS)}]"
    if kind == 4:
        return f"f({rng.choice(ATOMS)})"
    return rng.choice(VARS)


def _fresh(rng, bound):
    name = rng.choice(VARS)
    if name not in bound:
        bound.append(name)
    return name


def _goal(rng, bound, depth):
    kind = rng.randrange(22 if depth > 0 else 15)
    b = rng.choice(bound) if bound else "X"
    if kind == 0:
        v = _fresh(rng, bound)
        return f"f({_term(rng, bound)}, {v})"
    if kind == 1:
        return f"{_fresh(rng, bound)} = {_term(rng, bound)}"
    if kind == 2:
        op = rng.choice(("+", "-", "*", "//", "mod", "/"))
        return f"{_fresh(rng, bound)} is {b} {op} {rng.randint(1, 4)}"
    if kind == 3:
        op = rng.choice(("<", ">", "=<", ">=", "=:=", "=\\="))
        return f"{b} {op} {rng.randint(0, 4)}"
    if kind == 4:
        return f"between(1, {rng.randint(1, 4)}, {_fresh(rng, bound)})"
    if kind == 5:
        return f"member({_fresh(rng, bound)}, [{_term(rng, bound)}, " \
               f"{_term(rng, bound)}, {rng.randint(0, 3)}])"
    if kind == 6:
        return "!"
    if kind == 7:
        v = _fresh(rng, bound)
        return f"{v} #>= {rng.randint(0, 2)}, {v} #=< {rng.randint(2, 5)}"
    if kind == 8:
        op = rng.choice(("#=", "#\\=", "#<", "#>="))
        return f"{_fresh(rng, bound)} {op} {b} + {rng.randint(0, 2)}"
    if kind == 9:
        return f"{{{_fresh(rng, bound)} = {b} + {rng.randint(1, 3)}/2}}"
    if kind == 10:
        return f"g({b}, {_fresh(rng, bound)})"
    if kind == 11:
        v = _fresh(rng, bound)
        return rng.choice((f"len([{b}, a, {b}], {v})",
                           f"down({rng.randint(0, 6)}, {v})",
                           f"sum([1, 2, {rng.randint(0, 9)}], {v})"))
    if kind == 12:
        return f"{b} == {_term(rng, bound)}" if rng.random() < 0.5 \
            else f"{b} \\= {_term(rng, bound)}"
    if kind == 13:
        return f"length({_fresh(rng, bound)}, {rng.randint(0, 3)})"
    if kind == 14:
        return rng.choice(("true", "fail", f"label([{b}])"))
    inner = list(bound)
    sub = _body(rng, inner, depth - 1)
    if kind == 15:
        alt = _body(rng, list(bound), depth - 1)
        return f"( {sub} ; {alt} )"
    if kind == 16:
        then = _body(rng, inner, depth - 1)
        alt = _body(rng, list(bound), depth - 1)
        return f"( {sub} -> {then} ; {alt} )"
    if kind == 17:
        then = _body(rng, inner, depth - 1)
        return f"( {sub} -> {then} )"
    if kind == 18:
        return f"\\+ ( {sub} )"
    if kind == 19:
        return f"call(( {sub} ))"
    if kind == 20:
        name = "GH"[depth % 2]  # nested goal terms never share a name
        return f"{name} = ( {sub} ), {name}"
    return f"findall({b}, ( {sub} ), {_fresh(rng, bound)})"


def small_programs(count=300):
    return [(f"small-{i:03d}", _small_program(random.Random(f"corpus|{i}")),
             "problem(A)", SMALL_BUDGET)
            for i in range(count)]


def corpus():
    """[(name, program text, entry query, budget)] in file order."""
    items = [(f"fixture-{p.id}", p.reference_program, p.entry, BUDGET)
             for p in FIXTURES]
    items += [(p.id, p.reference_program, p.entry, BUDGET)
              for p in gen_navigate(20261018, 200)]
    items.append(("nrev30", NREV_PROGRAM,
                  f"nrev({list(range(1, 31))}, A)", BUDGET))
    items.append(("queens8", QUEENS_PROGRAM, "queens(8, A)", BUDGET))
    items.append(("send-more", SEND_MORE_PROGRAM, "puzzle(A)", BUDGET))
    items.append(("count400", COUNT_PROGRAM, "count(400)", BUDGET))
    items += [(f"hand-{name}", text, "problem(A)", SMALL_BUDGET)
              for name, text in HANDWRITTEN]
    items += small_programs()
    return items


# --- recording ----------------------------------------------------------

def _canonical(term):
    """term with its unbound variables renamed by first occurrence, so
    that the text does not depend on global variable numbering."""
    names = {}
    out = []
    # iterative rebuild: (term, done) pairs, results on `out`
    work = [(term, False)]
    while work:
        t, done = work.pop()
        if done:
            n = len(t.args)
            args = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(Struct(t.name, args))
        elif isinstance(t, Var):
            if t.id not in names:
                names[t.id] = Atom(f"_V{len(names)}")
            out.append(names[t.id])
        elif isinstance(t, Struct):
            work.append((t, True))
            work.extend((a, False) for a in reversed(t.args))
        else:
            out.append(t)
    return out[0]


_NAMES = re.compile(r"\b[A-Z_][A-Za-z0-9_]*(#\d+)?")


def _message(exc):
    """Exception class and message, with variable names masked: which
    variable of an aliased pair a message names is not part of the
    engine's contract."""
    return f"{type(exc).__name__}: {_NAMES.sub('_', str(exc))}"


def record(name, program, entry, budget):
    """The golden entry for one program."""
    entry_record = {"name": name, "answers": [], "end": None}
    try:
        db = consult(parse_program(program))
        query = parse_term_text(entry)
        gen = solve(query, db, budget)
        for solution in gen:
            if len(entry_record["answers"]) == MAX_ANSWERS:
                entry_record["end"] = "more"
                break
            text = ", ".join(
                f"{var} = {term_to_text(_canonical(value))}"
                for var, value in solution.bindings.items())
            if solution.underdetermined:
                text += "  % loose " + " ".join(
                    sorted(solution.underdetermined))
            entry_record["answers"].append([text, solution.steps])
        else:
            entry_record["end"] = "done"
        gen.close()
    except ProliteError as exc:
        entry_record["end"] = _message(exc)
    entry_record["status"] = run_candidate(program, entry, budget).status
    return entry_record


def render():
    """The golden file's text."""
    lines = [json.dumps(record(*item), ensure_ascii=True)
             for item in corpus()]
    return "[\n" + ",\n".join(lines) + "\n]\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
