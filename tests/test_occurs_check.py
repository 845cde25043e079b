"""Unification is sound: a variable is never bound to a term that holds
it.  Head unification is checked against a plain Robinson unifier with
occurs check, and the check is shown to cost no walk where a binding
cannot close a cycle."""

import random

from prolite import consult, engine, parse_program, parse_term_text, solve
from prolite.terms import Struct, Var, variant


def _answers(program, query):
    db = consult(parse_program(program))
    return list(solve(parse_term_text(query), db))


def _succeeds(program, goal):
    # under \+ \+ no binding outlives the goal, so the answer holds no
    # term that a faulty check could have made cyclic
    return _answers(program, f"\\+ \\+ {goal}") != []


def test_a_head_that_would_bind_a_variable_to_a_term_holding_it_fails():
    assert not _succeeds("q(f(X), X).\n", "q(Y, Y)")
    assert not _succeeds("q(X, f(X)).\n", "q(Y, Y)")
    assert not _succeeds("q(X, X).\n", "q(Y, f(Y))")
    [sol] = _answers("q(f(X), X).\n", "q(Y, Z)")
    assert variant(sol.bindings["Y"], Struct("f", (sol.bindings["Z"],)))


# --- a reference unifier -------------------------------------------------

def _walk(t, subst):
    while isinstance(t, Var) and t.id in subst:
        t = subst[t.id]
    return t


def _occurs(v, t, subst):
    t = _walk(t, subst)
    if isinstance(t, Var):
        return t.id == v.id
    if isinstance(t, Struct):
        return any(_occurs(v, a, subst) for a in t.args)
    return False


def _robinson(t1, t2, subst):
    """Most general unifier extending subst, or None."""
    t1, t2 = _walk(t1, subst), _walk(t2, subst)
    if isinstance(t1, Var) and isinstance(t2, Var) and t1.id == t2.id:
        return subst
    if isinstance(t1, Var) or isinstance(t2, Var):
        v, t = (t1, t2) if isinstance(t1, Var) else (t2, t1)
        if _occurs(v, t, subst):
            return None
        return {**subst, v.id: t}
    if isinstance(t1, Struct) and isinstance(t2, Struct):
        if t1.name != t2.name or len(t1.args) != len(t2.args):
            return None
        for a, b in zip(t1.args, t2.args):
            subst = _robinson(a, b, subst)
            if subst is None:
                return None
        return subst
    return subst if t1 == t2 else None


def _apply(t, subst):
    t = _walk(t, subst)
    if isinstance(t, Struct):
        return Struct(t.name, [_apply(a, subst) for a in t.args])
    return t


def _random_term(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return rng.choice(names)
    if roll < 0.55:
        return rng.choice(["a", "b"])
    if roll < 0.75:
        return f"f({_random_term(rng, names, depth - 1)})"
    return (f"g({_random_term(rng, names, depth - 1)}, "
            f"{_random_term(rng, names, depth - 1)})")


def _random_pair(rng):
    """A head whose clause variables recur inside compounds and a goal
    whose variables alias arguments, both of arity 2 or 3."""
    arity = rng.choice([2, 3])
    head = [_random_term(rng, ["X", "Y", "Z"], 2) for _ in range(arity)]
    goal = [_random_term(rng, ["A", "B"], 2) for _ in range(arity)]
    return f"h({', '.join(head)})", f"h({', '.join(goal)})"


def test_head_unification_agrees_with_a_robinson_unifier():
    rng = random.Random("occurs-check")
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        head_text, goal_text = _random_pair(rng)
        head = parse_term_text(head_text)
        goal = parse_term_text(goal_text)
        mgu = _robinson(head, goal, {})
        outcomes[mgu is not None] += 1
        assert _succeeds(f"{head_text}.\n", goal_text) == (mgu is not None), \
            (head_text, goal_text)
        if mgu is None:
            continue
        answers = _answers(f"{head_text}.\n", goal_text)
        assert len(answers) == 1, (head_text, goal_text)
        # the goal with each variable replaced by its answer
        bound = answers[0].bindings
        got = _apply(goal, {v.id: bound[v.name] for v in _goal_vars(goal)})
        assert variant(got, _apply(goal, mgu)), (head_text, goal_text)
    # both outcomes are well represented, so neither side is trivial
    assert min(outcomes.values()) > 100, outcomes


def _goal_vars(t, acc=None):
    acc = [] if acc is None else acc
    if isinstance(t, Var):
        if all(v.id != t.id for v in acc):
            acc.append(t)
    elif isinstance(t, Struct):
        for a in t.args:
            _goal_vars(a, acc)
    return acc


# --- where the check walks ------------------------------------------------

def _count_walks(monkeypatch):
    calls = []
    occurs = engine.occurs

    def counted(var, t, b):
        calls.append(var)
        return occurs(var, t, b)

    monkeypatch.setattr(engine, "occurs", counted)
    return calls


def test_appending_a_list_walks_no_term(monkeypatch):
    calls = _count_walks(monkeypatch)
    items = ", ".join(str(i) for i in range(1, 31))
    program = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n"
    [sol] = _answers(program, f"app([{items}], [], X)")
    assert len(calls) == 0
    assert sol.bindings["X"] == parse_term_text(f"[{items}]")
    # the counter sees the walks that do run
    assert _answers("", "X = f(Y), Y = g(Z)") != []
    assert len(calls) == 2
