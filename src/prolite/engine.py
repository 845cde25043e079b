"""SLD resolution with chronological backtracking, cut, negation as
failure, exact arithmetic, and the bridge into the FD and rational
constraint stores.

Solutions stream lazily in standard order: clauses top-down, goals left
to right.  Cut is implemented with per-call barriers carried by a
control-flow exception.  Bindings, FD domains and rational rows are all
written through the one trail of `terms.Bindings`; every choice point
rewinds it to its mark through try/finally, so an exhausted query leaves
the state exactly as it found it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .clpfd import REL_OPS, FdStore, fd_label
from .clpr import RStore
from .errors import (BudgetExceeded, BuiltinRedefinition, ExistenceError,
                     InstantiationError, PlTypeError, ZeroDivisor)
from .reader import comma_flatten, parse_program
from .terms import (NIL, Atom, Bindings, Struct, Var, indicator, is_number,
                    list_to_python, make_list, normalize_number, term_vars)

DEFAULT_MAX_STEPS = 5_000_000
DEFAULT_WALL_TIMEOUT = 10.0


@dataclass(frozen=True)
class Budget:
    max_inference_steps: int = DEFAULT_MAX_STEPS
    wall_timeout: float = DEFAULT_WALL_TIMEOUT

    def __post_init__(self):
        if self.max_inference_steps <= 0 or self.wall_timeout <= 0:
            raise ValueError("budget limits must be positive")


_LIBRARY_SOURCE = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).

nth0(I, L, E) :- pl_nth_(L, 0, I, E).
nth1(I, L, E) :- pl_nth_(L, 1, I, E).
pl_nth_([H|_], N, N, H).
pl_nth_([_|T], N0, N, H) :- N1 is N0 + 1, pl_nth_(T, N1, N, H).

forall(C, G) :- \\+ ((C, \\+ G)).

all_different([]).
all_different([X|T]) :- pl_neq_all_(T, X), all_different(T).
pl_neq_all_([], _).
pl_neq_all_([Y|T], X) :- X #\\= Y, pl_neq_all_(T, X).
"""

class Database:
    """Predicate index over a consulted program plus the clause library."""

    def __init__(self):
        self.preds = {}
        self.library = {}
        self._load_library()

    def _load_library(self):
        for clause in parse_program(_LIBRARY_SOURCE).clauses:
            self.library.setdefault(indicator(clause.head), []).append(clause)

    def add_clause(self, clause):
        key = indicator(clause.head)
        if key in BUILTINS or key in self.library:
            raise BuiltinRedefinition(f"cannot redefine {key[0]}/{key[1]}")
        self.preds.setdefault(key, []).append(clause)

    def lookup(self, key):
        if key in self.preds:
            return self.preds[key]
        if key in self.library:
            return self.library[key]
        return None


def consult(program) -> Database:
    """Index a parsed Program; directives are ignored."""
    db = Database()
    for clause in program.clauses:
        db.add_clause(clause)
    return db


class _Cut(Exception):
    def __init__(self, barrier):
        self.barrier = barrier


@dataclass
class Solution:
    bindings: dict            # query variable name -> resolved term
    notes: tuple = ()
    underdetermined: frozenset = frozenset()  # names with rational residue


class SolveState:
    """Single-owner machine state for one query."""

    def __init__(self, db, budget=None, occurs_check=False):
        self.db = db
        self.budget = budget or Budget()
        self.occurs_check = occurs_check
        self.bindings = Bindings()
        self.fd = FdStore(self.bindings)
        self.r = RStore(self.bindings, self.fd.is_fd_var)
        self.steps = 0
        self.deadline = None
        self._barriers = itertools.count()

    # --- state stack --------------------------------------------------

    def mark(self):
        return len(self.bindings.trail)

    def undo_to(self, mark):
        self.bindings.undo_to(mark)

    def _tick(self):
        self.steps += 1
        if self.steps > self.budget.max_inference_steps:
            raise BudgetExceeded("steps")
        if self.steps % 1024 == 0 and self.deadline is not None \
                and time.monotonic() > self.deadline:
            raise BudgetExceeded("time")

    # --- unification --------------------------------------------------

    def unify(self, t1, t2):
        b = self.bindings
        stack = [(t1, t2)]
        while stack:
            a, c = stack.pop()
            a, c = b.deref(a), b.deref(c)
            if a is c:
                continue
            if isinstance(a, Var) or isinstance(c, Var):
                if not isinstance(a, Var):
                    a, c = c, a
                if isinstance(c, Var):
                    if not self._bind_var_var(a, c):
                        return False
                    continue
                if not self._bind_var_value(a, c):
                    return False
                continue
            if isinstance(a, Struct) and isinstance(c, Struct):
                if a.name != c.name or len(a.args) != len(c.args):
                    return False
                stack.extend(zip(a.args, c.args))
                continue
            if is_number(a) and is_number(c):
                if a != c or isinstance(a, float) != isinstance(c, float):
                    return False
                continue
            if a != c:
                return False
        return True

    def _bind_var_var(self, a, c):
        a_fd, c_fd = self.fd.is_fd_var(a), self.fd.is_fd_var(c)
        a_r, c_r = a.id in self.r.varobj, c.id in self.r.varobj
        if a_fd and c_fd:
            self.bindings.bind(a, c)
            return self.fd.on_alias(a, c)
        if a_fd or c_fd:
            if a_fd:
                a, c = c, a  # bind the plain var to the FD var
            self.bindings.bind(a, c)
            return True
        if a_r and c_r:
            return self.r.post(Struct("=", (a, c)))
        if a_r or c_r:
            if a_r:
                a, c = c, a
            self.bindings.bind(a, c)
            return True
        self.bindings.bind(a, c)
        return True

    def _bind_var_value(self, var, value):
        if self.occurs_check and isinstance(value, Struct):
            from .terms import occurs
            if occurs(var, value, self.bindings):
                return False
        if self.fd.is_fd_var(var):
            self.bindings.bind(var, value)
            return self.fd.on_bind_value(var, value)
        if var.id in self.r.varobj:
            if not is_number(value):
                return False
            return self.r.post(Struct("=", (var, value)))
        self.bindings.bind(var, value)
        return True

    # --- resolution ---------------------------------------------------

    def solve_goal(self, goal, barrier):
        self._tick()
        goal = self.bindings.deref(goal)
        if isinstance(goal, Var):
            raise InstantiationError("unbound goal")
        if not isinstance(goal, (Atom, Struct)):
            raise PlTypeError(f"goal is not callable: {goal!r}")
        key = indicator(goal)
        builtin = BUILTINS.get(key)
        if builtin is not None:
            args = goal.args if isinstance(goal, Struct) else ()
            yield from builtin(self, args, barrier)
            return

        clauses = self.db.lookup(key)
        if clauses is None:
            raise ExistenceError(*key)
        my_barrier = next(self._barriers)
        try:
            for clause in clauses:
                renamed = clause.rename()
                m = self.mark()
                try:
                    if self.unify(goal, renamed.head):
                        yield from self._solve_conj(renamed.body, 0, my_barrier)
                finally:
                    self.undo_to(m)
        except _Cut as cut:
            if cut.barrier != my_barrier:
                raise

    def _solve_conj(self, goals, i, barrier):
        if i >= len(goals):
            yield
            return
        for _ in self.solve_goal(goals[i], barrier):
            yield from self._solve_conj(goals, i + 1, barrier)


def solve(query, db, budget=None, occurs_check=False, auto_label=True):
    """Lazily enumerate solutions of query against db in SLD order.

    Yields one Solution per proof; FD variables in the answer are
    grounded by auto-labeling when the query leaves them non-ground.
    """
    import sys
    if sys.getrecursionlimit() < 8_000:
        sys.setrecursionlimit(8_000)  # conjunction depth tracks proof depth
    state = SolveState(db, budget, occurs_check)
    state.deadline = time.monotonic() + state.budget.wall_timeout
    query_vars = term_vars(query)
    barrier = next(state._barriers)

    def snapshot(notes=()):
        resolved = {v.name: state.bindings.resolve(v) for v in query_vars}
        loose = frozenset(
            name for name, t in resolved.items()
            if any(v.id in state.r.varobj for v in term_vars(t)))
        return Solution(resolved, notes, loose)

    def answers():
        try:
            for _ in state.solve_goal(query, barrier):
                pending = [
                    v for v in state.fd.constrained_vars()
                    if isinstance(state.bindings.deref(v), Var)]
                if auto_label and pending:
                    m = state.mark()
                    try:
                        for _ in fd_label(state.fd.constrained_vars(),
                                          state.fd, state):
                            yield snapshot(("auto-label fired",))
                    finally:
                        state.undo_to(m)
                else:
                    yield snapshot()
        except _Cut as cut:
            if cut.barrier != barrier:
                raise
        except RecursionError:
            # proof depth is bounded by the interpreter stack; report it
            # the same way as an exhausted step budget
            raise BudgetExceeded("depth") from None

    return answers()


def solve_first(query, db, budget=None):
    """First solution or None; notes whether further solutions exist."""
    gen = solve(query, db, budget)
    first = next(gen, None)
    if first is None:
        return None, False
    more = next(gen, None) is not None
    gen.close()
    return first, more


# --- arithmetic -------------------------------------------------------

def eval_arith(expr, b):
    """Exact evaluation of a ground arithmetic expression."""
    t = b.deref(expr) if b is not None else expr
    if isinstance(t, Var):
        raise InstantiationError(f"unbound variable in arithmetic: {t.name}")
    if isinstance(t, bool):
        raise PlTypeError("boolean in arithmetic")
    if isinstance(t, (int, Fraction, float)):
        return t
    if isinstance(t, Atom):
        if t.name == "pi":
            return math.pi
        if t.name == "e":
            return math.e
        raise PlTypeError(f"non-numeric leaf in arithmetic: {t.name}")
    if not isinstance(t, Struct):
        raise PlTypeError(f"bad arithmetic term: {t!r}")
    args = [eval_arith(a, b) for a in t.args]
    return _apply_arith(t.name, args)


def _apply_arith(name, args):
    if len(args) == 1:
        (x,) = args
        if name == "-":
            return normalize_number(-x)
        if name == "+":
            return x
        if name == "abs":
            return normalize_number(abs(x))
        if name == "sqrt":
            return _exact_sqrt(x)
        if name == "sign":
            return (x > 0) - (x < 0)
        if name == "truncate":
            return math.trunc(x)
        if name == "float":
            return float(x)
        raise PlTypeError(f"unknown arithmetic function {name}/1")
    if len(args) == 2:
        x, y = args
        if name == "+":
            return normalize_number(x + y)
        if name == "-":
            return normalize_number(x - y)
        if name == "*":
            return normalize_number(x * y)
        if name in ("/", "rdiv"):
            if y == 0:
                raise ZeroDivisor("division by zero")
            if isinstance(x, float) or isinstance(y, float):
                return x / y
            return normalize_number(Fraction(x) / Fraction(y))
        if name == "//":
            if y == 0:
                raise ZeroDivisor("division by zero")
            return math.floor(Fraction(x) / Fraction(y)) \
                if not (isinstance(x, float) or isinstance(y, float)) \
                else math.floor(x / y)
        if name == "mod":
            if y == 0:
                raise ZeroDivisor("mod by zero")
            if isinstance(x, int) and isinstance(y, int):
                return x % y  # result sign follows the divisor
            raise PlTypeError("mod expects integers")
        if name == "rem":
            if y == 0:
                raise ZeroDivisor("rem by zero")
            if isinstance(x, int) and isinstance(y, int):
                return x - y * math.trunc(Fraction(x, y))
            raise PlTypeError("rem expects integers")
        if name == "min":
            return min(x, y)
        if name == "max":
            return max(x, y)
        if name == "^" or name == "**":
            if isinstance(y, int) and y >= 0:
                return normalize_number(x ** y)
            return float(x) ** float(y)
        raise PlTypeError(f"unknown arithmetic function {name}/2")
    raise PlTypeError(f"unknown arithmetic function {name}/{len(args)}")


def _exact_sqrt(x):
    """Integer/rational square root when exact, else a float."""
    if isinstance(x, float):
        return math.sqrt(x)
    if x < 0:
        raise PlTypeError("sqrt of a negative number")
    frac = Fraction(x)
    rn = math.isqrt(frac.numerator)
    rd = math.isqrt(frac.denominator)
    if rn * rn == frac.numerator and rd * rd == frac.denominator:
        return normalize_number(Fraction(rn, rd))
    return math.sqrt(x)


# --- term ordering (for msort) ---------------------------------------

def _type_rank(t):
    if isinstance(t, Var):
        return 0
    if is_number(t):
        return 1
    if isinstance(t, Atom):
        return 2
    return 3


def compare_terms(a, c):
    ra, rc = _type_rank(a), _type_rank(c)
    if ra != rc:
        return -1 if ra < rc else 1
    if ra == 0:
        return (a.id > c.id) - (a.id < c.id)
    if ra == 1:
        return (a > c) - (a < c)
    if ra == 2:
        return (a.name > c.name) - (a.name < c.name)
    if len(a.args) != len(c.args):
        return -1 if len(a.args) < len(c.args) else 1
    if a.name != c.name:
        return -1 if a.name < c.name else 1
    for x, y in zip(a.args, c.args):
        r = compare_terms(x, y)
        if r != 0:
            return r
    return 0


def copy_term(t, b, mapping=None):
    """Resolved copy of t with unbound variables renamed fresh."""
    if mapping is None:
        mapping = {}
    t = b.deref(t)
    if isinstance(t, Var):
        nv = mapping.get(t.id)
        if nv is None:
            nv = Var(t.name)
            mapping[t.id] = nv
        return nv
    if isinstance(t, Struct):
        return Struct(t.name, tuple(copy_term(a, b, mapping) for a in t.args))
    return t


# --- builtin predicates ----------------------------------------------
#
# Every entry of BUILTINS takes (state, args, barrier) and returns an
# iterator that yields once per solution; barrier is the cut barrier of
# the clause the goal appears in.

def _bi_true(state, args, barrier):
    yield


def _bi_fail(state, args, barrier):
    return ()


def _bi_cut(state, args, barrier):
    yield
    raise _Cut(barrier)


def _bi_and(state, args, barrier):
    for _ in state.solve_goal(args[0], barrier):
        yield from state.solve_goal(args[1], barrier)


def _bi_or(state, args, barrier):
    left = state.bindings.deref(args[0])
    if isinstance(left, Struct) and left.name == "->" \
            and len(left.args) == 2:
        yield from _if_then_else(state, left.args[0], left.args[1], args[1],
                                 barrier)
        return
    m = state.mark()
    try:
        yield from state.solve_goal(args[0], barrier)
    finally:
        state.undo_to(m)
    yield from state.solve_goal(args[1], barrier)


def _bi_if_then(state, args, barrier):
    return _if_then_else(state, args[0], args[1], Atom("fail"), barrier)


def _if_then_else(state, cond, then, alt, barrier):
    m = state.mark()
    try:
        for _ in state.solve_goal(cond, next(state._barriers)):
            yield from state.solve_goal(then, barrier)
            break
        else:
            state.undo_to(m)
            yield from state.solve_goal(alt, barrier)
    finally:
        state.undo_to(m)


def _bi_not(state, args, barrier):
    m = state.mark()
    found = False
    for _ in state.solve_goal(args[0], next(state._barriers)):
        found = True
        break
    state.undo_to(m)
    if not found:
        yield


def _bi_call(state, args, barrier):
    inner = next(state._barriers)
    try:
        yield from state.solve_goal(args[0], inner)
    except _Cut as cut:
        if cut.barrier != inner:
            raise


def _bi_unify(state, args, barrier):
    m = state.mark()
    try:
        if state.unify(args[0], args[1]):
            yield
    finally:
        state.undo_to(m)


def _bi_not_unify(state, args, barrier):
    m = state.mark()
    ok = state.unify(args[0], args[1])
    state.undo_to(m)
    if not ok:
        yield


def _structurally_equal(state, t1, t2):
    b = state.bindings
    t1, t2 = b.deref(t1), b.deref(t2)
    if isinstance(t1, Var) or isinstance(t2, Var):
        return isinstance(t1, Var) and isinstance(t2, Var) and t1.id == t2.id
    if isinstance(t1, Struct) and isinstance(t2, Struct):
        return (t1.name == t2.name and len(t1.args) == len(t2.args)
                and all(_structurally_equal(state, a, c)
                        for a, c in zip(t1.args, t2.args)))
    return type(t1) is type(t2) and t1 == t2


def _bi_struct_eq(state, args, barrier):
    if _structurally_equal(state, args[0], args[1]):
        yield


def _bi_struct_neq(state, args, barrier):
    if not _structurally_equal(state, args[0], args[1]):
        yield


def _bi_is(state, args, barrier):
    value = eval_arith(args[1], state.bindings)
    m = state.mark()
    try:
        if state.unify(args[0], value):
            yield
    finally:
        state.undo_to(m)


def _arith_compare(op):
    def run(state, args, barrier):
        x = eval_arith(args[0], state.bindings)
        y = eval_arith(args[1], state.bindings)
        if op(x, y):
            yield
    return run


def _bi_between(state, args, barrier):
    lo = eval_arith(args[0], state.bindings)
    hi = eval_arith(args[1], state.bindings)
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise PlTypeError("between/3 expects integer bounds")
    x = state.bindings.deref(args[2])
    if isinstance(x, int):
        if lo <= x <= hi:
            yield
        return
    for value in range(lo, hi + 1):
        m = state.mark()
        try:
            if state.unify(args[2], value):
                yield
        finally:
            state.undo_to(m)


def _bi_length(state, args, barrier):
    b = state.bindings
    items = list_to_python(args[0], b)
    if items is not None:
        m = state.mark()
        try:
            if state.unify(args[1], len(items)):
                yield
        finally:
            state.undo_to(m)
        return
    n = b.deref(args[1])
    if isinstance(n, int) and n >= 0:
        fresh = make_list([Var() for _ in range(n)])
        m = state.mark()
        try:
            if state.unify(args[0], fresh):
                yield
        finally:
            state.undo_to(m)
        return
    raise InstantiationError("length/2: list and length both unbound")


def _bi_msort(state, args, barrier):
    items = list_to_python(args[0], state.bindings)
    if items is None:
        raise InstantiationError("msort/2 expects a proper list")
    resolved = [state.bindings.resolve(x) for x in items]
    resolved.sort(key=functools.cmp_to_key(compare_terms))
    m = state.mark()
    try:
        if state.unify(args[1], make_list(resolved)):
            yield
    finally:
        state.undo_to(m)


def _bi_findall(state, args, barrier):
    template, goal, result = args
    collected = []
    m = state.mark()
    inner = next(state._barriers)
    try:
        for _ in state.solve_goal(goal, inner):
            collected.append(copy_term(template, state.bindings))
    except _Cut as cut:
        if cut.barrier != inner:
            raise
    state.undo_to(m)
    m = state.mark()
    try:
        if state.unify(result, make_list(collected)):
            yield
    finally:
        state.undo_to(m)


# --- constraint goals -----------------------------------------------

def _rational_route(state, args):
    """True when a #-constraint belongs to the rational solver."""
    stack = list(args)
    while stack:
        t = state.bindings.deref(stack.pop())
        if isinstance(t, Fraction) or isinstance(t, float):
            return True
        if isinstance(t, Var) and t.id in state.r.varobj:
            return True
        if isinstance(t, Struct):
            if t.name in ("/", "rdiv") and len(t.args) == 2:
                return True
            stack.extend(t.args)
    return False


def _fd_relation(op):
    def post(state, args, barrier):
        goal = Struct(op, args)
        m = state.mark()
        try:
            if _rational_route(state, args):
                ok = state.r.post(goal)
            else:
                ok = state.fd.post(goal)
            if ok:
                yield
        finally:
            state.undo_to(m)
    return post


def _bi_braces(state, args, barrier):
    m = state.mark()
    try:
        for rel in comma_flatten(state.bindings.deref(args[0])):
            rel = state.bindings.deref(rel)
            if not (isinstance(rel, Struct) and len(rel.args) == 2):
                raise PlTypeError(f"bad brace constraint: {rel!r}")
            if not state.r.post(rel):
                return
        yield
    finally:
        state.undo_to(m)


def _bi_label(state, args, barrier):
    return _bi_labeling(state, (NIL, args[0]), barrier)


def _bi_labeling(state, args, barrier):
    options, list_term = args
    variables = list_to_python(list_term, state.bindings)
    if variables is None:
        raise InstantiationError("label/1 expects a proper list")
    opts = list_to_python(options, state.bindings)
    if opts is None:
        raise InstantiationError("labeling/2 expects an option list")
    strategy = "leftmost"
    for opt in opts:
        if opt == Atom("ff") or opt == Atom("first_fail"):
            strategy = "first_fail"
        elif opt == Atom("leftmost"):
            strategy = "leftmost"
        else:
            raise PlTypeError(f"unknown labeling option {opt!r}")
    m = state.mark()
    try:
        for v in variables:
            if isinstance(state.bindings.deref(v), Var):
                state.fd.ensure_var(v)
        yield from fd_label(variables, state.fd, state, strategy)
    finally:
        state.undo_to(m)


BUILTINS = {
    ("true", 0): _bi_true,
    ("fail", 0): _bi_fail,
    ("false", 0): _bi_fail,
    ("!", 0): _bi_cut,
    (",", 2): _bi_and,
    (";", 2): _bi_or,
    ("->", 2): _bi_if_then,
    ("\\+", 1): _bi_not,
    ("call", 1): _bi_call,
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): _bi_struct_eq,
    ("\\==", 2): _bi_struct_neq,
    ("is", 2): _bi_is,
    ("=:=", 2): _arith_compare(lambda x, y: x == y),
    ("=\\=", 2): _arith_compare(lambda x, y: x != y),
    ("<", 2): _arith_compare(lambda x, y: x < y),
    (">", 2): _arith_compare(lambda x, y: x > y),
    ("=<", 2): _arith_compare(lambda x, y: x <= y),
    (">=", 2): _arith_compare(lambda x, y: x >= y),
    ("between", 3): _bi_between,
    ("length", 2): _bi_length,
    ("msort", 2): _bi_msort,
    ("findall", 3): _bi_findall,
    ("{}", 1): _bi_braces,
    ("label", 1): _bi_label,
    ("labeling", 2): _bi_labeling,
    **{(op, 2): _fd_relation(op) for op in REL_OPS},
}
