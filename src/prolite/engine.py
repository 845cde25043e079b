"""SLD resolution with chronological backtracking, cut, negation as
failure, exact arithmetic, and the bridge into the FD and rational
constraint stores.

Solutions stream lazily in standard order: clauses top-down, goals left
to right.  Bindings, FD domains and rational rows are all written
through the one trail of `terms.Bindings`.  The trail is rewound only
where an alternative is retried or a goal's effects are thrown away: by
the clause loop, disjunction, between/3, labeling, if-then-else,
negation, non-unification and findall/3.  No other handler rewinds: the
trail is LIFO, so the next choice point to retry pops whatever later
goals wrote.  Cut is a control-flow exception carrying the barrier of
its clause.  It is caught only by the clause loop of `solve_goal` and
by `call/1`, the one other cut scope, through which the top-level
query, if-then-else conditions, negation, findall/3 and variable body
goals run their goals.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .clpfd import REL_OPS, FdStore, fd_label
from .clpr import RStore
from .errors import (BudgetExceeded, BuiltinRedefinition, EvaluationError,
                     ExistenceError, InstantiationError, PlTypeError,
                     TypeMix, ZeroDivisor)
from .reader import comma_flatten, parse_program
from .terms import (NIL, Atom, Bindings, Struct, Var, arg_key, indicator,
                    is_number, list_to_python, make_list, normalize_number,
                    term_vars)

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


def _index_library():
    library = {}
    for clause in parse_program(_LIBRARY_SOURCE).clauses:
        library.setdefault(indicator(clause.head), []).append(clause)
    return MappingProxyType({key: tuple(clauses)
                             for key, clauses in library.items()})


# Parsed once at import and shared read-only by every Database:
# resolution only iterates these clauses and renames each before use.
_LIBRARY = _index_library()


class Database:
    """Predicate index over a consulted program plus the clause library."""

    def __init__(self):
        self.preds = {}
        self.library = _LIBRARY

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
        self.fd = FdStore(self.bindings, self._tick)
        self.r = RStore(self.bindings, self._tick)
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
        store, other = self.bindings.owner_of(a), self.bindings.owner_of(c)
        if store is None:
            self.bindings.bind(a, c)
            return True
        if other is None:
            self.bindings.bind(c, a)
            return True
        if store is not other:
            raise TypeMix(f"{a.name} and {c.name} are in different stores")
        return store.on_alias(a, c)

    def _bind_var_value(self, var, value):
        if self.occurs_check and isinstance(value, Struct):
            from .terms import occurs
            if occurs(var, value, self.bindings):
                return False
        store = self.bindings.owner_of(var)
        if store is None:
            self.bindings.bind(var, value)
            return True
        return store.on_bind_value(var, value)

    # --- resolution ---------------------------------------------------

    def solve_goal(self, goal, barrier):
        self._tick()
        if isinstance(goal, Var):
            goal = self.bindings.deref(goal)
            if isinstance(goal, Var):
                raise InstantiationError("unbound goal")
            # a variable goal G runs as call(G), so a cut in G is local
            yield from _bi_call(self, (goal,), barrier)
            return
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
        # every clause is tried from the bindings as they are now, so the
        # goal's first argument is read once
        first = arg_key(self.bindings.deref(goal.args[0])) \
            if isinstance(goal, Struct) else None
        my_barrier = next(self._barriers)
        m = self.mark()
        try:
            for clause in clauses:
                if first is not None and clause.key is not None \
                        and clause.key != first:
                    continue
                renamed = clause.rename()
                if self.unify(goal, renamed.head):
                    yield from self._solve_conj(renamed.body, 0, my_barrier)
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

    def snapshot(notes=()):
        resolved = {v.name: state.bindings.resolve(v) for v in query_vars}
        loose = frozenset(
            name for name, t in resolved.items()
            if any(state.bindings.owner_of(v) is state.r
                   for v in term_vars(t)))
        return Solution(resolved, notes, loose)

    def answers():
        try:
            for _ in _bi_call(state, (query,), None):
                pending = [
                    v for v in state.fd.constrained_vars()
                    if isinstance(state.bindings.deref(v), Var)]
                if auto_label and pending:
                    for _ in fd_label(state.fd.constrained_vars(),
                                      state.fd, state):
                        yield snapshot(("auto-label fired",))
                else:
                    yield snapshot()
        except RecursionError:
            # proof depth is bounded by the interpreter stack; report it
            # the same way as an exhausted step budget
            raise BudgetExceeded("depth") from None
        finally:
            # the stores hold state._tick; drop it so that a finished
            # query is freed at once instead of by the cycle collector
            state.fd.tick = state.r.tick = None

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
    try:
        value = _apply_arith(t.name, args)
    except (ArithmeticError, ValueError) as exc:
        # float overflow, 0 ^ -1, a math domain error, ...
        raise EvaluationError(
            f"{t.name}/{len(args)}: {type(exc).__name__}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        # float * and / overflow to inf, and inf - inf gives nan, silently
        raise EvaluationError(f"{t.name}/{len(args)}: float result {value}")
    return value


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
            if x < 0:
                raise EvaluationError("sqrt of a negative number")
            root = None if isinstance(x, float) else _exact_root(x, 2)
            return math.sqrt(x) if root is None else normalize_number(root)
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
            return _power(x, y)
        raise PlTypeError(f"unknown arithmetic function {name}/2")
    raise PlTypeError(f"unknown arithmetic function {name}/{len(args)}")


def _power(x, y):
    """x ^ y, exact whenever the result is rational, else a float."""
    if isinstance(y, int) and not isinstance(x, float):
        return normalize_number(x ** y if y >= 0 else Fraction(x) ** y)
    if x < 0 and not float(y).is_integer():
        raise EvaluationError("negative base with a non-integer exponent")
    if isinstance(y, Fraction) and not isinstance(x, float):
        root = _exact_root(x, y.denominator)
        if root is not None:
            return normalize_number(root ** y.numerator)
    return float(x) ** float(y)


def _exact_root(x, n):
    """The n-th root of the rational x >= 0 when it is rational, else
    None."""
    x = Fraction(x)
    num, den = _iroot(x.numerator, n), _iroot(x.denominator, n)
    if num ** n == x.numerator and den ** n == x.denominator:
        return Fraction(num, den)
    return None


def _iroot(a, n):
    """Floor of the n-th root of the integer a >= 0, by Newton's method
    from a power of two above it."""
    if n >= a.bit_length():
        return min(a, 1)
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


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
# the clause the goal appears in.  A handler rewinds the trail only to
# retry an alternative or to throw a goal's effects away, and a goal
# that must not cut the caller's clause runs through _bi_call.

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
    yield from state.solve_goal(args[0], barrier)
    state.undo_to(m)
    yield from state.solve_goal(args[1], barrier)


def _bi_if_then(state, args, barrier):
    return _if_then_else(state, args[0], args[1], Atom("fail"), barrier)


def _if_then_else(state, cond, then, alt, barrier):
    m = state.mark()
    for _ in _bi_call(state, (cond,), barrier):
        yield from state.solve_goal(then, barrier)
        return
    state.undo_to(m)
    yield from state.solve_goal(alt, barrier)


def _bi_not(state, args, barrier):
    m = state.mark()
    proved = any(True for _ in _bi_call(state, args, barrier))
    state.undo_to(m)
    if not proved:
        yield


def _bi_call(state, args, barrier):
    inner = next(state._barriers)
    try:
        yield from state.solve_goal(state.bindings.deref(args[0]), inner)
    except _Cut as cut:
        if cut.barrier != inner:
            raise


def _bi_unify(state, args, barrier):
    if state.unify(args[0], args[1]):
        yield


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
    if state.unify(args[0], eval_arith(args[1], state.bindings)):
        yield


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
    m = state.mark()
    for value in range(lo, hi + 1):
        if state.unify(args[2], value):
            yield
        state.undo_to(m)


def _bi_length(state, args, barrier):
    b = state.bindings
    items = list_to_python(args[0], b)
    if items is not None:
        if state.unify(args[1], len(items)):
            yield
        return
    n = b.deref(args[1])
    if isinstance(n, int) and n >= 0:
        if state.unify(args[0], make_list([Var() for _ in range(n)])):
            yield
        return
    raise InstantiationError("length/2: list and length both unbound")


def _bi_msort(state, args, barrier):
    items = list_to_python(args[0], state.bindings)
    if items is None:
        raise InstantiationError("msort/2 expects a proper list")
    resolved = [state.bindings.resolve(x) for x in items]
    resolved.sort(key=functools.cmp_to_key(compare_terms))
    if state.unify(args[1], make_list(resolved)):
        yield


def _bi_findall(state, args, barrier):
    template, goal, result = args
    m = state.mark()
    collected = [copy_term(template, state.bindings)
                 for _ in _bi_call(state, (goal,), barrier)]
    state.undo_to(m)
    if state.unify(result, make_list(collected)):
        yield


# --- constraint goals -----------------------------------------------

def _rational_route(state, args):
    """True when a #-constraint belongs to the rational solver."""
    stack = list(args)
    while stack:
        t = state.bindings.deref(stack.pop())
        if isinstance(t, Fraction) or isinstance(t, float):
            return True
        if isinstance(t, Var) and state.bindings.owner_of(t) is state.r:
            return True
        if isinstance(t, Struct):
            if t.name in ("/", "rdiv") and len(t.args) == 2:
                return True
            stack.extend(t.args)
    return False


def _fd_relation(op):
    def post(state, args, barrier):
        goal = Struct(op, args)
        store = state.r if _rational_route(state, args) else state.fd
        if store.post(goal):
            yield
    return post


def _bi_braces(state, args, barrier):
    for rel in comma_flatten(state.bindings.deref(args[0])):
        rel = state.bindings.deref(rel)
        if not (isinstance(rel, Struct) and len(rel.args) == 2):
            raise PlTypeError(f"bad brace constraint: {rel!r}")
        if not state.r.post(rel):
            return
    yield


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
    yield from fd_label(variables, state.fd, state, strategy)


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
