"""SLD resolution as one loop over two explicit stacks, with cut,
negation as failure, exact arithmetic, and the bridge into the FD and
rational constraint stores.

The machine (`_run`) proves a query without Python recursion:

- the goal continuation is a linked list of `(goal, barrier, next,
  depth)` tuples, the goals still to prove, each with the height of the
  choice-point stack that a cut in it returns to;
- the choice-point stack holds, per entry, what to retry and the trail
  mark to rewind to first: the remaining clause alternatives of a call,
  an iterator over the answers left of between/3 or a labeled FD
  variable, a ready continuation (the else branch of `;` or `->`, or
  what follows a `\\+`), or the frame of a findall/3 goal.

Proving a goal pops the continuation; failing retries the newest choice
point.  Cut pops choice points back to its barrier's height.  A builtin
is a test; the machine itself runs `,`, `;`, `->`, `\\+`, `call/1`, `!`,
findall/3, between/3, label/1, labeling/2 and variable goals (each a
_Control entry of BUILTINS), so proof depth costs no Python stack, and a
deterministic call leaves no choice point behind (last-call behaviour).

Labeling keeps no search state of its own: label/1 and labeling/2 go
on with a _LABEL marker, which pushes a choice point over
clpfd.fd_label, the values of the next variable, and a marker after
the query's last goal labels the FD variables a proof leaves unbound
(auto-labeling), so the memory bound counts every labeling choice point.

Clauses are templates and are never renamed for a call.  A head is
unified with the goal slot by slot: a clause variable's id is its slot
in a per-call frame, its first occurrence takes the goal's argument as
it is, and only the subterms a goal variable gets bound to are built.
The body is built once per head that unifies, bar its arithmetic and
its linear # goals: a goal is/2 or a comparison is an _ArithGoal,
evaluated from the clause text through the frame when it runs, and a #
relation linear in its clause variables is read into a _LinearPost once,
at consult, and posted as a _PostGoal, which sums that form from the
frame's values or, when one is not an unbound variable or an integer,
builds the goal.  A goal is dispatched by one lookup in
the Database, which maps each indicator to a builtin or to the
predicate's first-argument index (key -> clauses in source order,
clauses with a variable first argument merged in), and a call pushes no
choice point when no later clause can match.

Solutions stream lazily in standard order: clauses top-down, goals left
to right.  One step is charged per goal dispatched; a clause the index
skips, or whose head does not unify, costs nothing.  Bindings, FD
domains and rational rows are all written through the one trail of
`terms.Bindings`, which is rewound only when a choice point is retried
or a goal's effects are thrown away.  The budget bounds steps, wall time
and memory: the trail entries, choice points and pending goals a query
holds at once, so proof depth is an explicit budget; each continuation
entry carries its depth, so the pending goals are counted without a
walk.  SolveState alone decides these limits, and an iterator that a
choice point resumes bounds its own loop: labeling charges a step per
value, and between/3 reads the clock every 1,024 values it tries.

A `#` goal is posted to the FD store only, which reads integers, and a
`{}` goal to the rational store only; neither hands a goal to the other.
Every `#` post, built or compiled, enters through FdStore.post.
An answer is rebuilt in one walk per query variable, which also finds
the variables the rational store owns in it.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction

from .clpfd import REL_OPS, FdStore, fd_label
from .clpr import RStore
from .errors import (BudgetExceeded, BuiltinRedefinition, EvaluationError,
                     ExistenceError, InstantiationError, NonLinearUnsupported,
                     PlTypeError, TypeMix, ZeroDivisor)
from .reader import comma_flatten, parse_program
from .terms import (NIL, Atom, Bindings, Struct, Var, arg_key,
                    indicator, linearize, list_to_python, make_list,
                    normalize_number, occurs, rebuild, term_vars)
from .writer import term_to_text

DEFAULT_MAX_STEPS = 5_000_000
DEFAULT_WALL_TIMEOUT = 10.0
# trail entries, choice points and pending goals a query may hold at
# once, which bounds proof depth, and the longest list findall/3 or
# length/2 builds; SolveState.hold decides it
DEFAULT_MAX_MEMORY = 2 ** 18


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


class _Predicate:
    """First-argument index over the clauses of one predicate, built by
    `consult` and never written after.

    Each clause is kept as (head arguments, body goals), a body goal that
    is a # relation linear in its clause variables as the _LinearPost
    read from it here, once.  by_key maps the key of a first argument
    (terms.arg_key) to the clauses whose first argument has that key or
    is a variable, in source order; a goal whose first argument has a
    key no clause names gets the variable ones, and a goal whose first
    argument is unbound gets all.
    """

    __slots__ = ("clauses", "by_key", "open")

    def __init__(self):
        self.clauses = []
        self.by_key = {}
        self.open = []          # clauses with a variable first argument

    def add(self, clause):
        # one test per goal, inline: most clauses hold no # goal
        head, body = clause.head, clause.body
        if body:
            body = tuple([_linear_post(g) if type(g) is Struct
                          and g.name in REL_OPS else g for g in body])
        if isinstance(head, Struct):
            entry, key = (head.args, body), arg_key(head.args[0])
        else:
            entry, key = ((), body), None
        self.clauses.append(entry)
        if key is None:
            self.open.append(entry)
            for bucket in self.by_key.values():
                bucket.append(entry)
        else:
            self.by_key.setdefault(key, list(self.open)).append(entry)


def _predicates(clauses, reserved):
    """{indicator: _Predicate} of clauses; a clause whose indicator is in
    reserved raises, the first one in source order."""
    preds = {}
    for clause in clauses:
        key = indicator(clause.head)
        pred = preds.get(key)
        if pred is None:
            if key in reserved:
                raise BuiltinRedefinition(
                    f"cannot redefine {key[0]}/{key[1]}")
            pred = preds[key] = _Predicate()
        pred.add(clause)
    return preds


class Database:
    """The call table of a consulted program: one dict from (name, arity)
    to a BUILTINS entry, a library _Predicate or a program _Predicate.

    It is a copy of _BASE, which holds BUILTINS and the library, updated
    with predicates, a dict of the program's own _Predicates.  Nothing
    writes it, or a _Predicate in it, once built: the engine has no
    assert or retract, and runs clauses as templates through per-call
    frames.  So queries on any thread may share one Database."""

    __slots__ = ("table",)

    def __init__(self, predicates):
        self.table = {**_BASE, **predicates}


def consult(program) -> Database:
    """The Database of a parsed Program; directives are ignored.  Raises
    BuiltinRedefinition for the first clause, in source order, that
    defines a builtin or library predicate."""
    return Database(_predicates(program.clauses, _BASE))


@dataclass
class Solution:
    """One answer of solve(): what the query variables are bound to."""
    bindings: dict            # query variable name -> resolved term
    underdetermined: frozenset = frozenset()  # names with rational residue
    steps: int = 0            # inference steps spent up to this answer


class SolveState:
    """Single-owner machine state for one query, and its one meter.

    The stores see steps, limit, tick, checkpoint and check_limits.  A
    charge adds to steps; once steps reaches limit (the next multiple
    of 1,024, or one past the step cap), checkpoint() refuses a count
    past the cap, else reads the clock and memory and returns the next
    limit.  hold(n) alone refuses a size past the memory bound."""

    def __init__(self, db, budget=None):
        self.db = db
        self.budget = budget or Budget()
        self.bindings = Bindings()
        self.fd = FdStore(self.bindings, self)
        self.r = RStore(self.bindings, self)
        self.steps = 0
        self.limit = min(1023, self.budget.max_inference_steps) + 1
        self.deadline = time.monotonic() + self.budget.wall_timeout
        self.choicepoints = []
        self.depth = 0          # goals pending at the step last charged

    def tick(self, n=1):
        self.steps += n
        if self.steps >= self.limit:
            self.checkpoint()

    def checkpoint(self):
        """A no-op below limit, where a nested tick has checked."""
        steps, cap = self.steps, self.budget.max_inference_steps
        if steps >= self.limit:
            if steps > cap:
                raise BudgetExceeded("steps")
            self.check_limits()
            self.limit = min(steps | 1023, cap) + 1
        return self.limit

    def check_limits(self):
        """Wall time and memory; between/3 calls it every 1,024 values."""
        if time.monotonic() > self.deadline:
            raise BudgetExceeded("time")
        self.hold(len(self.bindings.trail) + len(self.choicepoints)
                  + self.depth)

    def hold(self, n):
        if n > DEFAULT_MAX_MEMORY:
            raise BudgetExceeded("memory")

    # --- unification --------------------------------------------------

    def unify(self, t1, t2):
        """Unify t1 with t2, visiting argument pairs right to left, depth
        first; False on a clash or where a variable would occur in its own
        value (occurs check), and bindings made so far stay trailed.

        A pair of compounds is expanded once, as in compare_terms: terms
        may share subterms (X = f(Y, Y) nested n deep is a tree of 2^n
        leaves), and a pair met again was unified the first time.
        """
        deref = self.bindings.deref
        stack = None
        while True:
            a, c = deref(t1), deref(t2)
            if a is not c:
                if type(a) is Var or type(c) is Var:
                    if type(a) is not Var:
                        a, c = c, a
                    if type(c) is Var:
                        if not self._bind_var_var(a, c):
                            return False
                    elif type(c) is Struct and occurs(a, c, self.bindings):
                        return False
                    elif not self._bind_var_value(a, c):
                        return False
                elif type(a) is Struct and type(c) is Struct:
                    if a.name != c.name or len(a.args) != len(c.args):
                        return False
                    if stack is None:
                        stack, met = [], set()
                    if (id(a), id(c)) not in met:
                        met.add((id(a), id(c)))
                        stack.extend(zip(a.args, c.args))
                elif a != c or (type(a) is float) != (type(c) is float):
                    return False
            if not stack:
                return True
            t1, t2 = stack.pop()

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
        """Bind var to a non-variable value checked not to hold var."""
        store = self.bindings.owner_of(var)
        if store is None:
            self.bindings.bind(var, value)
            return True
        return store.on_bind_value(var, value)


# --- clause templates -------------------------------------------------
#
# A clause is used as it was read.  A call unifies the goal with the
# head through a frame {clause variable id: term} and builds the body
# from the frame, so no clause is copied whole.  The walks below recurse
# over the clause's own text, never over runtime terms; past _SHALLOW
# levels of nesting they hand over to walks without recursion.  Both are
# needed: the reader reads a list or a left-nested operator chain of any
# length without recursing, so clause text can nest deeper than the
# Python stack allows, while building and unifying a copy of every head
# through the walks without recursion ran nrev about half as fast.

_SHALLOW = 200


def _match(state, tpl, t, frame, depth=0):
    """Unify head template tpl with goal term t, extending frame.

    A clause variable's first occurrence takes t as it is and later ones
    unify with it; a compound of the head is built only when a goal
    variable gets bound to it.  That binding needs the occurs check only
    when the frame holds values already, since a compound built from an
    empty frame holds fresh variables alone.  Arguments are visited right
    to left and depth first, the order `SolveState.unify` visits them in,
    so that bindings reach the constraint stores (which may propagate,
    charging steps, or fail) in the same order as when unifying a renamed
    copy of the head, and the terms built hold a fresh variable wherever
    such a copy would.
    """
    if type(tpl) is Var:
        seen = frame.get(tpl.id)
        if seen is None:
            frame[tpl.id] = t
            return True
        return state.unify(t, seen)
    bmap = state.bindings.map
    while type(t) is Var:
        bound = bmap.get(t.id)
        if bound is None:
            if type(tpl) is Struct:
                checked = not frame
                tpl = _build_struct(tpl, frame, depth)
                if not checked and occurs(t, tpl, state.bindings):
                    return False
            return state._bind_var_value(t, tpl)
        t = bound
    if type(tpl) is not Struct:
        return type(t) is not Struct and tpl == t \
            and (type(tpl) is float) == (type(t) is float)
    if type(t) is not Struct or t.name != tpl.name \
            or len(t.args) != len(tpl.args):
        return False
    if depth > _SHALLOW:
        return state.unify(t, _build(tpl, frame, depth))
    targs, gargs = tpl.args, t.args
    for i in range(len(targs) - 1, -1, -1):
        if not _match(state, targs[i], gargs[i], frame, depth + 1):
            return False
    return True


def _build(tpl, frame, depth=0):
    """The term tpl stands for under frame; a clause variable not yet in
    frame gets a fresh variable of the same name."""
    if type(tpl) is Var:
        v = frame.get(tpl.id)
        if v is None:
            v = frame[tpl.id] = Var(tpl.name)
        return v
    if type(tpl) is not Struct:
        return tpl
    return _build_struct(tpl, frame, depth)


def _build_struct(tpl, frame, depth):
    if depth > _SHALLOW:
        return rebuild(tpl, None, lambda v: _build(v, frame))
    args = []
    for a in tpl.args:
        kind = type(a)
        if kind is Var:
            v = frame.get(a.id)
            if v is None:
                v = frame[a.id] = Var(a.name)
            args.append(v)
        elif kind is Struct:
            args.append(_build_struct(a, frame, depth + 1))
        else:
            args.append(a)
    # the template's arity is valid, so skip Struct.__init__'s checks
    term = _new(Struct)
    term.name = tpl.name
    term.args = tuple(args)
    return term


_new = object.__new__


# How the machine reads each argument of a control construct (the
# roles of its _Control entry in BUILTINS): as a goal (_GOAL), as a goal
# it dereferences and runs under a barrier of its own (_CALLED), or as
# data (_DATA).
_GOAL, _CALLED, _DATA = range(3)


class _VarGoal:
    """A clause variable in goal position, standing for call/1 of its
    value (ISO's conversion of a clause body) whatever the value is, so
    a cut in it stays local.  As the left branch of `;`, a value C -> T
    makes an if-then-else.  A variable the machine meets in a goal is
    one that the running program put into a term, and it is its value."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term


class _ArithGoal:
    """A body goal is/2 or an arithmetic comparison, run by _arith on the
    clause text through the frame of its call: only the left side of is/2
    is built.  The frame is not trailed, so it gains no computed value."""

    __slots__ = ("name", "left", "right", "frame")

    def __init__(self, tpl, frame):
        (left, self.right), self.name, self.frame = tpl.args, tpl.name, frame
        self.left = _build(left, frame) if tpl.name == "is" else left


class _LinearPost:
    """A clause-body # relation linear in its clause variables, read once
    at consult: slots pairs each clause variable of goal, in order of
    first occurrence, with its coefficient in lhs - rhs, one that sums to
    0 included, since a read still claims its value; k is the constant."""

    __slots__ = ("goal", "slots", "k")

    def __init__(self, goal, slots, k):
        self.goal, self.slots, self.k = goal, slots, k


class _NotLinear(Exception):
    """A # goal the consult-time read leaves to be built."""


def _literal(t):
    """The consult-time read's number hook, and its special hook, since
    no compound is an integer."""
    if type(t) is int:
        return t
    raise _NotLinear


_TEXT = Bindings()      # clause text is read with no variable bound


def _linear_post(goal):
    """goal, a compound named by a # relation, as a _LinearPost when it
    is one that terms.linearize reads over its clause variables with
    integer literals alone and no special compound, else goal itself."""
    if len(goal.args) != 2:
        return goal
    order = []

    def leaf(var):
        order.append(var)
        return var

    try:
        coeffs, k = linearize(Struct("-", goal.args), _TEXT, _literal, leaf,
                              _literal)
    except (_NotLinear, NonLinearUnsupported):
        return goal
    return _LinearPost(goal, tuple((v, coeffs.get(v, 0)) for v in order), k)


class _PostGoal:
    """A _LinearPost under the frame of its call, run by FdStore.post.
    Made, it gives the clause variables not yet in the frame the fresh
    variables _build_struct would give them, in the same order."""

    __slots__ = ("name", "post", "frame")

    def __init__(self, post, frame):
        self.name, self.post, self.frame = post.goal.name, post, frame
        for v, _ in post.slots:
            if v.id not in frame:
                frame[v.id] = Var(v.name)

    def read(self, store):
        """FdStore.post's read: the form summed from the slots' values
        when each is an unbound variable or an integer, else the read of
        the goal built under the frame."""
        frame, bmap = self.frame, store.bindings.map
        post = self.post
        form, k = {}, post.k
        for v, c in post.slots:
            t = frame[v.id]
            while type(t) is Var:
                bound = bmap.get(t.id)
                if bound is None:
                    break
                t = bound
            if type(t) is Var:
                form[t] = form.get(t, 0) + c
            elif type(t) is int:
                k += c * t
            else:
                return store.read(_build_struct(post.goal, frame, 0).args)
        return store.read_sum(form, k)


def _build_goal(tpl, frame, role=_GOAL):
    """Build a body goal, a clause variable in goal position as a
    _VarGoal.  The walk keeps its own stack of (template, role) entries;
    an entry (t, None) means the arguments of control construct t lie
    built on `built`."""
    built = []
    todo = [(tpl, role)]
    while todo:
        t, role = todo.pop()
        kind = type(t)
        if role is None:
            n = len(t.args)
            term = _new(Struct)
            term.name = t.name
            term.args = tuple(built[-n:])
            del built[-n:]
            built.append(term)
        elif kind is Var:
            v = frame.get(t.id)
            if v is None:
                v = frame[t.id] = Var(t.name)
            built.append(_VarGoal(v) if role == _GOAL else v)
        elif kind is not Struct:
            built.append(t)
        else:
            entry = BUILTINS.get((t.name, len(t.args))) \
                if role != _DATA else None
            if type(entry) is not _Control:
                built.append(_build_struct(t, frame, 0))
            else:
                todo.append((t, None))
                args, roles = t.args, entry.roles
                for i in range(len(args) - 1, -1, -1):
                    todo.append((args[i], roles[i]))
    return built[0]


def _resolve_clause(state, args, cands, i, mark):
    """Try cands[i:] against the goal arguments args in order.  Returns
    (index after the clause whose head unifies, its frame, its body), or
    None when none does; a failed head is undone to mark."""
    bindings = state.bindings
    n = len(cands)
    while i < n:
        head, body = cands[i]
        i += 1
        frame = {}
        for j in range(len(head) - 1, -1, -1):
            if not _match(state, head[j], args[j], frame):
                break
        else:
            return i, frame, body
        if len(bindings.trail) > mark:
            bindings.undo_to(mark)
    return None


def _push_body(body, frame, barrier, cont):
    """cont with the goals of body, built under frame, in front: an
    arithmetic goal as an _ArithGoal and a _LinearPost as a _PostGoal,
    both run on the clause text through frame.  A plain Struct goal meets
    no test for a _LinearPost."""
    goals = [(_PostGoal(g, frame) if type(g) is _LinearPost
              else _build_goal(g, frame)) if type(g) is not Struct
             or g.name in _CONTROL_NAMES else _ArithGoal(g, frame)
             if g.name in _ARITH_GOALS and len(g.args) == 2
             else _build_struct(g, frame, 0) for g in body]
    depth = 0 if cont is None else cont[3]
    for goal in reversed(goals):
        depth += 1
        cont = (goal, barrier, cont, depth)
    return cont


def _then(goal, barrier, cont):
    """cont with goal in front."""
    return (goal, barrier, cont, 1 if cont is None else cont[3] + 1)


# --- the machine -------------------------------------------------------

class _Control:
    """A BUILTINS entry the machine runs itself.  run(state, args,
    barrier, cont) returns the continuation to go on with, or _FAIL; it
    may push choice points on state.choicepoints.  roles holds, per
    argument, how _build_goal builds it: _GOAL, _CALLED or _DATA."""

    __slots__ = ("run", "roles")

    def __init__(self, run, roles):
        self.run = run
        self.roles = roles


class _Marker:
    """A goal the machine runs without charging a step.  Most close a
    control construct, and their barrier field holds the height of the
    choice point the construct pushed; _LABEL's holds what it has left
    to label.  _FAIL, the continuation of a goal that failed, is one
    too, though it never sits in an entry."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


_FAIL = _Marker("fail")
_CUT_TO = _Marker("cut-to")            # an if-then-else or \+ goal held
_COLLECT = _Marker("collect")          # the goal of findall/3 has a proof
_LABEL = _Marker("label")              # label the next FD variable
_AUTO_LABEL = _Marker("auto-label")    # the query has a proof

# choice-point kinds; an entry is a list that starts with its kind
_CLAUSES, _REDO, _ELSE, _FINDALL = range(4)


def _run(state, query):
    """Yield once per proof of query, leaving its bindings in place; the
    FD variables a proof leaves unbound are labeled first."""
    bindings = state.bindings
    trail = bindings.trail
    undo_to = bindings.undo_to
    lookup = state.db.table.get
    limit = state.limit
    cps = state.choicepoints
    cont = (query, 0, (_AUTO_LABEL, 0, None, 1), 2)
    while True:
        if cont is None:
            yield
            cont = _FAIL
        if cont is _FAIL:
            # retry the newest choice point that still has an alternative
            while cps:
                cp = cps[-1]
                kind = cp[0]
                if kind == _CLAUSES:
                    _, mark, args, cands, i, nxt = cp
                    undo_to(mark)
                    found = _resolve_clause(state, args, cands, i, mark)
                    if found is None:
                        cps.pop()
                        continue
                    i, frame, body = found
                    barrier = len(cps) - 1
                    if i < len(cands):
                        cp[4] = i
                    else:
                        cps.pop()
                    cont = _push_body(body, frame, barrier, nxt) \
                        if body else nxt
                    break
                if kind == _REDO:
                    if next(cp[1], _FAIL) is _FAIL:
                        cps.pop()
                        continue
                    cont = cp[2]
                    break
                cps.pop()
                undo_to(cp[1])
                if kind == _ELSE:
                    cont = cp[2]    # ready to run
                    break
                # _FINDALL: the goal has no more proofs.  The answers are
                # fresh copies, so an unbound result cannot occur in them.
                result, answers = bindings.deref(cp[4]), make_list(cp[2])
                if type(result) is Var and bindings.owner_of(result) is None:
                    bindings.bind(result, answers)
                elif not state.unify(result, answers):
                    continue
                cont = cp[5]
                break
            else:
                return
            continue

        goal, barrier, nxt, depth = cont
        kind = type(goal)
        if kind is _Marker:
            if goal is _CUT_TO:
                del cps[barrier:]
                cont = nxt
            elif goal is _COLLECT:
                cp = cps[barrier]
                cp[2].append(copy_term(cp[3], bindings))
                state.hold(len(cp[2]))
                cont = _FAIL
            elif goal is _LABEL:
                cont = _label(state, barrier, nxt)
            else:  # _AUTO_LABEL
                pending = state.fd.to_label(state.fd.constrained_vars())
                cont = _then(_LABEL, (pending, 0, False), nxt)
            continue

        steps = state.steps = state.steps + 1
        state.depth = depth
        if steps >= limit:
            limit = state.checkpoint()
        if kind is Struct:
            args = goal.args
            key = (goal.name, len(args))
        elif kind is _ArithGoal:
            cont = nxt if _arith(state, goal.name, goal.left, goal.right,
                                 goal.frame) else _FAIL
            continue
        elif kind is Atom:
            args = ()
            key = (goal.name, 0)
        elif kind is Var or kind is _VarGoal:
            if kind is Var:
                # a variable in a goal term the program built is its value
                goal = bindings.deref(goal)
            else:
                # call/1 of the value, so a cut in it is local
                goal = bindings.deref(goal.term)
                barrier = len(cps)
            if type(goal) is Var:
                raise InstantiationError("unbound goal")
            cont = (goal, barrier, nxt, depth)
            continue
        elif kind is _PostGoal:
            cont = nxt if state.fd.post(goal) else _FAIL
            continue
        else:
            raise PlTypeError(f"goal is not callable: {term_to_text(goal)}")

        entry = lookup(key)
        if type(entry) is _Predicate:
            first = arg_key(bindings.deref(args[0])) if args else None
            cands = entry.clauses if first is None \
                else entry.by_key.get(first, entry.open)
            mark = len(trail)
            found = _resolve_clause(state, args, cands, 0, mark)
            if found is None:
                cont = _FAIL
                continue
            i, frame, body = found
            barrier = len(cps)
            if i < len(cands):
                cps.append([_CLAUSES, mark, args, cands, i, nxt])
            cont = _push_body(body, frame, barrier, nxt) if body else nxt
        elif type(entry) is _Control:
            cont = entry.run(state, args, barrier, nxt)
        elif entry is None:
            raise ExistenceError(*key)
        else:
            cont = nxt if entry(state, args) else _FAIL


def solve(query, db, budget=None):
    """Lazily enumerate solutions of query against db in SLD order.

    Yields one Solution per proof; FD variables in the answer are
    grounded by auto-labeling when the query leaves them non-ground.
    """
    state = SolveState(db, budget)
    query_vars = term_vars(query)
    owner_of = state.bindings.owner_of

    def snapshot():
        # one walk per answer variable rebuilds it and finds the variables
        # the rational store owns in it; a name kept by several variables
        # (_) answers for the last of them
        resolved, loose = {}, set()

        def leaf(var):
            if owner_of(var) is state.r:
                loose.add(name)
            return var

        for v in query_vars:
            name = v.name
            loose.discard(name)
            resolved[name] = rebuild(v, state.bindings, leaf)
        return Solution(resolved, frozenset(loose), state.steps)

    def answers():
        try:
            # the query is converted as a clause body is, and like call/1
            # it is opaque to cut
            goal = _build_goal(query, {v.id: v for v in query_vars},
                               _CALLED)
            for _ in _run(state, goal):
                yield snapshot()
        finally:
            # the stores hold state as their meter, and suspended
            # builtins hold state; drop both so that a finished query is
            # freed at once instead of by the cycle collector
            state.fd.meter = state.r.meter = None
            state.choicepoints.clear()

    return answers()


# --- arithmetic -------------------------------------------------------

# compounds that eval_arith reads by recursion.  The recursion stays
# beside _eval_shared because it is faster on the small expressions
# candidates hold: a one-pass eval_arith on an explicit stack alone took
# 1.6-1.9x as long per compound expression, and read eval-reference
# run_ms_p50 3.5% higher (8 of 8 alternating pairs) and solve-search
# 2.8% higher (6 of 8), on a shared 2-core host.
SMALL_TERM = 64


class _Large(Exception):
    """Raised by _values past SMALL_TERM compounds."""


def eval_arith(expr, b, frame=None):
    """Exact value of the ground arithmetic expression expr read through
    b; with frame, expr is clause text and frame maps its variables.
    Up to SMALL_TERM compounds are evaluated by recursion, a larger term
    by _eval_shared; both go depth first and left to right, so they meet
    the same first error."""
    bmap = b.map
    try:
        return _values((expr,), bmap if frame is None else frame, bmap,
                       [SMALL_TERM])[0]
    except _Large:
        return _eval_shared(expr if frame is None else _build(expr, frame),
                            b)


def _values(args, frame, bmap, budget):
    """The values of the expressions args, by recursion: each is read
    through frame, and a variable's value through the binding map bmap.
    budget[0] counts down the compounds still allowed."""
    values = []
    for a in args:
        f = frame
        if type(a) is Var:
            value = frame.get(a.id)
            while value is not None:
                a = value
                if type(a) is not Var:
                    break
                value = bmap.get(a.id)
            f = bmap
        kind = type(a)
        if kind is int or kind is Fraction or kind is float:
            values.append(a)
        elif kind is Struct:
            budget[0] -= 1
            if budget[0] < 0:
                raise _Large
            values.append(_apply(a.name, _values(a.args, f, bmap, budget)))
        else:
            values.append(_leaf(a))
    return values


def _eval_shared(t, b):
    """Value of t on an explicit stack: an entry (t,) applies t's
    function to the values its arguments left on `values` and records
    the value by t's id, so that a compound the term shares is evaluated
    once."""
    deref = b.deref
    values = []
    stack = [t]
    done = {}           # id of a compound -> its value
    while stack:
        t = deref(stack.pop())
        if type(t) is tuple:
            t = t[0]
            n = len(t.args)
            value = done[id(t)] = _apply(t.name, values[-n:])
            del values[-n:]
            values.append(value)
        elif type(t) is not Struct:
            values.append(_leaf(t))
        elif id(t) in done:
            values.append(done[id(t)])
        else:
            stack.append((t,))
            stack.extend(reversed(t.args))
    return values[0]


def _leaf(t):
    """The value of a term that is not a compound."""
    kind = type(t)
    if kind is int or kind is Fraction or kind is float:
        return t
    if kind is Var:
        raise InstantiationError(f"unbound variable in arithmetic: {t.name}")
    if kind is bool:
        raise PlTypeError("boolean in arithmetic")
    if kind is Atom:
        if t.name == "pi":
            return math.pi
        if t.name == "e":
            return math.e
        raise PlTypeError(f"non-numeric leaf in arithmetic: {t.name}")
    raise PlTypeError(f"bad arithmetic term: {t!r}")


def _apply(name, args):
    """name applied to the values args."""
    function = _FUNCTIONS.get((name, len(args)))
    if function is None:
        raise PlTypeError(f"unknown arithmetic function {name}/{len(args)}")
    try:
        value = function(*args)
    except (ArithmeticError, ValueError) as exc:
        # float overflow, 0 ^ -1, a math domain error, ...
        raise EvaluationError(
            f"{name}/{len(args)}: {type(exc).__name__}: {exc}") from None
    if type(value) is float and not math.isfinite(value):
        # float * and / overflow to inf, and inf - inf gives nan, silently
        raise EvaluationError(f"{name}/{len(args)}: float result {value}")
    return value


def _sqrt(x):
    if x < 0:
        raise EvaluationError("sqrt of a negative number")
    root = None if type(x) is float else _exact_root(x, 2)
    return math.sqrt(x) if root is None else normalize_number(root)


def _divide(x, y):
    if y == 0:
        raise ZeroDivisor("division by zero")
    if type(x) is float or type(y) is float:
        return x / y
    return normalize_number(Fraction(x, y))


def _on_integers(name, op, zero=None):
    """The function op of two integers, as the evaluable functor name."""
    def run(x, y):
        if y == 0:
            raise ZeroDivisor(f"{zero or name} by zero")
        if type(x) is not int or type(y) is not int:
            raise PlTypeError(f"{name} expects integers")
        return op(x, y)
    return run


def _truncate_divide(x, y):
    """x // y rounded toward zero, as ISO's //."""
    q = x // y
    return q + 1 if q < 0 and q * y != x else q


def _power(x, y):
    """x ^ y, exact whenever the result is rational, else a float."""
    if type(y) is int and type(x) is not float:
        return normalize_number(x ** y if y >= 0 else Fraction(x) ** y)
    if x < 0 and not float(y).is_integer():
        raise EvaluationError("negative base with a non-integer exponent")
    if type(y) is Fraction and type(x) is not float:
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
    if n == 2:
        return math.isqrt(a)
    if n >= a.bit_length():
        return min(a, 1)
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _sign(x):
    """-1, 0 or 1, as a float for a float argument (ISO)."""
    sign = (x > 0) - (x < 0)
    return float(sign) if type(x) is float else sign


_FUNCTIONS = {
    ("+", 1): lambda x: x,
    ("-", 1): lambda x: normalize_number(-x),
    ("abs", 1): lambda x: normalize_number(abs(x)),
    ("sqrt", 1): _sqrt,
    ("sign", 1): _sign,
    ("truncate", 1): math.trunc,
    ("float", 1): float,
    ("+", 2): lambda x, y: normalize_number(x + y),
    ("-", 2): lambda x, y: normalize_number(x - y),
    ("*", 2): lambda x, y: normalize_number(x * y),
    ("/", 2): _divide,
    ("rdiv", 2): _divide,
    ("//", 2): _on_integers("//", _truncate_divide, "division"),
    ("mod", 2): _on_integers("mod", operator.mod),  # sign of the divisor
    ("rem", 2): _on_integers(
        "rem", lambda x, y: x - y * _truncate_divide(x, y)),
    ("min", 2): min,
    ("max", 2): max,
    ("^", 2): _power,
    ("**", 2): _power,
}

_COMPARISONS = {"=:=": operator.eq, "=\\=": operator.ne, "<": operator.lt,
                ">": operator.gt, "=<": operator.le, ">=": operator.ge}


# --- standard order of terms ------------------------------------------

# ISO/IEC 13211-1 7.2: Var < Number < Atom < Compound
_ORDER = {Var: 0, int: 1, Fraction: 1, float: 1, Atom: 2, Struct: 3}


def compare_terms(a, c, bindings):
    """Standard order of a and c read through bindings: -1, 0 or 1.

    Variables are ordered by age, numbers by value with a float before
    an equal integer, atoms by name, and compounds by arity, then name,
    then arguments left to right.  The walk goes depth first on its own
    stack and expands a pair of compounds once: terms are acyclic, so a
    pair met again was found equal the first time, and terms that share
    subterms compare in time linear in their size as DAGs.
    """
    deref = bindings.deref
    stack = []
    compared = set()
    while True:
        a, c = deref(a), deref(c)
        if a is not c:
            rank, other = _ORDER[type(a)], _ORDER[type(c)]
            if rank != other:
                return -1 if rank < other else 1
            if rank == 3:
                n = len(a.args)
                if n != len(c.args):
                    return -1 if n < len(c.args) else 1
                if a.name != c.name:
                    return -1 if a.name < c.name else 1
                if (id(a), id(c)) not in compared:
                    compared.add((id(a), id(c)))
                    stack.extend(zip(reversed(a.args), reversed(c.args)))
            elif rank == 1:
                if a != c:
                    return -1 if a < c else 1
                r = (type(c) is float) - (type(a) is float)
                if r:
                    return r
            elif rank == 0:
                return -1 if a.id < c.id else 1
            else:
                return -1 if a.name < c.name else 1
        if not stack:
            return 0
        a, c = stack.pop()


def copy_term(t, b):
    """Resolved copy of t with unbound variables renamed fresh."""
    mapping = {}

    def fresh(v):
        nv = mapping.get(v.id)
        if nv is None:
            nv = mapping[v.id] = Var(v.name)
        return nv

    return rebuild(t, b, fresh)


# --- builtin predicates ----------------------------------------------
#
# A builtin is a test: every entry of BUILTINS but a _Control takes
# (state, args) and returns whether the goal holds, keeping the
# bindings it made, and leaves no choice point.  Only a _Control pushes
# choice points: the control constructs, between/3 and labeling, whose
# answers after the first go through _redo.  A handler rewinds the
# trail only to retry an alternative or to throw a goal's effects away.


def _bi_true(state, args):
    return True


def _bi_fail(state, args):
    return False


def _run_cut(state, args, barrier, cont):
    del state.choicepoints[barrier:]
    return cont


def _run_and(state, args, barrier, cont):
    return _then(args[0], barrier, _then(args[1], barrier, cont))


def _run_or(state, args, barrier, cont):
    left = args[0]
    left = state.bindings.deref(
        left.term if type(left) is _VarGoal else left)
    if isinstance(left, Struct) and left.name == "->" \
            and len(left.args) == 2:
        return _if_then_else(state, left.args[0],
                             _then(left.args[1], barrier, cont),
                             _then(args[1], barrier, cont))
    state.choicepoints.append(
        [_ELSE, state.bindings.mark(), _then(args[1], barrier, cont)])
    return _then(args[0], barrier, cont)


def _run_if_then(state, args, barrier, cont):
    return _if_then_else(state, args[0], _then(args[1], barrier, cont),
                         _then(Atom("fail"), barrier, cont))


def _run_not(state, args, barrier, cont):
    # ISO 8.15.1: \+ G is (call(G) -> fail ; true)
    return _if_then_else(state, args[0], _FAIL, cont)


def _if_then_else(state, cond, then, alt):
    """Run cond as call(Cond) under a choice point that goes on with the
    continuation alt; cond's first proof cuts back below that choice
    point and goes on with the continuation then (the cut's entry counts
    toward the depth as if alt followed it)."""
    cps = state.choicepoints
    height = len(cps)
    cps.append([_ELSE, state.bindings.mark(), alt])
    return _then(state.bindings.deref(cond), height + 1,
                 (_CUT_TO, height, then, 1 if alt is None else alt[3] + 1))


def _run_call(state, args, barrier, cont):
    return _then(state.bindings.deref(args[0]), len(state.choicepoints),
                 cont)


def _run_findall(state, args, barrier, cont):
    template, goal, result = args
    cps = state.choicepoints
    height = len(cps)
    cps.append([_FINDALL, state.bindings.mark(), [], template, result,
                cont])
    # _COLLECT alone follows the goal, since the choice point at height
    # holds cont; it counts toward the depth as if cont followed
    return _then(state.bindings.deref(goal), height + 1,
                 (_COLLECT, height, None, 1 if cont is None else cont[3] + 1))


def _redo(state, answers, cont):
    """cont after the first item of the iterator answers, under a _REDO
    choice point that resumes it on backtracking; _FAIL when it has
    none.  Each item stands for one answer, its bindings in place."""
    for _ in answers:
        state.choicepoints.append([_REDO, answers, cont])
        return cont
    return _FAIL


def _bi_unify(state, args):
    return state.unify(args[0], args[1])


def _bi_not_unify(state, args):
    m = state.bindings.mark()
    ok = state.unify(args[0], args[1])
    state.bindings.undo_to(m)
    return not ok


def _bi_struct_eq(state, args):
    return compare_terms(args[0], args[1], state.bindings) == 0


def _bi_struct_neq(state, args):
    return compare_terms(args[0], args[1], state.bindings) != 0


def _arith(state, name, left, right, frame=None):
    """Whether name(left, right), is/2 or a comparison, holds; with frame,
    its arguments are clause text, except the left side of is/2."""
    b = state.bindings
    test = _COMPARISONS.get(name)
    if test is not None:
        return test(eval_arith(left, b, frame), eval_arith(right, b, frame))
    value = eval_arith(right, b, frame)
    left = b.deref(left)
    if type(left) is Var and left.id not in b.owner:
        b.bind(left, value)
        return True
    return state.unify(left, value)


def _bi_arith(name):
    def run(state, args):
        return _arith(state, name, args[0], args[1])
    return run


def _run_between(state, args, barrier, cont):
    b = state.bindings
    lo, hi = b.deref(args[0]), b.deref(args[1])
    if type(lo) is Var or type(hi) is Var:
        raise InstantiationError("between/3: bounds not instantiated")
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise PlTypeError("between/3 expects integer bounds")
    x = b.deref(args[2])
    if type(x) is not Var:
        if not isinstance(x, int):
            raise PlTypeError(
                f"between/3 expects an integer, got {term_to_text(x)}")
        return cont if lo <= x <= hi else _FAIL
    dom = state.fd.domains.get(x.id)
    if dom is not None:     # only the values of x's domain can unify
        lo, hi = max(lo, dom.lo), min(hi, dom.hi)
    return _redo(state, _between_values(state, lo, hi, x), cont)


def _between_values(state, lo, hi, x):
    """Yield once per value in lo..hi that x unifies with; the values
    charge no step, and every 1,024 tried check the clock and memory."""
    b = state.bindings
    m = b.mark()
    for value in range(lo, hi + 1):
        if not value & 1023:
            state.check_limits()
        if state.unify(x, value):
            yield
        b.undo_to(m)


def _bi_length(state, args):
    b = state.bindings
    items = list_to_python(args[0], b)
    if items is not None:
        return state.unify(args[1], len(items))
    n = b.deref(args[1])
    if isinstance(n, int) and n >= 0:
        state.hold(n)
        fresh = make_list([Var() for _ in range(n)])
        return state.unify(args[0], fresh)
    raise InstantiationError("length/2: list and length both unbound")


def _bi_msort(state, args):
    b = state.bindings
    items = list_to_python(args[0], b)
    if items is None:
        raise InstantiationError("msort/2 expects a proper list")
    items.sort(key=functools.cmp_to_key(
        lambda x, y: compare_terms(x, y, b)))
    return state.unify(args[1], make_list(items))


# --- constraint goals -----------------------------------------------

def _fd_relation(op):
    def post(state, args):
        return state.fd.post(Struct(op, args))
    return post


def _bi_braces(state, args):
    for rel in comma_flatten(state.bindings.deref(args[0])):
        rel = state.bindings.deref(rel)
        if not (isinstance(rel, Struct) and len(rel.args) == 2):
            raise PlTypeError(
                f"bad brace constraint: {term_to_text(rel)}")
        if not state.r.post(rel):
            return False
    return True


def _run_label(state, args, barrier, cont):
    return _run_labeling(state, (NIL, args[0]), barrier, cont)


def _run_labeling(state, args, barrier, cont):
    options, list_term = args
    variables = list_to_python(list_term, state.bindings)
    if variables is None:
        raise InstantiationError("label/1 expects a proper list")
    opts = list_to_python(options, state.bindings)
    if opts is None:
        raise InstantiationError("labeling/2 expects an option list")
    first_fail = False
    for opt in opts:
        if opt == Atom("ff") or opt == Atom("first_fail"):
            first_fail = True
        elif opt == Atom("leftmost"):
            first_fail = False
        else:
            raise PlTypeError(
                f"unknown labeling option {term_to_text(opt)}")
    return _then(_LABEL, (state.fd.to_label(variables), 0, first_fail),
                 cont)


def _label(state, todo, cont):
    """Bind the next variable of todo = (variables, start, first_fail) to
    its first value, under a choice point over the others, and go on
    labeling the rest; with none of two values or more left, bind the
    fixed ones and go on with cont.  Leftmost takes the first such
    variable: those before it are fixed, and stay so under its choice
    point, so the next scan starts at its position and n variables cost
    O(n) scanned entries.  First-fail takes the first smallest domain."""
    variables, start, first_fail = todo
    deref, fd = state.bindings.deref, state.fd
    domains = fd.domains
    var, best = None, math.inf
    for pos in range(start, len(variables)):
        v = deref(variables[pos])
        if type(v) is Var and 1 < domains[v.id].card < best:
            var, best, at = v, domains[v.id].card, pos
            # no domain left to label is smaller than two values
            if not first_fail or best == 2:
                break
    if var is None:
        for v in variables:
            v = deref(v)
            if type(v) is Var:
                fd.on_bind_value(v, domains[v.id].lo)
        return cont
    return _redo(state, fd_label(var, fd), _then(
        _LABEL, (variables, 0 if first_fail else at, first_fail), cont))


BUILTINS = {
    ("true", 0): _bi_true,
    ("fail", 0): _bi_fail,
    ("false", 0): _bi_fail,
    ("!", 0): _Control(_run_cut, ()),
    (",", 2): _Control(_run_and, (_GOAL, _GOAL)),
    (";", 2): _Control(_run_or, (_GOAL, _GOAL)),
    ("->", 2): _Control(_run_if_then, (_CALLED, _GOAL)),
    ("\\+", 1): _Control(_run_not, (_CALLED,)),
    ("call", 1): _Control(_run_call, (_CALLED,)),
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): _bi_struct_eq,
    ("\\==", 2): _bi_struct_neq,
    **{(name, 2): _bi_arith(name) for name in ("is", *_COMPARISONS)},
    ("between", 3): _Control(_run_between, (_DATA, _DATA, _DATA)),
    ("length", 2): _bi_length,
    ("msort", 2): _bi_msort,
    ("findall", 3): _Control(_run_findall, (_DATA, _CALLED, _DATA)),
    ("{}", 1): _bi_braces,
    ("label", 1): _Control(_run_label, (_DATA,)),
    ("labeling", 2): _Control(_run_labeling, (_DATA, _DATA)),
    **{(op, 2): _fd_relation(op) for op in REL_OPS},
}

# names of the control constructs with arguments; _push_body builds a
# body goal with one of them through _build_goal
_CONTROL_NAMES = frozenset(name for (name, _), entry in BUILTINS.items()
                           if type(entry) is _Control and entry.roles)
_ARITH_GOALS = frozenset(("is", *_COMPARISONS))   # run as _ArithGoal

# BUILTINS and the library, parsed and indexed once at import; every
# Database is a copy of this dict, so all share the library _Predicates
_BASE = {**BUILTINS,
         **_predicates(parse_program(_LIBRARY_SOURCE).clauses, BUILTINS)}
