"""Term universe: variables, interned atoms, exact numbers, compounds, lists.

Numbers are plain Python ints and fractions.Fraction (always canonical, the
denominator positive).  Floats exist only at the answer-reporting boundary;
they never enter unification through the reader.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NonLinearUnsupported, TypeMix


class Var:
    """A logic variable identified by a unique slot id."""

    __slots__ = ("id", "name")
    _counter = itertools.count()

    def __init__(self, name=None):
        self.id = next(Var._counter)
        self.name = name or f"_G{self.id}"

    def __repr__(self):
        return f"Var({self.name}#{self.id})"


class Atom:
    """Interned symbol; equal atoms are the same object."""

    __slots__ = ("name",)
    _table: dict = {}

    def __new__(cls, name):
        atom = cls._table.get(name)
        if atom is None:
            atom = object.__new__(cls)
            atom.name = name
            cls._table[name] = atom
        return atom

    def __repr__(self):
        return f"Atom({self.name})"

    def __reduce__(self):
        return (Atom, (self.name,))


class Struct:
    """Compound term: functor name plus at least one argument."""

    __slots__ = ("name", "args")

    def __init__(self, name, args):
        args = tuple(args)
        if not args:
            raise ValueError("zero-arity compound; use Atom")
        self.name = name
        self.args = args

    def __eq__(self, other):
        return (
            isinstance(other, Struct)
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.name, self.args))

    def __repr__(self):
        return f"Struct({self.name}, {list(self.args)})"


NIL = Atom("[]")


def is_number(t):
    return type(t) in (int, Fraction, float)


def normalize_number(value):
    """Collapse integral Fractions to int; leave everything else alone."""
    if type(value) is Fraction and value.denominator == 1:
        return int(value)
    return value


def make_list(items, tail=NIL):
    term = tail
    for item in reversed(list(items)):
        term = Struct(".", (item, term))
    return term


def list_to_python(t, b=None):
    """Walk a proper list into a Python list; returns None when improper."""
    items = []
    while True:
        if b is not None:
            t = b.deref(t)
        if t is NIL:
            return items
        if not (isinstance(t, Struct) and t.name == "." and len(t.args) == 2):
            return None
        items.append(b.deref(t.args[0]) if b is not None else t.args[0])
        t = t.args[1]


_ABSENT = object()  # trailed as the old value of a key that set() created


class Bindings:
    """Variable-id -> term map, the owner table, and the one trail of a
    query.

    Every undoable write of a query goes through bind (a variable) or set
    (a key of a dict that a constraint store owns), and undo_to rewinds
    both in reverse order.  The values written are never mutated in place
    afterwards, so restoring the old value restores the old state.

    A variable belongs to at most one constraint store: owner maps its id
    to (store, var), written only by claim.  Unification hands a binding
    of an owned variable to its store, and aliasing variables of two
    stores is a TypeMix error.
    """

    __slots__ = ("map", "trail", "owner")

    def __init__(self):
        self.map = {}
        self.trail = []     # var id | (dict, key, old value or _ABSENT)
        self.owner = {}     # var id -> (store, var), in claiming order

    def mark(self):
        return len(self.trail)

    def undo_to(self, mark):
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is int:
                del self.map[entry]
                continue
            d, key, old = entry
            if old is _ABSENT:
                del d[key]
            else:
                d[key] = old

    def bind(self, var, term):
        self.map[var.id] = term
        self.trail.append(var.id)

    def set(self, d, key, value):
        """d[key] = value, undone by undo_to."""
        self.trail.append((d, key, d.get(key, _ABSENT)))
        d[key] = value

    def claim(self, var, store):
        """Make store the owner of var; TypeMix if another store owns it."""
        held = self.owner.get(var.id)
        if held is None:
            self.set(self.owner, var.id, (store, var))
        elif held[0] is not store:
            raise TypeMix(f"{var.name} is constrained by another store")

    def owner_of(self, var):
        """The store that owns var, or None."""
        held = self.owner.get(var.id)
        return None if held is None else held[0]

    def deref(self, t):
        """Follow the binding chain of t; only the root is resolved."""
        while type(t) is Var:
            bound = self.map.get(t.id)
            if bound is None:
                return t
            t = bound
        return t


def rebuild(t, bindings=None, leaf=None):
    """Copy of t read through bindings (when given), with each unbound
    variable v replaced by leaf(v) (when given).

    Compounds are rebuilt bottom-up on an explicit stack, so the depth
    of t costs no Python recursion; leaf sees the variables left to
    right, in order of first occurrence.  A compound met again is
    copied once and the copy shared, so a term whose subterms are shared
    (a DAG, such as X = f(Y, Y) nested) costs time in its size as a DAG,
    not as the tree it stands for.
    """
    out = []
    stack = [t]
    copies = {}         # id of a compound -> its copy
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            # (compound,): its arguments are the last len(args) of out
            t = t[0]
            n = len(t.args)
            args = out[-n:]
            del out[-n:]
            copy = copies[id(t)] = Struct(t.name, args)
            out.append(copy)
            continue
        if bindings is not None and type(t) is Var:
            t = bindings.deref(t)
        if type(t) is Struct and id(t) in copies:
            out.append(copies[id(t)])
        elif type(t) is Struct:
            stack.append((t,))
            stack.extend(reversed(t.args))
        elif leaf is not None and type(t) is Var:
            out.append(leaf(t))
        else:
            out.append(t)
    return out[0]


def occurs(var, t, b):
    """True iff var occurs in t read through b.  Each compound is walked
    once, so a shared subterm costs its size once."""
    stack = [t]
    walked = set()
    while stack:
        t = b.deref(stack.pop())
        if type(t) is Struct and id(t) not in walked:
            walked.add(id(t))
            stack.extend(t.args)
        elif t is var:
            return True
    return False


def term_vars(t):
    """All variables in t, in left-to-right first-occurrence order."""
    found = {}          # var id -> var, in order of first occurrence
    walked = set()      # ids of compounds, so a shared subterm is walked once
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            found.setdefault(t.id, t)
        elif isinstance(t, Struct) and id(t) not in walked:
            walked.add(id(t))
            stack.extend(reversed(t.args))
    return list(found.values())


def arg_key(t):
    """The part of a non-variable term that decides whether another can
    unify with it: a compound's (name, arity), a float wrapped so that
    1.0 never equals 1, or an atom or exact number itself; None for a
    variable.  Two terms whose keys are both not None unify only if the
    keys are equal."""
    if isinstance(t, Struct):
        return (t.name, len(t.args))
    if isinstance(t, Var):
        return None
    if isinstance(t, float):
        return (t,)
    return t


class Clause:
    """head :- body, with body a flat list of goals (empty list = fact)."""

    __slots__ = ("head", "body")

    def __init__(self, head, body=()):
        if isinstance(head, Var):
            raise ValueError("clause head cannot be a variable")
        self.head = head
        self.body = tuple(body)

    def rename(self):
        """Fresh variable copy for one resolution use."""
        mapping = {}

        def cp(t):
            if isinstance(t, Var):
                nv = mapping.get(t.id)
                if nv is None:
                    nv = Var(t.name)
                    mapping[t.id] = nv
                return nv
            if isinstance(t, Struct):
                return Struct(t.name, tuple(cp(a) for a in t.args))
            return t

        return Clause(cp(self.head), tuple(cp(g) for g in self.body))

    def __repr__(self):
        return f"Clause({self.head!r} :- {list(self.body)!r})"


def linearize(expr, bindings, constant, leaf, special):
    """({key: coeff}, const) of a linear expression built with +, - and *.

    One normaliser serves both constraint stores through three hooks:
    constant(t) reads a leaf that is neither a variable nor an integer,
    and at the end each coefficient and the constant term, and raises
    for what the store cannot read; leaf(var) turns an unbound variable
    into a key, and is called once per variable, in order of first
    occurrence; special(t) returns None, or (args, finish) for a
    compound the store handles itself: each of args is read, its numbers
    passed through constant, and finish(*values) gives the compound's
    (coeffs, const) pair.  Zero coefficients are dropped from the result.

    One pass on an explicit stack reads every term, left to right, so the
    hooks run and the first error is met in that order.  Each entry holds
    the multiplier of its subterm, and a variable adds it to one map, in
    integers until constant reads the sums.  A product not led by a
    number reads its left side on its own: a ground one scales the right
    side, else the right side, read on its own, must be ground and scales
    a copy of the left one.  A special compound's value is kept; another
    compound met again is read once more on its own and its form kept
    for each later meeting.  So, but for those copies, a read costs time
    linear in the term as a tree, and a term such as X1 = X0 + X0,
    X2 = X1 + X1, ... costs its size as a DAG.
    """
    bmap = bindings.map
    coeffs, k = {}, 0   # the form being read
    outer = []          # the forms it is read inside, innermost last
    closed = []         # forms read on their own, waiting for their use
    keys = {}           # var id -> leaf(var)
    met = {}            # id of a compound -> None once met, then its form
    again = 0           # compounds being read again on their own
    stack = [(expr, 1)]
    push, pop = stack.append, stack.pop
    while stack:
        t, m = pop()
        while type(t) is Var and t.id in bmap:
            t = bmap[t.id]
        if type(t) is Var:
            key = keys.get(t.id, _ABSENT)
            if key is _ABSENT:
                key = keys[t.id] = leaf(t)
            coeffs[key] = coeffs.get(key, 0) + m
        elif type(t) is int:
            k += m * t
        elif type(t) is Struct:
            i = id(t)
            state = met.get(i, _ABSENT)
            if state is _ABSENT:
                met[i] = None
            elif state is not None:
                push((None, ("add", state, m)))
                continue
            elif not again:
                again += 1
                push((None, ("memo", t, m)))
                _read_alone(push, t)
                continue
            op = _LINEAR_OPS.get((t.name, len(t.args)))
            args = t.args
            if op == "add" or op == "sub":
                push((args[1], m if op == "add" else -m))
                push((args[0], m))
            elif op == "mul":
                a = bindings.deref(args[0])
                if type(a) is Var or type(a) is Struct:
                    push((None, ("mul", args[1], m)))
                    _read_alone(push, a)
                else:
                    push((args[1], m * (a if type(a) is int else constant(a))))
            elif op is not None:
                push((args[0], m if op == "pos" else -m))
            else:
                found = special(t)
                if found is None:
                    k += m * constant(t)
                    continue
                args, finish = found
                push((None, ("finish", (t, finish, len(args)), m)))
                for a in reversed(args):
                    _read_alone(push, a)
        elif t is not None:
            k += m * constant(t)
        else:
            # a step: open or close a form read on its own, or use one
            step, a, m = m
            if step == "open":
                outer.append((coeffs, k))
                coeffs, k = {}, 0
                continue
            if step == "close":
                closed.append((coeffs, k))
                coeffs, k = outer.pop()
                continue
            if step == "mul":
                # the left side of a product is read, a is its right one
                form = closed.pop()
                if any(form[0].values()):
                    push((None, ("scale", form, m)))
                    _read_alone(push, a)
                else:
                    push((a, m * form[1]))
                continue
            if step == "scale":
                # a, the left side of a product, times the right one
                rcoeffs, rk = closed.pop()
                if any(rcoeffs.values()):
                    raise NonLinearUnsupported(
                        "product of two non-ground expressions")
                form, m = a, m * rk
            elif step == "finish":
                t, finish, n = a
                values = [({v: constant(c) for v, c in fc.items()},
                           constant(fk)) for fc, fk in closed[-n:]]
                del closed[-n:]
                form = met[id(t)] = finish(*values)
            elif step == "memo":
                form = met[id(a)] = closed.pop()
                again -= 1
            else:   # "add"
                form = a
            for v, c in form[0].items():
                coeffs[v] = coeffs.get(v, 0) + m * c
            k += m * form[1]
    return {v: constant(c) for v, c in coeffs.items() if c}, constant(k)


_LINEAR_OPS = {("+", 1): "pos", ("-", 1): "neg", ("+", 2): "add",
               ("-", 2): "sub", ("*", 2): "mul"}


def _read_alone(push, t):
    """Push the steps that read t into a form of its own."""
    push((None, ("close", None, None)))
    push((t, 1))
    push((None, ("open", None, None)))


def indicator(t):
    """(functor, arity) of a callable term."""
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Struct):
        return (t.name, len(t.args))
    raise TypeError(f"not callable: {t!r}")


def variant(t1, t2, mapping=None):
    """Structural identity up to a consistent renaming of variables."""
    if mapping is None:
        mapping = {}
    if isinstance(t1, Var) and isinstance(t2, Var):
        seen = mapping.get(t1.id)
        if seen is None:
            if t2.id in mapping.values():
                return False
            mapping[t1.id] = t2.id
            return True
        return seen == t2.id
    if isinstance(t1, Struct) and isinstance(t2, Struct):
        if t1.name != t2.name or len(t1.args) != len(t2.args):
            return False
        return all(variant(a, b, mapping) for a, b in zip(t1.args, t2.args))
    if isinstance(t1, Var) or isinstance(t2, Var):
        return False
    return t1 == t2 and type(t1) is type(t2)
