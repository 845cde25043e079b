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


# compounds that linearize and the engine's arithmetic read by recursion
SMALL_TERM = 64


def linearize(expr, bindings, constant, leaf, special):
    """({key: coeff}, const) of a linear expression built with +, - and *.

    One normaliser serves both constraint stores through three hooks:
    constant(t) reads any leaf that is not a variable (constant(1) is the
    unit coefficient) and raises for what the store cannot read;
    leaf(var) turns an unbound variable into a key, and is called once
    per variable, in order of first occurrence; special(t) returns None,
    or (args, finish) for a compound the store handles itself: each of
    args is read as a linear expression and then finish(*values) gives
    the compound's fresh (coeffs, const) pair.  Zero coefficients are
    dropped from the result.

    A term of at most SMALL_TERM +, - and * compounds over variables
    and integers is read by recursion in integer arithmetic
    (_linear_small), which calls no hook; then leaf is called, and
    constant reads each coefficient and the constant term.  Any other
    term is read by _linearize_walk, which also meets every error first
    in its own order.
    """
    small = _linear_small(expr, bindings.map, [SMALL_TERM])
    if small is None:
        return _linearize_walk(expr, bindings, constant, leaf, special)
    coeffs, k = small
    out = {}
    for v, c in coeffs.items():
        key = leaf(v)
        if c:
            out[key] = constant(c)
    return out, constant(k)


def _linear_small(t, bmap, budget):
    """(coeffs, const) of t by recursion over integers, keyed by unbound
    variable, each compound combined as _combine does; budget[0] counts
    down the compounds still allowed.  coeffs holds every variable of t,
    zero coefficients too, in order of first occurrence.  None past the
    budget, at a leaf that is neither a variable nor an integer, at a
    compound that is not +, - or *, and at a product of two non-ground
    sides or one that would drop variables (a ground side such as
    X - X), since their order would be lost."""
    if type(t) is Var:
        bound = bmap.get(t.id)
        while bound is not None:
            t = bound
            if type(t) is not Var:
                break
            bound = bmap.get(t.id)
        else:
            return {t: 1}, 0
    if type(t) is int:
        return {}, t
    if type(t) is not Struct:
        return None
    op = _LINEAR_OPS.get((t.name, len(t.args)))
    budget[0] -= 1
    if op is None or budget[0] < 0:
        return None
    args = t.args
    left = _linear_small(args[0], bmap, budget)
    if left is None:
        return None
    coeffs, k = left
    if op == "neg":
        return {v: -c for v, c in coeffs.items()}, -k
    if op == "pos":
        return coeffs, k
    right = _linear_small(args[1], bmap, budget)
    if right is None:
        return None
    rcoeffs, rk = right
    if op == "add":
        for v, c in rcoeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return coeffs, k + rk
    if op == "sub":
        for v, c in rcoeffs.items():
            coeffs[v] = coeffs.get(v, 0) - c
        return coeffs, k - rk
    if not coeffs:
        scale, coeffs, k = k, rcoeffs, rk
    elif not rcoeffs and any(coeffs.values()):
        scale = rk
    else:
        return None
    return {v: scale * c for v, c in coeffs.items()}, scale * k


def _linearize_walk(expr, bindings, constant, leaf, special):
    """linearize on an explicit stack, for any term.

    Leaves are visited left to right, and finish runs after its
    arguments, so the side effects of the hooks happen in source order.
    The walk keeps its own stack: an entry
    (None, op) combines the values that an operator's arguments left on
    `values`, an entry (n, finish) replaces the top n values by a special
    compound's, and an entry (id, None) records a copy of the value of a
    compound.  A compound reached through a variable, and a special one,
    is recorded when it is first met; any other is recorded only when it
    is met a second time, so an unshared term pays no copy per compound,
    and a shared one is walked at most twice.
    """
    one, zero = constant(1), constant(0)
    values = []
    stack = [expr]
    done = {}           # id of a compound -> (coeffs, const)
    seen = set()        # ids of compounds walked once, not recorded
    keys = {}           # var id -> leaf(var)
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            n, step = t
            if step is None:
                # _combine updates a left operand's coefficients in place
                coeffs, k = values[-1]
                done[n] = (dict(coeffs), k)
            elif n is None:
                _combine(values, step, zero)
            else:
                found = step(*values[len(values) - n:])
                del values[len(values) - n:]
                values.append(found)
            continue
        through_var = type(t) is Var
        if through_var:
            t = bindings.deref(t)
        if isinstance(t, Var):
            key = keys.get(t.id, _ABSENT)
            if key is _ABSENT:
                key = keys[t.id] = leaf(t)
            values.append(({key: one}, zero))
            continue
        if isinstance(t, Struct):
            found = done.get(id(t))
            if found is not None:
                values.append((dict(found[0]), found[1]))
                continue
            op = _LINEAR_OPS.get((t.name, len(t.args)))
            if op is not None:
                if through_var or id(t) in seen:
                    stack.append((id(t), None))
                else:
                    seen.add(id(t))
                stack.append((None, op))
                stack.extend(reversed(t.args))
                continue
            found = special(t)
            if found is not None:
                args, finish = found
                stack.append((id(t), None))
                stack.append((len(args), finish))
                stack.extend(reversed(args))
                continue
        values.append(({}, constant(t)))
    coeffs, k = values[0]
    return {v: c for v, c in coeffs.items() if c != 0}, k


_LINEAR_OPS = {("+", 1): "pos", ("-", 1): "neg", ("+", 2): "add",
               ("-", 2): "sub", ("*", 2): "mul"}


def _combine(values, op, zero):
    """Replace the operand values of op on top of values by its result."""
    if op == "pos":
        return
    if op == "neg":
        coeffs, k = values.pop()
        values.append(({v: -c for v, c in coeffs.items()}, -k))
        return
    (rcoeffs, rk) = values.pop()
    left = values.pop()
    if op == "mul":
        right = (rcoeffs, rk)
        if not any(left[0].values()):
            scale, (coeffs, k) = left[1], right
        elif not any(rcoeffs.values()):
            scale, (coeffs, k) = rk, left
        else:
            raise NonLinearUnsupported("product of two non-ground expressions")
        values.append(({v: scale * c for v, c in coeffs.items()}, scale * k))
        return
    coeffs, k = left
    sign = 1 if op == "add" else -1
    for v, c in rcoeffs.items():
        coeffs[v] = coeffs.get(v, zero) + sign * c
    values.append((coeffs, k + sign * rk))


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
