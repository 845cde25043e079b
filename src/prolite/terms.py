"""Term universe: variables, interned atoms, exact numbers, compounds, lists.

Numbers are plain Python ints and fractions.Fraction (always canonical, the
denominator positive).  Floats exist only at the answer-reporting boundary;
they never enter unification through the reader.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NonLinearUnsupported, ZeroDenominator


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

Term = object  # Var | Atom | int | Fraction | float | Struct


def is_number(t):
    return isinstance(t, (int, Fraction, float)) and not isinstance(t, bool)


def rat_normalize(num, den):
    """Canonical rational from a numerator/denominator pair."""
    if den == 0:
        raise ZeroDenominator(f"{num}/0")
    value = Fraction(num, den)
    return int(value) if value.denominator == 1 else value


def normalize_number(value):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(value, Fraction) and value.denominator == 1:
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
        if isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
            items.append(b.deref(t.args[0]) if b is not None else t.args[0])
            t = t.args[1]
        else:
            return None


_ABSENT = object()  # trailed as the old value of a key that set() created


class Bindings:
    """Variable-id -> term map plus the one trail of a query.

    Every undoable write of a query goes through bind (a variable) or set
    (a key of a dict that a constraint store owns), and undo_to rewinds
    both in reverse order.  The values written are never mutated in place
    afterwards, so restoring the old value restores the old state.
    """

    __slots__ = ("map", "trail")

    def __init__(self):
        self.map = {}
        self.trail = []     # var id | (dict, key, old value or _ABSENT)

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

    def deref(self, t):
        """Follow the binding chain of t; only the root is resolved."""
        while isinstance(t, Var):
            bound = self.map.get(t.id)
            if bound is None:
                return t
            t = bound
        return t

    def resolve(self, t):
        """Fully substitute bindings through t (for answer snapshots)."""
        t = self.deref(t)
        if isinstance(t, Struct):
            return Struct(t.name, tuple(self.resolve(a) for a in t.args))
        return t


def occurs(var, t, b):
    """True iff var appears in the dereferenced expansion of t."""
    stack = [t]
    while stack:
        cur = b.deref(stack.pop())
        if isinstance(cur, Var):
            if cur.id == var.id:
                return True
        elif isinstance(cur, Struct):
            stack.extend(cur.args)
    return False


def term_vars(t, b=None, acc=None):
    """All unbound variables in t, in left-to-right first-occurrence order."""
    if acc is None:
        acc = []
    if b is not None:
        t = b.deref(t)
    if isinstance(t, Var):
        if all(v.id != t.id for v in acc):
            acc.append(t)
    elif isinstance(t, Struct):
        for a in t.args:
            term_vars(a, b, acc)
    return acc


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

    One walk serves both constraint stores through three hooks:
    constant(t) reads any leaf that is not a variable (constant(1) is the
    unit coefficient) and raises for what the store cannot read;
    leaf(var) turns an unbound variable into a key; special(t) returns a
    fresh (coeffs, const) pair for a compound the store handles itself,
    or None.  Leaves are visited left to right, so the side effects of
    leaf and special happen in source order.  Zero coefficients are
    dropped from the result.
    """
    one, zero = constant(1), constant(0)

    def walk(t):
        t = bindings.deref(t)
        if isinstance(t, Var):
            return {leaf(t): one}, zero
        if isinstance(t, Struct):
            args = t.args
            if t.name in ("+", "-") and len(args) == 1:
                coeffs, k = walk(args[0])
                if t.name == "+":
                    return coeffs, k
                return {v: -c for v, c in coeffs.items()}, -k
            if t.name in ("+", "-") and len(args) == 2:
                (coeffs, k), (rcoeffs, rk) = walk(args[0]), walk(args[1])
                sign = 1 if t.name == "+" else -1
                for v, c in rcoeffs.items():
                    coeffs[v] = coeffs.get(v, zero) + sign * c
                return coeffs, k + sign * rk
            if t.name == "*" and len(args) == 2:
                left, right = walk(args[0]), walk(args[1])
                if not any(left[0].values()):
                    scale, (coeffs, k) = left[1], right
                elif not any(right[0].values()):
                    scale, (coeffs, k) = right[1], left
                else:
                    raise NonLinearUnsupported(
                        "product of two non-ground expressions")
                return {v: scale * c for v, c in coeffs.items()}, scale * k
            found = special(t)
            if found is not None:
                return found
        return {}, constant(t)

    coeffs, k = walk(expr)
    return {v: c for v, c in coeffs.items() if c != 0}, k


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
