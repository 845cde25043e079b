"""Finite-domain integer constraint store.

Interval-set domains, bounds-consistency propagation to fixpoint for
linear constraints, value-level pruning for mod/disequality, and
depth-first labeling.  Nonlinear terms (abs, mod) are flattened onto
auxiliary variables before posting; variable products are rejected.
"""

from __future__ import annotations

from .errors import NonLinearUnsupported, PlTypeError, UnboundedDomain
from .terms import Struct, Var, linearize

INF = float("inf")

REL_OPS = {"#=", "#\\=", "#<", "#>", "#=<", "#>="}

# value-level pruning is attempted only below this domain size
ENUM_CAP = 4096


class FdDomain:
    """Ordered, disjoint, non-adjacent list of [lo, hi] intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=((-INF, INF),)):
        self.intervals = tuple(intervals)

    @classmethod
    def from_range(cls, lo, hi):
        if lo > hi:
            return cls(())
        return cls(((lo, hi),))

    @classmethod
    def from_values(cls, values):
        ivs = []
        for v in sorted(set(values)):
            if ivs and v == ivs[-1][1] + 1:
                ivs[-1][1] = v
            else:
                ivs.append([v, v])
        return cls(tuple((a, b) for a, b in ivs))

    def is_empty(self):
        return not self.intervals

    def min(self):
        return self.intervals[0][0]

    def max(self):
        return self.intervals[-1][1]

    def size(self):
        total = 0
        for lo, hi in self.intervals:
            if lo == -INF or hi == INF:
                return INF
            total += hi - lo + 1
        return total

    def is_finite(self):
        return self.is_empty() or (
            self.intervals[0][0] != -INF and self.intervals[-1][1] != INF)

    def values(self):
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def contains(self, v):
        return any(lo <= v <= hi for lo, hi in self.intervals)

    def clip(self, lo, hi):
        """Intersect with the single interval [lo, hi]."""
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 <= b2:
                out.append((a2, b2))
        return FdDomain(tuple(out))

    def remove(self, v):
        out = []
        for a, b in self.intervals:
            if a <= v <= b:
                if a <= v - 1:
                    out.append((a, v - 1))
                if v + 1 <= b:
                    out.append((v + 1, b))
            else:
                out.append((a, b))
        return FdDomain(tuple(out))

    def intersect(self, other):
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    out.append((lo, hi))
        out.sort()
        return FdDomain(tuple(out))

    def keep_values(self, allowed):
        """Intersect with an explicit value set (finite domains only)."""
        return FdDomain.from_values(v for v in self.values() if v in allowed)

    def __eq__(self, other):
        return isinstance(other, FdDomain) and self.intervals == other.intervals

    def __repr__(self):
        return f"FdDomain({list(self.intervals)})"


def _floor_div(a, b):
    if a == INF or a == -INF:
        return a if b > 0 else -a
    return a // b


def _ceil_div(a, b):
    if a == INF or a == -INF:
        return a if b > 0 else -a
    return -((-a) // b)


class LinearProp:
    """sum(c_i * x_i) rel k with rel in eq | le | ne (le means <= k)."""

    __slots__ = ("coeffs", "k", "rel")

    def __init__(self, coeffs, k, rel):
        self.coeffs = [(c, v) for c, v in coeffs if c != 0]
        self.k = k
        self.rel = rel

    def vars(self):
        return [v for _, v in self.coeffs]

    def propagate(self, store):
        if self.rel == "eq":
            return (self._prune_le(store, self.coeffs, self.k)
                    and self._prune_le(store, [(-c, v) for c, v in self.coeffs], -self.k))
        if self.rel == "le":
            return self._prune_le(store, self.coeffs, self.k)
        return self._prune_ne(store)

    def _prune_le(self, store, coeffs, k):
        if not coeffs:
            return 0 <= k
        mins = []
        for c, v in coeffs:
            dom = store.dom(v)
            if dom.is_empty():
                return False
            mins.append(c * dom.min() if c > 0 else c * dom.max())
        fin = sum(m for m in mins if m != -INF)
        ninf = sum(1 for m in mins if m == -INF)
        for (c, v), m in zip(coeffs, mins):
            if ninf - (1 if m == -INF else 0) > 0:
                continue
            others = fin - (m if m != -INF else 0)
            residual = k - others
            dom = store.dom(v)
            if c > 0:
                hi = _floor_div(residual, c)
                if hi < dom.max():
                    if not store.set_dom(v, dom.clip(-INF, hi)):
                        return False
            else:
                lo = _ceil_div(residual, c)
                if lo > dom.min():
                    if not store.set_dom(v, dom.clip(lo, INF)):
                        return False
        return True

    def _prune_ne(self, store):
        free = []
        total = 0
        for c, v in self.coeffs:
            dom = store.dom(v)
            if dom.size() == 1:
                total += c * dom.min()
            else:
                free.append((c, v))
        if not free:
            return total != self.k
        if len(free) == 1:
            c, v = free[0]
            rest = self.k - total
            if rest % c == 0:
                dom = store.dom(v).remove(rest // c)
                return store.set_dom(v, dom)
        return True


class ModProp:
    """y = x mod m with m a ground positive integer."""

    __slots__ = ("x", "m", "y")

    def __init__(self, x, m, y):
        self.x = x
        self.m = m
        self.y = y

    def vars(self):
        return [self.x, self.y]

    def propagate(self, store):
        ydom = store.dom(self.y).clip(0, self.m - 1)
        if not store.set_dom(self.y, ydom):
            return False
        xdom = store.dom(self.x)
        if xdom.is_finite() and xdom.size() <= ENUM_CAP:
            images = {v % self.m for v in xdom.values()}
            if not store.set_dom(self.y, store.dom(self.y).keep_values(images)):
                return False
            ydom = store.dom(self.y)
            yvals = set(ydom.values())
            kept = [v for v in xdom.values() if v % self.m in yvals]
            if len(kept) < xdom.size():
                if not store.set_dom(self.x, FdDomain.from_values(kept)):
                    return False
        return True


class AbsProp:
    """y = |x|."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def vars(self):
        return [self.x, self.y]

    def propagate(self, store):
        xdom, ydom = store.dom(self.x), store.dom(self.y)
        if xdom.is_empty() or ydom.is_empty():
            return False
        xlo, xhi = xdom.min(), xdom.max()
        hi = max(abs(xlo), abs(xhi)) if xdom.is_finite() else INF
        if xlo > 0:
            lo = xlo
        elif xhi < 0:
            lo = -xhi
        else:
            lo = 0
        if not store.set_dom(self.y, ydom.clip(max(lo, 0), hi)):
            return False
        ydom = store.dom(self.y)
        ylo, yhi = ydom.min(), ydom.max()
        if yhi != INF:
            mirror = FdDomain.from_range(-yhi, -ylo).intersect(xdom)
            positive = FdDomain.from_range(ylo, yhi).intersect(xdom)
            both = FdDomain(tuple(sorted(set(mirror.intervals) | set(positive.intervals))))
            both = _normalize(both)
            if not store.set_dom(self.x, both):
                return False
        return True


def _normalize(dom):
    ivs = sorted(dom.intervals)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return FdDomain(tuple(out))


class FdStore:
    """Domains plus the posted-propagator network.

    The four tables are written only through bindings.set, so the query's
    one trail undoes them together with the bindings.
    """

    def __init__(self, bindings):
        self.bindings = bindings
        self.domains = {}          # var id -> FdDomain
        self.varobj = {}           # var id -> Var
        self.props = {}            # prop index -> propagator
        self.watchers = {}         # var id -> tuple of prop indexes
        self._queue = []           # propagator indexes awaiting a run

    # --- variables ----------------------------------------------------

    def ensure_var(self, var):
        v = self.bindings.deref(var)
        if isinstance(v, int):
            return v
        if not isinstance(v, Var):
            raise PlTypeError(f"finite-domain variable expected, got {v!r}")
        if v.id not in self.domains:
            self.bindings.set(self.domains, v.id, FdDomain())
            self.bindings.set(self.varobj, v.id, v)
        return v

    def is_fd_var(self, var):
        v = self.bindings.deref(var)
        return isinstance(v, Var) and v.id in self.domains

    def dom(self, var):
        v = self.bindings.deref(var)
        if isinstance(v, int):
            return FdDomain.from_range(v, v)
        return self.domains[v.id]

    def set_dom(self, var, newdom):
        v = self.bindings.deref(var)
        if isinstance(v, int):
            return newdom.contains(v)
        return self.set_dom_raw(v.id, newdom)

    def set_dom_raw(self, vid, newdom):
        old = self.domains[vid]
        if newdom == old:
            return True
        self.bindings.set(self.domains, vid, newdom)
        if newdom.is_empty():
            return False
        for pi in self.watchers.get(vid, ()):
            if pi not in self._queue:
                self._queue.append(pi)
        return True

    # --- posting and propagation -------------------------------------

    def add_prop(self, prop):
        idx = len(self.props)
        self.bindings.set(self.props, idx, prop)
        for v in prop.vars():
            v = self.bindings.deref(v)
            if isinstance(v, Var):
                self._watch(v.id, (idx,))
        self._queue.append(idx)

    def _watch(self, vid, indexes):
        self.bindings.set(self.watchers, vid,
                          self.watchers.get(vid, ()) + indexes)

    def propagate_fixpoint(self):
        """Run the queued propagators until no domain narrows; False on
        wipeout."""
        while self._queue:
            idx = self._queue.pop(0)
            if not self.props[idx].propagate(self):
                self._queue = []
                return False
        return True

    def post(self, goal):
        """Post one #-rooted constraint goal; False means inconsistency."""
        if not (isinstance(goal, Struct) and goal.name in REL_OPS
                and len(goal.args) == 2):
            raise PlTypeError(f"not a finite-domain constraint: {goal!r}")
        self._queue = []
        # lhs rel rhs  ->  sum(c * v) rel k, from lhs - rhs = sum + const
        coeffs, const = self._linearize(Struct("-", goal.args))
        coeffs, k = [(c, v) for v, c in coeffs.items()], -const
        rel = goal.name
        if rel == "#=":
            prop = LinearProp(coeffs, k, "eq")
        elif rel == "#\\=":
            prop = LinearProp(coeffs, k, "ne")
        elif rel == "#=<":
            prop = LinearProp(coeffs, k, "le")
        elif rel == "#<":
            prop = LinearProp(coeffs, k - 1, "le")
        elif rel == "#>=":
            prop = LinearProp([(-c, v) for c, v in coeffs], -k, "le")
        else:  # "#>"
            prop = LinearProp([(-c, v) for c, v in coeffs], -k - 1, "le")
        if not self._pairwise_consistent(prop):
            return False
        self.add_prop(prop)
        return self.propagate_fixpoint()

    def _pairwise_consistent(self, prop):
        """Catch contradictions bounds propagation misses on unbounded
        domains: an identical linear form with an incompatible constant,
        or a negated form whose combined slack is negative."""
        sig = _signature(prop, self.bindings)
        if sig is None:
            return True
        for other in self.props.values():
            if not isinstance(other, LinearProp):
                continue
            osig = _signature(other, self.bindings)
            if osig is None or osig.keys() != sig.keys() or not osig:
                continue
            if all(osig[k] == sig[k] for k in sig):
                if prop.rel == "eq" and other.rel == "eq" and prop.k != other.k:
                    return False
                if {prop.rel, other.rel} == {"eq", "le"} and \
                        (prop.k if prop.rel == "eq" else other.k) > \
                        (prop.k if prop.rel == "le" else other.k):
                    return False
            if all(osig[k] == -sig[k] for k in sig):
                if prop.rel == "le" and other.rel == "le" \
                        and prop.k + other.k < 0:
                    return False
                if prop.rel == "eq" and other.rel == "le" \
                        and -prop.k > other.k:
                    return False
                if prop.rel == "le" and other.rel == "eq" \
                        and -other.k > prop.k:
                    return False
        return True

    def _linearize(self, expr):
        """({var: coeff}, const) of an integer expression."""
        return linearize(expr, self.bindings, _integer, self.ensure_var,
                         self._flatten_special)

    def _flatten_special(self, expr):
        """abs and mod, flattened onto fresh auxiliary variables."""
        if expr.name == "abs" and len(expr.args) == 1:
            x = self._flatten(expr.args[0])
            y = self._aux()
            self.add_prop(AbsProp(x, y))
            return {y: 1}, 0
        if expr.name == "mod" and len(expr.args) == 2:
            m = self.bindings.deref(expr.args[1])
            if not isinstance(m, int) or m <= 0:
                raise NonLinearUnsupported(
                    "mod requires a ground positive modulus")
            x = self._flatten(expr.args[0])
            y = self._aux()
            self.add_prop(ModProp(x, m, y))
            return {y: 1}, 0
        return None

    def _flatten(self, expr):
        """Auxiliary variable equal to expr (identity for plain vars)."""
        coeffs, k = self._linearize(expr)
        if k == 0 and list(coeffs.values()) == [1]:
            return next(iter(coeffs))
        y = self._aux()
        self.add_prop(LinearProp([(c, v) for v, c in coeffs.items()]
                                 + [(-1, y)], -k, "eq"))
        return y

    def _aux(self):
        v = Var("_fd")
        self.ensure_var(v)
        return v

    # --- aliasing and grounding hooks from unification ---------------

    def on_bind_value(self, var, value):
        """var (an FD var) was just bound to value; check and propagate."""
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        dom = self.domains.get(var.id)
        if dom is None or not dom.contains(value):
            return False
        self._queue = []
        if not self.set_dom_raw(var.id, FdDomain.from_range(value, value)):
            return False
        return self.propagate_fixpoint()

    def on_alias(self, var, root):
        """var was bound to root (another FD var): merge domains/watchers."""
        merged = self.domains[var.id].intersect(self.domains[root.id])
        self._queue = []
        if not self.set_dom_raw(root.id, merged):
            return False
        self._watch(root.id, self.watchers.get(var.id, ()))
        return self.propagate_fixpoint()

    # --- labeling -----------------------------------------------------

    def constrained_vars(self):
        """FD variables in posting order (deduplicated, dereferenced)."""
        seen, out = set(), []
        for vid, var in self.varobj.items():
            root = self.bindings.deref(var)
            if isinstance(root, Var) and root.id not in seen \
                    and root.id in self.domains:
                seen.add(root.id)
                out.append(root)
        return out


def _signature(prop, bindings):
    """Variable-id -> coefficient map of a linear propagator; None when
    any participating variable has become ground (bounds propagation
    covers those cases once domains are singletons)."""
    sig = {}
    for c, v in prop.coeffs:
        t = bindings.deref(v)
        if not isinstance(t, Var):
            return None
        sig[t.id] = sig.get(t.id, 0) + c
    return {k: c for k, c in sig.items() if c != 0}


def _integer(t):
    if isinstance(t, int) and not isinstance(t, bool):
        return t
    raise PlTypeError(f"unsupported constraint expression: {t!r}")


def fd_label(variables, store, state, strategy="leftmost"):
    """Depth-first labeling: yields once per consistent total assignment.

    Each value is bound into the engine Bindings and its singleton domain
    written through bindings.set, so rewinding the one trail to the mark
    taken before a value (state.mark/undo_to) restores bindings, domains
    and watchers between branches.
    """
    todo = []
    for v in variables:
        r = store.bindings.deref(v)
        if isinstance(r, Var):
            if not store.dom(r).is_finite():
                raise UnboundedDomain(f"cannot label {r.name}: infinite domain")
            todo.append(r)
    yield from _label(todo, store, state, strategy)


def _label(variables, store, state, strategy):
    pending = [v for v in variables
               if isinstance(store.bindings.deref(v), Var)
               and store.dom(v).size() > 1]
    if not pending:
        # ground the remaining singleton domains into the bindings
        for v in variables:
            r = store.bindings.deref(v)
            if isinstance(r, Var):
                value = store.dom(r).min()
                state.bindings.bind(r, value)
        yield None
        return
    if strategy == "first_fail":
        var = min(pending, key=lambda v: store.dom(v).size())
    else:
        var = pending[0]
    for value in list(store.dom(var).values()):
        m = state.mark()
        root = store.bindings.deref(var)
        store._queue = []
        ok = store.set_dom_raw(root.id, FdDomain.from_range(value, value))
        if ok:
            state.bindings.bind(root, value)
            ok = store.propagate_fixpoint()
        if ok:
            yield from _label(variables, store, state, strategy)
        state.undo_to(m)
