"""Finite-domain integer constraint store.

Interval-set domains, bounds-consistency propagation to fixpoint for
linear constraints, value-level pruning for mod/disequality, and the
values of a labeled variable.  Nonlinear terms (abs, mod) are flattened
onto auxiliary variables before posting; variable products are
rejected.  On unbounded domains the store also fails when the rational
relaxation is infeasible in a scratch clpr.RStore, checked after a post
or alias that leaves a bound infinite and once in a long fixpoint.
Propagator runs, the rows the check collects or rewrites, its simplex
pivots, the values a mod propagator walks (a step per 64) and each
value labeling tries are charged to the query's meter, the engine's
SolveState, whose checkpoint decides the step cap and its cadence;
propagate_fixpoint adds its runs to the meter's count inline.  A
variable belongs to at most one store, so aliasing an FD variable with
a rational one is a TypeMix error; labeling a variable without a
finite domain raises UnboundedDomain (underdetermined).

Each propagator names in its wake attribute the domain event it reads,
and a domain change queues only the watchers it can affect: a bounds
propagator (linear eq/le) wakes when a min or max moves, a disequality
when a variable becomes a singleton, mod and abs on any change.  The
events nest (a singleton is also a bounds change, which is also a
change), so their levels compare as integers.  Each variable has two
watcher tables: the full tuple of the propagators that read it, and
beside it, in the same order, the subsequence of those below FIXED
(eq/le, mod, abs).  A FIXED event scans the full tuple; a BOUNDS or
CHANGED event scans only the filtered one, so it never visits the
disequalities it cannot wake, and the queue order is the one a scan of
the full tuple gives.  A disequality that has acted is entailed, as
no value left can break it, so propagate_fixpoint puts RETIRED, whose
wake no event reaches, in its place through the trail, and
backtracking restores it; a queued RETIRED is popped without a run or
a step.  A linear post over at most one variable
narrows that domain once and adds no propagator, since its relation
reads only that domain and domains only shrink.

A domain is immutable and keeps its bounds and size, computed once.
A propagator dereferences each operand once per run, reads an operand
bound to an integer as that integer, and reads and writes the store's
domain table directly; a run allocates only the domains it narrows,
and removing a value splits only the interval holding it.  A post
reads its expression in one pass of terms.linearize, in time linear in
its size; a compound met again is read once more, then its form reused.
The FD store reads integers only: a Fraction or float, a / or rdiv, or
any other term it cannot read is a PlTypeError, and a variable the
rational store owns is a TypeMix error; a read that raises rewinds the
trail to its mark, so it leaves nothing behind.  The read's form gives
the propagator and its watcher links directly.
Labeling runs on the engine's choice points, each over fd_label, which
binds every value through on_bind_value, as unification does; the step
each value charges is what bounds its loop.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

from .clpr import RStore
from .errors import NonLinearUnsupported, PlTypeError, UnboundedDomain
from .terms import Bindings, Struct, Var, linearize
from .writer import term_to_text

INF = float("inf")

# lhs rel rhs reads as lhs - rhs = sum + const, and posts as the
# propagator sign * sum rel' shift - sign * const: relation -> (sign,
# shift, rel')
_RELATIONS = {"#=": (1, 0, "eq"), "#\\=": (1, 0, "ne"),
              "#=<": (1, 0, "le"), "#<": (1, -1, "le"),
              "#>=": (-1, 0, "le"), "#>": (-1, -1, "le")}
REL_OPS = set(_RELATIONS)

# value-level pruning is attempted only below this domain size
ENUM_CAP = 4096

# A fixpoint gets one relaxation check at this many propagator runs per
# propagator: bounded CSPs stay near 2, a cycle on wide domains has no end.
SLOW_FIXPOINT = 16

# Domain events, each implying the ones below it.
CHANGED, BOUNDS, FIXED = 0, 1, 2


class FdDomain:
    """Ordered, disjoint, non-adjacent tuple of [lo, hi] intervals.

    A domain is immutable, so its bounds lo and hi and its size card are
    set once: an empty domain has lo > hi and card 0, and a domain with
    an infinite bound has card INF.
    """

    __slots__ = ("intervals", "lo", "hi", "card")

    def __init__(self, intervals=((-INF, INF),)):
        self.intervals = intervals = tuple(intervals)
        if not intervals:
            self.lo, self.hi, self.card = INF, -INF, 0
            return
        self.lo, self.hi = intervals[0][0], intervals[-1][1]
        if self.lo == -INF or self.hi == INF:
            self.card = INF
        else:
            self.card = sum(b - a + 1 for a, b in intervals)

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

    def is_finite(self):
        return self.card != INF

    def values(self):
        for lo, hi in self.intervals:
            yield from range(lo, hi + 1)

    def contains(self, v):
        if not self.lo <= v <= self.hi:
            return False
        ivs = self.intervals
        return v <= ivs[bisect_right(ivs, (v, INF)) - 1][1]

    def clip(self, lo, hi):
        """Intersect with the single interval [lo, hi]."""
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 <= b2:
                out.append((a2, b2))
        return FdDomain(tuple(out))

    def remove(self, v):
        """The domain without v: the domain itself when v is outside it,
        else a copy in which only the interval holding v is split."""
        if not self.lo <= v <= self.hi:
            return self
        ivs = self.intervals
        # the last interval starting at or below v
        i = bisect_right(ivs, (v, INF)) - 1
        a, b = ivs[i]
        if v > b:
            return self
        split = ((a, v - 1),) if a < v else ()
        if v < b:
            split += ((v + 1, b),)
        out = FdDomain.__new__(FdDomain)
        out.intervals = ivs = ivs[:i] + split + ivs[i + 1:]
        if ivs:
            out.lo, out.hi = ivs[0][0], ivs[-1][1]
        else:
            out.lo, out.hi = INF, -INF
        out.card = self.card - 1
        return out

    def intersect(self, other):
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    out.append((lo, hi))
        out.sort()
        return FdDomain(tuple(out))

    def __eq__(self, other):
        return isinstance(other, FdDomain) and self.intervals == other.intervals

    def __repr__(self):
        return f"FdDomain({list(self.intervals)})"


_FULL_DOMAIN = FdDomain()


class _Retired:
    """An entailed propagator's place in FdStore.props: no domain event
    reaches its wake, and propagate_fixpoint skips it when an alias
    queues it."""

    wake = FIXED + 1


RETIRED = _Retired()


class LinearProp:
    """sum(c_i * x_i) rel k with rel in eq | le | ne (le means <= k).

    eq and le read only bounds; ne acts once at most one operand is
    unfixed, so it waits for a variable to become a singleton, and after
    acting it is entailed: propagate returns RETIRED.
    """

    __slots__ = ("coeffs", "k", "rel", "wake")

    def __init__(self, coeffs, k, rel):
        self.coeffs = coeffs    # [(c, operand)], each c non-zero
        self.k = k
        self.rel = rel
        self.wake = FIXED if rel == "ne" else BOUNDS

    def vars(self):
        return [v for _, v in self.coeffs]

    def relinked(self, bindings):
        """The same relation over dereferenced operands: ground operands
        fold into k, repeated variables merge, zero coefficients drop."""
        merged, k = {}, self.k
        for c, v in self.coeffs:
            v = bindings.deref(v)
            if isinstance(v, Var):
                merged[v.id] = (merged.get(v.id, (0,))[0] + c, v)
            else:
                k -= c * v
        return LinearProp([(c, v) for c, v in merged.values() if c], k,
                          self.rel)

    def propagate(self, store):
        rel = self.rel
        if rel == "ne":
            return self._prune_ne(store)
        if rel == "eq":
            return self._prune_le(store, 1) and self._prune_le(store, -1)
        return self._prune_le(store, 1)

    def _prune_le(self, store, sign):
        """Bounds pruning of sign * sum(c_i * x_i) =< sign * k."""
        k = sign * self.k
        if not self.coeffs:
            return 0 <= k
        deref, domains = store.bindings.deref, store.domains
        # (c, operand, least value of c * operand); an operand bound to
        # an integer is that integer
        terms, fin, ninf = [], 0, 0
        for c, v in self.coeffs:
            c *= sign
            v = deref(v)
            if isinstance(v, Var):
                dom = domains[v.id]
                if dom.lo > dom.hi:
                    return False
                m = c * dom.lo if c > 0 else c * dom.hi
            else:
                m = c * v
            if m == -INF:
                ninf += 1
            else:
                fin += m
            terms.append((c, v, m))
        for c, v, m in terms:
            if m == -INF:
                if ninf > 1:
                    continue
                residual = k - fin
            elif ninf:
                continue
            else:
                residual = k - (fin - m)
            if not isinstance(v, Var):
                if m > residual:
                    return False
            elif c > 0:
                dom = domains[v.id]
                hi = residual // c
                if hi < dom.hi and not store.set_dom_raw(
                        v.id, dom.clip(-INF, hi)):
                    return False
            else:
                dom = domains[v.id]
                lo = -(-residual // c)
                if lo > dom.lo and not store.set_dom_raw(
                        v.id, dom.clip(lo, INF)):
                    return False
        return True

    def _prune_ne(self, store):
        bmap, domains = store.bindings.map, store.domains
        free, total = None, 0
        for c, v in self.coeffs:
            # dereference v inline
            bound = bmap.get(v.id)
            while bound is not None:
                v = bound
                if type(v) is not Var:
                    break
                bound = bmap.get(v.id)
            if type(v) is not Var:
                total += c * v
                continue
            dom = domains[v.id]
            if dom.card == 1:
                total += c * dom.lo
            elif free is None:
                free, fc = v, c
            else:
                return True
        # entailed once the one value that breaks it is gone or fractional
        if free is None:
            return total != self.k and RETIRED
        rest = self.k - total
        if rest % fc:
            return RETIRED
        return store.set_dom_raw(
            free.id, domains[free.id].remove(rest // fc)) and RETIRED


class ModProp:
    """y = x mod m with m a ground positive integer; a run that walks
    the values of x, twice, charges a step per 64 values walked."""

    __slots__ = ("x", "m", "y")
    wake = CHANGED

    def __init__(self, x, m, y):
        self.x = x
        self.m = m
        self.y = y

    def vars(self):
        return [self.x, self.y]

    def propagate(self, store):
        x, y = store.bindings.deref(self.x), store.bindings.deref(self.y)
        if not store.narrow(y, store.dom_of(y).clip(0, self.m - 1)):
            return False
        xdom = store.dom_of(x)
        if xdom.card <= ENUM_CAP:
            store.meter.tick(2 * xdom.card // 64)
            images = FdDomain.from_values(v % self.m for v in xdom.values())
            if not store.narrow(y, store.dom_of(y).intersect(images)):
                return False
            yvals = set(store.dom_of(y).values())
            kept = [v for v in xdom.values() if v % self.m in yvals]
            if len(kept) < xdom.card:
                if not store.narrow(x, FdDomain.from_values(kept)):
                    return False
        return True


class AbsProp:
    """y = |x|."""

    __slots__ = ("x", "y")
    wake = CHANGED

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def vars(self):
        return [self.x, self.y]

    def propagate(self, store):
        x, y = store.bindings.deref(self.x), store.bindings.deref(self.y)
        xdom, ydom = store.dom_of(x), store.dom_of(y)
        xlo, xhi = xdom.lo, xdom.hi
        if xlo > xhi or ydom.lo > ydom.hi:
            return False
        hi = max(abs(xlo), abs(xhi))
        if xlo > 0:
            lo = xlo
        elif xhi < 0:
            lo = -xhi
        else:
            lo = 0
        if not store.narrow(y, ydom.clip(max(lo, 0), hi)):
            return False
        ydom = store.dom_of(y)
        ylo, yhi = ydom.lo, ydom.hi
        if yhi != INF:
            band = ((-yhi, yhi),) if ylo == 0 else ((-yhi, -ylo), (ylo, yhi))
            if not store.narrow(x, xdom.intersect(FdDomain(band))):
                return False
        return True


class FdStore:
    """Domains plus the posted-propagator network.

    The four tables are written only through the query's one trail,
    which undoes them: through bindings.set, except that set_dom_raw and
    propagate_fixpoint append their (dict, key, old) entries themselves.
    watchers holds each variable's full tuple of propagator indexes, and
    soft_watchers the same tuple filtered to the propagators whose wake
    is below FIXED, in the same order; a variable none of those reads
    has no soft entry.  The meter is the query's engine.SolveState."""

    def __init__(self, bindings, meter):
        self.bindings = bindings
        self.trail = bindings.trail
        self.meter = meter
        self.domains = {}          # var id -> FdDomain
        self.props = {}            # prop index -> propagator
        self.watchers = {}         # var id -> tuple of prop indexes
        self.soft_watchers = {}    # var id -> those with wake < FIXED
        self._queue = deque()      # propagator indexes awaiting a run
        self._queued = set()       # the same indexes, for membership

    # --- variables ----------------------------------------------------

    def dom(self, var):
        return self.dom_of(self.bindings.deref(var))

    def dom_of(self, t):
        """Domain of a dereferenced operand: an integer's is its
        singleton."""
        if isinstance(t, Var):
            return self.domains[t.id]
        return FdDomain.from_range(t, t)

    def narrow(self, t, newdom):
        """Narrow a dereferenced operand to newdom; an integer is only
        checked against it."""
        if isinstance(t, Var):
            return self.set_dom_raw(t.id, newdom)
        return newdom.contains(t)

    def set_dom_raw(self, vid, newdom):
        """Write newdom as vid's domain and queue the watchers its event
        wakes: a singleton scans the full tuple, any other change only
        the soft one.  False on an empty domain."""
        domains = self.domains
        old = domains[vid]
        if newdom is old or newdom.intervals == old.intervals:
            return True
        self.trail.append((domains, vid, old))
        domains[vid] = newdom
        lo, hi = newdom.lo, newdom.hi
        if lo > hi:
            return False
        if lo == hi:
            event = FIXED
            watchers = self.watchers.get(vid)
        else:
            event = BOUNDS if lo != old.lo or hi != old.hi else CHANGED
            watchers = self.soft_watchers.get(vid)
        if watchers:
            props, queued = self.props, self._queued
            for pi in watchers:
                if props[pi].wake <= event and pi not in queued:
                    queued.add(pi)
                    self._queue.append(pi)
        return True

    def _enqueue(self, idx):
        if idx not in self._queued:
            self._queued.add(idx)
            self._queue.append(idx)

    # The queue is empty whenever control leaves the store: a fixpoint
    # empties or clears it, and so does a post whose read raises or whose
    # one-variable propagator fails.  An exception out of propagation
    # ends the query, as nothing catches it; a catch/3 must clear it.
    def _clear_queue(self):
        self._queue.clear()
        self._queued.clear()

    # --- posting and propagation -------------------------------------

    def add_prop(self, prop):
        """Link prop to the variables it reads and queue it; its index."""
        idx = len(self.props)
        self.bindings.set(self.props, idx, prop)
        soft = (idx,) if prop.wake < FIXED else ()
        for v in prop.vars():
            v = self.bindings.deref(v)
            if isinstance(v, Var):
                self._watch(v.id, (idx,), soft)
        self._enqueue(idx)
        return idx

    def _watch(self, vid, indexes, soft):
        """Append indexes to vid's full tuple and soft, their wake <
        FIXED subsequence, to its soft one."""
        bindings = self.bindings
        bindings.set(self.watchers, vid, self.watchers.get(vid, ()) + indexes)
        if soft:
            bindings.set(self.soft_watchers, vid,
                         self.soft_watchers.get(vid, ()) + soft)

    def propagate_fixpoint(self):
        """Run the queued propagators until no domain narrows; False on
        wipeout or when a long fixpoint fails the relaxation check.

        Each run is a step on the meter, counted here as tick() counts
        it; a propagator that returns RETIRED is replaced on the
        trail."""
        queue, props, trail = self._queue, self.props, self.trail
        popleft, discard = queue.popleft, self._queued.discard
        meter, limit = self.meter, self.meter.limit
        runs, slow = 0, SLOW_FIXPOINT * len(props)
        while queue:
            idx = popleft()
            discard(idx)
            prop = props[idx]
            if prop is RETIRED:
                continue
            # a run may tick itself, so the count is read again each time
            steps = meter.steps = meter.steps + 1
            if steps >= limit:
                limit = meter.checkpoint()
            ok = prop.propagate(self)
            if ok is RETIRED:
                trail.append((props, idx, prop))
                props[idx] = ok
            runs += 1
            if ok and runs == slow:
                ok = self._relaxation_feasible(prop.vars())
            if not ok:
                self._clear_queue()
                return False
        return True

    def _settle(self, touched):
        """Propagate, then check the relaxation when a touched variable
        keeps an infinite bound."""
        return self.propagate_fixpoint() and (
            all(self.dom(v).is_finite() for v in touched)
            or self._relaxation_feasible(touched))

    def _relaxation_feasible(self, seeds):
        """False when the eq/le rows linked to seeds through shared unbound
        variables and their finite bounds have no rational solution."""
        todo, seen, done, rows = list(seeds), set(), set(), []
        while todo:
            v = self.bindings.deref(todo.pop())
            if not isinstance(v, Var) or v.id in seen:
                continue
            seen.add(v.id)
            dom = self.domains[v.id]
            if dom.lo != -INF:
                rows.append(({v.id: -1}, dom.lo, "le"))
            if dom.hi != INF:
                rows.append(({v.id: 1}, -dom.hi, "le"))
            for idx in self.soft_watchers.get(v.id, ()):
                prop = self.props[idx]
                # the eq/le rows are exactly the bounds propagators
                if idx in done or prop.wake != BOUNDS:
                    continue
                done.add(idx)
                self.meter.tick()
                prop = prop.relinked(self.bindings)
                rows.append(({x.id: c for c, x in prop.coeffs}, -prop.k,
                             prop.rel))
                todo += prop.vars()
        # a variable that one row alone mentions can always meet that row:
        # drop the row, and so on, leaving rows that constrain each other
        uses = {}
        for i, (expr, _, _) in enumerate(rows):
            for vid in expr:
                uses.setdefault(vid, set()).add(i)
        lone = [vid for vid, where in uses.items() if len(where) == 1]
        while lone:
            where = uses[lone.pop()]
            if len(where) == 1:
                i = where.pop()
                for vid in rows[i][0]:
                    uses[vid].discard(i)
                    if len(uses[vid]) == 1:
                        lone.append(vid)
                rows[i] = None
        scratch = RStore(Bindings(), self.meter)
        return scratch.post_linear(sorted((row for row in rows if row),
                                          key=lambda row: row[2] != "eq"))

    def post(self, goal):
        """Post one #-rooted constraint goal; False means inconsistency.

        One read of lhs - rhs gives the linear form and links the
        propagator.  A read that raises leaves nothing behind: the trail
        is rewound past the claims, domains and auxiliary propagators it
        wrote."""
        bindings = self.bindings
        mark = len(bindings.trail)
        try:
            form, const = linearize(Struct("-", goal.args), bindings,
                                    _integer, self._claim, self._special)
        except Exception:
            bindings.undo_to(mark)
            self._clear_queue()
            raise
        sign, shift, rel = _RELATIONS[goal.name]
        prop = LinearProp([(sign * c, v) for v, c in form.items()],
                          shift - sign * const, rel)
        if len(form) <= 1:
            self.meter.tick()
            if prop.propagate(self):
                return self.propagate_fixpoint()
            self._clear_queue()
            return False
        idx = self.add_prop(prop)
        if rel == "ne":
            return self.propagate_fixpoint()
        # a variable that only prop watches and that is still unbounded
        # can always meet prop, so the relaxation check could not fail
        domains, watchers = self.domains, self.watchers
        full = _FULL_DOMAIN.intervals
        if any(watchers[v.id] == (idx,) and domains[v.id].intervals == full
               for v in form):
            return self.propagate_fixpoint()
        return self._settle(form)

    def _claim(self, var):
        """The read's variable hook: an unbound variable new to the store
        gets the full domain; one the rational store owns is a TypeMix
        error."""
        if var.id not in self.domains:
            self.bindings.claim(var, self)
            self.bindings.set(self.domains, var.id, _FULL_DOMAIN)
        return var

    def _special(self, expr):
        """abs and mod, flattened onto fresh auxiliary variables."""
        if expr.name == "abs" and len(expr.args) == 1:
            return expr.args, lambda x: self._onto_aux(x, AbsProp)
        if expr.name == "mod" and len(expr.args) == 2:
            m = self.bindings.deref(expr.args[1])
            if not isinstance(m, int) or m <= 0:
                raise NonLinearUnsupported(
                    "mod requires a ground positive modulus")
            return expr.args[:1], lambda x: self._onto_aux(
                x, lambda x, y: ModProp(x, m, y))
        return None

    def _onto_aux(self, linear, make_prop):
        """Linear form of a fresh auxiliary y tied by make_prop(x, y) to
        the variable x equal to linear."""
        x = self._flatten(linear)
        y = self._aux()
        self.add_prop(make_prop(x, y))
        return {y: 1}, 0

    def _flatten(self, linear):
        """Auxiliary variable equal to the linear form (coeffs, k), or
        the variable itself when the form is one."""
        coeffs, k = linear
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if k == 0 and list(coeffs.values()) == [1]:
            return next(iter(coeffs))
        y = self._aux()
        self.add_prop(LinearProp([(c, v) for v, c in coeffs.items()]
                                 + [(-1, y)], -k, "eq"))
        return y

    def _aux(self):
        return self._claim(Var("_fd"))

    # --- aliasing and grounding hooks from unification ---------------

    def on_bind_value(self, var, value):
        """Bind var, an FD variable, to value; check and propagate."""
        dom = self.domains[var.id]
        if type(value) is not int or not dom.contains(value):
            return False
        self.bindings.bind(var, value)
        if dom.card == 1:   # {value} already, and the queue is empty
            return True
        self.set_dom_raw(var.id, FdDomain.from_range(value, value))
        return self.propagate_fixpoint()

    def on_alias(self, var, root):
        """Bind var to root, both unbound FD variables: merge domains and
        watchers, and re-link and re-run the propagators over var."""
        self.bindings.bind(var, root)
        merged = self.domains[var.id].intersect(self.domains[root.id])
        if not self.set_dom_raw(root.id, merged):
            return False
        moved = self.watchers.get(var.id, ())
        self._watch(root.id, moved, self.soft_watchers.get(var.id, ()))
        for idx in moved:
            prop = self.props[idx]
            if isinstance(prop, LinearProp):
                self.bindings.set(self.props, idx,
                                  prop.relinked(self.bindings))
            self._enqueue(idx)
        return self._settle((root,))

    # --- labeling -----------------------------------------------------

    def constrained_vars(self):
        """The variables the store owns, in the order it claimed them."""
        return [v for store, v in self.bindings.owner.values()
                if store is self]

    def to_label(self, variables):
        """The unbound entries of a labeling list, dereferenced: each must
        have a finite domain, and every other entry must be an integer."""
        out = []
        for v in map(self.bindings.deref, variables):
            if type(v) is Var:
                if not self.domains.get(v.id, _FULL_DOMAIN).is_finite():
                    raise UnboundedDomain(f"{v.name} has no finite domain")
                out.append(v)
            elif type(v) is not int:
                raise PlTypeError(
                    f"labeling expects integers, got {term_to_text(v)}")
        return out


def _integer(t):
    """The read's number hook: only an integer is read."""
    if type(t) is int:
        return t
    raise PlTypeError(f"unsupported constraint expression: {term_to_text(t)}")


def fd_label(var, store):
    """Yield once per value of var's domain that on_bind_value binds var
    to, rewinding the trail to the mark taken before the first between
    values; each value tried charges one step."""
    mark = store.bindings.mark()
    for value in store.domains[var.id].values():
        store.meter.tick()
        if store.on_bind_value(var, value):
            yield
        store.bindings.undo_to(mark)
