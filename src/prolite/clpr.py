"""Exact-rational linear constraint store.

Incremental Gaussian elimination: equality rows are kept in reduced
row-echelon form with a designated pivot per row; newly determined
variables are bound straight into the engine bindings.  Inequalities are
checked by Fourier-Motzkin elimination under a small row cap, eliminating
first the variable whose step adds the fewest rows.  A variable belongs
to at most one store: an FD variable in a posted relation, or aliased
with a rational one, is a TypeMix error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (IneqCapExceeded, NonLinearUnsupported, PlTypeError,
                     ZeroDivisor)
from .terms import Struct, Var, is_number, linearize, normalize_number

EQ_OPS = {"=", "#="}
INEQ_OPS = {"<": "lt", ">": "gt", "=<": "le", ">=": "ge", "#<": "lt",
            "#>": "gt", "#=<": "le", "#>=": "ge"}

DEFAULT_INEQ_CAP = 12
ELIMINATION_CAP = 20_000    # rows Fourier-Motzkin elimination may hold


class RStore:
    """Echelon equality rows plus inequality rows.

    The two tables are written only through bindings.set, and a stored
    row is never mutated in place, so the query's one trail undoes them
    together with the bindings.  tick() is called once per row that
    elimination rewrites or derives, so the work counts toward the
    query's budget.
    """

    def __init__(self, bindings, tick):
        self.bindings = bindings
        self.rows = {}        # pivot vid -> (expr: {vid: Fraction}, const)
        self.ineqs = {}       # index -> ({vid: Fraction}, const, "le"|"lt")
        self.tick = tick

    def mark(self):
        # Unused by the engine, which reads the trail height itself; kept
        # because perfbench/spans.py wraps it by name (RStore.__dict__).
        return self.bindings.mark()

    # --- posting ------------------------------------------------------

    def post(self, goal):
        """Post one linear relation; False means inconsistency."""
        if not (isinstance(goal, Struct) and len(goal.args) == 2):
            raise PlTypeError(f"not a linear constraint: {goal!r}")
        expr, const = self._linearize(Struct("-", goal.args))
        rel = "eq" if goal.name in EQ_OPS else INEQ_OPS.get(goal.name)
        if rel is None:
            raise PlTypeError(f"unsupported rational relation {goal.name!r}")
        return self.post_linear([(expr, const, rel)])

    def post_linear(self, rows):
        """Post rows (expr, const, rel), each meaning expr + const rel 0,
        with expr a {key: coeff} map of ints or Fractions and rel one of
        eq, lt, le, gt, ge.  The inequalities are checked once, after the
        last row, whenever a row was posted while inequality rows are
        live.  False if inconsistent."""
        check = False
        for expr, const, rel in rows:
            if rel == "eq":
                if not self._insert_eq(expr, const):
                    return False
                # substituted into the inequality rows, an equality can
                # make them inconsistent without any one becoming false
                check = check or bool(self.ineqs)
                continue
            if rel in ("gt", "ge"):
                expr = {v: -c for v, c in expr.items()}
                const = -const
                rel = "lt" if rel == "gt" else "le"
            self._insert_ineq(expr, const, rel)
            check = True
        return not check or self.check_ineq()

    def _linearize(self, expr):
        """({vid: coeff}, const) for a rational-linear expression."""
        return linearize(expr, self.bindings, _rational, self._register,
                         self._divide)

    def _register(self, var):
        self.bindings.claim(var, self)
        return var.id

    def _divide(self, expr):
        """Division by a ground, non-zero divisor."""
        if expr.name not in ("/", "rdiv") or len(expr.args) != 2:
            return None
        return expr.args, _quotient

    # --- echelon maintenance -----------------------------------------

    def _substitute(self, expr, const):
        """Replace every pivot variable in expr by its definition (one
        pass suffices: no row mentions a pivot)."""
        for vid in [v for v in expr if v in self.rows]:
            expr, const = _subst_into(expr, const, vid, *self.rows[vid])
        return expr, const

    def _insert_eq(self, expr, const):
        expr, const = self._substitute(expr, const)
        if not expr:
            return const == 0
        pivot = min(expr)  # deterministic pivot choice
        c = Fraction(expr.pop(pivot))
        pexpr = {v: -cc / c for v, cc in expr.items()}
        pconst = -const / c
        # keep the echelon reduced: eliminate the new pivot everywhere
        put = self.bindings.set
        for p, (e, k) in list(self.rows.items()):
            if pivot in e:
                self.tick()
                put(self.rows, p, _subst_into(e, k, pivot, pexpr, pconst))
        put(self.rows, pivot, (pexpr, pconst))
        for i, (e, k, rel) in list(self.ineqs.items()):
            if pivot in e:
                self.tick()
                put(self.ineqs, i,
                    _subst_into(e, k, pivot, pexpr, pconst) + (rel,))
        self._bind_determined()
        return not _violated(self.ineqs.values())

    def _insert_ineq(self, expr, const, rel):
        if len(self.ineqs) >= DEFAULT_INEQ_CAP:
            raise IneqCapExceeded(
                f"more than {DEFAULT_INEQ_CAP} inequality rows")
        expr, const = self._substitute(expr, const)
        self.bindings.set(self.ineqs, len(self.ineqs), (expr, const, rel))

    def _bind_determined(self):
        # unification never binds a rational variable to another
        # variable, so it is either unbound or bound to its value
        for pivot, (e, k) in self.rows.items():
            held = self.bindings.owner.get(pivot)
            if not e and held is not None \
                    and isinstance(self.bindings.deref(held[1]), Var):
                self.bindings.bind(held[1], normalize_number(k))

    # --- unification hooks --------------------------------------------

    def on_bind_value(self, var, value):
        """Unify var, an unbound rational variable, with value."""
        return is_number(value) and self.post(Struct("=", (var, value)))

    def on_alias(self, var, other):
        """Unify two unbound rational variables."""
        return self.post(Struct("=", (var, other)))

    # --- queries ------------------------------------------------------

    def check_ineq(self):
        """Fourier-Motzkin consistency of the inequality rows."""
        rows = list(self.ineqs.values())
        while True:
            signs = {}
            for e, _, _ in rows:
                for v, c in e.items():
                    p, n = signs.get(v, (0, 0))
                    signs[v] = (p + (c > 0), n + (c < 0))
            if not signs:
                break
            # eliminate the variable whose step adds the fewest rows
            v = min(sorted(signs), key=lambda v: signs[v][0] * signs[v][1]
                    - signs[v][0] - signs[v][1])
            pos, neg, rest = [], [], []
            for e, k, rel in rows:
                c = e.get(v, Fraction(0))
                if c > 0:
                    pos.append((e, k, rel))
                elif c < 0:
                    neg.append((e, k, rel))
                else:
                    rest.append((e, k, rel))
            if len(rest) + len(pos) * len(neg) > ELIMINATION_CAP:
                raise IneqCapExceeded("Fourier-Motzkin elimination too large")
            combined = []
            for pe, pk, prel in pos:
                for ne, nk, nrel in neg:
                    self.tick()
                    pc, nc = pe[v], -ne[v]
                    e = {}
                    for v2, c2 in pe.items():
                        if v2 != v:
                            e[v2] = e.get(v2, Fraction(0)) + nc * c2
                    for v2, c2 in ne.items():
                        if v2 != v:
                            e[v2] = e.get(v2, Fraction(0)) + pc * c2
                    e = {v2: c2 for v2, c2 in e.items() if c2 != 0}
                    k = nc * pk + pc * nk
                    rel = "lt" if "lt" in (prel, nrel) else "le"
                    combined.append((e, k, rel))
            rows = rest + combined
        return not _violated(rows)


def _violated(rows):
    """True when a row without variables is false."""
    return any(k > 0 if rel == "le" else k >= 0
               for e, k, rel in rows if not e)


def _quotient(num, den):
    """Linear form of num / den, the two linear forms of a division."""
    (coeffs, k), (dcoeffs, dk) = num, den
    if any(dcoeffs.values()):
        raise NonLinearUnsupported("division by a variable")
    if dk == 0:
        raise ZeroDivisor("division by zero in constraint")
    return {v: c / dk for v, c in coeffs.items()}, k / dk


def _rational(t):
    if isinstance(t, (int, Fraction)) and not isinstance(t, bool):
        return Fraction(t)
    raise PlTypeError(f"unsupported rational expression: {t!r}")


def _subst_into(e, k, pivot, pexpr, pconst):
    """A copy of the row (e, k) with pivot replaced by pexpr + pconst."""
    e = dict(e)
    coef = e.pop(pivot)
    for v2, c2 in pexpr.items():
        e[v2] = e.get(v2, Fraction(0)) + coef * c2
        if e[v2] == 0:
            del e[v2]
    return (e, k + coef * pconst)
