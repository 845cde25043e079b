"""Exact-rational linear constraint store.

Incremental Gaussian elimination: equality rows are kept in reduced
row-echelon form with a designated pivot per row; newly determined
variables are bound straight into the engine bindings.  Inequalities,
freed of pivot variables, are checked exactly by a general simplex with
Bland's rule, which needs no cap on rows or pivots.  A variable belongs
to at most one store: an FD variable in a posted relation, or aliased
with a rational one, is a TypeMix error.  Each row an equality rewrites
and each simplex pivot is a step on the meter, the engine's SolveState.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonLinearUnsupported, PlTypeError, ZeroDivisor
from .terms import Struct, Var, is_number, linearize, normalize_number
from .writer import term_to_text

# a {} relation -> the relation of the row it posts
_RELATIONS = {"=": "eq", "<": "lt", ">": "gt", "=<": "le", ">=": "ge"}


class RStore:
    """Echelon equality rows plus inequality rows.

    The two tables are written only through bindings.set, and a stored
    row is never mutated in place, so the query's one trail undoes them
    together with the bindings."""

    def __init__(self, bindings, meter):
        self.bindings = bindings
        self.rows = {}        # pivot vid -> (expr: {vid: Fraction}, const)
        self.ineqs = {}       # index -> ({vid: Fraction}, const, "le"|"lt")
        self.meter = meter

    def mark(self):
        # Unused by the engine, which reads the trail height itself; kept
        # because perfbench/spans.py wraps it by name (RStore.__dict__).
        return self.bindings.mark()

    # --- posting ------------------------------------------------------

    def post(self, goal):
        """Post one linear relation; False means inconsistency."""
        expr, const = self._linearize(Struct("-", goal.args))
        rel = _RELATIONS.get(goal.name)
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
                self.meter.tick()
                put(self.rows, p, _subst_into(e, k, pivot, pexpr, pconst))
        put(self.rows, pivot, (pexpr, pconst))
        for i, (e, k, rel) in list(self.ineqs.items()):
            if pivot in e:
                self.meter.tick()
                put(self.ineqs, i,
                    _subst_into(e, k, pivot, pexpr, pconst) + (rel,))
        self._bind_determined()
        return True

    def _insert_ineq(self, expr, const, rel):
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
        """Whether the inequality rows have a rational solution, by the
        general simplex of Dutertre and de Moura (CAV 2006).

        Row i becomes a basic slack ~i = expr, bounded above by -const,
        or by -const - delta for a strict row, with delta a small positive
        number: a bound or value a + b*delta is the pair (a, b).  The
        rows' variables, which elimination keeps free of equality pivots,
        are unbounded and start at 0.  While a basic slack exceeds its
        bound, the least such one pivots with the least nonbasic that can
        bring it back (Bland's rule, so no basis repeats), one tick per
        pivot.
        """
        tableau, upper, value = {}, {}, {}   # basic -> {nonbasic: coeff}
        for i, (expr, const, rel) in enumerate(self.ineqs.values()):
            tableau[~i] = dict(expr)
            upper[~i] = (-const, -1 if rel == "lt" else 0)
        zero = (0, 0)
        while True:
            bad = [b for b in tableau
                   if b < 0 and value.get(b, zero) > upper[b]]
            if not bad:
                return True
            b = min(bad)
            row = tableau.pop(b)
            # b must fall: lower a nonbasic of positive coefficient (no
            # variable has a lower bound), or raise one of negative
            # coefficient that is unbounded or below its bound
            movable = [n for n, c in row.items()
                       if c > 0 or n >= 0 or value.get(n, zero) < upper[n]]
            if not movable:
                return False
            self.meter.tick()
            n = min(movable)
            c = Fraction(row[n])
            (u, ud), (v, vd) = upper[b], value.get(b, zero)
            step, stepd = (u - v) / c, (ud - vd) / c
            value[b] = upper[b]
            v, vd = value.get(n, zero)
            value[n] = (v + step, vd + stepd)
            # n = (b - the rest of row) / c, substituted into every row
            pivot = {x: -a / c for x, a in row.items() if x != n}
            pivot[b] = 1 / c
            for x, r in tableau.items():
                a = r.pop(n, 0)
                if a:
                    v, vd = value.get(x, zero)
                    value[x] = (v + a * step, vd + a * stepd)
                    for y, d in pivot.items():
                        r[y] = r.get(y, 0) + a * d
                        if not r[y]:
                            del r[y]
            tableau[n] = pivot


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
    raise PlTypeError(f"unsupported rational expression: {term_to_text(t)}")


def _subst_into(e, k, pivot, pexpr, pconst):
    """A copy of the row (e, k) with pivot replaced by pexpr + pconst."""
    e = dict(e)
    coef = e.pop(pivot)
    for v2, c2 in pexpr.items():
        e[v2] = e.get(v2, Fraction(0)) + coef * c2
        if e[v2] == 0:
            del e[v2]
    return (e, k + coef * pconst)
