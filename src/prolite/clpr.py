"""Exact-rational linear constraint store.

Incremental Gaussian elimination: equality rows are kept in reduced
row-echelon form with a designated pivot per row; newly determined
variables are bound straight into the engine bindings.  Inequalities are
checked by Fourier-Motzkin elimination under a small row cap.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (IneqCapExceeded, NonLinearUnsupported, PlTypeError,
                     TypeMix, ZeroDivisor)
from .terms import Struct, Var, linearize, normalize_number

EQ_OPS = {"=", "#="}
INEQ_OPS = {"<": "lt", ">": "gt", "=<": "le", ">=": "ge", "#<": "lt",
            "#>": "gt", "#=<": "le", "#>=": "ge"}

DEFAULT_INEQ_CAP = 12


class RStore:
    """Echelon equality rows plus inequality rows.

    The three tables are written only through bindings.set, and a stored
    row is never mutated in place, so the query's one trail undoes them
    together with the bindings.
    """

    def __init__(self, bindings, is_fd):
        self.bindings = bindings
        self.rows = {}        # pivot vid -> (expr: {vid: Fraction}, const)
        self.ineqs = {}       # index -> ({vid: Fraction}, const, "le"|"lt")
        self.varobj = {}      # vid -> Var
        self.is_fd = is_fd

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
        if goal.name in EQ_OPS:
            return self._insert_eq(expr, const)
        rel = INEQ_OPS.get(goal.name)
        if rel is None:
            raise PlTypeError(f"unsupported rational relation {goal.name!r}")
        if rel in ("gt", "ge"):
            expr = {v: -c for v, c in expr.items()}
            const = -const
            rel = "lt" if rel == "gt" else "le"
        return self._insert_ineq(expr, const, rel)

    def _linearize(self, expr):
        """({vid: coeff}, const) for a rational-linear expression."""
        return linearize(expr, self.bindings, _rational, self._register,
                         self._divide)

    def _register(self, var):
        if self.is_fd(var):
            raise TypeMix(f"{var.name} is already finite-domain constrained")
        if var.id not in self.varobj:
            self.bindings.set(self.varobj, var.id, var)
        return var.id

    def _divide(self, expr):
        """Division by a ground, non-zero divisor."""
        if expr.name not in ("/", "rdiv") or len(expr.args) != 2:
            return None
        num, k = self._linearize(expr.args[0])
        den, dk = self._linearize(expr.args[1])
        if den:
            raise NonLinearUnsupported("division by a variable")
        if dk == 0:
            raise ZeroDivisor("division by zero in constraint")
        return {v: c / dk for v, c in num.items()}, k / dk

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
        c = expr.pop(pivot)
        pexpr = {v: -cc / c for v, cc in expr.items()}
        pconst = -const / c
        # keep the echelon reduced: eliminate the new pivot everywhere
        put = self.bindings.set
        for p, (e, k) in list(self.rows.items()):
            if pivot in e:
                put(self.rows, p, _subst_into(e, k, pivot, pexpr, pconst))
        put(self.rows, pivot, (pexpr, pconst))
        for i, (e, k, rel) in list(self.ineqs.items()):
            if pivot in e:
                put(self.ineqs, i,
                    _subst_into(e, k, pivot, pexpr, pconst) + (rel,))
        self._bind_determined()
        return self._check_ground_ineqs()

    def _insert_ineq(self, expr, const, rel):
        if len(self.ineqs) >= DEFAULT_INEQ_CAP:
            raise IneqCapExceeded(
                f"more than {DEFAULT_INEQ_CAP} inequality rows")
        expr, const = self._substitute(expr, const)
        self.bindings.set(self.ineqs, len(self.ineqs), (expr, const, rel))
        return self.check_ineq()

    def _bind_determined(self):
        for pivot, (e, k) in self.rows.items():
            if not e:
                var = self.varobj.get(pivot)
                if var is not None and isinstance(self.bindings.deref(var), Var):
                    self.bindings.bind(self.bindings.deref(var),
                                       normalize_number(k))

    def _check_ground_ineqs(self):
        for e, k, rel in self.ineqs.values():
            if not e:
                if rel == "le" and k > 0:
                    return False
                if rel == "lt" and k >= 0:
                    return False
        return True

    # --- queries ------------------------------------------------------

    def check_ineq(self):
        """Fourier-Motzkin consistency of the inequality rows."""
        rows = list(self.ineqs.values())
        while True:
            vids = sorted({v for e, _, _ in rows for v in e})
            if not vids:
                break
            v = vids[0]
            pos, neg, rest = [], [], []
            for e, k, rel in rows:
                c = e.get(v, Fraction(0))
                if c > 0:
                    pos.append((e, k, rel))
                elif c < 0:
                    neg.append((e, k, rel))
                else:
                    rest.append((e, k, rel))
            combined = []
            for pe, pk, prel in pos:
                for ne, nk, nrel in neg:
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
        for e, k, rel in rows:
            if rel == "le" and k > 0:
                return False
            if rel == "lt" and k >= 0:
                return False
        return True


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
