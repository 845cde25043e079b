"""Canonical term printing: the bit-exact format used in transcripts.

Operators render with the reader's table, lists as [a,b|T], rationals as
N rdiv D.  parse(print(t)) is a variant of t for default-table terms.
"""

from __future__ import annotations

from fractions import Fraction

from .reader import DEFAULT_OPS
from .terms import Atom, Struct, Var, is_number

_UNQUOTED_SYMBOLIC = set("#$&*+-./:<=>?@^~\\")


def _atom_text(name):
    if name == "" or name in ("[]", "{}", "!", ";", ","):
        return name if name else "''"
    if name[0].islower() and all(c == "_" or c.isalnum() for c in name):
        return name
    if all(c in _UNQUOTED_SYMBOLIC for c in name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f"'{escaped}'"


def term_to_text(t, ops=DEFAULT_OPS, bindings=None):
    if bindings is not None:
        t = bindings.resolve(t)
    return _write(t, 1200, ops)


def _write(t, max_prio, ops):
    if isinstance(t, Var):
        return f"_G{t.id}"
    if isinstance(t, bool):
        return "true" if t else "fail"
    if isinstance(t, int):
        return _maybe_paren(str(t), 200 if t < 0 else 0, max_prio)
    if isinstance(t, Fraction):
        text = f"{t.numerator} rdiv {t.denominator}"
        return _maybe_paren(text, 400, max_prio)
    if isinstance(t, float):
        return _maybe_paren(repr(t), 200 if t < 0 else 0, max_prio)
    if isinstance(t, Atom):
        return _atom_text(t.name)
    if isinstance(t, Struct):
        if t.name == "." and len(t.args) == 2:
            return _write_list(t, ops)
        if t.name == "{}" and len(t.args) == 1:
            return "{" + _write(t.args[0], 1200, ops) + "}"
        # 'N rdiv D' of two integers reads back as a rational
        if len(t.args) == 2 and t.name in ops.infix and not (
                t.name == "rdiv" and all(isinstance(a, int) for a in t.args)):
            prio, typ = ops.infix[t.name]
            lmax = prio if typ == "yfx" else prio - 1
            rmax = prio if typ == "xfy" else prio - 1
            sep = f" {t.name} " if t.name != "," else ", "
            text = _write(t.args[0], lmax, ops) + sep \
                + _write(t.args[1], rmax, ops)
            return _maybe_paren(text, prio, max_prio)
        if len(t.args) == 1 and t.name in ops.prefix:
            prio, typ = ops.prefix[t.name]
            amax = prio if typ == "fy" else prio - 1
            arg = _write(t.args[0], amax, ops)
            # '- 1' and '- 1 ^ 2' would read back with the number -1,
            # and '\+ (a, b)' as '\+'/2, so such operands take
            # functional notation
            if not (is_number(t.args[0]) or arg[0] == "("
                    or arg[0].isdigit()):
                space = " " if (arg[0].isalnum() or arg[0] in "_-" or
                                t.name[-1] in _UNQUOTED_SYMBOLIC and
                                arg[0] in _UNQUOTED_SYMBOLIC or
                                t.name[-1].isalnum()) else ""
                return _maybe_paren(f"{_atom_text(t.name)}{space}{arg}",
                                    prio, max_prio)
        args = ", ".join(_write(a, 999, ops) for a in t.args)
        return f"{_atom_text(t.name)}({args})"
    raise TypeError(f"unprintable term {t!r}")


def _maybe_paren(text, prio, max_prio):
    return f"({text})" if prio > max_prio else text


def _write_list(t, ops):
    parts = []
    while True:
        parts.append(_write(t.args[0], 999, ops))
        tail = t.args[1]
        if isinstance(tail, Struct) and tail.name == "." and len(tail.args) == 2:
            t = tail
            continue
        if tail is Atom("[]"):
            return "[" + ", ".join(parts) + "]"
        return "[" + ", ".join(parts) + "|" + _write(tail, 999, ops) + "]"
