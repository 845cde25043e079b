"""Canonical term printing: the bit-exact format used in transcripts.

Operators render with the reader's table, lists as [a,b|T], rationals as
N rdiv D.  parse(print(t)) is a variant of t.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import engine
from .errors import BudgetExceeded
from .reader import INFIX, PREFIX
from .terms import Atom, Struct, Var, is_number

_UNQUOTED_SYMBOLIC = set("#$&*+-./:<=>?@^~\\")

# terms written between two reads of the wall clock
CLOCK_EVERY = 4096


def _atom_text(name):
    if name == "" or name in ("[]", "{}", "!", ";"):
        return name if name else "''"
    if name[0].islower() and all(c == "_" or c.isalnum() for c in name):
        return name
    if all(c in _UNQUOTED_SYMBOLIC for c in name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f"'{escaped}'"


def term_to_text(t, deadline=None):
    """Text of t; past deadline, a time.monotonic() value, the write is
    refused with BudgetExceeded("time")."""
    return _write(t, 1200, deadline)


def _write(t, max_prio, deadline):
    """Text of t where a term of priority above max_prio needs brackets.

    Subterms are written on an explicit stack, so the depth of t costs
    no Python recursion: an entry (t, max_prio) writes t onto `out`, and
    a callable entry joins the texts its subterms left on `out`.  A
    shared subterm is written each time it is reached, so the terms
    written are counted: past engine.DEFAULT_MAX_MEMORY the write is
    refused with BudgetExceeded("memory"), and every CLOCK_EVERY terms
    the clock is read against deadline.
    """
    limit = engine.DEFAULT_MAX_MEMORY
    out = []
    work = [(t, max_prio)]
    while work:
        item = work.pop()
        if callable(item):
            item(out, work)
            continue
        limit -= 1
        if limit < 0:
            raise BudgetExceeded("memory")
        if deadline is not None and limit % CLOCK_EVERY == 0 \
                and time.monotonic() > deadline:
            raise BudgetExceeded("time")
        t, max_prio = item
        if isinstance(t, Struct):
            _write_struct(t, max_prio, work)
        else:
            out.append(_atomic_text(t, max_prio))
    return out[0]


def _atomic_text(t, max_prio):
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
    raise TypeError(f"unprintable term {t!r}")


def _pop(out, n):
    texts = out[len(out) - n:]
    del out[len(out) - n:]
    return texts


def _write_struct(t, max_prio, work):
    """Push onto work the entries that write the compound t."""
    if t.name == "." and len(t.args) == 2:
        _write_list(t, work)
        return
    if t.name == "{}" and len(t.args) == 1:
        work.append(lambda out, work: out.append("{" + out.pop() + "}"))
        work.append((t.args[0], 1200))
        return
    # 'N rdiv D' of two integers reads back as a rational
    if len(t.args) == 2 and t.name in INFIX and not (
            t.name == "rdiv" and all(isinstance(a, int) for a in t.args)):
        prio, typ = INFIX[t.name]
        lmax = prio if typ == "yfx" else prio - 1
        rmax = prio if typ == "xfy" else prio - 1
        sep = f" {t.name} " if t.name != "," else ", "
        # '- + 1' would read back as -(+(1)): an operator atom on the
        # left is bracketed, as ISO writeq does
        left_op = isinstance(t.args[0], Atom) and (
            t.args[0].name in INFIX or t.args[0].name in PREFIX)

        def infix(out, work):
            left, right = _pop(out, 2)
            if left_op:
                left = f"({left})"
            out.append(_maybe_paren(left + sep + right, prio, max_prio))

        work.append(infix)
        work.append((t.args[1], rmax))
        work.append((t.args[0], lmax))
        return
    if len(t.args) == 1 and t.name in PREFIX:
        prio, typ = PREFIX[t.name]
        amax = prio if typ == "fy" else prio - 1

        def prefix(out, work):
            arg = out.pop()
            # '- 1' and '- 1 ^ 2' would read back with the number -1,
            # and '\+ (a, b)' as '\+'/2, so such operands take
            # functional notation
            if is_number(t.args[0]) or arg[0] == "(" or arg[0].isdigit():
                _write_canonical(t, work)
                return
            space = " " if (arg[0].isalnum() or arg[0] in "_-" or
                            t.name[-1] in _UNQUOTED_SYMBOLIC and
                            arg[0] in _UNQUOTED_SYMBOLIC or
                            t.name[-1].isalnum()) else ""
            out.append(_maybe_paren(f"{_atom_text(t.name)}{space}{arg}",
                                    prio, max_prio))

        work.append(prefix)
        work.append((t.args[0], amax))
        return
    _write_canonical(t, work)


def _write_canonical(t, work):
    n = len(t.args)
    work.append(lambda out, work: out.append(
        f"{_atom_text(t.name)}({', '.join(_pop(out, n))})"))
    work.extend((a, 999) for a in reversed(t.args))


def _maybe_paren(text, prio, max_prio):
    return f"({text})" if prio > max_prio else text


def _write_list(t, work):
    items = []
    while True:
        items.append(t.args[0])
        tail = t.args[1]
        if isinstance(tail, Struct) and tail.name == "." and len(tail.args) == 2:
            t = tail
            continue
        break
    n = len(items)
    if tail is Atom("[]"):
        work.append(lambda out, work: out.append(
            "[" + ", ".join(_pop(out, n)) + "]"))
    else:
        def partial(out, work):
            texts = _pop(out, n + 1)
            out.append("[" + ", ".join(texts[:n]) + "|" + texts[n] + "]")

        work.append(partial)
        work.append((tail, 999))
    work.extend((item, 999) for item in reversed(items))
