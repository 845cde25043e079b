"""Tokenizer and operator-precedence parser for the Prolog subset.

The tokenizer is one compiled master regex with a named alternative per
token class, each preceded by the layout it skips; `finditer` walks the
source.  A token keeps its offset, and its line and column are worked
out from the source only when read, mostly to build an error.  Comments
are skipped.  The parser is a Pratt-style loop over an index into the
token list, on the classical 1..1200 priority scale, driven by one
fixed operator table, PREFIX and INFIX, that the writer shares.
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .errors import LexError, OperatorClash, ParseError
from .terms import (NIL, Atom, Clause, Struct, Var, make_list,
                    normalize_number)

_SYMBOL = r"[#$&*+\-./:<=>?@^~\\]"
_TERMINATED = r"(?=[ \t\r\n%]|\Z)"  # what may follow a clause-ending '.'


def _quoted(q, group):
    """Patterns for a closed and an unclosed token quoted by q.

    The body is plain runs, doubled quotes and two-character escapes.  The
    closed form must take it atomically, or a missing close would re-split
    the body into a shorter closed token: the body is captured in a
    lookahead, which is never re-entered, and matched again by
    backreference (possessive `*+` needs Python 3.11).  The unclosed form
    ends its match, so its greedy repeat never backtracks.
    """
    body = rf"(?:[^{q}\\]+|{q}{q}|\\.)*"
    return rf"{q}(?=(?P<{group}>{body}))(?P={group}){q}", q + body


_SQ, _SQ_OPEN = _quoted("'", "sq_body")
_DQ, _DQ_OPEN = _quoted('"', "dq_body")

# Alternatives are tried in order at each token start.  ASCII names,
# punctuation and variables come first, as the commonest tokens, whose
# first characters start no other token; other names start with a
# non-ASCII letter (or a non-letter such as '²', rejected afterwards);
# comments come before symbol runs (so '/*' opens a comment), the
# terminator '.' before symbol runs, and a symbol run leaves a final
# terminating '.' to the next token.
_HEAD = (r"[ \t\r\n]*(?:"
         r"(?P<lower>[a-z]\w*)"
         r"|(?P<punct>[()\[\]{},|])"
         r"|(?P<upper>[A-Z_]\w*)")
_NAMES_AND_NUMBERS = (r"|(?P<name>[^\W\d]\w*)"
                      r"|(?P<dec>\d+\.\d+)"
                      r"|(?P<int>\d+)")
_TAIL = (rf"|(?P<end>\.{_TERMINATED})"
         rf"|(?P<atom>[!;]|{_SYMBOL}+?(?=\.{_TERMINATED})|{_SYMBOL}+)"
         r"|(?P<eof>\Z)"
         r"|(?P<illegal>.))")
_TOKEN = re.compile(
    _HEAD
    + r"|(?P<comment>%[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    + _NAMES_AND_NUMBERS
    + rf"|(?P<quoted>{_SQ}|{_DQ})"
    rf"|(?P<unclosed>{_SQ_OPEN}|{_DQ_OPEN})"
    + _TAIL,
    re.DOTALL)


def _kinds(regex):
    """The name of each group of a master regex by index, and the token
    kind of each alternative whose value is its text."""
    group = {index: name for name, index in regex.groupindex.items()}
    plain = [{"lower": "atom", "punct": "punct", "upper": "var",
              "atom": "atom"}.get(group.get(index))
             for index in range(regex.groups + 1)]
    return group, plain


_GROUP, _PLAIN = _kinds(_TOKEN)
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
_ESCAPE = {q: re.compile(rf"\\(.)|{q}{q}", re.DOTALL) for q in "'\""}


class Token(tuple):
    """One token: the tuple (kind, text, value, layout, source, offset)
    that the parser reads, with a name for each field.  Its line and
    column are worked out from the source only when read, mostly to
    build an error.  `parse_program` reads plain tuples of the same
    shape and makes no Token objects."""

    __slots__ = ()

    # kind is one of atom, var, int, dec, str, punct, end and eof;
    # layout is whether whitespace or a comment directly precedes it
    kind = property(itemgetter(0))
    text = property(itemgetter(1))
    value = property(itemgetter(2))
    layout = property(itemgetter(3))
    source = property(itemgetter(4))
    offset = property(itemgetter(5))

    @property
    def line(self):
        return _line_col(self[4], self[5])[0]

    @property
    def col(self):
        return _line_col(self[4], self[5])[1]

    def __repr__(self):
        return f"Token({self[0]}, {self[1]!r}, offset {self[5]})"


def _line_col(source, offset):
    """1-based line and column of an offset into source."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _lex_error(message, source, offset):
    return LexError(message, *_line_col(source, offset))


def _unescape(body, quote, source, offset):
    """Resolve the escapes and doubled quotes of a quoted token's body."""
    def replace(m):
        esc = m.group(1)
        if esc is None:
            return quote
        if esc not in _ESCAPES:
            raise _lex_error(f"unknown escape \\{esc}", source, offset)
        return _ESCAPES[esc]

    return _ESCAPE[quote].sub(replace, body)


def tokenize(source):
    """Full token list for source, ending with an eof marker."""
    return list(map(Token, _lex(source)))


def _lex(source):
    """The tokens of source as plain tuples, ending with an eof marker."""
    toks = []
    append = toks.append
    last = 0  # where the last token ended
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        start, end = m.span(group)
        text = source[start:end]
        layout = start != last
        last = end
        plain = _PLAIN[group]
        if plain is not None:
            append((plain, text, text, layout, source, start))
            continue
        kind = _GROUP[group]
        if kind == "end":
            append(("end", text, None, layout, source, start))
        elif kind == "comment":
            last = -1  # so the next token has layout before it
        elif kind == "eof":  # always the last match
            append(("eof", "", None, False, source, start))
            return toks
        else:
            kind, text, value = _checked(kind, text, m, source, start)
            append((kind, text, value, layout, source, start))


def _checked(kind, text, m, source, start):
    """(kind, text, value) of a token that needs more than its match to
    read; raises LexError for one that does not lex."""
    if kind == "int" or kind == "dec":
        try:
            value = int(text) if kind == "int" else Fraction(text)
        except ValueError:  # more digits than int() may convert
            raise _lex_error("number too long", source, start) from None
        return kind, text, value
    if kind == "name":
        c = text[0]  # [^\W\d] also admits non-letters such as '²'
        if not (c == "_" or c.isalpha()):
            raise _lex_error(f"illegal character {c!r}", source, start)
        return "var" if (c == "_" or c.isupper()) else "atom", text, text
    if kind == "quoted" or kind == "unclosed":
        quote = text[0]
        body = _unescape(text[1:-1] if kind == "quoted" else text[1:],
                         quote, source, start)
        if kind == "unclosed":
            # the body stops short of the end only at a lone backslash
            raise _lex_error("dangling escape" if m.end() < len(source)
                             else "unterminated quoted token",
                             source, start)
        # strings are treated as atoms; generated programs use none
        return "str" if quote == '"' else "atom", body, body
    if kind == "open_comment":
        raise _lex_error("unterminated block comment", source, start)
    raise _lex_error(f"illegal character {text!r}", source, start)


@functools.cache
def _walk_token():
    """_TOKEN with each block comment and quoted token cut to its opener
    (kind `long`), and its kind tables; built at the first walk."""
    regex = re.compile(_HEAD + r"|(?P<comment>%[^\n]*)|(?P<long>/\*|['\"])"
                       + _NAMES_AND_NUMBERS + _TAIL, re.DOTALL)
    return (regex, *_kinds(regex))


def _long_token_ends(source):
    """A function from the offset of the '/*' or quote that opens a token
    of source to the offset where the token ends, or None where it does
    not lex: it never closes, or holds an unknown escape.

    A comment ends at the first '*/' after its '/*'.  A quoted body is
    read as _TOKEN reads it, element by element: a run of other
    characters, a doubled quote or an escape.  Where a reading goes from
    an offset depends on that offset alone, so the outcome found is kept
    for every offset the reading passed, and all the quoted tokens of the
    text together are read in time linear in its length."""
    closes = [m.start() for m in re.finditer(r"\*/", source)]
    stops = {q: re.compile(rf"[{q}\\]") for q in "'\""}
    outcome = {}    # (quote, offset in a body) -> end of the token, or None

    def end(start):
        quote = source[start]
        if quote == "/":
            i = bisect.bisect_left(closes, start + 2)
            return closes[i] + 2 if i < len(closes) else None
        stop = stops[quote]
        at = (quote, start + 1)
        passed = []
        while at not in outcome:
            passed.append(at)
            m = stop.search(source, at[1])
            if m is None:
                result = None
                break
            i = m.start()
            if source[i] == quote and not source.startswith(quote, i + 1):
                result = i + 1
                break
            if source[i] == "\\" and source[i + 1:i + 2] not in _ESCAPES:
                result = None
                break
            at = (quote, i + 2)     # past a doubled quote or an escape
        else:
            result = outcome[at]
        for at in passed:
            outcome[at] = result
        return result

    return end


def lexes_to_end(source, starts):
    """For each offset in starts, in order, whether source[start:] lexes
    without a LexError.

    No alternative of _TOKEN looks behind its start, whether a token
    lexes depends on its text alone, and every suffix ends where source
    does, so whether lexing from a token start reaches the end depends
    on that offset alone: each offset is lexed once, and a walk stops at
    the first offset an earlier walk passed.  A block comment or quoted
    token can reach far, and each line of a text may open one, so the
    walk matches only its opener and steps over it through
    _long_token_ends, set up the first time a walk meets one.
    """
    walk, group_of, plain = _walk_token()
    known = {}
    ends = None
    for start in starts:
        walked = []
        ok = None
        pos = start
        while ok is None:
            for m in walk.finditer(source, pos):
                pos = m.start()
                ok = known.get(pos)
                if ok is not None:
                    break
                walked.append(pos)
                group = m.lastindex
                if plain[group] is not None:
                    continue
                kind = group_of[group]
                if kind == "eof":
                    ok = True
                    break
                if kind == "long":
                    if ends is None:
                        ends = _long_token_ends(source)
                    pos = ends(m.start(group))
                    if pos is None:
                        ok = False
                    break   # walk on from the end of the token
                if kind != "end" and kind != "comment":
                    try:
                        _checked(kind, m.group(group), m, source,
                                 m.start(group))
                    except LexError:
                        ok = False
                        break
        for pos in walked:
            known[pos] = ok
        yield ok


# The one operator table, shared with the writer: name -> (priority,
# type), one dict for prefix operators and one for infix operators.
_OPS = [
    (":-", 1200, "xfx"), (":-", 1200, "fx"), ("?-", 1200, "fx"),
    (";", 1100, "xfy"), ("->", 1050, "xfy"), (",", 1000, "xfy"),
    ("\\+", 900, "fy"),
    ("=", 700, "xfx"), ("\\=", 700, "xfx"), ("==", 700, "xfx"),
    ("\\==", 700, "xfx"), ("<", 700, "xfx"), (">", 700, "xfx"),
    ("=<", 700, "xfx"), (">=", 700, "xfx"), ("=:=", 700, "xfx"),
    ("=\\=", 700, "xfx"), ("is", 700, "xfx"),
    ("#=", 700, "xfx"), ("#\\=", 700, "xfx"), ("#<", 700, "xfx"),
    ("#>", 700, "xfx"), ("#=<", 700, "xfx"), ("#>=", 700, "xfx"),
    ("+", 500, "yfx"), ("-", 500, "yfx"),
    ("*", 400, "yfx"), ("/", 400, "yfx"), ("//", 400, "yfx"),
    ("mod", 400, "yfx"), ("rem", 400, "yfx"), ("rdiv", 400, "yfx"),
    ("**", 200, "xfx"), ("^", 200, "xfy"),
    ("-", 200, "fy"), ("+", 200, "fy"),
]
PREFIX = {name: (prio, typ) for name, prio, typ in _OPS if len(typ) == 2}
INFIX = {name: (prio, typ) for name, prio, typ in _OPS if len(typ) == 3}


@dataclass
class Program:
    clauses: list
    directives: list = field(default_factory=list)


# token kinds, and punctuation, that can start a term
_STARTS_TERM = frozenset(("int", "dec", "var", "atom", "str"))
_OPENS_TERM = frozenset(("(", "[", "{"))


MAX_NESTING = 200       # levels of brackets and prefix operators


class _Parser:
    """Pratt parser reading a token list in place from an index.

    `parse` reads a prefix-position term (a primary, or a prefix operator
    and its operand), then folds infix operators into it while they bind
    no looser than its priority limit.  It reads an infix operator's
    right operand in the same loop, keeping (left operand, operator,
    priority, outer limit, next) on the `pending` chain, so a chain of
    operators of any length costs no Python recursion.  Brackets,
    argument lists and prefix operators recurse, and a term nested more
    than MAX_NESTING levels is a ParseError.  Every token that can end a
    term is left unread, and reading an `end` or `eof` as a term is an
    error, so a clause is parsed without slicing it out of the list.
    Tokens are read as tuples (kind, text, value, layout, source,
    offset).
    """

    __slots__ = ("toks", "pos", "varmap", "depth")

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.varmap = {}
        self.depth = 0

    def fail(self, message, tok, expected=None):
        raise ParseError(message, *_line_col(tok[4], tok[5]), expected)

    def parse(self, max_prio):
        toks = self.toks
        depth = self.depth = self.depth + 1
        if depth > MAX_NESTING:
            self.fail(f"term nested deeper than {MAX_NESTING} levels",
                      toks[self.pos])
        infix = INFIX
        pending = None
        while True:
            pos = self.pos
            tok = toks[pos]
            self.pos = pos + 1
            kind = tok[0]
            prio = 0
            if kind == "atom":
                nxt = toks[pos + 1]
                if nxt[1] == "(" and nxt[0] == "punct" and not nxt[3]:
                    # functional notation, the commonest case of self.atom
                    self.pos = pos + 2
                    left = Struct(tok[1], self.arguments())
                else:
                    left, prio = self.atom(tok, max_prio)
            elif kind == "var":
                name = tok[1]
                if name == "_":
                    left = Var("_")
                else:
                    left = self.varmap.get(name)
                    if left is None:
                        left = self.varmap[name] = Var(name)
            elif kind == "int" or kind == "dec":
                left = tok[2] if kind == "int" else normalize_number(tok[2])
            elif kind == "punct":
                left = self.punct(tok)
            elif kind == "str":
                left = Atom(tok[1])
            elif kind == "end":
                self.fail("unexpected end of clause", tok)
            else:
                self.fail("unexpected end of input", tok)

            while True:
                tok = toks[self.pos]
                kind, name = tok[0], tok[1]
                entry = infix.get(name) if kind == "atom" or kind == "punct" \
                    and name == "," else None
                if entry is None or entry[0] > max_prio:
                    if pending is None:
                        self.depth = depth - 1
                        return left
                    right = left
                    left, name, prio, max_prio, pending = pending
                    if name == "rdiv" and type(left) is int \
                            and type(right) is int and right != 0:
                        # two integer literals fold into an exact rational
                        left = normalize_number(Fraction(left, right))
                    else:
                        left = Struct(name, (left, right))
                    continue
                op_prio, typ = entry
                if prio > (op_prio if typ == "yfx" else op_prio - 1):
                    raise OperatorClash(f"operator priority clash at {name!r}",
                                        *_line_col(tok[4], tok[5]))
                self.pos += 1
                pending = (left, name, op_prio, max_prio, pending)
                max_prio = op_prio if typ == "xfy" else op_prio - 1
                break

    def atom(self, tok, max_prio):
        """(term, priority) of a term that starts with an atom."""
        name = tok[1]
        nxt = self.toks[self.pos]
        nkind = nxt[0]
        prefix = PREFIX.get(name)
        # '-' directly before a number, with no layout between, is a
        # negative literal (ISO 6.3.4.1), whatever priority limit the
        # operator '-' would have to meet; after layout it is the operator
        if name == "-" and (nkind == "int" or nkind == "dec") \
                and not nxt[3] and prefix is not None:
            self.pos += 1
            return normalize_number(-nxt[2]), 0
        if prefix is not None and prefix[0] > max_prio:
            prefix = None
        # 'name(' is functional notation; a prefix operator, layout,
        # then '(' applies the operator to the parenthesised term
        if nkind == "punct" and nxt[1] == "(" and not (nxt[3] and prefix):
            self.pos += 1
            return Struct(name, self.arguments()), 0
        if name.startswith("#") and name not in INFIX \
                and name not in PREFIX:
            self.fail(f"unknown constraint operator {name!r}", tok)
        if prefix is not None and (
                nkind in _STARTS_TERM
                or nkind == "punct" and nxt[1] in _OPENS_TERM):
            prio, typ = prefix
            operand = self.parse(prio if typ == "fy" else prio - 1)
            return Struct(name, (operand,)), prio
        return Atom(name), 0

    def arguments(self):
        """Arguments up to the closing ')' of functional notation."""
        args = [self.parse(999)]
        toks = self.toks
        while True:
            tok = toks[self.pos]
            if not (tok[1] == "," and tok[0] == "punct"):
                break
            self.pos += 1
            args.append(self.parse(999))
        self.expect(")")
        return tuple(args)

    def punct(self, tok):
        text = tok[1]
        if text == "(":
            inner = self.parse(1200)
            self.expect(")")
            return inner
        if text == "[":
            return self.parse_list()
        if text == "{":
            nxt = self.toks[self.pos]
            if nxt[1] == "}" and nxt[0] == "punct":
                self.pos += 1
                return Atom("{}")
            inner = self.parse(1200)
            self.expect("}")
            return Struct("{}", (inner,))
        self.fail(f"unexpected {text!r}", tok)

    def parse_list(self):
        toks = self.toks
        tok = toks[self.pos]
        if tok[1] == "]" and tok[0] == "punct":
            self.pos += 1
            return NIL
        items = [self.parse(999)]
        while True:
            tok = toks[self.pos]
            if not (tok[1] == "," and tok[0] == "punct"):
                break
            self.pos += 1
            items.append(self.parse(999))
        tail = NIL
        if tok[1] == "|" and tok[0] == "punct":
            self.pos += 1
            tail = self.parse(999)
        self.expect("]")
        return make_list(items, tail)

    def expect(self, text):
        tok = self.toks[self.pos]
        self.pos += 1
        if not (tok[1] == text and tok[0] == "punct"):
            self.fail(f"expected {text!r}, found {tok[1]!r}", tok,
                      expected=text)


def parse_term(tokens):
    """Parse one term from a token list (eof or end terminated)."""
    p = _Parser(tokens)
    term = p.parse(1200)
    tok = tokens[p.pos]
    if tok[0] != "end" and tok[0] != "eof":
        p.fail(f"trailing input {tok[1]!r}", tok)
    return term


def parse_term_text(source):
    return parse_term(_lex(source))


def comma_flatten(t):
    goals = []
    while isinstance(t, Struct) and t.name == "," and len(t.args) == 2:
        goals.append(t.args[0])
        t = t.args[1]
    goals.append(t)
    return goals


def parse_program(source):
    """All clauses of a source text, in order; directives split out."""
    tokens = _lex(source)
    last_end = len(tokens) - 1
    while last_end >= 0 and tokens[last_end][0] != "end":
        last_end -= 1
    clauses = []
    directives = []
    p = _Parser(tokens)
    while True:
        first = tokens[p.pos]
        if first[0] == "eof":
            return Program(clauses, directives)
        if p.pos > last_end:
            p.fail("clause not terminated by '.'", tokens[-1])
        p.varmap = {}
        term = p.parse(1200)
        tok = tokens[p.pos]
        if tok[0] != "end":
            p.fail(f"trailing input {tok[1]!r}", tok)
        p.pos += 1
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 1:
            directives.append(term.args[0])
            continue
        head, body = term, ()
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
            head, body = term.args[0], comma_flatten(term.args[1])
        if not isinstance(head, (Atom, Struct)):
            p.fail("clause head is not callable", first)
        clauses.append(Clause(head, body))
