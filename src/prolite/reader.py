"""Tokenizer and operator-precedence parser for the Prolog subset.

The tokenizer is one compiled master regex with a named alternative per
token class, each preceded by the layout it skips; `finditer` walks the
source, and a token's line and column are worked out from its match
offset by bisecting the offsets where lines start.  The parser is the
classical priority-climbing read-term algorithm on a 1..1200 scale,
driven by a configurable operator table.  Comments are consumed by the
tokenizer but kept as metadata on the following token so transcripts can
preserve chain-of-thought comments.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LexError, OperatorClash, ParseError
from .terms import Atom, Clause, Struct, Var, make_list

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

# Alternatives are tried in order at each token start.  Names and
# punctuation come first, as the commonest tokens, whose first characters
# start no other token; comments come before symbol runs (so '/*' opens a
# comment), the terminator '.' before symbol runs, and a symbol run
# leaves a final terminating '.' to the next token.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<name>[^\W\d]\w*)"
    r"|(?P<punct>[()\[\]{},|])"
    r"|(?P<comment>%[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<dec>\d+\.\d+)"
    r"|(?P<int>\d+)"
    rf"|(?P<quoted>{_SQ}|{_DQ})"
    rf"|(?P<unclosed>{_SQ_OPEN}|{_DQ_OPEN})"
    rf"|(?P<end>\.{_TERMINATED})"
    rf"|(?P<atom>[!;]|{_SYMBOL}+?(?=\.{_TERMINATED})|{_SYMBOL}+)"
    r"|(?P<eof>\Z)"
    r"|(?P<illegal>.))",
    re.DOTALL)
_NEWLINE = re.compile(r"\n")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
_ESCAPE = {q: re.compile(rf"\\(.)|{q}{q}", re.DOTALL) for q in "'\""}


@dataclass
class Token:
    kind: str           # atom | var | int | dec | str | punct | end | eof
    text: str
    line: int
    col: int
    value: object = None
    comments: list = field(default_factory=list)
    layout: bool = False  # whitespace or a comment directly before it


def _unescape(body, quote, line, col):
    """Resolve the escapes and doubled quotes of a quoted token's body."""
    def replace(m):
        esc = m.group(1)
        if esc is None:
            return quote
        if esc not in _ESCAPES:
            raise LexError(f"unknown escape \\{esc}", line, col)
        return _ESCAPES[esc]

    return _ESCAPE[quote].sub(replace, body)


def tokenize(source):
    """Full token list for source, ending with an eof marker."""
    line_starts = [0]
    line_starts.extend(m.end() for m in _NEWLINE.finditer(source))
    toks = []
    comments = []
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m.group(kind)
        start = m.start(kind)
        line = bisect_right(line_starts, start)
        col = start - line_starts[line - 1] + 1
        value = text
        if kind == "name":
            c = text[0]  # [^\W\d] also admits non-letters such as '²'
            if not (c == "_" or c.isalpha()):
                raise LexError(f"illegal character {c!r}", line, col)
            kind = "var" if (c == "_" or c.isupper()) else "atom"
        elif kind == "punct" or kind == "atom":
            pass  # the value is the text
        elif kind == "int" or kind == "dec":
            try:
                value = int(text) if kind == "int" else Fraction(text)
            except ValueError:  # more digits than int() may convert
                raise LexError("number too long", line, col) from None
        elif kind == "end":
            value = None
        elif kind == "comment":
            comments.append(text[1:].strip() if text[0] == "%"
                            else text[2:-2].strip())
            continue
        elif kind == "quoted" or kind == "unclosed":
            quote = text[0]
            body = _unescape(text[1:-1] if kind == "quoted" else text[1:],
                             quote, line, col)
            if kind == "unclosed":
                # the body stops short of the end only at a lone backslash
                raise LexError("dangling escape" if m.end() < len(source)
                               else "unterminated quoted token", line, col)
            # strings are treated as atoms; generated programs use none
            kind = "str" if quote == '"' else "atom"
            text = value = body
        elif kind == "eof":  # always the last match
            toks.append(Token("eof", "", line, col))
            return toks
        elif kind == "open_comment":
            raise LexError("unterminated block comment", line, col)
        else:
            raise LexError(f"illegal character {text!r}", line, col)
        toks.append(Token(kind, text, line, col, value, comments,
                          start > m.start() or bool(comments)))
        comments = []


class OpTable:
    """(name, fixity) -> (priority, type) with standard Prolog defaults."""

    DEFAULTS = [
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
        ("^", 200, "xfy"),
        ("-", 200, "fy"), ("+", 200, "fy"),
    ]

    def __init__(self, entries=None):
        self.prefix = {}
        self.infix = {}
        for name, prio, typ in entries if entries is not None else self.DEFAULTS:
            self.add(name, prio, typ)

    def add(self, name, prio, typ):
        if typ in ("fy", "fx"):
            self.prefix[name] = (prio, typ)
        elif typ in ("xfx", "xfy", "yfx"):
            self.infix[name] = (prio, typ)
        else:
            raise ValueError(f"bad operator type {typ}")


DEFAULT_OPS = OpTable()


@dataclass
class Program:
    clauses: list
    directives: list = field(default_factory=list)


class _Parser:
    def __init__(self, tokens, ops):
        self.toks = tokens
        self.ops = ops
        self.pos = 0
        self.varmap = {}

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message, expected=None, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def var_for(self, name):
        if name == "_":
            return Var("_")
        v = self.varmap.get(name)
        if v is None:
            v = Var(name)
            self.varmap[name] = v
        return v

    # --- expression parsing -------------------------------------------

    def parse(self, max_prio):
        left, left_prio = self.primary(max_prio)
        return self.operator_loop(left, left_prio, max_prio)

    def operator_loop(self, left, left_prio, max_prio):
        while True:
            tok = self.peek()
            name = None
            if tok.kind == "atom":
                name = tok.text
            elif tok.kind == "punct" and tok.text in (",", "|"):
                name = tok.text
            if name is None or name not in self.ops.infix:
                return left
            prio, typ = self.ops.infix[name]
            if prio > max_prio:
                return left
            left_max = prio if typ == "yfx" else prio - 1
            if left_prio > left_max:
                raise OperatorClash(
                    f"operator priority clash at {name!r}", tok.line, tok.col)
            self.next()
            right_max = prio if typ == "xfy" else prio - 1
            right = self.parse(right_max)
            if name == "|":
                name = ";"  # '|' as infix is an alternative spelling of ';'
            left = self.fold(Struct(name, (left, right)))
            left_prio = prio

    def fold(self, t):
        # constant-fold rdiv of two integer literals into an exact rational
        if (t.name == "rdiv" and len(t.args) == 2
                and isinstance(t.args[0], int) and isinstance(t.args[1], int)
                and t.args[1] != 0):
            value = Fraction(t.args[0], t.args[1])
            return int(value) if value.denominator == 1 else value
        return t

    def primary(self, max_prio):
        tok = self.next()
        if tok.kind in ("int", "dec"):
            return tok.value, 0
        if tok.kind == "var":
            return self.var_for(tok.text), 0
        if tok.kind == "str":
            return Atom(tok.text), 0
        if tok.kind == "punct":
            if tok.text == "(":
                inner = self.parse(1200)
                self.expect(")", ")")
                return inner, 0
            if tok.text == "[":
                return self.parse_list(), 0
            if tok.text == "{":
                if self.peek().kind == "punct" and self.peek().text == "}":
                    self.next()
                    return Atom("{}"), 0
                inner = self.parse(1200)
                self.expect("}", "}")
                return Struct("{}", (inner,)), 0
            self.fail(f"unexpected {tok.text!r}", tok=tok)
        if tok.kind == "atom":
            name = tok.text
            nxt = self.peek()
            prefix = self.ops.prefix.get(name)
            if prefix is not None and prefix[0] > max_prio:
                prefix = None
            # 'name(' is functional notation; a prefix operator, layout,
            # then '(' applies the operator to the parenthesised term
            if nxt.kind == "punct" and nxt.text == "(" \
                    and not (nxt.layout and prefix):
                self.next()
                args = [self.parse(999)]
                while self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    args.append(self.parse(999))
                self.expect(")", ")")
                return Struct(name, tuple(args)), 0
            if name.startswith("#") and name not in self.ops.infix \
                    and name not in self.ops.prefix:
                self.fail(f"unknown constraint operator {name!r}", tok=tok)
            if prefix and self.starts_term(nxt):
                prio, typ = prefix
                if name == "-" and nxt.kind in ("int", "dec"):
                    self.next()
                    return -nxt.value, 0
                operand_max = prio if typ == "fy" else prio - 1
                operand = self.parse(operand_max)
                return Struct(name, (operand,)), prio
            return Atom(name), 0
        if tok.kind == "end":
            self.fail("unexpected end of clause", tok=tok)
        self.fail("unexpected end of input", tok=tok)

    def starts_term(self, tok):
        if tok.kind in ("int", "dec", "var", "atom", "str"):
            return True
        return tok.kind == "punct" and tok.text in ("(", "[", "{")

    def parse_list(self):
        if self.peek().kind == "punct" and self.peek().text == "]":
            self.next()
            return Atom("[]")
        items = [self.parse(999)]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            items.append(self.parse(999))
        tail = Atom("[]")
        if self.peek().kind == "punct" and self.peek().text == "|":
            self.next()
            tail = self.parse(999)
        self.expect("]", "]")
        return make_list(items, tail)

    def expect(self, text, expected):
        tok = self.next()
        if not (tok.kind == "punct" and tok.text == text):
            self.fail(f"expected {expected!r}, found {tok.text!r}",
                      expected=expected, tok=tok)


def parse_term(tokens, ops=DEFAULT_OPS, max_priority=1200):
    """Parse one term from a token list (eof or end terminated)."""
    p = _Parser(tokens, ops)
    term = p.parse(max_priority)
    tok = p.peek()
    if tok.kind not in ("end", "eof"):
        p.fail(f"trailing input {tok.text!r}")
    return term


def parse_term_text(source, ops=DEFAULT_OPS):
    return parse_term(tokenize(source), ops)


def comma_flatten(t):
    goals = []
    while isinstance(t, Struct) and t.name == "," and len(t.args) == 2:
        goals.append(t.args[0])
        t = t.args[1]
    goals.append(t)
    return goals


def parse_program(source, ops=DEFAULT_OPS):
    """All clauses of a source text, in order; directives split out."""
    tokens = tokenize(source)
    clauses = []
    directives = []
    pos = 0
    while tokens[pos].kind != "eof":
        end = pos
        while tokens[end].kind not in ("end", "eof"):
            end += 1
        if tokens[end].kind == "eof":
            tok = tokens[end]
            raise ParseError("clause not terminated by '.'", tok.line, tok.col)
        p = _Parser(tokens[pos : end + 1], ops)
        term = p.parse(1200)
        tok = p.peek()
        if tok.kind != "end":
            p.fail(f"trailing input {tok.text!r}")
        if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 1:
            directives.append(term.args[0])
        elif isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
            clauses.append(Clause(term.args[0], comma_flatten(term.args[1])))
        else:
            clauses.append(Clause(term))
        pos = end + 1
    return Program(clauses, directives)
