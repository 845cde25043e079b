"""Tokenizer and operator-precedence parser for the Prolog subset.

The parser is the classical priority-climbing read-term algorithm on a
1..1200 scale, driven by a configurable operator table.  Comments are
consumed by the tokenizer but kept as metadata on the following token so
transcripts can preserve chain-of-thought comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LexError, OperatorClash, ParseError
from .terms import Atom, Clause, Struct, Var, make_list

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")
SOLO = {"(", ")", "[", "]", "{", "}", ",", "|"}


@dataclass
class Token:
    kind: str           # atom | var | int | dec | str | punct | end | eof
    text: str
    line: int
    col: int
    value: object = None
    comments: list = field(default_factory=list)


def tokenize(source):
    """Full token list for source, ending with an eof marker."""
    toks = []
    comments = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def emit(kind, text, ln, cl, value=None):
        toks.append(Token(kind, text, ln, cl, value, comments[:]))
        comments.clear()

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance()
            continue
        ln, cl = line, col
        if c == "%":
            j = source.find("\n", i)
            j = n if j < 0 else j
            comments.append(source[i + 1 : j].strip())
            advance(j - i)
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise LexError("unterminated block comment", ln, cl)
            comments.append(source[i + 2 : j].strip())
            advance(j + 2 - i)
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n - 0 and j + 1 < n and source[j] == "." and source[j + 1].isdigit():
                k = j + 1
                while k < n and source[k].isdigit():
                    k += 1
                text = source[i:k]
                emit("dec", text, ln, cl, Fraction(text))
                advance(k - i)
            else:
                text = source[i:j]
                emit("int", text, ln, cl, int(text))
                advance(j - i)
            continue
        if c == "_" or c.isalpha():
            j = i
            while j < n and (source[j] == "_" or source[j].isalnum()):
                j += 1
            text = source[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "atom"
            emit(kind, text, ln, cl, text)
            advance(j - i)
            continue
        if c in "'\"":
            quote = c
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise LexError("unterminated quoted token", ln, cl)
                ch = source[j]
                if ch == "\\":
                    if j + 1 >= n:
                        raise LexError("dangling escape", ln, cl)
                    esc = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}.get(esc))
                    if buf[-1] is None:
                        raise LexError(f"unknown escape \\{esc}", ln, cl)
                    j += 2
                    continue
                if ch == quote:
                    if j + 1 < n and source[j + 1] == quote:
                        buf.append(quote)
                        j += 2
                        continue
                    break
                buf.append(ch)
                j += 1
            text = "".join(buf)
            # strings are treated as atoms; generated programs use none
            emit("str" if quote == '"' else "atom", text, ln, cl, text)
            advance(j + 1 - i)
            continue
        if c in SOLO:
            emit("punct", c, ln, cl, c)
            advance()
            continue
        if c in "!;":
            emit("atom", c, ln, cl, c)
            advance()
            continue
        if c in SYMBOL_CHARS:
            # clause terminator: '.' followed by layout, comment, or EOF
            if c == "." and (i + 1 >= n or source[i + 1] in " \t\r\n%"):
                emit("end", ".", ln, cl)
                advance()
                continue
            j = i
            while j < n and source[j] in SYMBOL_CHARS:
                j += 1
            # a trailing '.' before layout/EOF belongs to the terminator
            if source[j - 1] == "." and (j >= n or source[j] in " \t\r\n%") and j - i > 1:
                j -= 1
            text = source[i:j]
            emit("atom", text, ln, cl, text)
            advance(j - i)
            continue
        raise LexError(f"illegal character {c!r}", ln, cl)

    toks.append(Token("eof", "", line, col))
    return toks


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
            if nxt.kind == "punct" and nxt.text == "(":
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
            if name in self.ops.prefix and self.starts_term(nxt):
                prio, typ = self.ops.prefix[name]
                if prio <= max_prio:
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
