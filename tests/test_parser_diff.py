"""Differential test of the Pratt parser against the priority-climbing
parser it replaced, kept here verbatim as the reference (`_Parser`,
`parse_term` and `parse_program`, renamed).  Both sides read the same
tokens with the same operator table.  They must give the same terms, up
to a renaming of variables that keeps each variable's name and which
occurrences share it, or the same error: type, message, line, column
and `expected`.

Three differences are intended.
- The new reader reads negative numbers as ISO 6.3.4.1 does: '-'
  directly before a number is a negative literal wherever it stands at
  the start of a term, and '-', layout, then a number is the prefix
  operator '-' applied to a term that starts with the number, so
  `- 2 ** 2` is `-(2 ** 2)`.  The reference read '-' before a number,
  with or without layout, as a negative literal, and only where the
  prefix operator '-' met the priority limit, so it rejected `2 ** -1`.
  Where the two differ, each number after '-' and layout is put in
  parentheses, which makes the reference read that '-' as the operator
  too, bar a number the new reader stopped at: there the operator does
  not meet the limit, and both readers stop.  Then wherever the
  reference stops at a number directly after '-', putting the literal
  in parentheses must make it go on, and the reference must in the end
  give what the new reader gave.
- `parse_program` rejects a clause whose head is a variable or a number
  with a `ParseError` at the clause's first token.  The reference raised
  a bare `ValueError` for a variable head and returned a number head for
  `consult` to fail on with a bare `TypeError`.  Where the new reader
  rejects a head, the clause there must have such a head, and the text
  before it must read the same on both sides.
- An integral decimal literal such as `2.0` reads as the int 2; the
  reference kept `Fraction(2, 1)`.  Where the two differ, writing each
  integral decimal of the source as the equal integer (padded with
  spaces, so no other token moves) is done before the rewriting above,
  and the reference must then give what the new reader gave: where the
  reference had an integral Fraction, the new reader has the equal int,
  also inside a folded `rdiv`."""

from __future__ import annotations

import functools
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from prolite.engine import _LIBRARY_SOURCE
from prolite.errors import LexError, OperatorClash, ParseError
from prolite.harness import FIXTURES, gen_navigate
from prolite.orchestrator import ExtractionFailure, extract_program
from prolite.reader import (INFIX, PREFIX, Program, comma_flatten,
                            parse_program, parse_term, parse_term_text,
                            tokenize)
from prolite.terms import Atom, Clause, Struct, Var, make_list

from test_tokenizer_diff import completion_texts

# The reader's table, in the shape the reference parser reads.
DEFAULT_OPS = SimpleNamespace(prefix=PREFIX, infix=INFIX)


class _ReferenceParser:
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


def reference_parse_term(tokens, ops=DEFAULT_OPS, max_priority=1200):
    """Parse one term from a token list (eof or end terminated)."""
    p = _ReferenceParser(tokens, ops)
    term = p.parse(max_priority)
    tok = p.peek()
    if tok.kind not in ("end", "eof"):
        p.fail(f"trailing input {tok.text!r}")
    return term

def reference_parse_program(source, ops=DEFAULT_OPS):
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
        p = _ReferenceParser(tokens[pos : end + 1], ops)
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


def reference_parse_term_text(source, ops=DEFAULT_OPS):
    return reference_parse_term(tokenize(source), ops)


# A table beside the reader's: a prefix operator and an infix operator
# that bind tighter than prefix '-', which reach parser paths that no
# operator of the reader's table does.
CUSTOM_OPS = SimpleNamespace(prefix={**PREFIX, "dot": (100, "fx")},
                             infix={**INFIX, "~~": (150, "xfx")})
TABLES = pytest.mark.parametrize("ops", [DEFAULT_OPS, CUSTOM_OPS],
                                 ids=["default-ops", "custom-ops"])


@contextmanager
def reader_table(ops):
    """The reader's one operator table holding the entries of ops until
    the block ends; the reference parser is handed ops instead."""
    with mock.patch.dict(PREFIX, ops.prefix), \
            mock.patch.dict(INFIX, ops.infix):
        yield


def with_table(read):
    """read(source), which reads with the reader's table, as a reader of
    (source, ops) like the reference ones."""
    @functools.wraps(read)
    def read_with(source, ops):
        with reader_table(ops):
            return read(source)
    return read_with


READERS = [(with_table(parse_program), reference_parse_program),
           (with_table(parse_term_text), reference_parse_term_text)]


def outcome(read, source, ops):
    """("ok", result) or ("error", type, message, line, col, expected)."""
    try:
        return ("ok", read(source, ops))
    except (LexError, ParseError) as exc:
        return ("error", type(exc).__name__, str(exc), exc.line, exc.col,
                getattr(exc, "expected", None))
    except ValueError as exc:  # the reference's variable clause head
        return ("error", "ValueError", str(exc), None, None, None)


def items(result):
    """The terms of a parse result, one per clause or directive."""
    if isinstance(result, Program):
        return [Struct("clause", (c.head, *c.body)) for c in result.clauses] \
            + [Struct("directive", (d,)) for d in result.directives]
    return [result]


def same_terms(xs, ys):
    """Equal term lists up to a renaming of variables that keeps names
    and sharing; numbers must also agree in type (2 is not 2.0's
    Fraction(2))."""
    if len(xs) != len(ys):
        return False
    forward, backward = {}, {}
    stack = list(zip(xs, ys))
    while stack:
        a, b = stack.pop()
        if isinstance(a, Var) or isinstance(b, Var):
            if not (isinstance(a, Var) and isinstance(b, Var)
                    and a.name == b.name
                    and forward.setdefault(a.id, b.id) == b.id
                    and backward.setdefault(b.id, a.id) == a.id):
                return False
        elif isinstance(a, Struct) or isinstance(b, Struct):
            if not (isinstance(a, Struct) and isinstance(b, Struct)
                    and a.name == b.name and len(a.args) == len(b.args)):
                return False
            stack.extend(zip(a.args, b.args))
        elif not (type(a) is type(b) and a == b):
            return False
    return True


def same_outcome(got, expected):
    if got[0] == "ok" and expected[0] == "ok":
        return same_terms(items(got[1]), items(expected[1]))
    return got == expected


def after_minus(before, tok, layout):
    """Whether tok is a number that follows the atom '-' with layout
    between, or with none."""
    return tok.kind in ("int", "dec") and tok.layout == layout \
        and before.kind == "atom" and before.text == "-"


def negative_literal_at(source, line, col):
    """Offsets around '-' and the number directly after it, when the
    number is the token at line:col, else None."""
    toks = tokenize(source)
    for before, tok in zip(toks, toks[1:]):
        if (tok.line, tok.col) == (line, col):
            if after_minus(before, tok, False):
                return before.offset, tok.offset + len(tok.text)
            return None
    return None


def spaced_negatives_as_operators(source, stop):
    """source with each number that follows '-' and layout put in
    parentheses, bar the one at line:col stop."""
    toks = tokenize(source)
    for before, tok in reversed(list(zip(toks, toks[1:]))):
        if after_minus(before, tok, True) and (tok.line, tok.col) != stop:
            end = tok.offset + len(tok.text)
            source = (source[:tok.offset] + "(" + source[tok.offset:end]
                      + ")" + source[end:])
    return source


def integral_decimals_as_integers(source):
    """source with each integral decimal literal, such as 2.0, written
    as the equal integer followed by spaces, so that every token keeps
    its offset."""
    for tok in tokenize(source):
        if tok.kind == "dec" and tok.value.denominator == 1:
            end = tok.offset + len(tok.text)
            source = (source[:tok.offset]
                      + str(tok.value).ljust(len(tok.text)) + source[end:])
    return source


def without_position(message):
    return message.rsplit(" at ", 1)[0]


def assert_rejected_head(source, line, col, ops):
    """The clause starting at line:col has a variable or number head,
    and the text before it reads the same on both sides."""
    toks = tokenize(source)
    start = next(i for i, t in enumerate(toks)
                 if (t.line, t.col) == (line, col))
    with reader_table(ops):
        term = parse_term(toks[start:])
    if isinstance(term, Struct) and term.name == ":-" and len(term.args) == 2:
        term = term.args[0]
    assert isinstance(term, (Var, int, Fraction)), (source, term)
    assert_same(source[:toks[start].offset], ops)


def assert_same(source, ops=DEFAULT_OPS):
    for read, reference in READERS:
        got = outcome(read, source, ops)
        expected = outcome(reference, source, ops)
        if same_outcome(got, expected):
            continue
        if got[0] == "error" and got[2].startswith(
                "clause head is not callable at "):
            assert_rejected_head(source, got[3], got[4], ops)
            continue
        # the intended differences: write integral decimals as integers,
        # read '-', layout, then a number as the operator, then
        # parenthesise each negative literal the reference stopped at,
        # until it reads on or stops elsewhere
        rewritten = spaced_negatives_as_operators(
            integral_decimals_as_integers(source),
            got[3:5] if got[0] == "error" else None)
        expected = outcome(reference, rewritten, ops)
        while expected[0] == "error":
            span = negative_literal_at(rewritten, expected[3], expected[4])
            if span is None:
                break
            start, end = span
            rewritten = (rewritten[:start] + " (" + rewritten[start:end]
                         + ")" + rewritten[end:])
            expected = outcome(reference, rewritten, ops)
        assert rewritten != source, (read.__name__, source, got, expected)
        if expected[0] == "ok":
            assert got[0] == "ok", (read.__name__, source, got)
            assert same_terms(items(got[1]), items(expected[1])), source
        else:
            assert got[0] == "error", (read.__name__, source, got)
            assert (got[1], without_position(got[2]), got[5]) == \
                (expected[1], without_position(expected[2]), expected[5]), \
                (read.__name__, source, got, expected)


@TABLES
def test_fixtures_library_and_generated_programs_parse_identically(ops):
    sources = [p.reference_program for p in FIXTURES]
    sources += [p.reference_program for p in gen_navigate(5, 200)]
    sources.append(_LIBRARY_SOURCE)
    for source in sources:
        assert_same(source, ops)


def test_provider_completions_parse_identically():
    for text in completion_texts():
        assert_same(text)
        try:
            assert_same(extract_program(text))
        except ExtractionFailure:
            pass


EDGE_CASES = [
    "", ".", "a", "a.", "a. b", "a :- b.", ":- x.", "?- x.", "a :- b :- c.",
    "p(a)", "p(a) q(b).", "f(a, b).", "f(.", "f(a,", "f(a b).", "f().",
    "f (a, b).", "- (1).", "-(1).", "- 1.", "-1.", "- - 1.", "-(-(1)).",
    "3 - -2.", "a - 1.", "a -1.", "X = -a.", "- a + b.", "\\+ a, b.",
    "\\+ (a, b).", "\\+(a, b).", "\\+ /* c */(a, b).", "X = \\+ (a).",
    "X = \\+(a).", "[].", "[a|b].", "[a, b|[c]].", "[a|b, c].", "[|].",
    "[a|].", "[a.", "{}.", "{a}.", "{a, b}.", "{a.", "{}(x).", "'{}'(x).",
    "1 rdiv 3.", "4 rdiv 2.", "1 rdiv 0.", "1 rdiv 3 rdiv 2.",
    "(1 rdiv 3) rdiv 2.", "-1 rdiv 2.", "1 rdiv -2.", "X rdiv 2.",
    "2 ** 3.", "2 ** -1.", "2 ** - 1.", "2 ** 3 ** 4.", "2 ^ 3 ^ 4.",
    "2 ** -1 ** 2.", "f(2 ** -1, 3).", "[2 ** -1.5|T].", "{X = 2 ** -1}.",
    "2 ** -a.", "2 ** - (1).", "2 ** (-1).", "- 2 ** 2.", "-2 ** 2.",
    "a = b = c.", "a , b ; c -> d.", "(a :- b) :- c.", "f(a :- b).",
    "f((a :- b)).", "f(a, (b, c)).", "a | b.", "'|'(a, b).", "a '|' b.",
    "a ',' b.", "','(a, b).", "X #= Y.", "X #== Y.", "#foo.", "#foo(x).",
    "X is 1 + 2 * 3 - 4 / 5 // 6 mod 7 rem 8.", "X = 'quoted atom'(1).",
    '"str".', 'f("s", X).', "X = _, Y = _.", "f(X, Y, X, _, _).",
    "f(_A, _A).", "!.", "a :- !, b.", ";.", "(;).", "f(;, !).", "- .",
    "+ .", "f(-).", "f(- , a).", "f(+, 1).", "[-].", "[- | T].",
    "a /* c */ . b.", "a % c\n.", "0.5.", "2.0.", "1.5e3.", "X = 1.5.",
    "p(X) :- X > 0, !, q(X) ; r.", "p :- (a -> b ; c), d.",
    "X.", "X :- a.", "_ :- a.", "5.", "1.5 :- a.", "p. X. q.", "p. 2 :- q.",
    "X :- f(2 ** -1).", "2 ** -1 :- a.", ":- X.", "':-'(a, b, c).",
    "dot a.", "dot -1.", "dot - 1.", "dot dot a.", "a ~~ -1.", "a ~~ b ~~ c.",
    "a ~~ - 1.", "f(dot -1, a ~~ -2).", "a | b | c.", "[a | b | c].",
    "(a | b).", "{a | b}.",
]


@TABLES
@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_parse_identically(source, ops):
    assert_same(source, ops)


def test_power_reads_as_an_xfx_operator_and_negative_literals_anywhere():
    assert parse_term_text("2 ** 3") == Struct("**", (2, 3))
    assert parse_term_text("2 ** -1") == Struct("**", (2, -1))
    # after layout '-' is the prefix operator, of priority 200, which an
    # argument of ** may not have
    with pytest.raises(ParseError):
        parse_term_text("2 ** - 1")
    assert parse_term_text("- 2 ** 2") == \
        Struct("-", (Struct("**", (2, 2)),))
    assert parse_term_text("-2 ** 2") == Struct("**", (-2, 2))
    with pytest.raises(OperatorClash):
        parse_term_text("2 ** 3 ** 4")
    with pytest.raises(ParseError):
        reference_parse_term_text("2 ** -1")


ATOMS = ["a", "foo", "f", "g", "[]", "{}", "'q a'", "'|'", "!", ";",
         '"s"', "dot"]
NAMES = ["X", "Y", "_", "_A", "Zed"]
NUMBERS = ["0", "1", "42", "1.5", "-1", "- 2", "-0.5"]
OPERATORS = sorted(set(DEFAULT_OPS.infix) | set(DEFAULT_OPS.prefix)
                   | set(CUSTOM_OPS.infix) | set(CUSTOM_OPS.prefix))
LAYOUT = ["", " ", "  ", "\n", " % c\n", "/* c */"]


def _terms(depth):
    leaf = st.sampled_from(ATOMS + NAMES + NUMBERS)
    if depth == 0:
        return leaf
    sub = _terms(depth - 1)
    space = st.sampled_from(LAYOUT)
    return st.one_of(
        leaf,
        st.builds(lambda f, xs: f"{f}({', '.join(xs)})",
                  st.sampled_from(["f", "g", "-", "\\+", "**", "dot"]),
                  st.lists(sub, min_size=1, max_size=3)),
        st.builds(lambda a, s1, op, s2, b: f"{a}{s1}{op}{s2}{b}",
                  sub, space, st.sampled_from(OPERATORS), space, sub),
        st.builds(lambda op, s, a: f"{op}{s}{a}",
                  st.sampled_from(["-", "+", "\\+", "dot", "?-", ":-"]),
                  space, sub),
        sub.map(lambda a: f"({a})"),
        sub.map(lambda a: f"{{{a}}}"),
        st.builds(lambda xs, tail: f"[{', '.join(xs)}{tail}]",
                  st.lists(sub, max_size=3),
                  st.sampled_from(["", "|T", " | []", "|"])),
    )


def _mutate(text, data):
    """Delete, repeat or swap one character of text, or leave it."""
    if not text:
        return text
    i = data.draw(st.integers(0, len(text) - 1))
    how = data.draw(st.sampled_from(["keep", "delete", "repeat", "swap"]))
    if how == "delete":
        return text[:i] + text[i + 1:]
    if how == "repeat":
        return text[:i] + text[i] + text[i:]
    if how == "swap" and i + 1 < len(text):
        return text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


clauses = st.lists(
    st.builds(lambda head, body: head + (f" :- {body}" if body else "")
              + ".", _terms(2), st.one_of(st.just(""), _terms(3))),
    min_size=1, max_size=3).map("\n".join)

FRAGMENTS = (ATOMS + NAMES + NUMBERS + OPERATORS + LAYOUT
             + ["(", ")", "[", "]", "{", "}", ",", "|", ".", ". "])
soup = st.lists(st.tuples(st.sampled_from(FRAGMENTS),
                          st.sampled_from(["", " "])),
                max_size=25).map(lambda parts: "".join(map("".join, parts)))


@settings(max_examples=600, deadline=None)
@given(st.one_of(clauses, soup), st.sampled_from([DEFAULT_OPS, CUSTOM_OPS]),
       st.data())
def test_prologish_text_parses_identically(text, ops, data):
    assert_same(_mutate(text, data), ops)
