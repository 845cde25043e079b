"""Differential test of the master-regex tokenizer against the
character-at-a-time tokenizer it replaced, kept here as the reference
with its own token record and without the comment lists tokens no
longer carry.  Every token must agree in kind, text, value, value type,
line and column, and every `LexError` in message and position.  Where
the reference leaked a bare `ValueError` (a character `isdigit` accepts
but `int` rejects), the tokenizer must raise `LexError` instead."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from prolite.engine import _LIBRARY_SOURCE
from prolite.errors import LexError
from prolite.harness import FIXTURES, gen_navigate
from prolite.providers import ReferenceProvider
from prolite.reader import tokenize

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")
SOLO = {"(", ")", "[", "]", "{", "}", ",", "|"}


class RefToken(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    value: object = None


def reference_tokenize(source):
    """Full token list for source, ending with an eof marker."""
    toks = []
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
        toks.append(RefToken(kind, text, ln, cl, value))

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance()
            continue
        ln, cl = line, col
        if c == "%":
            j = source.find("\n", i)
            j = n if j < 0 else j
            advance(j - i)
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise LexError("unterminated block comment", ln, cl)
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

    toks.append(RefToken("eof", "", line, col))
    return toks


def outcome(tokenizer, source):
    """Token tuples, or the error's type, message and position."""
    try:
        toks = tokenizer(source)
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [(t.kind, t.text, t.value, type(t.value), t.line, t.col)
            for t in toks]


def assert_same(source):
    expected = outcome(reference_tokenize, source)
    got = outcome(tokenize, source)
    if expected[0] == "ValueError":
        assert got[0] == "LexError", (source, got)
    else:
        assert got == expected, source


def completion_texts():
    """Completions the reference and flaky providers hand out, and every
    line suffix `extract_program` tokenizes while searching them."""
    problems = list(FIXTURES) + gen_navigate(3, 20)
    provider = ReferenceProvider(problems, p=0.5, seed=11)
    texts = []
    for problem in problems:
        session = provider.start_run(problem.id, 0)
        for attempt in range(3):
            completion = session.complete("", 0.0, 0, attempt)
            lines = completion.splitlines()
            texts.append(completion)
            texts.extend("\n".join(lines[k:]) for k in range(len(lines)))
    return texts


def test_fixtures_library_and_generated_programs_tokenize_identically():
    sources = [p.reference_program for p in FIXTURES]
    sources += [p.reference_program for p in gen_navigate(5, 200)]
    sources.append(_LIBRARY_SOURCE)
    for source in sources:
        assert_same(source)


def test_provider_completions_tokenize_identically():
    texts = completion_texts()
    assert ReferenceProvider.JUNK in texts
    assert any(text.startswith("```") for text in texts)
    for text in texts:
        assert_same(text)


@pytest.mark.parametrize("source", [
    "X = 1.", "X = 1.5.", "1.5.", "1.", "1.x", "1..2", "X =.. L.", "a.b",
    "a. b.", "a.%c", "a./* c */", "'.'.", "... .", "=..", "=..\n",
    "- 1", "-1", "a :- b, !; c.", "'it''s'", "'a\\'b'", '"q""q"',
    "'\\n\\t\\\\'", "'unterminated", "'ab''", "'ab\\", "'a\\qb",
    "'a\\q", "/* open", "/*/", "/**/x", "+/* x */", "% tail", "a % c",
    "Éa", "éa", "_x", "ß", "Ωmega", "١٢.٥", "x²", "²", "1²", "1.²",
    "Ⅷ", "½", "`", "a\fb", "\r\n a.", " ", "a. % one\nb.",
    "9" * 5000, "1." + "9" * 5000,
])
def test_edge_cases_tokenize_identically(source):
    assert_same(source)


FRAGMENTS = [
    "a", "foo", "X", "_", "_G1", "Éa", "éb", "Ωx", "ß", "x²", "²", "Ⅷ",
    "١", "0", "1", "42", "1.5", ".", "..", "=..", ":-", "#=", "#\\=",
    "->", "\\+", "\\", "=", "+", "/", "*", "/*", "*/", "/* c */", "%",
    "% note\n", " ", "  ", "\n", "\t", "\r", "'", "''", '"', '""',
    "\\n", "\\'", "\\q", "(", ")", "[", "]", "{", "}", ",", "|", "!",
    ";", "`", "\f",
]

prologish = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=2)),
    max_size=25).map("".join)


@settings(max_examples=1500, deadline=None)
@given(prologish)
def test_prologish_text_tokenizes_identically(source):
    assert_same(source)
