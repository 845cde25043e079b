"""Differential test of `extract_program` against the implementation it
replaced, kept here verbatim as the reference (`reference_extract`).
The reference tokenized every stripped line suffix in turn, which is
quadratic in the number of lines; the new one lexes each token start
once.  Both must return the same source, or both raise
`ExtractionFailure`, on every completion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from prolite.errors import LexError
from prolite.orchestrator import (ExtractionFailure, _fenced_blocks,
                                  extract_program)
from prolite.reader import tokenize

from test_tokenizer_diff import completion_texts


def reference_extract(completion):
    blocks = _fenced_blocks(completion)
    if blocks:
        return blocks[-1]
    lines = completion.splitlines()
    for start in range(len(lines)):
        candidate = "\n".join(lines[start:]).strip()
        if not candidate or "." not in candidate:
            continue
        try:
            tokenize(candidate)
        except LexError:
            continue
        return candidate
    raise ExtractionFailure("no logic-program source found in completion")


def outcome(extract, completion):
    try:
        return ("ok", extract(completion))
    except ExtractionFailure:
        return ("none",)


def assert_same(completion):
    assert outcome(extract_program, completion) == \
        outcome(reference_extract, completion), completion


def test_provider_completions_extract_identically():
    for text in completion_texts():
        assert_same(text)


@pytest.mark.parametrize("completion", [
    "", " ", "\n\n", ".", "a.", " a. ", "a", "no code here",
    "I am not sure about this one.", "I don't know.",
    "Here it is:\np(1).\nproblem(A) :- p(A).",
    "p(1).\nI don't know.", "I don't know.\np(1).",
    "'open\np(1).", "p('a\nb').", "/* open\np(1).", "p(1). /*\n*/",
    "p(1).\r\nq(2).", "p(1).\x0cq(2).", "p(1).\u2028q(2).",
    "\u00a0p(1).", "p(1).\u3000", "\u00a0\n\u2028 p(1).\n\u00a0",
    "junk \u00b2\nproblem(1).", "x\x1cp(1).", "p(1).\x85",
    "```\np(1).\n```", "```prolog\np(1).\n```\nthen\n```\nq(2).\n```",
    "```\nunclosed fence\np(1).", "a.\n\n\n", "\n\n\na.",
    "a :- b.\n% comment.\n", "x \\q.\np(1).", "9" * 5000 + ".\np(1).",
])
def test_edge_cases_extract_identically(completion):
    assert_same(completion)


BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
          "\u2029"]
SPACES = [" ", "  ", "\t", "\u00a0", "\u2009", "\u3000"]
PIECES = [
    "I", "don't", "know", "the", "answer", "is", ":", ",", ".", "..",
    "p(1)", "q(X)", ":-", "X is 1 + 2", "problem(A)", "A #= 3", "'",
    "''", "'a b'", '"', '"s"', "\\", "\\q", "\\n", "/*", "*/", "/* c */",
    "%", "% note", "1.5", "42", "\u00b2", "`", "!", "```", "```prolog",
]

lines = st.lists(st.one_of(st.sampled_from(PIECES), st.sampled_from(SPACES),
                           st.text(max_size=2)),
                 max_size=8).map("".join)


@st.composite
def completions(draw):
    parts = draw(st.lists(lines, max_size=12))
    text = ""
    for part in parts:
        text += part + draw(st.sampled_from(BREAKS))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    if draw(st.integers(0, 3)) == 0:
        text = text.replace(".", "")
    return text


@settings(max_examples=500, deadline=None)
@given(completions())
def test_generated_completions_extract_identically(completion):
    assert_same(completion)


@pytest.mark.parametrize("n", [1, 2, 50, 200])
def test_long_prose_extracts_identically(n):
    prose = ["The answer follows from the constraints given here."] * n
    assert_same("\n".join(prose + ["I don't know."]))
    assert_same("\n".join(prose + ["p(1).", "'open"]))
    assert_same("\n".join(["Sure, here it is:"] + prose))
