"""Tokenizer, operator-priority parser, and canonical printer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prolite.errors import LexError, OperatorClash, ParseError
from prolite.reader import (INFIX, PREFIX, comma_flatten, parse_program,
                            parse_term_text, tokenize)
from prolite.terms import Atom, Struct, Var, list_to_python, make_list, variant
from prolite.writer import term_to_text


def _canon(text):
    """Replace generated variable names by order of first appearance so
    prints of structurally identical terms compare equal."""
    import re
    seen = {}

    def sub(match):
        return seen.setdefault(match.group(0), f"V{len(seen)}")

    return re.sub(r"_G\d+", sub, text)


def rt(text):
    """Parse, print, reparse; both parses must print identically up to
    variable renaming."""
    t1 = parse_term_text(text)
    printed = term_to_text(t1)
    t2 = parse_term_text(printed)
    assert _canon(term_to_text(t2)) == _canon(printed)
    assert variant(t2, t1), printed
    return printed


def test_operator_priorities_shape_the_tree():
    t = parse_term_text("1 + 2 * 3")
    assert t.name == "+" and t.args[1].name == "*"
    t = parse_term_text("a :- b, c ; d")
    assert t.name == ":-" and t.args[1].name == ";"
    assert t.args[1].args[0].name == ","


def test_left_associative_subtraction():
    t = parse_term_text("10 - 4 - 3")
    assert t.args[0].name == "-" and t.args[1] == 3


def test_right_associative_conjunction():
    goals = comma_flatten(parse_term_text("a, b, c, d"))
    assert [g.name for g in goals] == ["a", "b", "c", "d"]


def test_parenthesised_overrides():
    t = parse_term_text("(1 + 2) * 3")
    assert t.name == "*" and t.args[0].name == "+"


def test_negative_number_literal_folds():
    assert parse_term_text("-5") == -5
    t = parse_term_text("3 - -2")
    assert t.args[1] == -2


def test_rdiv_literals_fold_to_rationals():
    assert parse_term_text("1 rdiv 3") == Fraction(1, 3)
    assert parse_term_text("4 rdiv 2") == 2


def test_decimal_literals_become_exact_rationals():
    assert parse_term_text("0.5") == Fraction(1, 2)
    assert parse_term_text("2.0") == 2


def test_integral_decimal_literals_read_as_integers():
    t = parse_term_text("f(2.0, -3.00, - 4.0, 2.0 rdiv 4, 2.50)")
    assert [(type(a), a) for a in t.args] == [
        (int, 2), (int, -3), (Struct, Struct("-", (4,))),
        (Fraction, Fraction(1, 2)), (Fraction, Fraction(5, 2))]
    assert term_to_text(parse_term_text("2.0")) == "2"


def test_lists_and_tails():
    t = parse_term_text("[1, 2, 3]")
    assert list_to_python(t) == [1, 2, 3]
    t = parse_term_text("[H | T]")
    assert t.name == "." and isinstance(t.args[1], Var)


def test_braces_term():
    t = parse_term_text("{X + Y = 3}")
    assert t.name == "{}" and len(t.args) == 1


def test_variables_share_within_a_term():
    t = parse_term_text("f(X, g(X), Y)")
    assert t.args[0] is t.args[1].args[0]
    assert t.args[0] is not t.args[2]


def test_anonymous_variables_are_distinct():
    t = parse_term_text("f(_, _)")
    assert t.args[0] is not t.args[1]


def test_operator_clash_reported():
    with pytest.raises(OperatorClash):
        parse_term_text("a :- b :- c")


def test_unknown_hash_operator_fails_fast():
    with pytest.raises(ParseError):
        parse_term_text("X #== 3")


def test_unterminated_clause_rejected():
    with pytest.raises(ParseError):
        parse_program("p(a)")


def test_lex_error_position():
    with pytest.raises(LexError):
        tokenize('p("unterminated')


def test_program_splits_clauses_and_directives():
    program = parse_program(
        ":- discontiguous(foo).\n"
        "p(a).\n"
        "q(X) :- p(X).\n")
    assert len(program.clauses) == 2
    assert len(program.directives) == 1
    assert program.clauses[1].head.name == "q"
    assert len(program.clauses[1].body) == 1


CONSTRAINT_PUZZLE = """\
problem(Number) :-
    A #>= 1, A #=< 9,
    B #>= 0, B #=< 9,
    C #>= 0, C #=< 9,
    D #>= 0, D #=< 9,
    A + B + C + D #= 20,
    A #= B + 1,
    B #= C + 6,
    C #= D + 1,
    Number #= A * 1000 + B * 100 + C * 10 + D,
    label([A, B, C, D]).
"""


def test_constraint_puzzle_parses_into_one_clause():
    program = parse_program(CONSTRAINT_PUZZLE)
    assert len(program.clauses) == 1
    clause = program.clauses[0]
    assert clause.head.name == "problem"
    assert len(clause.body) == 14
    assert clause.body[-1].name == "label"


def test_round_trip_examples():
    for text in ["f(X, Y)", "a + b * c", "[1, [2], x | T]",
                 "{X = 1 rdiv 3}", "a :- b, (c ; d), \\+ e",
                 "abs(X - Y) #= 3", "'quoted atom'(1)", "-(1)",
                 "\\+((a, b))", "rdiv(1, 3)", "-(1 ^ 2)", "-(0 ** 0)",
                 "-(2 * X)", "+(1 ^ 2)", "X = f(',')", "+(-, 1)",
                 "(-(-)) = 1", "+(+) #< -1", "'[]'(1, 2)"]:
        rt(text)


def test_prefix_operator_then_layout_then_paren_applies_the_operator():
    conj = parse_term_text("(member(X, L), X > 5)")
    for text in ["\\+ (member(X, L), X > 5)", "\\+ /* c */(member(X, L), X > 5)"]:
        t = parse_term_text(text)
        assert t.name == "\\+" and len(t.args) == 1
        assert variant(t.args[0], conj)
    assert len(parse_term_text("\\+(a, b)").args) == 2
    assert parse_term_text("- (1)") == Struct("-", (1,))
    assert parse_term_text("f (a, b)") == Struct("f", (Atom("a"), Atom("b")))


_atom_names = st.sampled_from(["a", "b", "foo", "bar_baz", "'odd atom'"])


def _terms(depth):
    if depth == 0:
        return st.one_of(
            st.integers(-99, 99).map(str), _atom_names,
            st.sampled_from(["X", "Y", "Zvar"]))
    sub = _terms(depth - 1)
    return st.one_of(
        _terms(0),
        st.builds(lambda f, xs: f"{f}({', '.join(xs)})",
                  st.sampled_from(["f", "g"]), st.lists(sub, min_size=1,
                                                       max_size=3)),
        st.builds(lambda a, op, b: f"({a} {op} {b})",
                  sub, st.sampled_from(["+", "-", "*", ",", ";", "="]), sub),
        st.builds(lambda xs: f"[{', '.join(xs)}]",
                  st.lists(sub, max_size=3)),
    )


@settings(max_examples=150, deadline=None)
@given(_terms(3).map(str))
def test_print_parse_fixpoint(text):
    rt(text)


_VARS = [Var("X"), Var("Y"), Var("Z")]
_leaves = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=50).filter(lambda q: q.denominator != 1),
    st.sampled_from([Atom("a"), Atom("foo"), Atom("odd atom"), Atom("[]")]),
    st.sampled_from(_VARS))


def _compounds(sub):
    return st.one_of(
        st.builds(lambda op, a: Struct(op, (a,)),
                  st.sampled_from(sorted(PREFIX)), sub),
        st.builds(lambda op, a, b: Struct(op, (a, b)),
                  st.sampled_from(sorted(INFIX)), sub, sub),
        st.builds(lambda f, xs: Struct(f, tuple(xs)), st.sampled_from("fg"),
                  st.lists(sub, min_size=1, max_size=3)),
        st.lists(sub, max_size=3).map(make_list),
        sub.map(lambda a: Struct("{}", (a,))))


@settings(max_examples=400, deadline=None)
@given(st.recursive(_leaves, _compounds, max_leaves=12))
def test_print_parse_is_a_variant_for_every_default_operator(t):
    printed = term_to_text(t)
    assert variant(parse_term_text(printed), t), printed
