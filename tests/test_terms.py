"""Term representation: rationals, lists, bindings trail, variants."""

from fractions import Fraction

from prolite.terms import (NIL, Atom, Bindings, Clause, Struct, Var,
                           indicator, is_number, list_to_python, make_list,
                           normalize_number, occurs, term_vars, variant)


def test_atoms_are_interned():
    assert Atom("foo") is Atom("foo")
    assert Atom("foo") is not Atom("bar")


def test_normalize_number_collapses_unit_denominator():
    assert normalize_number(Fraction(8, 2)) == 4
    assert isinstance(normalize_number(Fraction(8, 2)), int)
    assert normalize_number(Fraction(1, 3)) == Fraction(1, 3)
    assert type(normalize_number(Fraction(4, 2))) is int


def test_a_boolean_is_not_a_number():
    assert [is_number(x) for x in (1, Fraction(1, 3), 0.5, True, False)] \
        == [True, True, True, False, False]


def test_list_round_trip():
    items = [1, Atom("a"), Struct("f", (2,))]
    t = make_list(items)
    assert list_to_python(t) == items
    assert list_to_python(NIL) == []


def test_improper_list_yields_none():
    t = Struct(".", (1, Atom("not_a_list")))
    assert list_to_python(t) is None


def test_bindings_trail_undo():
    b = Bindings()
    x, y = Var("X"), Var("Y")
    mark = b.mark()
    b.bind(x, 1)
    b.bind(y, 2)
    assert b.deref(x) == 1
    b.undo_to(mark)
    assert b.deref(x) is x
    assert b.deref(y) is y


def test_bindings_set_shares_the_trail_with_bind():
    b = Bindings()
    x = Var("X")
    table = {"kept": 1}
    outer = b.mark()
    b.set(table, "kept", 2)
    b.bind(x, 1)
    inner = b.mark()
    b.set(table, "new", 3)
    b.set(table, "kept", 4)
    b.undo_to(inner)
    assert table == {"kept": 2} and b.deref(x) == 1
    b.undo_to(outer)
    assert table == {"kept": 1} and b.deref(x) is x


def test_deref_follows_chains():
    b = Bindings()
    x, y = Var("X"), Var("Y")
    b.bind(x, y)
    b.bind(y, 7)
    assert b.deref(x) == 7


def test_occurs_check():
    b = Bindings()
    x = Var("X")
    assert occurs(x, Struct("f", (x,)), b)
    assert not occurs(x, Struct("f", (Var("Y"),)), b)


def test_term_vars_order_and_dedup():
    x, y = Var("X"), Var("Y")
    t = Struct("f", (x, Struct("g", (y, x))))
    assert term_vars(t) == [x, y]


def test_clause_rename_is_fresh_variant():
    x = Var("X")
    clause = Clause(Struct("p", (x,)), (Struct("q", (x,)),))
    fresh = clause.rename()
    assert fresh.head.args[0] is not x
    assert fresh.head.args[0] is fresh.body[0].args[0]
    assert variant(clause.head, fresh.head)


def test_variant_distinguishes_sharing():
    x, y = Var("X"), Var("Y")
    assert variant(Struct("f", (x, x)), Struct("f", (y, y)))
    assert not variant(Struct("f", (x, x)), Struct("f", (x, y)))


def test_indicator():
    assert indicator(Struct("foo", (1, 2))) == ("foo", 2)
    assert indicator(Atom("bar")) == ("bar", 0)
