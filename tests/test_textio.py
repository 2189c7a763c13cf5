from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivercoalg.corpus import named_poset, named_quiver
from quivercoalg.incidence import Poset
from quivercoalg.quiver import Family, Quiver
from quivercoalg.scalars import QQ, PrimeField
from quivercoalg.textio import (
    ParseError,
    parse_algebra_text,
    parse_element,
    parse_functional,
    parse_input_text,
    parse_plain_combination,
    parse_poset_text,
    parse_quiver_text,
    parse_rep_text,
    poset_to_text,
    quiver_to_text,
)

QUIVER_TEXT = """
# a commented line
quiver
vertex a
vertex b
arrow x a b
"""

FAMILY_TEXT = """
family cycle:3
truncate 9
"""

POSET_TEXT = """
poset
element p
element q
cover p q
"""

REP_TEXT = """
rep
dim a 2
dim b 1
map x 1/2 ; 3
"""

ALGEBRA_TEXT = """
algebra
basis u v x
idempotents u v
mul u u = u
mul v v = v
mul u x = x
mul x v = x
"""


def test_parse_quiver():
    parsed = parse_quiver_text(QUIVER_TEXT)
    assert parsed.family is None
    q = parsed.target
    assert q.vertices == ("a", "b")
    assert len(q.arrows) == 1
    round_trip = parse_quiver_text(quiver_to_text(q)).target
    assert round_trip.vertices == q.vertices


def test_parse_family():
    parsed = parse_quiver_text(FAMILY_TEXT)
    assert parsed.family is not None
    assert parsed.family.kind == "cycle" and parsed.family.param == 3
    assert parsed.truncation == 9
    quiver = parsed.materialize(0)
    assert len(quiver.vertices) == 3


def test_parse_quiver_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_quiver_text("quiver\nvertex a\narrow x a")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_quiver_text("")


def test_parse_poset():
    parsed = parse_poset_text(POSET_TEXT)
    poset = parsed.target
    assert ("p", "q") in poset.leq
    text = poset_to_text(named_poset("diamond"))
    again = parse_poset_text(text).target
    assert len(again.intervals()) == 9


def test_parse_poset_family():
    parsed = parse_poset_text("family natchain\ntruncate 4")
    assert parsed.family is not None
    assert len(parsed.materialize(0).elements) == 5


@pytest.mark.parametrize(
    "text, carrier",
    [
        (QUIVER_TEXT, Quiver),
        (POSET_TEXT, Poset),
        ("# comment\nfamily cycle:3\ntruncate 9\n", Quiver),
        ("family natchain\n", Poset),
        ("family natantichain\ntruncate 2\n", Poset),
    ],
)
def test_parse_input_text_dispatches_on_the_header(text, carrier):
    parsed = parse_input_text(text)
    assert type(parsed.materialize(2)) is carrier
    assert (parsed.family is None) == ("family" not in text)
    assert type(parsed.target) is (carrier if parsed.family is None else Family)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty quiver file"),
        ("nonsense", "line 1: expected header 'quiver' or 'family <token>'"),
        ("poset extra", "line 1: expected header 'poset' or 'family <token>'"),
        ("family natchain:3", "line 1: unexpected parameter for family 'natchain'"),
        ("family cycle:abc", "line 1: cycle family needs a length: cycle:<n>"),
    ],
)
def test_parse_input_text_diagnostics_come_from_the_chosen_parser(text, message):
    with pytest.raises(ParseError) as info:
        parse_input_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize("header", ["familyfoo loop", "family_x natchain", "families cycle:3"])
def test_family_header_needs_the_word_family(header):
    # Only a first word that is exactly ``family`` opens a family file.
    for parse, kind in ((parse_quiver_text, "quiver"), (parse_poset_text, "poset"), (parse_input_text, "quiver")):
        with pytest.raises(ParseError) as info:
            parse(header + "\n")
        assert str(info.value) == f"line 1: expected header '{kind}' or 'family <token>'"


def test_parse_rep():
    q = named_quiver("single_arrow")
    rep = parse_rep_text(REP_TEXT, q)
    assert rep.dims == {"a": 2, "b": 1}
    assert rep.maps["x"] == ((Fraction(1, 2),), (Fraction(3),))


def test_parse_rep_defaults_to_zero_map():
    q = named_quiver("line3")
    rep = parse_rep_text("rep\ndim a 1\ndim b 1\ndim c 1\nmap x 1", q)
    assert rep.maps["y"] == ((QQ.zero,),)


def test_parse_algebra():
    algebra = parse_algebra_text(ALGEBRA_TEXT)
    assert algebra.basis == ("u", "v", "x")
    assert algebra.idempotents == ("u", "v")
    product = algebra.basis_product("u", "x")
    assert product.coeff("x") == QQ.one


def test_parse_algebra_rejects_non_associative():
    bad = """
algebra
basis e x
idempotents e
mul e e = e
mul e x = x
mul x x = e
"""
    with pytest.raises(ParseError):
        parse_algebra_text(bad)


def test_parse_plain_combination():
    combo = parse_plain_combination("2*u + 1/3*v - w")
    assert combo.coeff("u") == Fraction(2)
    assert combo.coeff("v") == Fraction(1, 3)
    assert combo.coeff("w") == Fraction(-1)
    assert parse_plain_combination("0").is_zero()
    with pytest.raises(ParseError):
        parse_plain_combination("u v")


@pytest.mark.parametrize("field, text", [(QQ, "1/0"), (PrimeField(5), "1/5"), (PrimeField(5), "3/10")])
def test_scalar_with_zero_denominator_is_a_parse_error(field, text):
    with pytest.raises(ParseError):
        field.parse(text)
    with pytest.raises(ParseError):
        parse_plain_combination(f"{text}*u", field)
    algebra = f"algebra\nbasis e\nidempotents e\nmul e e = {text}*e\n"
    with pytest.raises(ParseError, match="line 4"):
        parse_algebra_text(algebra, field)


def test_parse_element_expressions():
    q = named_quiver("line3")
    element = parse_element("3*[x.y] - 1/2*[a]", q)
    assert element.coeff(q.path_from_labels(["x", "y"])) == Fraction(3)
    assert element.coeff(q.vertex_path("a")) == Fraction(-1, 2)
    assert parse_element("0", q).is_zero()
    bare = parse_element("[x]", q)
    assert bare.coeff(q.arrow_path("x")) == Fraction(1)
    with pytest.raises(ParseError):
        parse_element("[nope]", q)
    with pytest.raises(ParseError):
        parse_element("[x] [y]", q)


def test_parse_element_in_prime_field():
    q = named_quiver("line3")
    field = PrimeField(7)
    element = parse_element("3*[x]", q, field)
    assert element.coeff(q.arrow_path("x")) == field.of(3)


def test_parse_functional_expressions():
    q = named_quiver("line3")
    f = parse_functional("dual{[x]:3, [a]:-1}", q, q)
    assert f(q.arrow_path("x")) == Fraction(3)
    assert f(q.vertex_path("a")) == Fraction(-1)
    gamma = parse_functional("rule:gamma", q, q)
    assert gamma(q.path_from_labels(["x", "y"])) == QQ.one
    loop = named_quiver("loop")
    ev = parse_functional("rule:eval(2)", loop, loop)
    two_steps = loop.path_from_labels(["x", "x"])
    assert ev(two_steps) == Fraction(4)
    starts = parse_functional("rule:starts-at(a)", q, q)
    assert starts(q.vertex_path("a")) == QQ.one
    assert not starts(q.vertex_path("b"))
    with pytest.raises(ParseError):
        parse_functional("rule:unknown", q, q)


LABELS = st.text("abxyz019_.()", min_size=1, max_size=3)


@st.composite
def quivers(draw):
    vertices = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    labels = draw(st.lists(LABELS, max_size=6, unique=True))
    return Quiver(vertices, [(label, *draw(ends)) for label in labels])


@st.composite
def posets(draw):
    elements = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    n = len(elements)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    return Poset(elements, [(elements[i], elements[j]) for i, j in pairs if i < j])


@given(quivers())
def test_quiver_text_round_trip(quiver):
    again = parse_quiver_text(quiver_to_text(quiver)).target
    assert again.vertices == quiver.vertices
    assert [(a.label, a.source, a.target) for a in again.arrows] == [
        (a.label, a.source, a.target) for a in quiver.arrows
    ]


@given(posets())
def test_poset_text_round_trip(poset):
    again = parse_poset_text(poset_to_text(poset)).target
    assert again.elements == poset.elements
    assert again.covers() == poset.covers()
    assert again.leq == poset.leq
