import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.coalgebra import CoalgElement
from quivercoalg.corpus import (
    named_poset,
    named_quiver,
    random_quiver,
    random_representation,
    random_structured_algebra,
)
from quivercoalg.dual import RULES, Functional
from quivercoalg.incidence import Poset
from quivercoalg.linalg import SparseVector
from quivercoalg.quiver import Family, Quiver, enumerate_paths, family_from_token
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

from helpers import algebra_label_names, algebra_to_text, rep_to_text

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


@pytest.mark.parametrize(
    "text, message",
    [
        ("rep\ndim a 1\ndim zz 2\n", "line 3: unknown vertex 'zz'"),
        ("rep\n# the arrow is x\ndim a 1\ndim b 1\nmap q 1\n", "line 5: unknown arrow 'q'"),
    ],
)
def test_parse_rep_rejects_unknown_vertices_and_arrows(text, message):
    with pytest.raises(ParseError) as info:
        parse_rep_text(text, named_quiver("single_arrow"))
    assert str(info.value) == message


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


# Labels over the grammar's alphabet: no whitespace, brackets or dots, and
# parentheses and commas allowed.
LABELS = st.text("abxyz019_(),", min_size=1, max_size=3)


@st.composite
def quivers(draw):
    vertices = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    labels = draw(st.lists(LABELS.filter(lambda label: label not in vertices), max_size=6, unique=True))
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
    # Every declared label can be named: each path's printed form, in
    # brackets, reads back as that path.
    for p in enumerate_paths(again, 2).paths:
        assert parse_element(f"[{p}]", again) == CoalgElement.from_path(p)


@given(posets())
def test_poset_text_round_trip(poset):
    again = parse_poset_text(poset_to_text(poset)).target
    assert again.elements == poset.elements
    assert again.covers() == poset.covers()
    assert again.leq == poset.leq


@pytest.mark.parametrize(
    "lines, message",
    [
        (["basis e", "basis e", "idempotents e"], "line 3: second 'basis' line"),
        (["basis e", "idempotents e", "idempotents e"], "line 4: second 'idempotents' line"),
        (["basis e", "idempotents e", "mul e e = e", "mul e e = 2*e"], "line 5: second 'mul' line for e e"),
        (["basis e", "idempotents e", "basisfoo u"], "line 4: unexpected line 'basisfoo u'"),
        (["basis e", "idempotentsx e"], "line 3: unexpected line 'idempotentsx e'"),
    ],
)
def test_algebra_records_are_whole_words_and_appear_once(lines, message):
    with pytest.raises(ParseError) as info:
        parse_algebra_text("\n".join(["algebra", *lines, ""]))
    assert str(info.value) == message


@pytest.mark.parametrize("parse, header", [(parse_quiver_text, "family loop"), (parse_poset_text, "family natchain")])
def test_family_file_has_at_most_one_truncate_line(parse, header):
    with pytest.raises(ParseError) as info:
        parse(f"{header}\ntruncate 2\ntruncate 3\n")
    assert str(info.value) == "line 3: second 'truncate' line"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), field=st.sampled_from([QQ, PrimeField(5)]))
def test_rep_text_round_trip(seed, field):
    rng = random.Random(seed)
    quiver = random_quiver(rng, 4, 5)
    rep = random_representation(rng, quiver, 3, field)
    text = rep_to_text(rep)
    again = parse_rep_text(text, quiver, field)
    assert again == rep
    assert rep_to_text(again) == text


def test_a_zero_right_hand_side_names_the_basis_label_0():
    algebra = parse_algebra_text("algebra\nbasis 0 1\nidempotents 0\nmul 0 0 = 0\nmul 0 1 = 1\nmul 1 0 = 1\n")
    assert algebra.basis == ("0", "1") and algebra.idempotents == ("0",)
    assert algebra.basis_product("0", "0") == SparseVector({"0": QQ.one})
    # An omitted product is still zero, and without a label 0 so is ``= 0``.
    assert algebra.basis_product("1", "1") == SparseVector()
    again = parse_algebra_text("algebra\nbasis u v\nidempotents u v\nmul u u = u\nmul v v = v\nmul u v = 0\n")
    assert again.basis_product("u", "v") == SparseVector() and again.basis_product("v", "v") == SparseVector({"v": QQ.one})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), field=st.sampled_from([QQ, PrimeField(5)]))
def test_algebra_text_round_trip(seed, field):
    algebra = random_structured_algebra(random.Random(seed), 6, field)
    text = algebra_to_text(algebra)
    again = parse_algebra_text(text, field)
    assert algebra_to_text(again) == text
    name = algebra_label_names(algebra)
    assert again.basis == tuple(name[b] for b in algebra.basis)
    assert again.idempotents == tuple(name[e] for e in algebra.idempotents)
    assert again.mult == {
        (name[a], name[b]): SparseVector((name[label], c) for label, c in vec.items())
        for (a, b), vec in algebra.mult.items()
    }


@st.composite
def rule_functionals(draw, kinds):
    """A rule functional of one of the kinds on a quiver or a family."""
    token = draw(st.sampled_from(["line3", "loop", "cycle3", "family:loop", "family:line1", "family:cycle:3"]))
    carrier = family_from_token(token[len("family:"):]) if token.startswith("family:") else named_quiver(token)
    vertices = carrier.truncate(2).vertices if isinstance(carrier, Family) else carrier.vertices
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    kind = draw(st.sampled_from(kinds))
    param = {
        "gamma": st.none(),
        "eval": st.builds(field.of, st.integers(-9, 9), st.sampled_from([1, 2, 3])),
        "starts_at": st.sampled_from(vertices),
    }[kind]
    return Functional.from_rule(carrier, kind, draw(param), field)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_rule_kind_with_a_reader_parses_its_own_description(data):
    readable = [kind for kind, spec in RULES.items() if spec.read is not None]
    assert readable == ["gamma", "eval", "starts_at"]
    f = data.draw(rule_functionals(readable))
    concrete = f.carrier if isinstance(f.carrier, Quiver) else None
    g = parse_functional(f.describe(), f.carrier, concrete, f.field)
    assert (g.carrier, g.rule, g.field) == (f.carrier, f.rule, f.field)


def test_rule_kinds_without_a_reader_are_refused_by_name():
    quiver = named_quiver("cycle3")
    for f in (Functional.from_rule(quiver, "has_prefix", quiver.arrow_path("x0")),
              Functional.from_rule(quiver, "winding_multiple", quiver.arrows)):
        name = f.describe()[len("rule:"):].split("(")[0]
        with pytest.raises(ParseError) as info:
            parse_functional(f.describe(), quiver, quiver)
        assert str(info.value) == f"unknown rule kind {name!r}"
