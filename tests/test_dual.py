import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.coalgebra import CoalgElement
from quivercoalg.corpus import (
    ACYCLIC_CORPUS, named_poset, named_quiver, random_acyclic_quiver, random_element, random_quiver,
)
from quivercoalg.dual import (
    Functional,
    RationalCertificate,
    convolve,
    gamma_membership,
    is_rational_left,
    psi_embed,
    reflexivity_verdict,
)
from quivercoalg.linalg import SparseVector
from quivercoalg.quiver import Family, enumerate_paths, family_from_token
from quivercoalg.scalars import QQ, PrimeField

from helpers import convolution_certificate, convolution_verify, every_split_convolve, loop_power_decompositions


def dual(path):
    return Functional.dual_of_path(path)


def paths_of(quiver, max_len=None):
    if max_len is None:
        max_len = max(0, len(quiver.vertices) - 1)
    return enumerate_paths(quiver, max_len).paths


def test_vertex_dual_idempotent():
    q = named_quiver("single_arrow")
    v = q.vertex_path("a")
    result = convolve(dual(v), dual(v), paths_of(q))
    assert result.support == SparseVector({v: Fraction(1)})


def test_convolution_shifts_by_suffix():
    # (c* p*)(r p) = c*(r) for every path ending with p.
    q = named_quiver("line4")
    paths = paths_of(q)
    rng = random.Random(2)
    p = q.arrow_path("z")
    for _ in range(10):
        values = {r: Fraction(rng.randint(-3, 3)) for r in paths}
        c_star = Functional(q, support=SparseVector(values))
        product = convolve(c_star, dual(p), paths)
        for r in paths:
            extended = None
            if r.target == p.source:
                from quivercoalg.quiver import compose_paths

                extended = compose_paths(r, p)
            if extended is not None:
                assert product(extended) == c_star(r)


def test_gamma_convolution_counts_decompositions():
    loop = Family("loop").truncate(0)
    window = paths_of(loop, 6)
    gamma = Functional.from_rule(loop, "gamma")
    square = convolve(gamma, gamma, window)
    for p in window:
        # Oracle: the number of ways to split the n-th power in two.
        assert square(p) == loop_power_decompositions(p.length)


def test_convolution_associativity_random():
    rng = random.Random(9)
    for _ in range(25):
        q = random_quiver(rng, 4, 5)
        window = paths_of(q, 4)
        funcs = []
        for _ in range(3):
            values = {p: Fraction(rng.randint(-2, 2)) for p in window if rng.random() < 0.5}
            funcs.append(Functional(q, support=SparseVector(values)))
        f, g, h = funcs
        left = convolve(convolve(f, g, window), h, window)
        right = convolve(f, convolve(g, h, window), window)
        assert left.support == right.support


@st.composite
def convolution_window(draw):
    """A small quiver, cyclic ones included, with a window of its paths."""
    token = draw(st.sampled_from(["loop", "cycle:2", "cycle:3", "line1", "random"]))
    if token == "random":
        quiver = random_quiver(random.Random(draw(st.integers(0, 10**6))), 3, 5)
    else:
        quiver = family_from_token(token).truncate(3)
    return quiver, paths_of(quiver, draw(st.integers(0, 4)))


@st.composite
def functional(draw, quiver, window, field, finite):
    """A finite-support functional (possibly empty, possibly with int values)
    or one of the gamma, eval, starts_at and has_prefix rules."""
    if finite:
        support = draw(st.lists(st.sampled_from(window), max_size=4, unique=True))
        values = draw(st.lists(st.integers(-2, 2).filter(bool), min_size=len(support), max_size=len(support)))
        as_int = draw(st.booleans())
        entries = {p: v if as_int else field.of(v) for p, v in zip(support, values)}
        return Functional(quiver, support=SparseVector(entries), field=field)
    kind = draw(st.sampled_from(["gamma", "eval", "starts_at", "has_prefix"]))
    param = {
        "gamma": st.none(),
        "eval": st.integers(-2, 2).map(field.of),
        "starts_at": st.sampled_from(quiver.vertices),
        "has_prefix": st.sampled_from(window),
    }[kind]
    return Functional.from_rule(quiver, kind, draw(param), field)


@pytest.mark.parametrize("left_finite, right_finite", [(True, True), (True, False), (False, True), (False, False)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_convolution_matches_every_split_sum(left_finite, right_finite, data):
    quiver, window = data.draw(convolution_window())
    field = data.draw(st.sampled_from([QQ, PrimeField(5)]))
    f = data.draw(functional(quiver, window, field, left_finite))
    g = data.draw(functional(quiver, window, field, right_finite))
    got = convolve(f, g, window).support.entries
    want = every_split_convolve(f, g, window).support.entries
    # Values, entry order and scalar types all match the every-split sum.
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_psi_is_multiplicative_and_injective():
    q = named_quiver("line3")
    x, y = q.arrow_path("x"), q.arrow_path("y")
    window = paths_of(q)
    from quivercoalg.algebra import multiply

    psi_x = psi_embed(CoalgElement.from_path(x))
    psi_y = psi_embed(CoalgElement.from_path(y))
    product = convolve(psi_x, psi_y, window)
    assert product.support == psi_embed(multiply(CoalgElement.from_path(x), CoalgElement.from_path(y))).support
    rng = random.Random(14)
    for _ in range(30):
        quiver = random_quiver(rng, 4, 5)
        w = paths_of(quiver, 4)
        a = random_element(rng, quiver, 2)
        b = random_element(rng, quiver, 2)
        lhs = convolve(psi_embed(a), psi_embed(b), w)
        rhs = psi_embed(multiply(a, b))
        assert lhs.support == SparseVector({p: rhs(p) for p in w})
        if not a.is_zero():
            assert not psi_embed(a).support.is_zero()


def test_psi_noncomposable_is_zero():
    q = named_quiver("branching")
    z, w = q.arrow_path("z"), q.arrow_path("w")
    product = convolve(psi_embed(CoalgElement.from_path(z)), psi_embed(CoalgElement.from_path(w)), paths_of(q))
    assert product.support.is_zero()


def test_rational_zero_and_dual_basis():
    q = named_quiver("diamond")
    zero_verdict = is_rational_left(Functional.zero(q), q)
    assert zero_verdict.status == "yes" and not zero_verdict.witness.infinite_support
    assert zero_verdict.witness.elements == []
    for p in paths_of(q):
        verdict = is_rational_left(dual(p), q)
        assert verdict.status == "yes" and not verdict.witness.infinite_support
        assert len(verdict.witness.elements) >= 1


def test_rational_certificate_reverification():
    # Tamper with a certificate and confirm verification notices.
    q = named_quiver("line3")
    window = paths_of(q)
    p = q.arrow_path("x")
    verdict = is_rational_left(dual(p), q)
    cert = verdict.witness
    duals = [dual(r) for r in window]
    assert cert.verify(dual(p), duals, window, q)
    broken = RationalCertificate(cert.elements[:-1], cert.functionals[:-1])
    if cert.elements:
        assert not broken.verify(dual(p), duals, window, q)


def test_rational_rule_on_bounded_line():
    fam = Family("line1")
    f = Functional.from_rule(fam, "starts_at", "v2")
    verdict = is_rational_left(f, fam, 8)
    assert verdict.status == "yes" and verdict.witness.infinite_support
    # Certificate members: one per path ending at the chosen vertex.
    assert len(verdict.witness.elements) == 3
    rules = {c.rule.kind for c in verdict.witness.functionals}
    assert rules == {"has_prefix"}


def test_rational_on_loop_only_zero():
    fam = Family("loop")
    assert is_rational_left(Functional.zero(fam), fam)
    gamma = Functional.from_rule(fam, "gamma")
    assert is_rational_left(gamma, fam).status == "no"


def test_rational_finite_support_on_line_family():
    fam = Family("line2")
    quiver = fam.truncate(5)
    f = dual(quiver.arrow_path("a0"))
    verdict = is_rational_left(f, fam, 5)
    assert verdict.status == "yes" and not verdict.witness.infinite_support


@pytest.mark.parametrize("kind", ["natchain", "natantichain"])
def test_rational_finite_support_on_poset_family(kind):
    # E_{n0,n0} is certified on the truncation at the window: its one
    # translate is itself, since n0 is the least point on both families.
    fam = Family(kind)
    f = Functional(fam, support=SparseVector({("n0", "n0"): QQ.one}))
    verdict = is_rational_left(f, fam)
    assert verdict.status == "yes"
    poset = fam.truncate(10)
    labels = poset.basis()
    duals = [Functional(poset, support=SparseVector({i: QQ.one})) for i in labels]
    assert verdict.witness.verify(f, duals, labels, poset)
    assert [list(c.combo.labels()) for c in verdict.witness.elements] == [[("n0", "n0")]]
    assert [c.support for c in verdict.witness.functionals] == [SparseVector({("n0", "n0"): QQ.one})]


def test_rational_on_poset_family_past_the_window_is_unknown():
    fam = Family("natchain")
    f = Functional(fam, support=SparseVector({("n0", "n3"): QQ.one}))
    verdict = is_rational_left(f, fam, 2)
    assert verdict.status == "unknown" and "window 2" in verdict.explanation
    assert is_rational_left(f, fam, 3).status == "yes"


@pytest.mark.parametrize("carrier", [Family("natchain"), Family("natantichain"), named_poset("chain5")],
                         ids=["natchain", "natantichain", "chain5"])
@pytest.mark.parametrize("kind, param", [("eval", QQ.one), ("starts_at", "n0"), ("has_prefix", None),
                                         ("winding_multiple", ())])
def test_path_rules_are_refused_on_poset_carriers(carrier, kind, param):
    with pytest.raises(ValueError, match=rf"^rule:{kind.replace('_', '-')}.* reads paths; .* is a poset$") as info:
        Functional.from_rule(carrier, kind, param)
    assert str(carrier) in str(info.value)
    assert Functional.from_rule(carrier, "gamma").rule.kind == "gamma"


def test_rational_part_of_a_path_rule_on_a_poset_family_is_refused():
    # It used to reach the quiver branch and raise AttributeError there.
    fam = Family("natchain")
    with pytest.raises(ValueError, match=r"^rule:starts-at\(n0\) reads paths; family:natchain is a poset$"):
        is_rational_left(Functional.from_rule(fam, "starts_at", "n0"), fam)


GF5 = PrimeField(5)


def _sweep_functionals(quiver, field, rng):
    """Every dual-basis functional, each rule kind and random finite
    supports, over the field."""
    window = paths_of(quiver)
    yield from (Functional.dual_of_path(p, field) for p in window)
    yield Functional.from_rule(quiver, "gamma", None, field)
    yield Functional.from_rule(quiver, "eval", field.parse("2"), field)
    yield from (Functional.from_rule(quiver, "starts_at", v, field) for v in sorted(quiver.vertices))
    yield from (Functional.from_rule(quiver, "has_prefix", p, field) for p in window)
    for _ in range(3):
        support = rng.sample(window, rng.randint(1, min(4, len(window))))
        yield Functional(quiver, support=SparseVector({p: field.of(rng.randint(-3, 3)) for p in support}), field=field)


def _members(cert, window):
    """The certificate as comparable data: each element, and each member
    functional's values on the window and its field."""
    return (cert.elements, [(c.restrict(window), c.field) for c in cert.functionals])


def test_translate_certificates_match_the_convolution_oracle():
    # Rule functionals on finite quivers included: their translates must be
    # read off the window, not off a support.
    rng = random.Random(11)
    quivers = [named_quiver(name) for name in ACYCLIC_CORPUS] + [random_acyclic_quiver(rng) for _ in range(10)]
    checked = 0
    for quiver in quivers:
        window = paths_of(quiver)
        for field in (QQ, GF5):
            for f in _sweep_functionals(quiver, field, rng):
                verdict = is_rational_left(f, quiver)
                oracle = convolution_certificate(f, window)
                assert verdict.status == "yes", f.describe()
                assert _members(verdict.witness, window) == _members(oracle, window), f.describe()
                assert [c.describe() for c in verdict.witness.functionals] == [
                    c.describe() for c in oracle.functionals
                ]
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("window", [6, 8, 10])
def test_family_translates_match_the_convolution_oracle(window):
    family = Family("line1")
    truncation = enumerate_paths(family.truncate(window), window).paths
    starts = Functional.from_rule(family, "starts_at", "v3")
    verdict = is_rational_left(starts, family, window)
    assert verdict.witness.infinite_support
    assert _members(verdict.witness, truncation) == _members(convolution_certificate(starts, truncation), truncation)
    support_quiver = family.truncate(4)
    f = Functional(family, support=SparseVector({support_quiver.arrow_path("a1"): Fraction(2),
                                                support_quiver.vertex_path("v3"): Fraction(-1)}))
    window_paths = enumerate_paths(support_quiver, window).paths
    verdict = is_rational_left(f, family, window)
    assert _members(verdict.witness, window_paths) == _members(convolution_certificate(f, window_paths), window_paths)


def test_certificates_carry_the_functional_field():
    q = named_quiver("line3")
    verdict = is_rational_left(Functional.dual_of_path(q.arrow_path("x"), GF5), q)
    assert verdict.witness.elements
    for element, member in zip(verdict.witness.elements, verdict.witness.functionals):
        assert all(type(c) is type(GF5.one) for c in element.combo.entries.values())
        assert member.field is GF5
    family = Family("line1")
    verdict = is_rational_left(Functional.from_rule(family, "starts_at", "v2", GF5), family, 6)
    assert all(type(c) is type(GF5.one) for e in verdict.witness.elements for c in e.combo.entries.values())
    assert {member.field for member in verdict.witness.functionals} == {GF5}


def _rejects(cert, f, window):
    return not cert.verify(f, [dual(p) for p in window], window, window[0].quiver)


def _mutation_cases():
    """(quiver, window, f) for a dual-basis functional and gamma on three
    finite quivers."""
    for name in ("line3", "diamond", "branching"):
        q = named_quiver(name)
        window = paths_of(q)
        for f in (dual(q.arrow_path(q.arrows[0].label)), Functional.from_rule(q, "gamma")):
            yield q, window, f


def _mutated_translates(q, window, f):
    """(kind, mutant) for the mutants of the translate certificate of f."""
    cert = is_rational_left(f, q).witness
    elements, members = cert.elements, cert.functionals
    # One value of a translate changed.
    changed = dict(members[0].support.items())
    first = next(iter(changed))
    changed[first] += 1
    yield "changed", RationalCertificate(elements, [Functional(q, support=SparseVector(changed))] + members[1:])
    # One translate dropped.
    for i in range(len(elements)):
        yield "dropped", RationalCertificate(elements[:i] + elements[i + 1:], members[:i] + members[i + 1:])
    # A translate added by a path ending outside the start set of f.
    starts = {r.source for r in window if f(r)}
    for p in window:
        if p.target not in starts:
            yield "added", RationalCertificate(elements + [CoalgElement.from_path(p)],
                                               members + [Functional.from_rule(q, "has_prefix", p)])


def test_verify_rejects_mutated_translates():
    added = 0
    for q, window, f in _mutation_cases():
        for kind, mutant in _mutated_translates(q, window, f):
            assert _rejects(mutant, f, window)
            added += kind == "added"
    assert added >= 10


def _family_mutants():
    """The starts-at certificate on line1 at window 6, with a has-prefix
    member for a path that starts at the vertex instead of ending there,
    and with its first member dropped."""
    family = Family("line1")
    f = Functional.from_rule(family, "starts_at", "v2")
    cert = is_rational_left(f, family, 6).witness
    quiver = family.truncate(6)
    window = enumerate_paths(quiver, 6).paths
    leaving = quiver.arrow_path("a2")
    extra = RationalCertificate(cert.elements + [CoalgElement.from_path(leaving)],
                                cert.functionals + [Functional.from_rule(quiver, "has_prefix", leaving)])
    dropped = RationalCertificate(cert.elements[1:], cert.functionals[1:])
    return quiver, window, f, cert, [extra, dropped]


def test_verify_rejects_family_translates_counted_by_start():
    _, window, f, cert, mutants = _family_mutants()
    assert not _rejects(cert, f, window)
    for mutant in mutants:
        assert _rejects(mutant, f, window)


def _rule_duals(q, window, field=QQ):
    return [Functional.from_rule(q, "gamma", None, field)] + [
        Functional.from_rule(q, "has_prefix", p, field) for p in window
    ]


def test_split_index_verify_agrees_with_the_convolution_oracle():
    # Every certificate and mutant above, against dual-basis and rule duals.
    cases = []
    for q, window, f in _mutation_cases():
        certs = [is_rational_left(f, q).witness] + [mutant for _, mutant in _mutated_translates(q, window, f)]
        cases.append((q, window, f, certs))
    quiver, window, f, cert, mutants = _family_mutants()
    cases.append((quiver, window, f, [cert] + mutants))
    verdicts = set()
    for q, window, f, certs in cases:
        for duals in ([dual(p) for p in window], _rule_duals(q, window)):
            for cert in certs:
                got = cert.verify(f, duals, window, q)
                assert got == convolution_verify(cert, f, duals, window)
                verdicts.add(got)
    assert verdicts == {True, False}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_split_index_verify_agrees_on_random_certificates(data):
    quiver = random_acyclic_quiver(random.Random(data.draw(st.integers(0, 10**6))), 4, 5)
    window = paths_of(quiver)
    field = data.draw(st.sampled_from([QQ, PrimeField(5)]))
    f = data.draw(functional(quiver, window, field, data.draw(st.booleans())))
    cert = is_rational_left(f, quiver).witness
    elements, members = list(cert.elements), list(cert.functionals)
    action = data.draw(st.sampled_from(["keep", "drop", "add", "change", "scale"]))
    if action == "scale" and elements:
        # Element i doubled, its member halved or not.
        i = data.draw(st.integers(0, len(elements) - 1))
        elements[i] = elements[i].scale(field.of(2))
        if data.draw(st.booleans()):
            members[i] = Functional(quiver, support=members[i].restrict(window).scale(field.of(1, 2)), field=field)
    elif action == "drop" and elements:
        i = data.draw(st.integers(0, len(elements) - 1))
        del elements[i], members[i]
    elif action == "add":
        p = data.draw(st.sampled_from(window))
        elements.append(CoalgElement.from_path(p, field))
        members.append(Functional.from_rule(quiver, "has_prefix", p, field))
    elif action == "change" and members:
        values = dict(members[0].support.items())
        values[data.draw(st.sampled_from(window))] = field.of(data.draw(st.integers(-2, 2)))
        members[0] = Functional(quiver, support=SparseVector(values), field=field)
    mutant = RationalCertificate(elements, members)
    for duals in ([Functional.dual_of_path(p, field) for p in window], _rule_duals(quiver, window, field)):
        assert mutant.verify(f, duals, window, quiver) == convolution_verify(mutant, f, duals, window)


def test_rational_left_takes_its_field_from_the_functional():
    q = named_quiver("line3")
    with pytest.raises(TypeError):
        is_rational_left(dual(q.arrow_path("x")), q, field=QQ)


def test_gamma_membership():
    line = named_quiver("line3")
    verdict = gamma_membership(line)
    assert verdict.status == "yes" and len(verdict.witness) == 6
    assert gamma_membership(named_quiver("loop")).status == "no"
    assert gamma_membership(Family("line1")).status == "no"


def test_reflexivity_verdicts():
    assert reflexivity_verdict(named_quiver("diamond")).status == "yes"
    loop = reflexivity_verdict(Family("loop"))
    assert loop.status == "no"
    line2 = reflexivity_verdict(Family("line2"))
    assert line2.status == "no"
    assert reflexivity_verdict(named_quiver("cycle2")).status == "no"


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_evaluate_element_returns_field_scalars(field):
    q = named_quiver("single_arrow")
    u, x = q.vertex_path("a"), q.arrow_path("x")
    f = Functional(q, support=SparseVector({u: field.of(2), x: field.of(3)}), field=field)
    zero = f.evaluate_element(CoalgElement.zero(q))
    assert zero == field.zero and type(zero) is type(field.zero)
    value = f.evaluate_element(CoalgElement(q, SparseVector({u: field.of(1), x: field.of(4)})))
    assert value == field.of(14) and type(value) is type(field.zero)
