import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg import algebra, coalgebra, corpus, dual, finite_dual, incidence
from quivercoalg.coalgebra import CoalgElement, comultiply
from quivercoalg.corpus import (
    CYCLIC_CORPUS,
    POSET_CORPUS,
    acyclic_corpus,
    enumerate_posets_up_to_iso,
    named_poset,
    named_quiver,
    poset_corpus,
    random_element,
    random_structured_algebra,
)
from quivercoalg.dual import Functional
from quivercoalg.finite_dual import (
    DualCoalgebra,
    StructuredAlgebra,
    dual_coalgebra,
    is_in_finite_dual,
    is_in_theta_image,
    maximal_ideal_in_kernel,
    structured_algebra,
    tensor_slice_ideals,
    tensor_structured,
    theta_embed,
    theta_recovery_check,
    two_sided_ideal_closure,
)
from quivercoalg.incidence import Poset, hasse_quiver
from quivercoalg.linalg import SparseVector, rank, rref
from quivercoalg.quiver import Family, Path, Quiver, compose_paths, enumerate_paths, find_simple_cycle
from quivercoalg.scalars import QQ, FieldError, PrimeField

from helpers import (
    brute_force_paths,
    in_span,
    stage_loop_maximal_ideal,
    translate_rank_codimension,
    winds_a_multiple,
    witness_off_winding_paths,
)


def test_structured_algebra_validation_rejects_bad_input():
    one = QQ.one
    # Non-associative toy table: e*e = e, e*x = x, x*x = e is not associative
    # with x*e = 0.
    basis = ["e", "x"]
    mult = {
        ("e", "e"): SparseVector({"e": one}),
        ("e", "x"): SparseVector({"x": one}),
        ("x", "x"): SparseVector({"e": one}),
    }
    with pytest.raises(ValueError):
        StructuredAlgebra(basis, mult, ["e"], QQ)


def _first_nonassociative_triple(algebra):
    """Full scan of every basis triple, in basis order."""
    one = algebra.field.one
    for a in algebra.basis:
        for b in algebra.basis:
            for c in algebra.basis:
                left = algebra.product(algebra.basis_product(a, b), SparseVector({c: one}))
                right = algebra.product(SparseVector({a: one}), algebra.basis_product(b, c))
                if left != right:
                    return f"multiplication not associative at ({a},{b},{c})"
    return None


def _unital_table(products, field=QQ):
    """e is the only idempotent and a two-sided unit; the other products
    are given as {(p, q): {r: coeff}}."""
    basis = ["e", "a", "b", "c", "d", "f"]
    mult = {("e", x): SparseVector({x: field.one}) for x in basis}
    mult.update({(x, "e"): SparseVector({x: field.one}) for x in basis})
    for pair, vec in products.items():
        mult[pair] = SparseVector({label: field.of(c) for label, c in vec.items()})
    return basis, mult


@pytest.mark.parametrize(
    "products",
    [
        # The only non-associative triple is (a,b,c): (ab)c = dc = f, but
        # bc = 0, so of ab and bc only ab is a stored product.
        {("a", "b"): {"d": 1}, ("d", "c"): {"f": 1}},
        # The reverse: a(bc) = ad = f, but ab = 0; only bc is stored.
        {("b", "c"): {"d": 1}, ("a", "d"): {"f": 1}},
    ],
)
def test_associativity_failure_with_one_zero_side(products):
    basis, mult = _unital_table(products)
    unchecked = StructuredAlgebra(basis, mult, ["e"], QQ, validate=False)
    expected = _first_nonassociative_triple(unchecked)
    assert expected == "multiplication not associative at (a,b,c)"
    with pytest.raises(ValueError) as info:
        StructuredAlgebra(basis, mult, ["e"], QQ)
    assert str(info.value) == expected


@given(
    st.sampled_from([QQ, PrimeField(5)]),
    st.dictionaries(
        st.tuples(st.sampled_from("abcdf"), st.sampled_from("abcdf")),
        st.dictionaries(st.sampled_from("abcdf"), st.integers(-2, 2), max_size=2),
        max_size=5,
    ),
)
def test_validation_reports_the_first_failing_triple_of_a_full_scan(field, products):
    basis, mult = _unital_table(products, field)
    expected = _first_nonassociative_triple(StructuredAlgebra(basis, mult, ["e"], field, validate=False))
    if expected is None:
        StructuredAlgebra(basis, mult, ["e"], field)
        return
    with pytest.raises(ValueError) as info:
        StructuredAlgebra(basis, mult, ["e"], field)
    assert str(info.value) == expected


def test_dual_coalgebra_rejects_unlawful_algebras():
    one = QQ.one
    # e is a two-sided unit, but (x*x)*x = y*x = x while x*(x*x) = x*y = e.
    unit_rows = {("e", b): SparseVector({b: one}) for b in "exy"}
    unit_rows.update({(b, "e"): SparseVector({b: one}) for b in "xy"})
    mult = dict(unit_rows)
    mult[("x", "x")] = SparseVector({"y": one})
    mult[("x", "y")] = SparseVector({"e": one})
    mult[("y", "x")] = SparseVector({"x": one})
    algebra = StructuredAlgebra(["e", "x", "y"], mult, ["e"], QQ, validate=False)
    with pytest.raises(ValueError, match="dual comultiplication not coassociative"):
        DualCoalgebra(algebra)
    # Associative, but x*e = 0: the idempotent system is not complete.
    mult = {("e", "e"): SparseVector({"e": one}), ("e", "x"): SparseVector({"x": one})}
    algebra = StructuredAlgebra(["e", "x"], mult, ["e"], QQ, validate=False)
    with pytest.raises(ValueError, match="counit law fails at 'x'"):
        DualCoalgebra(algebra)


def test_dual_coalgebra_of_one_idempotent():
    one = QQ.one
    algebra = StructuredAlgebra(["v"], {("v", "v"): SparseVector({"v": one})}, ["v"], QQ)
    dual = dual_coalgebra(algebra)
    assert dual.delta_table["v"] == SparseVector({("v", "v"): one})
    assert dual.counit_table["v"] == one


def test_dual_coalgebra_of_single_arrow_quiver():
    q = named_quiver("single_arrow")
    algebra = structured_algebra(q)
    dual = dual_coalgebra(algebra)
    u, v, x = q.vertex_path("a"), q.vertex_path("b"), q.arrow_path("x")
    assert dual.delta_table[x] == SparseVector({(u, x): QQ.one, (x, v): QQ.one})
    assert dual.counit_table[u] == QQ.one
    assert not dual.counit_table[x]


def test_dual_coalgebra_axioms_on_random_algebras():
    rng = random.Random(21)
    for _ in range(25):
        dual_coalgebra(random_structured_algebra(rng))  # validates internally


# The two per-carrier builders that ``structured_algebra`` replaced, kept as
# oracles: each lists the basis, the products (a outer, b inner) and the
# idempotents (in the order the points were declared) by hand.
def _quiver_algebra_oracle(quiver, field=QQ):
    paths = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1)).paths
    mult = {(p, q): SparseVector({pq: field.one})
            for p in paths for q in paths if (pq := compose_paths(p, q)) is not None}
    idempotents = [quiver.vertex_path(v) for v in quiver.vertices]
    return StructuredAlgebra(paths, mult, idempotents, field, name=f"K[{quiver.name or 'quiver'}]", validate=False)


def _incidence_algebra_oracle(poset, field=QQ):
    basis = poset.intervals()
    mult = {((x, y), (u, v)): SparseVector({(x, v): field.one}) for (x, y) in basis for (u, v) in basis if y == u}
    return StructuredAlgebra(basis, mult, [(x, x) for x in poset.elements], field, name=f"FIA({poset.name})")


def _oracle(carrier, field=QQ):
    return (_incidence_algebra_oracle if isinstance(carrier, Poset) else _quiver_algebra_oracle)(carrier, field)


def _assert_same_algebra(built, oracle):
    assert built.basis == oracle.basis
    assert list(built.mult.items()) == list(oracle.mult.items())
    assert built.idempotents == oracle.idempotents
    assert (built.name, built.field) == (oracle.name, oracle.field)


def _built(carrier, field=QQ):
    if isinstance(carrier, Poset):
        return incidence.fia_structured_algebra(carrier, field)
    return structured_algebra(carrier, field, f"K[{carrier.name or 'quiver'}]")


# The vertices of the first are not declared in name order, so the
# idempotents are not the basis's vertex paths in basis order.
_UNSORTED = [Quiver(["c", "a", "b"], [("x", "c", "a"), ("y", "a", "b")], name="unsorted"),
             Quiver(["v2", "v0", "v1"], [])]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_structured_algebra_matches_the_per_carrier_oracles(field):
    carriers = _UNSORTED + acyclic_corpus() + poset_corpus()
    carriers += [hasse_quiver(poset) for poset in enumerate_posets_up_to_iso(4)]
    for carrier in carriers:
        _assert_same_algebra(_built(carrier, field), _oracle(carrier, field))


def test_random_structured_algebras_match_the_per_carrier_oracles(monkeypatch):
    # Every quiver and incidence algebra that 300 seeded draws build, from
    # ``corpus`` directly and through ``fia_structured_algebra``.
    compared = Counter()

    def checked(carrier, field=QQ, name=""):
        built = structured_algebra(carrier, field, name)
        _assert_same_algebra(built, _oracle(carrier, field))
        compared[type(carrier).__name__] += 1
        return built

    monkeypatch.setattr(corpus, "structured_algebra", checked)
    monkeypatch.setattr(incidence, "structured_algebra", checked)
    rng = random.Random(0)
    for _ in range(300):
        random_structured_algebra(rng)
    assert compared["Quiver"] > 20 and compared["Poset"] > 20


def test_structured_algebra_refuses_a_cyclic_quiver():
    with pytest.raises(ValueError, match="oriented cycle"):
        structured_algebra(named_quiver("cycle3"))


def test_theta_embed_witnesses():
    q = named_quiver("line3")
    v = theta_embed(CoalgElement.from_path(q.vertex_path("a")))
    assert [str(p) for p in v.witness_complement] == ["a"]
    xy = theta_embed(CoalgElement.from_path(q.path_from_labels(["x", "y"])))
    assert {str(p) for p in xy.witness_complement} == {"a", "b", "c", "x", "y", "x.y"}
    # The witness ideal basis avoids the complement and the functional kills it.
    for p in xy.witness_ideal_basis:
        assert not xy.functional.coeff(p)


def test_theta_is_coalgebra_morphism():
    # The transpose comultiplication of the quiver algebra sends each dual
    # path vector to the sum over its splits; identical to the path
    # comultiplication under the coordinate identification.
    for name in ("single_arrow", "line3", "diamond"):
        q = named_quiver(name)
        algebra = structured_algebra(q)
        dual = dual_coalgebra(algebra)
        for p in algebra.basis:
            transposed = dual.delta_table[p]
            direct = comultiply(CoalgElement.from_path(p))
            assert transposed == direct
            eps = dual.counit_table[p]
            assert bool(eps) == (p.length == 0)


def test_lemma_idempotents_outside_witness_bounded_by_codimension():
    # Every cofinite-ideal witness leaves only finitely many idempotents
    # outside, at most the codimension.
    rng = random.Random(33)
    for _ in range(20):
        algebra = random_structured_algebra(rng)
        values = {b: Fraction(rng.randint(-2, 2)) for b in algebra.basis if rng.random() < 0.6}
        functional = SparseVector(values)
        verdict = is_in_finite_dual(functional, algebra)
        witness = verdict.witness["ideal_basis"]
        codim = verdict.witness["codimension"]
        outside = [
            e
            for e in algebra.idempotents
            if not in_span(SparseVector({e: algebra.field.one}), witness)
        ]
        assert len(outside) <= codim


def test_maximal_ideal_in_kernel_is_an_ideal_inside_kernel():
    rng = random.Random(41)
    for _ in range(15):
        algebra = random_structured_algebra(rng)
        values = {b: Fraction(rng.randint(-2, 2)) for b in algebra.basis if rng.random() < 0.5}
        functional = SparseVector(values)
        ideal = maximal_ideal_in_kernel(algebra, functional)
        basis = rref(ideal)
        one = algebra.field.one
        for vec in ideal:
            # inside the kernel
            total = 0
            for lab, coeff in vec.items():
                total = total + functional.coeff(lab) * coeff
            assert not total
            for b in algebra.basis:
                left = algebra.product(SparseVector({b: one}), vec)
                right = algebra.product(vec, SparseVector({b: one}))
                assert in_span(left, basis) and in_span(right, basis)


def _random_functional(rng, algebra):
    return SparseVector({b: algebra.field.of(rng.randint(-2, 2)) for b in algebra.basis if rng.random() < 0.5})


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_maximal_ideal_matches_both_oracles_on_random_algebras(rng):
    # The annihilator of the generated subcoalgebra is the stage loop's
    # fixpoint, and its codimension the dense rank of the translates.
    algebra = random_structured_algebra(rng)
    functional = _random_functional(rng, algebra)
    ideal = maximal_ideal_in_kernel(algebra, functional)
    assert ideal == stage_loop_maximal_ideal(algebra, functional)
    assert len(algebra.basis) - len(ideal) == translate_rank_codimension(algebra, functional)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POSET_CORPUS), st.randoms(use_true_random=False))
def test_maximal_ideal_matches_the_stage_loop_on_corpus_incidence_algebras_over_gf5(name, rng):
    algebra = incidence.fia_structured_algebra(named_poset(name), PrimeField(5))
    functional = _random_functional(rng, algebra)
    assert maximal_ideal_in_kernel(algebra, functional) == stage_loop_maximal_ideal(algebra, functional)


@pytest.mark.parametrize("dropped", ["left_tensor_components", "right_tensor_components"])
def test_a_one_sided_closure_disagrees_with_both_oracles(monkeypatch, dropped):
    # On the non-commutative chain3 incidence algebra, the translates of
    # the dual vector of (c0,c1) reach (c0,c0)* on one side and (c1,c1)* on
    # the other, so closing on one side only leaves an ideal too large.
    algebra = incidence.fia_structured_algebra(named_poset("chain3"))
    functional = SparseVector({("c0", "c1"): QQ.one})
    oracle = stage_loop_maximal_ideal(algebra, functional)
    assert maximal_ideal_in_kernel(algebra, functional) == oracle
    monkeypatch.setattr(coalgebra, dropped, lambda tensor: [])
    mutant = maximal_ideal_in_kernel(algebra, functional)
    assert mutant != oracle
    assert len(algebra.basis) - len(mutant) != translate_rank_codimension(algebra, functional)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_finite_dual_refuses_a_label_outside_the_basis(field):
    algebra = incidence.fia_structured_algebra(named_poset("chain3"), field)
    with pytest.raises(ValueError, match="'zz' is not a basis label"):
        is_in_finite_dual(SparseVector({"zz": field.one}), algebra)
    with pytest.raises(ValueError, match="'zz' is not a basis label"):
        is_in_finite_dual(SparseVector({("c0", "c1"): field.one, "zz": field.one}), algebra)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_finite_dual_refuses_a_value_outside_the_field(field):
    algebra = incidence.fia_structured_algebra(named_poset("chain3"), field)
    foreign = [PrimeField(7).of(2), Fraction(1, 2)] if field is not QQ else [PrimeField(5).of(2), PrimeField(7).of(3)]
    for value in foreign:
        with pytest.raises(FieldError, match=r"at label \('c0', 'c1'\) is not in"):
            is_in_finite_dual(SparseVector({("c0", "c2"): field.one, ("c0", "c1"): value}), algebra)
    # Plain ints are read in the field.
    as_int = is_in_finite_dual(SparseVector({("c0", "c1"): 2}), algebra)
    as_scalar = is_in_finite_dual(SparseVector({("c0", "c1"): field.of(2)}), algebra)
    assert as_int.witness == as_scalar.witness and as_int.witness["codimension"] == 3


def test_prop_finite_dual_hit_orbit_spot_check():
    # For finite-dimensional algebras membership is automatic and the left
    # hit orbit is finite dimensional; compute both sides independently.
    rng = random.Random(55)
    for _ in range(10):
        algebra = random_structured_algebra(rng)
        one = algebra.field.one
        values = {b: Fraction(rng.randint(-2, 2)) for b in algebra.basis if rng.random() < 0.5}
        functional = SparseVector(values)
        verdict = is_in_finite_dual(functional, algebra)
        assert verdict.status == "yes"
        orbit = []
        for a in algebra.basis:
            hit = SparseVector(
                {
                    b: sum(
                        (functional.coeff(lab) * coeff for lab, coeff in algebra.basis_product(b, a).items()),
                        0,
                    )
                    for b in algebra.basis
                }
            )
            orbit.append(hit)
        assert rank(orbit) <= len(algebra.basis)


def test_loop_eval_membership():
    fam = Family("loop")
    ev2 = Functional.from_rule(fam, "eval", Fraction(2))
    verdict = is_in_finite_dual(ev2, fam, window=12)
    assert verdict.status == "yes"
    generator = verdict.witness["generator"]
    # kernel generator x - 2v
    labels = {str(p): c for p, c in generator.combo.items()}
    assert labels == {"x": Fraction(1), "v": Fraction(-2)}


def test_loop_membership_stops_at_the_first_power_off_the_witness_ideal(monkeypatch):
    # The evaluation rule is wrong on x^3 only: the check raises at n = 2,
    # having read no power past x^3.
    exact, read = dual.RULES["eval"], []

    def wrong(lam, path, field):
        read.append(path.length)
        return exact.value(lam, path, field) + (path.length == 3)

    monkeypatch.setitem(dual.RULES, "eval", exact._replace(value=wrong))
    fam = Family("loop")
    with pytest.raises(AssertionError, match="evaluation functional does not kill the witness ideal"):
        is_in_finite_dual(Functional.from_rule(fam, "eval", Fraction(2)), fam, window=12)
    assert max(read) == 3


def test_loop_eval_theta_image():
    fam = Family("loop")
    ev1 = Functional.from_rule(fam, "eval", Fraction(1))
    assert is_in_theta_image(ev1, fam, 10).status == "no_up_to_bound"
    ev0 = Functional.from_rule(fam, "eval", Fraction(0))
    verdict = is_in_theta_image(ev0, fam, 10)
    assert verdict.status == "yes_up_to_bound"
    assert [str(p) for p in verdict.witness] == ["v"]


def test_one_cycle_family_answers_like_the_loop():
    # family:cycle:1 takes rule (b) from the table, so the loop-family
    # membership tests run on it, on its own labels v0 and x0.
    answers = []
    for fam in (Family("loop"), Family("cycle", 1)):
        ev = {lam: Functional.from_rule(fam, "eval", Fraction(lam)) for lam in (0, 1, 2)}
        generator = is_in_finite_dual(ev[2], fam, window=12).witness["generator"]
        answers.append(
            (
                sorted((p.length, c) for p, c in generator.combo.items()),
                is_in_theta_image(ev[1], fam, 10).status,
                [p.length for p in is_in_theta_image(ev[0], fam, 10).witness],
            )
        )
    assert answers[0] == answers[1] == ([(0, Fraction(-2)), (1, Fraction(1))], "no_up_to_bound", [0])


def test_theta_image_on_truncated_window_needs_room_below_the_horizon():
    loop = Quiver(["v"], [("x", "v", "v")])
    # gamma's support closure {v, x, xx} fits the bound but reaches the
    # window, so it is no proof of a cofinite monomial ideal.
    gamma = Functional.from_rule(loop, "gamma")
    assert is_in_theta_image(gamma, loop, window=2).status == "no_up_to_bound"
    ev0 = Functional.from_rule(loop, "eval", Fraction(0))
    verdict = is_in_theta_image(ev0, loop, window=2)
    assert verdict.status == "yes_up_to_bound"
    assert [str(p) for p in verdict.witness] == ["v"]


def test_theta_image_of_coordinate_functionals():
    q = named_quiver("diamond")
    rng = random.Random(3)
    element = random_element(rng, q, 2)
    from quivercoalg.dual import psi_embed

    verdict = is_in_theta_image(psi_embed(element), q)
    assert verdict.status == "yes"
    zero = is_in_theta_image(Functional.zero(q), q)
    assert zero.status == "yes" and zero.witness == []


def test_theta_recovery():
    line = theta_recovery_check(named_quiver("line3"))
    assert line.status == "yes" and line.data["recovered"] and line.data["dimension"] == 6
    point = theta_recovery_check(named_quiver("point"))
    assert point.status == "yes" and point.data["dimension"] == 1
    loop = theta_recovery_check(Family("loop"))
    assert loop.status == "no_up_to_bound" and not loop.data["recovered"]
    assert loop.witness.describe() == loop.data["witness"] == "rule:eval(1)"
    assert loop.data["witness_monomial_verdict"] == "no_up_to_bound"
    cyc = theta_recovery_check(named_quiver("cycle2"))
    assert not cyc


_CYCLIC = [pytest.param(named_quiver(name), id=name) for name in CYCLIC_CORPUS] + [
    pytest.param(Family("cycle", s).truncate(0), id=f"cycle:{s}") for s in (1, 2, 3, 4)
]


@pytest.mark.parametrize("quiver", _CYCLIC)
def test_witness_vanishes_on_every_path_off_the_winding_paths(quiver):
    # The report checks the witness off the winding paths only on the
    # monomial generators and the one-arrow exits; the oracle scans every
    # path of each window up to 10.
    witness = theta_recovery_check(quiver, codim_bound=2).witness
    for window in range(len(find_simple_cycle(quiver)), 11):
        assert witness_off_winding_paths(quiver, window, witness) == []


@pytest.mark.parametrize("quiver", _CYCLIC)
def test_winding_rule_matches_the_winding_predicate(quiver):
    # Every path up to length 8, against the predicate the rule replaced.
    cycle = tuple(find_simple_cycle(quiver))
    f = Functional.from_rule(quiver, "winding_multiple", cycle)
    for seq in brute_force_paths(quiver, 8):
        path = quiver.path_from_labels(seq[1:]) if len(seq) > 1 else quiver.vertex_path(seq[0])
        assert f(path) == (QQ.one if winds_a_multiple(cycle, path) else QQ.zero)


# The two rule rows as they read paths arrow by arrow: the test oracles of
# the one-step rows in ``dual.RULES``.
def _per_arrow_winding_multiple(cycle, path, field):
    s, starts = len(cycle), [a.source for a in cycle]
    if path.length % s or path.source not in starts:
        return field.zero
    n = starts.index(path.source)
    winds = all(a.ident == cycle[(n + k) % s].ident for k, a in enumerate(path.arrows))
    return field.one if winds else field.zero


def _product_eval(lam, path, field):
    return prod([lam] * path.length, start=field.one)


def _rotated_the_wrong_way(cycle, path, field):
    s, starts = len(cycle), [a.source for a in cycle]
    if path.length % s or path.source not in starts:
        return field.zero
    n = -starts.index(path.source) % s
    return field.one if path.arrows == (cycle[n:] + cycle[:n]) * (path.length // s) else field.zero


def _without_the_length_test(cycle, path, field):
    # Every path that starts on the cycle and follows it, of any length.
    s, starts = len(cycle), [a.source for a in cycle]
    if path.source not in starts:
        return field.zero
    n = starts.index(path.source)
    return field.one if path.arrows == ((cycle[n:] + cycle[:n]) * (path.length // s + 1))[:path.length] else field.zero


_RULE_QUIVERS = [named_quiver(name) for name in CYCLIC_CORPUS] + [Family("loop").truncate(0)] + [
    Family("cycle", s).truncate(0) for s in (2, 3, 4)]


def _winding_disagreements(value):
    """The (quiver, path, field) where ``value`` and the per-arrow rule
    differ, on every path up to length 8, over q and fp:5."""
    return [(q.name, str(p), field) for q in _RULE_QUIVERS for cycle in [tuple(find_simple_cycle(q))]
            for p in enumerate_paths(q, 8).paths for field in (QQ, PrimeField(5))
            if value(cycle, p, field) != _per_arrow_winding_multiple(cycle, p, field)]


def test_the_winding_rule_agrees_with_the_per_arrow_rule():
    assert _winding_disagreements(dual.RULES["winding_multiple"].value) == []


@pytest.mark.parametrize("mutant", [_rotated_the_wrong_way, _without_the_length_test])
def test_winding_rule_mutants_disagree_with_the_per_arrow_rule(mutant):
    assert _winding_disagreements(mutant) != []


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "fp5"])
@pytest.mark.parametrize("lam", ["0", "1", "2", "-1/3"])
def test_the_eval_rule_agrees_with_the_product_of_its_factors(field, lam):
    value, exact = field.parse(lam), dual.RULES["eval"].value
    for q in _RULE_QUIVERS:
        for p in enumerate_paths(q, 8).paths:
            got, expected = exact(value, p, field), _product_eval(value, p, field)
            assert got == expected and type(got) is type(expected)


def test_cycle_recovery_bounds_the_support_closure_without_building_it(monkeypatch):
    def refuse(paths):
        raise AssertionError("subpath_closure called")

    monkeypatch.setattr(finite_dual, "subpath_closure", refuse)
    report = theta_recovery_check(Family("cycle", 3), codim_bound=20)
    assert report.witness.describe() == "rule:winding-multiple"
    assert report.status == "no_up_to_bound"


def test_off_winding_oracle_sees_a_witness_off_the_cycle():
    quiver = named_quiver("loop_with_tail")
    flagged = witness_off_winding_paths(quiver, 3, Functional.from_rule(quiver, "gamma"))
    assert sorted(str(p) for p in flagged) == ["w", "x.x.y", "x.y", "y"]


@pytest.mark.parametrize(
    "stray, where",
    [("w", "off the cycle"), ("y", "off the cycle"), ("x.y", "off the cycle"), ("x.x.x.y", "off the cycle"),
     ("x.x", "on the counterexample ideal")],
)
def test_recovery_report_checks_the_witness_off_the_winding_paths(monkeypatch, stray, where):
    # The witness differs from the winding indicator on one path: a monomial
    # generator (w, y), a one-arrow exit of the winding paths, or a winding
    # path, which then differs from the other term of a difference.
    quiver = named_quiver("loop_with_tail")
    exact = dual.RULES["winding_multiple"]

    def wrong(cycle, path, field):
        value = exact.value(cycle, path, field)
        return field.one - value if str(path) == stray else value

    monkeypatch.setitem(dual.RULES, "winding_multiple", exact._replace(value=wrong))
    with pytest.raises(AssertionError, match=f"witness does not vanish {where}"):
        theta_recovery_check(quiver, codim_bound=2)


def test_cycle_recovery_builds_only_the_winding_paths(monkeypatch):
    # Codim bound 40 widens the window to 42, where two loops have 2^43 - 1
    # paths: nothing may enumerate them, and the paths built are counted.
    quiver = named_quiver("two_loops")

    def refuse(*args):
        raise AssertionError("enumerate_paths called")

    monkeypatch.setattr(algebra, "enumerate_paths", refuse)
    monkeypatch.setattr(finite_dual, "enumerate_paths", refuse)
    built, exact = [0], Path.__new__

    def counting(cls, *args):
        built[0] += 1
        return exact(cls, *args)

    monkeypatch.setattr(Path, "__new__", staticmethod(counting))
    report = theta_recovery_check(quiver, codim_bound=40)
    assert report.status == "no_up_to_bound"
    assert "codimension 1)" in report.explanation
    assert built[0] < 2000


def whole_basis_ideal_closure(algebra, seeds):
    """The ideal closure that multiplies every row of the span by every
    basis unit on both sides each round."""
    one = algebra.field.one
    current = rref(list(seeds))
    while True:
        extended = list(current)
        for vec in current:
            for b in algebra.basis:
                basis_vec = SparseVector({b: one})
                extended.append(algebra.product(basis_vec, vec))
                extended.append(algebra.product(vec, basis_vec))
        refined = rref(extended)
        if len(refined) == len(current):
            return refined
        current = refined


def test_tensor_slice_ideals():
    # The slices of a cofinite tensor ideal are cofinite ideals whose tensor
    # sum stays inside.
    rng = random.Random(77)
    for _ in range(8):
        a = random_structured_algebra(rng, max_basis=4)
        b = random_structured_algebra(rng, max_basis=4)
        tensor = tensor_structured(a, b)
        one = tensor.field.one
        seeds = []
        for _ in range(rng.randint(1, 3)):
            label = (rng.choice(a.basis), rng.choice(b.basis))
            seeds.append(SparseVector({label: one}))
        h_basis = two_sided_ideal_closure(tensor, seeds)
        assert h_basis == whole_basis_ideal_closure(tensor, seeds)
        ideal_i, ideal_j = tensor_slice_ideals(a, b, h_basis)
        h_rref = rref(h_basis)
        # I (x) B and A (x) J land inside H.
        for vec in ideal_i:
            for y in b.basis:
                embedded = SparseVector({(lab, y): c for lab, c in vec.items()})
                assert in_span(embedded, h_rref)
        for vec in ideal_j:
            for x in a.basis:
                embedded = SparseVector({(x, lab): c for lab, c in vec.items()})
                assert in_span(embedded, h_rref)
        # Two-sided ideal property of the slices.
        for vec in ideal_i:
            basis_i = rref(ideal_i)
            for x in a.basis:
                assert in_span(a.product(SparseVector({x: one}), vec), basis_i)
                assert in_span(a.product(vec, SparseVector({x: one})), basis_i)


def test_finite_dual_witness_holds_rationals_not_floats():
    # A functional vanishing off the idempotents: the kernels behind the
    # witness see zero images, which once came back as 1.0.
    chain = named_poset("chain3")
    algebra = incidence.fia_structured_algebra(chain)
    functional = SparseVector({(x, x): QQ.one for x in chain.elements})
    witness = is_in_finite_dual(functional, algebra).witness["ideal_basis"]
    assert [v.entries for v in witness] == [{("c0", "c1"): 1}, {("c0", "c2"): 1}, {("c1", "c2"): 1}]
    assert all(type(c) is Fraction for v in witness for c in v.entries.values())


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_dual_counit_returns_field_scalars(field):
    q = named_quiver("single_arrow")
    dual = dual_coalgebra(structured_algebra(q, field))
    u, x = q.vertex_path("a"), q.arrow_path("x")
    empty = dual.counit(SparseVector())
    assert empty == field.zero and type(empty) is type(field.zero)
    value = dual.counit(SparseVector({u: field.of(3), x: field.of(2)}))
    assert value == field.of(3) and type(value) is type(field.zero)
