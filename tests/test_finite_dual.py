import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivercoalg import incidence
from quivercoalg.coalgebra import CoalgElement, comultiply
from quivercoalg.corpus import (
    named_poset,
    named_quiver,
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
    structured_from_quiver,
    tensor_slice_ideals,
    tensor_structured,
    theta_embed,
    theta_recovery_check,
    two_sided_ideal_closure,
)
from quivercoalg.linalg import SparseVector, in_span, rank, rref
from quivercoalg.quiver import Family, Quiver
from quivercoalg.scalars import QQ, PrimeField


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
    algebra = structured_from_quiver(q)
    dual = dual_coalgebra(algebra)
    u, v, x = q.vertex_path("a"), q.vertex_path("b"), q.arrow_path("x")
    assert dual.delta_table[x] == SparseVector({(u, x): QQ.one, (x, v): QQ.one})
    assert dual.counit_table[u] == QQ.one
    assert not dual.counit_table[x]


def test_dual_coalgebra_axioms_on_random_algebras():
    rng = random.Random(21)
    for _ in range(25):
        dual_coalgebra(random_structured_algebra(rng))  # validates internally


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
        algebra = structured_from_quiver(q)
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


def test_loop_eval_theta_image():
    fam = Family("loop")
    ev1 = Functional.from_rule(fam, "eval", Fraction(1))
    assert is_in_theta_image(ev1, fam, 10).status == "no_up_to_bound"
    ev0 = Functional.from_rule(fam, "eval", Fraction(0))
    verdict = is_in_theta_image(ev0, fam, 10)
    assert verdict.status == "yes_up_to_bound"
    assert [str(p) for p in verdict.witness] == ["v"]


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
    assert line.recovered and line.dimension == 6
    point = theta_recovery_check(named_quiver("point"))
    assert point.recovered and point.dimension == 1
    loop = theta_recovery_check(Family("loop"))
    assert not loop.recovered
    assert loop.witness.describe() == "rule:eval(1)"
    assert loop.witness_verdict.status == "no_up_to_bound"
    cyc = theta_recovery_check(named_quiver("cycle2"))
    assert not cyc.recovered


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
    dual = dual_coalgebra(structured_from_quiver(q, field))
    u, x = q.vertex_path("a"), q.arrow_path("x")
    empty = dual.counit(SparseVector())
    assert empty == field.zero and type(empty) is type(field.zero)
    value = dual.counit(SparseVector({u: field.of(3), x: field.of(2)}))
    assert value == field.of(3) and type(value) is type(field.zero)
