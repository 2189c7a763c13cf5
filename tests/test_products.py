import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.coalgebra import CoalgElement, basis_tables, linear_extension, subcoalgebra_closure
from quivercoalg.corpus import (
    enumerate_small_quivers,
    named_quiver,
    random_acyclic_quiver,
    random_element,
    random_path,
    random_quiver,
    random_scalar,
)
from quivercoalg.dual import Functional
from quivercoalg.linalg import SparseVector
from quivercoalg.products import (
    LatticeWalk,
    TensorProduct,
    alpha_embed,
    alpha_table,
    coreflexivity_verdict,
    decompose_product_path,
    factor_perp_element,
    lattice_walks,
    product_quiver,
    saturate_subcoalgebra,
    skew_primitive_quotient_check,
    star_perp_factorization,
    star_truncation_basis,
    verify_factorization,
    walk_path,
)
from quivercoalg.quiver import (
    Family,
    Quiver,
    check_recovery_condition,
    check_semiperfect_condition,
    disjoint_union,
    enumerate_paths,
    is_acyclic,
)
from quivercoalg.scalars import QQ, PrimeField
from quivercoalg.textio import parse_functional

from helpers import walk_sum_alpha_embed


def test_product_quiver_counts():
    point = named_quiver("point")
    assert len(product_quiver(point, point).vertices) == 1
    loop = named_quiver("loop")
    loop2 = product_quiver(loop, loop)
    assert len(loop2.vertices) == 1 and len(loop2.arrows) == 2
    arrow = named_quiver("single_arrow")
    square = product_quiver(arrow, arrow)
    assert len(square.vertices) == 4 and len(square.arrows) == 4


def test_lattice_walk_counts():
    assert len(lattice_walks(0, 0)) == 1
    assert len(lattice_walks(2, 1)) == 3
    assert len(lattice_walks(2, 2)) == 6
    for n in range(7):
        for k in range(7):
            assert len(lattice_walks(n, k)) == comb(n + k, k)


def test_lattice_walk_rejects_a_bad_step():
    with pytest.raises(ValueError, match="bad step 'X'"):
        LatticeWalk(("R", "X"))


def test_walk_path_examples():
    arrow = named_quiver("single_arrow")
    other = Family("line1").truncate(1)
    product = product_quiver(arrow, other)
    p = arrow.arrow_path("x")
    q0 = other.vertex_path("v0")
    only = lattice_walks(1, 0)[0]
    path = walk_path(p, q0, only, product)
    assert str(path) == "(x,v0)"
    pv = arrow.vertex_path("a")
    vertex_image = walk_path(pv, q0, lattice_walks(0, 0)[0], product)
    assert vertex_image.length == 0 and vertex_image.vertex == "(a,v0)"
    q = other.arrow_path("a0")
    right_up = LatticeWalk(("R", "U"))
    composite = walk_path(p, q, right_up, product)
    assert [a.label for a in composite.arrows] == ["(x,v0)", "(b,a0)"]


def test_decompose_round_trip_exhaustive():
    # Exhaustive over several factor pairs with at most 3 arrows each,
    # including parallel arrows (distinct paths with equal endpoints).
    pairs = (
        ("single_arrow", "single_arrow"),
        ("line3", "parallel_pair"),
        ("parallel_pair", "parallel_pair"),
        ("star_out", "single_arrow"),
    )
    for left_name, right_name in pairs:
        left = named_quiver(left_name)
        base = named_quiver(right_name)
        right = type(base)(
            [v + "'" for v in base.vertices],
            [(a.label + "'", a.source + "'", a.target + "'") for a in base.arrows],
        )
        product = product_quiver(left, right)
        enum = enumerate_paths(product, len(product.vertices))
        assert enum.exhaustive
        for gamma in enum.paths:
            p, q, walk = decompose_product_path(gamma)
            assert walk_path(p, q, walk, product) == gamma
        left_paths = enumerate_paths(left, len(left.vertices)).paths
        right_paths = enumerate_paths(right, len(right.vertices)).paths
        for p in left_paths:
            for q in right_paths:
                for walk in lattice_walks(p.length, q.length):
                    gamma = walk_path(p, q, walk, product)
                    assert decompose_product_path(gamma) == (p, q, walk)


def test_decompose_round_trip_with_commas_in_labels():
    # The pair behind a label is recorded, not parsed back from the label.
    left = Quiver(["a,b", "c"], [("x", "a,b", "c")], name="comma")
    product = product_quiver(left, left)
    for gamma in enumerate_paths(product, 2).paths:
        p, q, walk = decompose_product_path(gamma)
        assert walk_path(p, q, walk, product) == gamma
    paths = enumerate_paths(left, 2).paths
    for p in paths:
        for q in paths:
            for walk in lattice_walks(p.length, q.length):
                assert decompose_product_path(walk_path(p, q, walk, product)) == (p, q, walk)


@pytest.mark.parametrize("name", ["line3", "comma"])
def test_functionals_on_pair_labels_round_trip(name):
    # Every path of L x L, alone and all at once with distinct coefficients,
    # is read back by parse_functional from its own description.
    left = Quiver(["a,b", "c"], [("x", "a,b", "c")], name="comma") if name == "comma" else named_quiver(name)
    product = product_quiver(left, left)
    paths = enumerate_paths(product, 2 * (len(left.vertices) - 1)).paths
    for f in [Functional.dual_of_path(gamma) for gamma in paths] + [
        Functional(product, support=SparseVector({gamma: Fraction(i + 1, 2) for i, gamma in enumerate(paths)}))
    ]:
        assert parse_functional(f.describe(), product, product).support == f.support


def test_alpha_examples():
    arrow = named_quiver("single_arrow")
    other = Family("line1").truncate(1)
    product = product_quiver(arrow, other)
    x = arrow.arrow_path("x")
    y = other.arrow_path("a0")
    av = arrow.vertex_path("a")
    bv = other.vertex_path("v0")
    pair_vertex = alpha_embed(SparseVector({(av, bv): Fraction(1)}), product)
    assert str(pair_vertex) == "[(a,v0)]"
    single = alpha_embed(SparseVector({(x, bv): Fraction(1)}), product)
    assert str(single) == "[(x,v0)]"
    two_walks = alpha_embed(SparseVector({(x, y): Fraction(1)}), product)
    assert len(two_walks.combo.entries) == 2


def test_saturation_examples():
    line = named_quiver("line3")
    v_only = saturate_subcoalgebra([CoalgElement.from_path(line.vertex_path("a"))], line)
    assert [str(p) for p in v_only.basis] == ["a"]
    xy = CoalgElement.from_path(line.path_from_labels(["x", "y"]))
    closure = subcoalgebra_closure([xy])
    sat = saturate_subcoalgebra(closure, line)
    assert len(sat.basis) == 6
    diamond = named_quiver("diamond")
    branch = CoalgElement.from_path(diamond.path_from_labels(["x1", "y1"]))
    sat_d = saturate_subcoalgebra(subcoalgebra_closure([branch]), diamond)
    # The other branch has both endpoints in the saturated vertex set.
    other_branch = diamond.path_from_labels(["x2", "y2"])
    assert other_branch in set(sat_d.basis)


def vertices_on(path):
    return [path.source] + [a.target for a in path.arrows]


def oracle_saturation(quiver, seed):
    """The vertices on some path between two seed vertices, and the paths
    with both endpoints among them, by brute force over every path of an
    acyclic quiver."""
    paths = enumerate_paths(quiver, len(quiver.vertices)).paths
    on_paths = set()
    for p in paths:
        if p.source in seed and p.target in seed:
            on_paths.update(vertices_on(p))
    return on_paths, {p for p in paths if p.source in on_paths and p.target in on_paths}


def saturation_cases():
    """(quiver, elements): every vertex seed of one or two vertices and
    every single path on the acyclic quivers with at most 3 vertices and 3
    arrows, then the closures of 200 seeded random elements."""
    for quiver in enumerate_small_quivers(3, 3):
        if not is_acyclic(quiver):
            continue
        for size in (1, 2):
            for seed in combinations(quiver.vertices, size):
                yield quiver, [CoalgElement.from_path(quiver.vertex_path(v)) for v in seed]
        for p in enumerate_paths(quiver, len(quiver.vertices)).paths:
            yield quiver, [CoalgElement.from_path(p)]
    rng = random.Random(58)
    for _ in range(200):
        quiver = random_acyclic_quiver(rng, 6, 8)
        yield quiver, subcoalgebra_closure([random_element(rng, quiver, 3)])


def test_saturation_matches_its_definition():
    for quiver, elements in saturation_cases():
        seed = {v for element in elements for p in element.combo.labels() for v in vertices_on(p)}
        vertices, paths = oracle_saturation(quiver, seed)
        sat = saturate_subcoalgebra(elements, quiver)
        assert sat.seed_vertices == sorted(seed, key=str)
        assert sat.vertex_set == sorted(vertices, key=str)
        assert set(sat.basis) == paths and len(sat.basis) == len(paths)
        assert sat.basis == sorted(sat.basis, key=lambda p: p.sort_key)


def test_saturation_rejects_relevant_cycles():
    q = named_quiver("loop_with_tail")
    with pytest.raises(ValueError):
        saturate_subcoalgebra([CoalgElement.from_path(q.vertex_path("v"))], q)


def test_factorization_zero_functional():
    line = named_quiver("line3")
    sat = saturate_subcoalgebra([CoalgElement.from_path(line.vertex_path("a"))], line)
    witness = factor_perp_element(Functional.zero(line), sat, 2)
    assert witness.checked_paths == 6


def test_factorization_base_case_single_vertex():
    q = named_quiver("two_points")
    sat = saturate_subcoalgebra([CoalgElement.from_path(q.vertex_path("a"))], q)
    eta = Functional(q, support=SparseVector({q.vertex_path("b"): Fraction(1)}))
    witness = factor_perp_element(eta, sat, 1)
    b = q.vertex_path("b")
    total = witness.f1(b) * witness.g1(b) + witness.f2(b) * witness.g2(b)
    assert total == Fraction(1)


def test_factorization_rejects_nonvanishing_input():
    line = named_quiver("line3")
    sat = saturate_subcoalgebra([CoalgElement.from_path(line.vertex_path("a"))], line)
    bad = Functional(line, support=SparseVector({line.vertex_path("a"): Fraction(1)}))
    with pytest.raises(ValueError):
        factor_perp_element(bad, sat, 2)


def line_witness():
    """line3 saturated at its first vertex, and the witness for a functional
    that is nonzero on every path outside W."""
    line = named_quiver("line3")
    sat = saturate_subcoalgebra([CoalgElement.from_path(line.vertex_path("a"))], line)
    paths = enumerate_paths(line, 2).paths
    values = {p: Fraction(i + 1) for i, p in enumerate(paths) if not sat.contains_path(p)}
    eta = Functional(line, support=SparseVector(values))
    return line, sat, paths, factor_perp_element(eta, sat, 2)


def test_verify_factorization_rejects_a_perturbed_factor():
    line, sat, paths, witness = line_witness()
    y = line.arrow_path("y")
    # s(y) = b is outside W, so f1(b) = 1 and g1(y) enters the identity at y only.
    values = dict(witness.g1.support.items())
    values[y] = values.get(y, 0) + 1
    bad = dataclasses.replace(witness, g1=Functional(line, support=SparseVector(values)))
    with pytest.raises(AssertionError) as failure:
        verify_factorization(bad, sat.basis, paths)
    assert str(failure.value) == "convolution identity fails at y"


def test_verify_factorization_rejects_a_factor_nonzero_on_w():
    line, sat, paths, witness = line_witness()
    a = line.vertex_path("a")
    values = dict(witness.f2.support.items())
    values[a] = Fraction(1)
    bad = dataclasses.replace(witness, f2=Functional(line, support=SparseVector(values)))
    with pytest.raises(AssertionError, match="factor does not vanish on the subcoalgebra"):
        verify_factorization(bad, sat.basis, paths)


def test_factorization_random_line():
    rng = random.Random(123)
    line = named_quiver("line4")
    sat = saturate_subcoalgebra([CoalgElement.from_path(line.vertex_path("a"))], line)
    enum = enumerate_paths(line, 3)
    values = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for p in enum.paths if not sat.contains_path(p)}
    eta = Functional(line, support=SparseVector(values))
    witness = factor_perp_element(eta, sat, 3)  # verifies the identity internally
    assert witness.checked_paths == len(enum.paths)


def test_star_factorization_zero_and_shape():
    zero = Functional.zero(Family("star56").truncate(3))
    witness = star_perp_factorization(1, 3, zero)
    quiver = Family("star56").truncate(3)
    for p in star_truncation_basis(quiver, 3):
        assert not witness.f1(p) and not witness.f2(p)
    # matrix-shaped identity for a specific indicator functional
    b2 = quiver.vertex_path("b2")
    eta = Functional(quiver, support=SparseVector({b2: Fraction(1)}))
    wit = star_perp_factorization(1, 3, eta)
    assert wit.eta(b2) == Fraction(1)


def test_star_factorization_rejects_bad_input():
    quiver = Family("star56").truncate(3)
    bad = Functional(quiver, support=SparseVector({quiver.vertex_path("a"): Fraction(1)}))
    with pytest.raises(ValueError):
        star_perp_factorization(1, 3, bad)


def test_coreflexivity_rule_chain():
    assert coreflexivity_verdict(named_quiver("diamond")).status == "yes"
    assert coreflexivity_verdict(named_quiver("loop")).status == "yes"
    assert coreflexivity_verdict(Family("loop")).status == "yes"
    assert coreflexivity_verdict(Family("line2")).status == "yes"
    assert coreflexivity_verdict(Family("star51")).status == "no"
    assert coreflexivity_verdict(Family("star56")).status == "unknown"
    assert coreflexivity_verdict(Family("multiarrow")).status == "unknown"
    assert coreflexivity_verdict(named_quiver("cycle2")).status == "unknown"
    assert coreflexivity_verdict(Family("natchain")).status == "yes"
    tensor = TensorProduct(named_quiver("line3"), named_quiver("diamond"))
    verdict = coreflexivity_verdict(tensor)
    assert verdict.status == "yes"
    assert any("tensor rule" in step for step in verdict.witness)
    bad_tensor = TensorProduct(named_quiver("line3"), Family("star51"))
    assert coreflexivity_verdict(bad_tensor).status == "unknown"


def test_skew_primitive_quotient():
    assert skew_primitive_quotient_check(2)
    assert skew_primitive_quotient_check(4)


def test_closure_under_products_and_unions():
    names = ("point", "single_arrow", "line3", "parallel_pair", "loop", "cycle2")
    quivers = [named_quiver(n) for n in names]
    for left in quivers:
        for right in quivers:
            both = bool(check_recovery_condition(left)) and bool(check_recovery_condition(right))
            product = product_quiver(left, right)
            assert bool(check_recovery_condition(product)) == both
            both_sp = bool(check_semiperfect_condition(left)) and bool(check_semiperfect_condition(right))
            assert bool(check_semiperfect_condition(product)) == both_sp
            union = disjoint_union(left, right)
            assert bool(check_recovery_condition(union)) == both
            count = len(enumerate_paths(union, 3).paths)
            assert count == len(enumerate_paths(left, 3).paths) + len(enumerate_paths(right, 3).paths)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, PrimeField(5)]))
def test_alpha_table_extension_matches_the_walk_sum_oracle(seed, field):
    rng = random.Random(seed)
    left, right = random_quiver(rng, 4, 5), random_quiver(rng, 4, 5)
    product = product_quiver(left, right)
    tensor = SparseVector(
        ((random_path(rng, left, 3), random_path(rng, right, 3)), random_scalar(rng, field))
        for _ in range(rng.randint(0, 4))
    )
    expected = walk_sum_alpha_embed(tensor, product)
    assert alpha_embed(tensor, product) == expected
    table = alpha_table(product)
    assert linear_extension(table, tensor) == expected.combo  # the check_walk_embedding form
    assert all(type(c) is type(field.one) for c in alpha_embed(tensor, product).combo.entries.values())
    for p, q in tensor.labels():
        scale, row = table((p, q))
        assert scale == 1 and set(row.values()) == {1} and len(row) == comb(p.length + q.length, q.length)


def test_tensor_product_tables_split_both_factors():
    left, right = named_quiver("line3"), named_quiver("single_arrow")
    delta, eps = basis_tables(TensorProduct(left, right))
    xy, x = left.path_from_labels(["x", "y"]), right.arrow_path("x")
    a, b = left.vertex_path("a"), right.vertex_path("a")
    assert delta((xy, x)) == (1, {((p1, q1), (p2, q2)): 1 for p1, p2 in xy.splits() for q1, q2 in x.splits()})
    assert eps((a, b))[1] == {0: 1}
    assert eps((a, x))[1] == {} and eps((xy, b))[1] == {}
