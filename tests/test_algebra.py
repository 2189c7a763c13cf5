import random
from fractions import Fraction

import pytest

from quivercoalg.algebra import (
    bialgebra_check,
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    contains_cofinite_monomial_ideal,
    is_subpath_closed,
    local_unit,
    monomial_closure,
    multiply,
    subpath_closure,
    winding_paths,
)
from quivercoalg import algebra
from quivercoalg.coalgebra import CoalgElement
from quivercoalg.corpus import named_quiver, random_element, random_quiver
from quivercoalg.linalg import SparseVector, solve_membership
from quivercoalg.quiver import Quiver, QuiverFamily, enumerate_paths, find_simple_cycle

from helpers import dense_rank, sparse_rows_to_dense


def unit(path):
    return CoalgElement.from_path(path)


def test_vertex_products():
    q = named_quiver("single_arrow")
    a, b = q.vertex_path("a"), q.vertex_path("b")
    assert multiply(unit(a), unit(a)) == unit(a)
    assert multiply(unit(a), unit(b)).is_zero()


def test_arrow_concatenation():
    q = named_quiver("line3")
    assert multiply(unit(q.arrow_path("x")), unit(q.arrow_path("y"))) == unit(
        q.path_from_labels(["x", "y"])
    )


def test_bilinear_expansion():
    q = named_quiver("line3")
    a, b, x = q.vertex_path("a"), q.vertex_path("b"), q.arrow_path("x")
    s = unit(a) + unit(b)
    assert multiply(s, unit(x)) == unit(x)


def test_multiply_across_quivers_is_error():
    with pytest.raises(ValueError):
        multiply(unit(named_quiver("point").vertex_path("a")), unit(named_quiver("point").vertex_path("a")))


def test_associativity_random():
    rng = random.Random(4)
    for _ in range(40):
        q = random_quiver(rng, 4, 6)
        a, b, c = (random_element(rng, q, 3) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_vertices_form_complete_idempotent_system():
    rng = random.Random(6)
    for _ in range(25):
        q = random_quiver(rng, 5, 6)
        total = CoalgElement(q, SparseVector({q.vertex_path(v): Fraction(1) for v in q.vertices}))
        a = random_element(rng, q, 4)
        assert multiply(total, a) == a
        assert multiply(a, total) == a


def test_local_unit():
    q = named_quiver("single_arrow")
    x = unit(q.arrow_path("x"))
    e = local_unit([x])
    assert e == unit(q.vertex_path("a")) + unit(q.vertex_path("b"))
    assert multiply(e, x) == x and multiply(x, e) == x
    v = unit(q.vertex_path("a"))
    assert local_unit([v]) == v


def test_monomial_closure_vertex_generator():
    q = Quiver(["a", "v", "b"], [("x", "a", "v"), ("y", "v", "b")])
    ideal = monomial_closure([q.vertex_path("v")], q, 2)
    labels = {str(p) for p in ideal.closure}
    assert labels == {"v", "x", "y", "x.y"}
    assert ideal.exhaustive


def test_monomial_closure_empty_and_loop():
    q = named_quiver("line3")
    assert monomial_closure([], q, 3).closure == []
    loop = named_quiver("loop")
    powers = monomial_closure([loop.arrow_path("x")], loop, 4)
    assert [p.length for p in powers.closure] == [1, 2, 3, 4]
    assert not powers.exhaustive


def test_monomial_complement_is_subpath_closed():
    rng = random.Random(13)
    for _ in range(20):
        q = random_quiver(rng, 4, 4)
        enum = enumerate_paths(q, 3)
        if not enum.paths:
            continue
        gens = [rng.choice(enum.paths)]
        ideal = monomial_closure(gens, q, 3)
        if ideal.exhaustive:
            complement = [p for p in enum.paths if p not in set(ideal.closure)]
            assert is_subpath_closed(complement)


def test_cofinite_monomial_whole_algebra():
    q = named_quiver("line3")
    enum = enumerate_paths(q, 2)
    gens = [SparseVector({p: Fraction(1)}) for p in enum.paths]
    verdict = contains_cofinite_monomial_ideal(gens, q, 2, 10)
    assert verdict.status == "yes_exhaustive"
    assert verdict.witness_complement == []


def test_cofinite_monomial_positive_witness():
    q = named_quiver("line3")
    enum = enumerate_paths(q, 2)
    gens = [SparseVector({p: Fraction(1)}) for p in enum.paths if p.length > 0]
    verdict = contains_cofinite_monomial_ideal(gens, q, 2, 10)
    assert verdict.status == "yes_exhaustive"
    assert {str(p) for p in verdict.witness_complement} == {"a", "b", "c"}


def test_cycle_counterexample_loop():
    loop = named_quiver("loop")
    ce = build_cycle_counterexample(loop, 6)
    assert ce.codimension == 1
    verdict = contains_cofinite_monomial_ideal(ce.ideal_generators(), loop, 6, 4)
    assert verdict.status == "no_up_to_bound"


def test_cycle_counterexample_codimension_matches_dense_oracle():
    quiver = QuiverFamily("cycle", 2).truncate(0)
    ce = build_cycle_counterexample(quiver, 8)
    enum = enumerate_paths(quiver, 8)
    rows = sparse_rows_to_dense([g.entries for g in ce.ideal_generators()], enum.paths)
    assert ce.codimension == len(enum.paths) - dense_rank(rows) == 4


def test_cycle_counterexample_identities_on_cycle3():
    quiver = QuiverFamily("cycle", 3).truncate(0)
    ce = build_cycle_counterexample(quiver, 9)  # raises if any identity fails
    assert ce.identities_checked == 702 == _identity_count(3, 9)
    assert ce.details["cycle_length"] == 3


def _identity_count(s, window):
    """2·s·Σ (window + 1 - ks - i) over cycle vertices n and ks + i <= window."""
    return 2 * s * sum(
        window + 1 - k * s - i
        for n in range(s)
        for k in range(1, window + 1)
        for i in range(window + 1)
        if k * s + i <= window
    )


@pytest.mark.parametrize(
    "quiver, window, count",
    [
        (named_quiver("loop"), 6, 112),
        (QuiverFamily("cycle", 3).truncate(0), 36, 46548),
    ],
)
def test_cycle_counterexample_identity_count_is_pinned(quiver, window, count):
    ce = build_cycle_counterexample(quiver, window)
    assert ce.identities_checked == count == _identity_count(ce.details["cycle_length"], window)


@pytest.mark.parametrize("side", ["right", "left"])
def test_cycle_counterexample_catches_a_wrong_product(monkeypatch, side):
    quiver = QuiverFamily("cycle", 3).truncate(0)
    q = winding_paths(quiver, find_simple_cycle(quiver), 9)
    vertex = unit(q[(0, 0)])
    difference = unit(q[(0, 3)]) - vertex
    target = (difference, vertex) if side == "right" else (vertex, difference)
    exact = algebra.multiply

    def drop_one_term(a, b):
        product = exact(a, b)
        if (a, b) == target:
            kept = product.combo.sorted_items()[1:]
            return CoalgElement(product.carrier, SparseVector(kept))
        return product

    monkeypatch.setattr(algebra, "multiply", drop_one_term)
    with pytest.raises(AssertionError, match=f"{side} product identity fails at n=0,k=1,i=0,m=0,j=0"):
        build_cycle_counterexample(quiver, 9)


def test_cycle_counterexample_needs_a_cycle():
    with pytest.raises(ValueError):
        build_cycle_counterexample(named_quiver("line3"), 4)


def test_cycle_counterexample_on_quiver_with_tail():
    q = named_quiver("loop_with_tail")
    ce = build_cycle_counterexample(q, 6)
    # Everything off the cycle is swallowed whole: the stray vertex and all
    # paths through the tail arrow.
    assert any(p.length == 0 and p.vertex == "w" for p in ce.monomial_part)
    assert any(any(a.label == "y" for a in p.arrows) for p in ce.monomial_part)
    winding = set(ce.closed_path_set)
    assert all(p not in winding for p in ce.monomial_part)


def test_multiarrow_counterexample():
    fam = QuiverFamily("multiarrow")
    ce = build_multiarrow_counterexample(fam, 1)
    gens = [d.combo for d in ce.difference_generators]
    x0 = ce.quiver.arrow_path("x0")
    assert solve_membership(SparseVector({x0: Fraction(1)}), gens) is None
    ce3 = build_multiarrow_counterexample(fam, 3)
    assert ce3.codimension == 3
    with pytest.raises(ValueError):
        build_multiarrow_counterexample(QuiverFamily("loop"), 3)


def test_bialgebra_examples():
    assert bialgebra_check(named_quiver("single_arrow")).compatible
    line = bialgebra_check(named_quiver("line3"))
    assert not line.compatible
    assert tuple(str(p) for p in line.witness) == ("x", "y")
    par = bialgebra_check(named_quiver("parallel_pair"))
    assert not par.compatible
    assert {str(p) for p in par.witness} == {"x", "y"}
    assert not bialgebra_check(named_quiver("loop")).compatible
    assert bialgebra_check(named_quiver("two_points")).compatible


def test_subpath_closure_helper():
    q = named_quiver("line3")
    xy = q.path_from_labels(["x", "y"])
    closed = subpath_closure([xy])
    assert {str(p) for p in closed} == {"a", "b", "c", "x", "y", "x.y"}
    assert is_subpath_closed(closed)
