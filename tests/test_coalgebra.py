import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.coalgebra import (
    CoalgElement,
    check_coalgebra,
    check_comodule,
    check_morphism,
    comultiply,
    counit,
    grouplike_coradical,
    hull_span,
    subcoalgebra_closure,
    wedge,
)
from quivercoalg.corpus import (
    named_poset,
    named_quiver,
    random_acyclic_quiver,
    random_element,
    random_poset,
    random_quiver,
)
from quivercoalg.incidence import Poset
from quivercoalg.linalg import SparseVector, rref
from quivercoalg.quiver import Quiver, enumerate_paths
from quivercoalg.scalars import QQ

from helpers import field_basis_tables, in_span, spans_equal, whole_basis_subcoalgebra_closure


def unit(path):
    return CoalgElement.from_path(path)


def test_comultiply_vertex_is_grouplike():
    q = named_quiver("single_arrow")
    v = q.vertex_path("a")
    tensor = comultiply(unit(v))
    assert tensor == SparseVector({(v, v): Fraction(1)})


def test_comultiply_arrow():
    q = named_quiver("single_arrow")
    x = q.arrow_path("x")
    u, v = q.vertex_path("a"), q.vertex_path("b")
    tensor = comultiply(unit(x))
    assert tensor == SparseVector({(u, x): Fraction(1), (x, v): Fraction(1)})


def test_comultiply_length_two():
    q = named_quiver("line3")
    x, y = q.arrow_path("x"), q.arrow_path("y")
    xy = q.path_from_labels(["x", "y"])
    a, c = q.vertex_path("a"), q.vertex_path("c")
    tensor = comultiply(unit(xy))
    assert tensor == SparseVector(
        {(a, xy): Fraction(1), (x, y): Fraction(1), (xy, c): Fraction(1)}
    )
    # A path of length n yields exactly n + 1 tensor terms.
    assert len(tensor.entries) == 3


def test_counit_values():
    q = named_quiver("line3")
    assert counit(unit(q.vertex_path("a"))) == 1
    assert counit(unit(q.arrow_path("x"))) == 0
    mixed = unit(q.vertex_path("a")).scale(Fraction(2)) - unit(q.path_from_labels(["x", "y"])).scale(Fraction(3))
    assert counit(mixed) == 2


def delta_of(path):
    return comultiply(unit(path))


def counit_of(path):
    return counit(unit(path))


def test_coassociativity_and_counit_laws_random():
    rng = random.Random(12)
    for _ in range(60):
        q = random_quiver(rng, 5, 8)
        c = random_element(rng, q, 8)
        assert check_coalgebra(c.combo.labels(), delta_of, counit_of, QQ) is None
        # The regular comodule: the path coalgebra coacting on itself.
        assert check_comodule(c.combo.labels(), delta_of, delta_of, counit_of, QQ) is None
        # The identity is a coalgebra morphism.
        assert (
            check_morphism(c.combo.labels(), SparseVector.unit, delta_of, delta_of, counit_of, counit_of, QQ)
            is None
        )
        delta, eps = field_basis_tables(q)
        for p in c.combo.labels():
            assert delta(p) == delta_of(p) and eps(p) == counit_of(p)


def test_element_labels_must_belong_to_the_carrier():
    line = named_quiver("line3")
    twin = named_quiver("line3")
    with pytest.raises(ValueError):
        CoalgElement(line, SparseVector({twin.arrow_path("x"): ONE}))
    for label in ("x", ("a", "b")):
        with pytest.raises(ValueError):
            CoalgElement(line, SparseVector({label: ONE}))
    chain = named_poset("chain3")
    for label in (("c1", "c0"), ("c0", "c9"), line.vertex_path("a")):
        with pytest.raises(ValueError):
            CoalgElement(chain, SparseVector({label: ONE}))
    assert CoalgElement(chain, SparseVector({("c0", "c2"): ONE})).coeff(("c0", "c2")) == 1


def test_elements_over_different_carriers_are_unequal():
    first, second = named_poset("chain3"), named_poset("chain3")
    a = CoalgElement.unit(first, ("c0", "c1"))
    b = CoalgElement.unit(second, ("c0", "c1"))
    assert a.combo == b.combo and a != b
    assert a == CoalgElement.unit(first, ("c0", "c1")) and hash(a) == hash(CoalgElement.unit(first, ("c0", "c1")))
    assert CoalgElement.zero(named_quiver("loop")) != CoalgElement.zero(named_quiver("loop"))
    with pytest.raises(ValueError):
        a + b


@st.composite
def carrier_elements(draw):
    """A nonzero element over a small quiver (paths up to length 3, loops
    and parallel arrows allowed) or over a small poset."""
    n = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(n)]
    if draw(st.booleans()):
        ends = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=6))
        carrier = Quiver(names, [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)])
        basis = enumerate_paths(carrier, 3).paths
    else:
        # Relations only go up the index order, so the closure is antisymmetric.
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
        relation = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
        carrier = Poset(names, relation)
        basis = carrier.intervals()
    support = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(support), max_size=len(support)))
    return CoalgElement(carrier, SparseVector(zip(support, map(Fraction, coeffs))))


@settings(max_examples=80, deadline=None)
@given(carrier_elements())
def test_comultiply_and_counit_extend_the_basis_tables(element):
    carrier = element.carrier
    delta, eps = field_basis_tables(carrier)
    items = element.combo.items()
    assert comultiply(element) == SparseVector(
        (pair, coeff * inner) for label, coeff in items for pair, inner in delta(label).items()
    )
    assert counit(element) == sum((coeff * eps(label) for label, coeff in items), 0)
    assert all(carrier.owns(left) and carrier.owns(right) for left, right in comultiply(element).labels())
    assert check_coalgebra(element.combo.labels(), delta, eps, QQ) is None


def table(mapping):
    return lambda label: SparseVector(mapping.get(label, {}))


ONE = Fraction(1)


def test_law_kernel_rejects_non_coassociative_table():
    # Δ(b) = a⊗b + b⊗b: (Δ⊗id)Δ(b) misses the term b⊗a⊗b.
    delta = table({"a": {("a", "a"): ONE}, "b": {("a", "b"): ONE, ("b", "b"): ONE}})
    counit_of = {"a": ONE, "b": Fraction(0)}.get
    assert check_coalgebra(["a", "b"], delta, counit_of, QQ) == ("coassociativity", "b")
    assert check_comodule(["a", "b"], delta, delta, counit_of, QQ) == ("coassociativity", "b")


def test_law_kernel_rejects_wrong_counit():
    delta = table({"a": {("a", "a"): ONE}})
    assert check_coalgebra(["a"], delta, {"a": Fraction(2)}.get, QQ) == ("counit", "a")
    # Δ(x) = x⊗a is coassociative and right-counital but not left-counital.
    delta = table({"a": {("a", "a"): ONE}, "x": {("x", "a"): ONE}})
    counit_of = {"a": ONE, "x": Fraction(0)}.get
    assert check_comodule(["a", "x"], delta, delta, counit_of, QQ) is None
    assert check_coalgebra(["a", "x"], delta, counit_of, QQ) == ("left counit", "x")


def test_law_kernel_rejects_non_morphisms():
    delta = table({"a": {("a", "a"): ONE}})
    counit_of = {"a": ONE}.get
    doubling = table({"a": {"a": Fraction(2)}})
    assert check_morphism(["a"], doubling, delta, delta, counit_of, counit_of, QQ) == ("comultiplication", "a")
    zero_map = table({})
    assert check_morphism(["a"], zero_map, delta, delta, counit_of, counit_of, QQ) == ("counit", "a")


def test_law_kernel_reads_counits_over_their_own_scale():
    # Δg = 2·g⊗g with ε(g) = 1/2 is a coalgebra: the integer rows of Δ have
    # scale 1, the counit has scale 2, and every law must take both.
    delta = table({"g": {("g", "g"): Fraction(2)}})
    counit_of = {"g": Fraction(1, 2)}.get
    assert check_coalgebra(["g"], delta, counit_of, QQ) is None
    assert check_comodule(["g"], delta, delta, counit_of, QQ) is None
    assert check_morphism(["g"], SparseVector.unit, delta, delta, counit_of, counit_of, QQ) is None


def test_closure_of_grouplike():
    q = named_quiver("single_arrow")
    v = unit(q.vertex_path("a"))
    closure = subcoalgebra_closure([v])
    assert [e.combo for e in closure] == [v.combo]


def test_closure_of_length_two_path():
    q = named_quiver("line3")
    xy = unit(q.path_from_labels(["x", "y"]))
    closure = subcoalgebra_closure([xy])
    expected = [
        SparseVector({p: Fraction(1)})
        for p in enumerate_paths(q, 2).paths
    ]
    assert spans_equal([e.combo for e in closure], expected)
    assert len(closure) == 6


def test_closure_of_parallel_sum_stays_small():
    q = named_quiver("parallel_pair")
    x, y = q.arrow_path("x"), q.arrow_path("y")
    s = unit(x) + unit(y)
    closure = subcoalgebra_closure([s])
    expected = [
        SparseVector({q.vertex_path("u"): Fraction(1)}),
        SparseVector({q.vertex_path("v"): Fraction(1)}),
        SparseVector({x: Fraction(1), y: Fraction(1)}),
    ]
    assert spans_equal([e.combo for e in closure], expected)
    assert len(closure) == 3


def test_closure_is_idempotent_and_delta_stable():
    rng = random.Random(8)
    for _ in range(15):
        q = random_quiver(rng, 4, 5)
        c = random_element(rng, q, 3)
        closure = subcoalgebra_closure([c])
        again = subcoalgebra_closure(closure)
        assert [e.combo for e in closure] == [e.combo for e in again]
        # Delta-stability: both tensor legs of every basis element stay inside.
        basis = [e.combo for e in closure]
        reduced = rref(basis)
        from quivercoalg.coalgebra import left_tensor_components, right_tensor_components

        for e in closure:
            tensor = comultiply(e)
            for component in left_tensor_components(tensor) + right_tensor_components(tensor):
                assert in_span(component, reduced)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_frontier_closure_equals_the_whole_basis_loop(rng, on_poset):
    # Random acyclic quivers or random posets, with one to three elements.
    if on_poset:
        poset = random_poset(rng, 5)
        intervals = poset.intervals()
        elements = [CoalgElement(poset, SparseVector({rng.choice(intervals): Fraction(rng.choice((-2, -1, 1, 3)))
                                                      for _ in range(rng.randint(1, 3))}))
                    for _ in range(rng.randint(1, 3))]
    else:
        quiver = random_acyclic_quiver(rng)
        elements = [random_element(rng, quiver, 3) for _ in range(rng.randint(1, 3))]
    closure = subcoalgebra_closure(elements)
    assert [e.combo for e in closure] == whole_basis_subcoalgebra_closure(elements)


def test_wedge_examples():
    q = named_quiver("single_arrow")
    a, b, x = q.vertex_path("a"), q.vertex_path("b"), q.arrow_path("x")
    ka = [unit(a)]
    kb = [unit(b)]
    result = wedge(ka, kb, q, 1)
    assert spans_equal(
        [e.combo for e in result.basis],
        [SparseVector({a: Fraction(1)}), SparseVector({b: Fraction(1)}), SparseVector({x: Fraction(1)})],
    )
    assert result.exact
    # Ka wedge Ka: no loops at a in an acyclic quiver, so just Ka.
    only_a = wedge(ka, ka, q, 1)
    assert [e.combo for e in only_a.basis] == [SparseVector({a: Fraction(1)})]
    nothing = wedge([], [], q, 1)
    assert len(nothing.basis) == 0


def test_wedge_on_loop_is_truncated():
    q = named_quiver("loop")
    v = unit(q.vertex_path("v"))
    result = wedge([v], [v], q, 3)
    assert not result.exact
    # Within the window: v and the loop arrow satisfy the wedge condition.
    lengths = sorted(max(p.length for p in e.combo.labels()) for e in result.basis)
    assert lengths == [0, 1]


def test_hull_span_examples():
    q = named_quiver("line3")
    assert [str(p) for p in hull_span("a", "right", q)] == ["a", "x", "x.y"]
    assert [str(p) for p in hull_span("c", "left", q)] == ["c", "y", "x.y"]
    isolated = named_quiver("two_points")
    assert [str(p) for p in hull_span("a", "right", isolated)] == ["a"]


def test_hull_span_intersection_is_path_span():
    # E_r(Ku) ∩ E_l(Kv) = span of the paths u -> v.
    for name in ("line3", "diamond", "branching"):
        q = named_quiver(name)
        enum = enumerate_paths(q, len(q.vertices))
        for u in q.vertices:
            for v in q.vertices:
                # Both are spans of paths, so they meet in the span of the
                # paths they share.
                shared = set(hull_span(u, "right", q)) & set(hull_span(v, "left", q))
                assert shared == {p for p in enum.paths if p.source == u and p.target == v}


def test_grouplike_coradical():
    q = named_quiver("loop")
    assert [str(p) for p in grouplike_coradical(q)] == ["v"]
    no_arrows = named_quiver("two_points")
    assert len(grouplike_coradical(no_arrows)) == len(enumerate_paths(no_arrows, 5).paths)
