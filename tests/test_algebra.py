import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.algebra import (
    bialgebra_check,
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    check_ideal,
    contains_cofinite_monomial_ideal,
    is_subpath_closed,
    local_unit,
    monomial_closure,
    multiply,
    subpath_closure,
    winding_paths,
)
from quivercoalg import algebra
from quivercoalg import quiver as quiver_module
from quivercoalg.coalgebra import CoalgElement
from quivercoalg.corpus import named_quiver, random_element, random_quiver
from quivercoalg.linalg import SparseVector, solve_membership
from quivercoalg.quiver import Family, Quiver, enumerate_paths, family_from_token, find_simple_cycle

from helpers import (
    cycle_codimension_oracle,
    cycle_identity_oracle,
    dense_rank,
    expanded_subpath_closure,
    sparse_rows_to_dense,
)


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
    assert verdict.status == "yes"
    assert verdict.witness == []


def test_cofinite_monomial_positive_witness():
    q = named_quiver("line3")
    enum = enumerate_paths(q, 2)
    gens = [SparseVector({p: Fraction(1)}) for p in enum.paths if p.length > 0]
    verdict = contains_cofinite_monomial_ideal(gens, q, 2, 10)
    assert verdict.status == "yes"
    assert {str(p) for p in verdict.witness} == {"a", "b", "c"}


def test_cycle_counterexample_loop():
    loop = named_quiver("loop")
    ce = build_cycle_counterexample(loop, 6)
    assert ce.codimension == 1
    verdict = contains_cofinite_monomial_ideal(ce.ideal_generators(), loop, 6, 4)
    assert verdict.status == "no_up_to_bound"


def test_cycle_counterexample_codimension_matches_dense_oracle():
    quiver = Family("cycle", 2).truncate(0)
    ce = build_cycle_counterexample(quiver, 8)
    enum = enumerate_paths(quiver, 8)
    rows = sparse_rows_to_dense([g.entries for g in ce.ideal_generators()], enum.paths)
    assert ce.codimension == len(enum.paths) - dense_rank(rows) == 4


def _cycle_with_two_tails():
    """A 3-cycle with a tail leaving each of two of its vertices."""
    arrows = [("x", "c0", "c1"), ("y", "c1", "c2"), ("z", "c2", "c0"), ("s", "c0", "t0"), ("t", "c1", "t1")]
    return Quiver(["c0", "c1", "c2", "t0", "t1"], arrows, name="cycle-with-tails")


@pytest.mark.parametrize(
    "quiver",
    [family_from_token(f"cycle:{s}").truncate(0) for s in (1, 2, 3, 4)] + [_cycle_with_two_tails()],
    ids=["cycle1", "cycle2", "cycle3", "cycle4", "cycle3-tails"],
)
def test_cycle_counterexample_codimension_matches_the_full_rank(quiver):
    s = len(find_simple_cycle(quiver))
    for window in sorted({s, s + 1, 2 * s + 1, 9}):
        ce = build_cycle_counterexample(quiver, window)
        assert ce.codimension == cycle_codimension_oracle(ce, enumerate_paths(quiver, window).paths)


def test_cycle_counterexample_identities_on_cycle3():
    quiver = Family("cycle", 3).truncate(0)
    ce = build_cycle_counterexample(quiver, 9)  # raises if the ideal check fails
    assert ce.identities_checked == 378 == _identity_count(3, 9)
    assert ce.details["cycle_length"] == 3


def _identity_count(s, window):
    """Generator products checked on the s-cycle: each of the D differences
    meets the s vertices and the s arrows on both sides, except that arrow
    products of the s·⌊window/s⌋ differences of length window leave the
    window, so 2s·(2D - s⌊window/s⌋) with D = s·Σ_i ⌊(window - i)/s⌋."""
    differences = s * sum((window - i) // s for i in range(window + 1))
    return 2 * s * (2 * differences - s * (window // s))


@pytest.mark.parametrize(
    "quiver, window, count",
    [
        (named_quiver("loop"), 6, 72),
        (Family("cycle", 3).truncate(0), 36, 7344),
    ],
)
def test_cycle_counterexample_identity_count_is_pinned(quiver, window, count):
    ce = build_cycle_counterexample(quiver, window)
    assert ce.identities_checked == count == _identity_count(ce.details["cycle_length"], window)


@pytest.mark.parametrize("side", ["right", "left"])
def test_cycle_counterexample_catches_a_wrong_product(monkeypatch, side):
    quiver = Family("cycle", 3).truncate(0)
    q = winding_paths(quiver, find_simple_cycle(quiver), 9)
    vertex = unit(q[(0, 0)])
    difference = unit(q[(0, 3)]) - vertex
    target = (difference, vertex) if side == "right" else (vertex, difference)
    exact = algebra._generator_product

    def drop_one_term(a, b):
        product = exact(a, b)
        if (a, b) == target:
            kept = product.combo.sorted_items()[1:]
            return CoalgElement(product.carrier, SparseVector(kept))
        return product

    monkeypatch.setattr(algebra, "_generator_product", drop_one_term)
    message = f"{side} product by generator [v0] takes -1*[v0] + [x0.x1.x2] out of the ideal"
    with pytest.raises(AssertionError, match=re.escape(message)):
        build_cycle_counterexample(quiver, 9)


def _leave_the_ideal(monkeypatch, side, generator, stray):
    """Patch the generator product so that every product with ``generator``
    on the given side gains the path ``stray``."""
    exact = algebra._generator_product

    def wrong(a, b):
        product = exact(a, b)
        if (a if side == "left" else b) == generator:
            return product + unit(stray)
        return product

    monkeypatch.setattr(algebra, "_generator_product", wrong)


def _generators(quiver):
    return [unit(quiver.vertex_path(v)) for v in quiver.vertices] + [
        unit(quiver.arrow_path(a.label)) for a in quiver.arrows
    ]


_TAIL = named_quiver("loop_with_tail")
_CYCLE3 = Family("cycle", 3).truncate(0)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "quiver, generator",
    [pytest.param(q, g, id=f"{name}-{g}") for name, q in (("tail", _TAIL), ("cycle3", _CYCLE3)) for g in _generators(q)],
)
def test_cycle_counterexample_checks_every_generator(monkeypatch, quiver, generator, side):
    # A winding vertex is never in the ideal (its winding coefficients do
    # not sum to zero), so a product that gains one leaves the ideal; the
    # check must test this generator on this side to notice.
    stray = find_simple_cycle(quiver)[0].source
    _leave_the_ideal(monkeypatch, side, generator, quiver.vertex_path(stray))
    with pytest.raises(AssertionError, match=re.escape(f"{side} product by generator {generator} takes")):
        build_cycle_counterexample(quiver, 4)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("label", ["a", "b", "x0", "x2"])
def test_multiarrow_counterexample_checks_every_generator(monkeypatch, label, side):
    quiver = Family("multiarrow").truncate(2)
    generator = next(g for g in _generators(quiver) if str(g) == f"[{label}]")
    _leave_the_ideal(monkeypatch, side, generator, quiver.arrow_path("x0"))
    with pytest.raises(AssertionError, match=re.escape(f"{side} product by generator [{label}] takes")):
        build_multiarrow_counterexample(Family("multiarrow"), 2)


def test_cycle_counterexample_checks_the_monomial_part(monkeypatch):
    # Bare path composition is corrupted at e_w · x only; element products
    # keep the exact concatenation, so only the label-level closure check of
    # the monomial part (which starts with the vertex w) can notice.
    quiver = named_quiver("loop_with_tail")
    loop, w = quiver.arrow_path("x"), quiver.vertex_path("w")
    exact = quiver_module.compose_paths

    def exact_multiply(a, b):
        terms = ((pq, ca * cb) for p, ca in a.combo.items() for r, cb in b.combo.items() if (pq := exact(p, r)))
        return CoalgElement(a.carrier, SparseVector(terms))

    monkeypatch.setattr(algebra, "_generator_product", exact_multiply)
    monkeypatch.setattr(algebra, "compose_paths", lambda p, r: loop if (p, r) == (w, loop) else exact(p, r))
    with pytest.raises(AssertionError, match=re.escape("right product by generator x takes w out of the monomial part")):
        build_cycle_counterexample(quiver, 4)


def test_check_ideal_finds_one_sided_ideals():
    # In the path algebra of a -x-> b -y-> c, span{x} is a left ideal that
    # x·y leaves, and span{y} a right ideal that x·y leaves; span{x, x.y} is
    # two-sided.
    q = named_quiver("line3")
    x, y, xy = unit(q.arrow_path("x")), unit(q.arrow_path("y")), unit(q.path_from_labels(["x", "y"]))
    generators = _generators(q)

    def within(*spanning):
        span = {v.combo for v in spanning}
        return lambda e: e.is_zero() or solve_membership(e.combo, list(span)) is not None

    assert check_ideal([x], generators, multiply, within(x)) == ("right", y, x)
    assert check_ideal([y], generators, multiply, within(y)) == ("left", x, y)
    assert check_ideal([x, xy], generators, multiply, within(x, xy)) is None
    # Without y among the generators, span{x} would pass: the generating
    # set has to be complete.
    assert check_ideal([x], [g for g in generators if g != y], multiply, within(x)) is None


def test_check_ideal_skips_products_outside_the_window():
    q = named_quiver("line3")
    x, y = unit(q.arrow_path("x")), unit(q.arrow_path("y"))
    calls = []

    def product(a, b):
        calls.append((a, b))
        return None

    assert check_ideal([x], [y], product, lambda e: False) is None
    assert calls == [(y, x), (x, y)]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["cycle:1", "cycle:2", "cycle:3", "cycle:4", "loop_with_tail"]),
    data=st.data(),
)
def test_ideal_kernel_agrees_with_the_cubic_oracle(shape, data):
    if shape == "loop_with_tail":
        quiver = named_quiver("loop_with_tail")
    else:
        quiver = Family("cycle", int(shape.split(":")[1])).truncate(0)
    cycle = find_simple_cycle(quiver)
    s = len(cycle)
    window = data.draw(st.integers(s, 4 * s), label="window")
    # Optionally corrupt the products of one difference with one cycle
    # vertex or cycle arrow on one side: both checks must then fail, or
    # both pass when the product leaves the window.
    q = winding_paths(quiver, cycle, window)
    differences = [
        unit(q[(n, k * s + i)]) - unit(q[(n, i)])
        for n in range(s)
        for k in range(1, window + 1)
        for i in range(window + 1)
        if k * s + i <= window
    ]
    cycle_generators = [unit(q[(n, j)]) for n in range(s) for j in (0, 1)]
    corrupt = data.draw(st.booleans(), label="corrupt")
    with pytest.MonkeyPatch.context() as mp:
        if corrupt:
            difference = data.draw(st.sampled_from(differences), label="difference")
            generator = data.draw(st.sampled_from(cycle_generators), label="generator")
            side = data.draw(st.sampled_from(["left", "right"]), label="side")
            target = (generator, difference) if side == "left" else (difference, generator)

            def wrong(exact):
                def product(a, b):
                    result = exact(a, b)
                    return result + unit(q[(0, 0)]) if (a, b) == target else result

                return product

            # The oracle multiplies through ``multiply``, the counterexample
            # through ``_generator_product``: both see the same corruption.
            mp.setattr(algebra, "multiply", wrong(algebra.multiply))
            mp.setattr(algebra, "_generator_product", wrong(algebra._generator_product))
        outcomes = []
        for run in (lambda: cycle_identity_oracle(quiver, window), lambda: build_cycle_counterexample(quiver, window)):
            try:
                run()
                outcomes.append(True)
            except AssertionError:
                outcomes.append(False)
    assert outcomes[0] == outcomes[1]
    if not corrupt:
        assert outcomes == [True, True]


def test_cycle_counterexample_window_must_reach_the_cycle():
    quiver = Family("cycle", 3).truncate(0)
    for window in (0, 2):
        with pytest.raises(ValueError, match="shorter than the cycle"):
            build_cycle_counterexample(quiver, window)
    ce = build_cycle_counterexample(quiver, 3)
    assert len(ce.difference_generators) == 3 and ce.identities_checked == _identity_count(3, 3)


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
    fam = Family("multiarrow")
    ce = build_multiarrow_counterexample(fam, 1)
    gens = [d.combo for d in ce.difference_generators]
    x0 = ce.quiver.arrow_path("x0")
    assert solve_membership(SparseVector({x0: Fraction(1)}), gens) is None
    ce3 = build_multiarrow_counterexample(fam, 3)
    assert ce3.codimension == 3
    with pytest.raises(ValueError):
        build_multiarrow_counterexample(Family("loop"), 3)


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


@given(st.sampled_from(["cycle3", "two_loops", "diamond", "loop_with_tail"]), st.data())
def test_subpath_closure_matches_expanding_every_path(name, data):
    # Longest first, skipping paths already closed, gives the same list.
    paths = enumerate_paths(named_quiver(name), 5).paths
    support = data.draw(st.lists(st.sampled_from(paths), max_size=8))
    assert subpath_closure(support) == expanded_subpath_closure(support)
