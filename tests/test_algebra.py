import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.algebra import (
    bialgebra_check,
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    contains_cofinite_monomial_ideal,
    is_subpath_closed,
    multiply,
    subpath_closure,
    winding_paths,
)
from quivercoalg import algebra
from quivercoalg import quiver as quiver_module
from quivercoalg.coalgebra import CoalgElement
from quivercoalg.corpus import (
    acyclic_corpus,
    cyclic_corpus,
    enumerate_small_quivers,
    finite_corpus,
    named_quiver,
    random_element,
    random_quiver,
)
from quivercoalg.linalg import SparseVector, solve_membership
from quivercoalg.quiver import Family, Path, Quiver, enumerate_paths, family_from_token, find_simple_cycle
from quivercoalg.representation import PathAction, Representation, annihilator_basis, cycle_module
from quivercoalg.scalars import QQ, PrimeField

from helpers import (
    cycle_codimension_oracle,
    dense_rank,
    element_bialgebra_check,
    expanded_subpath_closure,
    oracle_rank,
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


def monomial_closure(generators, quiver, max_len):
    """The paths of length <= max_len with a generator as a factor, and
    whether the window holds every path."""
    enum, gen_set = enumerate_paths(quiver, max_len), set(generators)
    return [p for p in enum.paths if not gen_set.isdisjoint(p.subpaths())], enum.exhaustive


def test_monomial_closure_vertex_generator():
    # The helper of the complement test below, pinned on fixed inputs.
    q = Quiver(["a", "v", "b"], [("x", "a", "v"), ("y", "v", "b")])
    closure, exhaustive = monomial_closure([q.vertex_path("v")], q, 2)
    assert {str(p) for p in closure} == {"v", "x", "y", "x.y"}
    assert exhaustive


def test_monomial_closure_empty_and_loop():
    q = named_quiver("line3")
    assert monomial_closure([], q, 3)[0] == []
    loop = named_quiver("loop")
    powers, exhaustive = monomial_closure([loop.arrow_path("x")], loop, 4)
    assert [p.length for p in powers] == [1, 2, 3, 4]
    assert not exhaustive


def test_monomial_complement_is_subpath_closed():
    rng = random.Random(13)
    for _ in range(20):
        q = random_quiver(rng, 4, 4)
        enum = enumerate_paths(q, 3)
        if not enum.paths:
            continue
        closure, exhaustive = monomial_closure([rng.choice(enum.paths)], q, 3)
        if exhaustive:
            assert is_subpath_closed([p for p in enum.paths if p not in set(closure)])


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


def _renamed_cyclic_quiver(rng):
    """A random quiver with an oriented cycle, its vertices and arrows
    renamed at random, so that label order is not cycle order."""
    while find_simple_cycle(quiver := random_quiver(rng)) is None:
        pass
    names = rng.sample([f"{c}{i}" for c in "uvw" for i in range(12)], len(quiver.vertices) + len(quiver.arrows))
    vertex = dict(zip(quiver.vertices, names))
    arrows = [(names[len(vertex) + i], vertex[a.source], vertex[a.target]) for i, a in enumerate(quiver.arrows)]
    return Quiver(list(vertex.values()), arrows)


def test_winding_paths_come_in_path_order():
    # W is listed by length, then by first arrow (vertex at length 0): the
    # order of sorting it by path key.
    rng = random.Random(5)
    quivers = (cyclic_corpus() + [family_from_token(f"cycle:{s}").truncate(0) for s in range(1, 7)]
               + [_renamed_cyclic_quiver(rng) for _ in range(30)])
    for quiver in quivers:
        cycle = find_simple_cycle(quiver)
        for window in sorted({len(cycle), len(cycle) + 1, 2 * len(cycle) + 1}):
            winding = set(winding_paths(quiver, cycle, window).values())
            ce = build_cycle_counterexample(quiver, window)
            assert ce.closed_path_set == sorted(winding, key=lambda p: p.sort_key)


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


def _cyclic_quiver(shape):
    if shape == "cycle3-tails":
        return _cycle_with_two_tails()
    return family_from_token(shape).truncate(0) if shape.startswith("cycle:") else named_quiver(shape)


def per_identity_check_ideal(vectors, generators, product, contains):
    """Closure of a span under the generators, one identity at a time:
    ``product(side, g, v)`` is g·v ("left") or v·g ("right"), or None where
    it is not checked, and ``contains`` tests each product.  Returns
    ``None`` or the first failing ``(side, generator, vector)``, vectors
    outer, generators inner, left before right."""
    for v in vectors:
        for g in generators:
            for side in ("left", "right"):
                x = product(side, g, v)
                if x is not None and not contains(x):
                    return side, g, v
    return None


def per_identity_difference_ideal(ce, window, generators=None, sides=("left", "right")):
    """The identities that the certificate of the counterexample ``ce``
    proves, each checked alone: every vertex and arrow (or each of
    ``generators``) times every difference p - r, on the ``sides`` given,
    whose leading path fits beside it in the window, is formed with
    ``algebra.multiply``.  Its terms off the winding paths W lie in the
    monomial part; the rest must be a difference or in their span, by
    ``solve_membership``.  Returns the identities checked and the
    codimension |W| less the dense rank of the differences, or raises
    AssertionError at the first identity that fails."""
    quiver, one = ce.quiver, ce.field.one
    closed = set(ce.closed_path_set)
    differences = [CoalgElement(quiver, SparseVector({p: one, r: -one})) for p, r in ce.difference_pairs]
    basis = [d.combo for d in differences]
    stored = set(basis)
    if generators is None:
        generators = [CoalgElement.from_path(g, ce.field) for g in algebra._generators(quiver)]
    checked = 0

    def product(side, g, d):
        (path,), lead = g.combo.labels(), max(d.combo.labels(), key=lambda p: p.length)
        if side not in sides or path.length + lead.length > window:
            return None
        return multiply(g, d) if side == "left" else multiply(d, g)

    def contains(x):
        nonlocal checked
        checked += 1
        on = SparseVector((p, c) for p, c in x.combo.items() if p in closed)
        return on.is_zero() or on in stored or solve_membership(on, basis, ce.field) is not None

    failure = per_identity_check_ideal(differences, generators, product, contains)
    if failure is not None:
        side, g, d = failure
        raise AssertionError(f"{side} product by generator {g} takes {d} out of the ideal")
    return checked, len(closed) - oracle_rank(basis, ce.field)


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


# Every window that the cycle-recovery benchmark builds: ``check thm33`` at
# (codim bound + 2)·s and ``counterexample cycle`` at its --max-len.
_LADDER = {"loop": (6, 10, 14), "cycle:2": (12, 16, 20), "cycle:3": (12, 18, 24, 36), "cycle:4": (16, 20, 24),
           "cycle3-tails": (12, 18, 24)}


@pytest.mark.parametrize(
    "shape, window", [pytest.param(shape, w, id=f"{shape}-{w}") for shape, ws in _LADDER.items() for w in ws]
)
def test_identity_counts_over_the_cycle_recovery_ladder(shape, window):
    # The certificate counts one identity per generator, side and fitting
    # difference without forming any; the loop over single identities forms
    # and tests each.  On a pure cycle the count is the closed form.  The
    # codimension is the dense rank's.
    quiver = family_from_token("loop").truncate(0) if shape == "loop" else _cyclic_quiver(shape)
    ce = build_cycle_counterexample(quiver, window)
    assert (ce.identities_checked, ce.codimension) == per_identity_difference_ideal(ce, window)
    if shape != "cycle3-tails":
        assert ce.identities_checked == _identity_count(ce.details["cycle_length"], window)


def _generators(quiver):
    return [unit(quiver.vertex_path(v)) for v in quiver.vertices] + [
        unit(quiver.arrow_path(a.label)) for a in quiver.arrows
    ]


def _fitting(ce, window, generator):
    """The differences of ``ce`` whose leading path fits beside the
    generator in the window."""
    (g,) = generator.combo.labels()
    return sum(g.length + max(p.length, r.length) <= window for p, r in ce.difference_pairs)


_TAIL = named_quiver("loop_with_tail")
_CYCLE3 = Family("cycle", 3).truncate(0)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "quiver, generator",
    [pytest.param(q, g, id=f"{name}-{g}") for name, q in (("tail", _TAIL), ("cycle3", _CYCLE3)) for g in _generators(q)],
)
def test_cycle_counterexample_checks_every_generator(quiver, generator, side):
    # The certificate proves, for every generator and side, that each
    # product with a fitting difference lies in the ideal: form those of
    # this generator on this side and test each alone.
    ce = build_cycle_counterexample(quiver, 4)
    checked, _ = per_identity_difference_ideal(ce, 4, [generator], [side])
    assert checked == _fitting(ce, 4, generator)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("label", ["a", "b", "x0", "x2"])
def test_multiarrow_counterexample_checks_every_generator(label, side):
    ce = build_multiarrow_counterexample(Family("multiarrow"), 2)
    generator = next(g for g in _generators(ce.quiver) if str(g) == f"[{label}]")
    checked, codimension = per_identity_difference_ideal(ce, 2, [generator], [side])
    assert checked == _fitting(ce, 2, generator) == 2 and codimension == ce.codimension == 3


@pytest.mark.parametrize("side", ["right", "left"])
def test_the_identity_oracle_sees_a_wrong_product(monkeypatch, side):
    # The vertex times the leading path of q[0,3] - q[0,0], on one side,
    # loses its one term where ``multiply`` composes: the product is then
    # -[v0], which is not in the ideal.
    quiver = Family("cycle", 3).truncate(0)
    ce = build_cycle_counterexample(quiver, 9)
    q = winding_paths(quiver, find_simple_cycle(quiver), 9)
    target = (q[(0, 3)], q[(0, 0)]) if side == "right" else (q[(0, 0)], q[(0, 3)])
    exact = quiver_module.compose_paths
    monkeypatch.setattr(quiver_module, "compose_paths", lambda p, r: None if (p, r) == target else exact(p, r))
    message = f"{side} product by generator [v0] takes -1*[v0] + [x0.x1.x2] out of the ideal"
    with pytest.raises(AssertionError, match=re.escape(message)):
        per_identity_difference_ideal(ce, 9)


def _mutated_certificate(monkeypatch, module=None, pairs=None):
    """Hand the counterexample certificate a changed representation (through
    ``module``, which gets the built one) or changed difference pairs."""
    exact = algebra._certify_annihilator

    def mutated(build, closed, given, window, field):
        rep_of = build if module is None else (lambda rep: module(build(rep)))
        return exact(rep_of, closed, given if pairs is None else pairs(given), window, field)

    monkeypatch.setattr(algebra, "_certify_annihilator", mutated)


def _with_map(rep, label, matrix, dims=None):
    rep.dims.update(dims or {})
    rep.maps[label] = matrix
    return rep


@pytest.mark.parametrize("quiver", [Family("cycle", s).truncate(0) for s in (1, 2, 3)] + [_TAIL, _cycle_with_two_tails()],
                         ids=["cycle1", "cycle2", "cycle3", "tail", "cycle3-tails"])
def test_counterexample_certificate_sees_a_perturbed_cycle_arrow(monkeypatch, quiver):
    # One entry of the first cycle arrow's identity matrix moves off it.
    arrow = find_simple_cycle(quiver)[0].label

    def perturbed(rep):
        m = rep.maps[arrow]
        return _with_map(rep, arrow, tuple(tuple(x + (i == 0 and j == len(m) - 1) for j, x in enumerate(row))
                                           for i, row in enumerate(m)))

    _mutated_certificate(monkeypatch, module=perturbed)
    with pytest.raises(AssertionError, match="so their difference is not in Ann"):
        build_cycle_counterexample(quiver, 2 * len(find_simple_cycle(quiver)) + 1)


@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(2)], ids=["half", "twice"])
@pytest.mark.parametrize("quiver", [Family("cycle", s).truncate(0) for s in (1, 2, 3)] + [_TAIL, _cycle_with_two_tails()],
                         ids=["cycle1", "cycle2", "cycle3", "tail", "cycle3-tails"])
def test_counterexample_certificate_sees_a_scaled_cycle_arrow(monkeypatch, quiver, factor):
    # The first cycle arrow acts by factor·I: a full turn then acts by
    # factor·I, not by I.  An integer form of (1/2)·I is I up to the scale
    # 2, so a comparison that drops the scale would pass it.
    arrow = find_simple_cycle(quiver)[0].label
    _mutated_certificate(monkeypatch, module=lambda rep: _with_map(
        rep, arrow, tuple(tuple(factor * x for x in row) for row in rep.maps[arrow])))
    with pytest.raises(AssertionError, match="so their difference is not in Ann"):
        build_cycle_counterexample(quiver, 2 * len(find_simple_cycle(quiver)) + 1)


def test_counterexample_certificate_sees_a_map_off_the_winding_paths(monkeypatch):
    # The tail vertex t0 given a dimension and the tail arrow s a nonzero
    # map, and the second loop y of two loops acting by one: both are off W.
    one = Fraction(1)
    _mutated_certificate(monkeypatch, module=lambda rep: _with_map(rep, "s", ((one,), (one,), (one,)), {"t0": 1}))
    with pytest.raises(AssertionError, match=re.escape("t0 is off W but does not act by zero")):
        build_cycle_counterexample(_cycle_with_two_tails(), 6)
    _mutated_certificate(monkeypatch, module=lambda rep: _with_map(rep, "y", ((one,),)))
    with pytest.raises(AssertionError, match=re.escape("y is off W but does not act by zero")):
        build_cycle_counterexample(named_quiver("two_loops"), 4)


@pytest.mark.parametrize("shape", ["cycle:2", "cycle:3", "cycle3-tails"])
def test_counterexample_certificate_sees_a_dropped_pair(monkeypatch, shape):
    # Without one difference the span shrinks exactly when no other chain
    # of pairs joins its two paths (the dense rank drops); then the
    # codimension no longer matches Ann(M).  Otherwise the span, and the
    # certificate's verdict, stay as they were.  At window s + 1 every pair
    # is such a bridge; at 2s + 1 most are not.
    quiver = _cyclic_quiver(shape)
    s = len(find_simple_cycle(quiver))
    outcomes = Counter()
    for window in (s + 1, 2 * s + 1):
        ce = build_cycle_counterexample(quiver, window)
        rank = oracle_rank([SparseVector({p: 1, r: -1}) for p, r in ce.difference_pairs], QQ)
        for k, dropped in enumerate(ce.difference_pairs):
            rest = ce.difference_pairs[:k] + ce.difference_pairs[k + 1:]
            with pytest.MonkeyPatch.context() as mp:
                _mutated_certificate(mp, pairs=lambda pairs: [pair for pair in pairs if pair != dropped])
                if oracle_rank([SparseVector({p: 1, r: -1}) for p, r in rest], QQ) == rank:
                    assert build_cycle_counterexample(quiver, window).codimension == ce.codimension
                    outcomes["kept"] += 1
                    continue
                message = f"codimension {ce.codimension + 1} on W, Ann(M) {ce.codimension} to length"
                with pytest.raises(AssertionError, match=re.escape(message)):
                    build_cycle_counterexample(quiver, window)
                outcomes["caught"] += 1
    assert outcomes["kept"] > 0 and outcomes["caught"] > 0


@pytest.mark.parametrize("shape", ["cycle:2", "cycle:3", "cycle3-tails"])
def test_counterexample_certificate_sees_a_wrong_pair(monkeypatch, shape):
    # (q[n, s+i], q[n, i+1]) in place of (q[n, s+i], q[n, i]), for each n and i.
    quiver = _cyclic_quiver(shape)
    cycle = find_simple_cycle(quiver)
    s, window = len(cycle), 2 * len(cycle) + 1
    q = winding_paths(quiver, cycle, window)
    for n in range(s):
        for i in range(s):
            right, wrong = (q[n, s + i], q[n, i]), (q[n, s + i], q[n, i + 1])
            with pytest.MonkeyPatch.context() as mp:
                _mutated_certificate(mp, pairs=lambda pairs: [wrong if pair == right else pair for pair in pairs])
                with pytest.raises(AssertionError, match=re.escape(f"M tells {wrong[0]} from {wrong[1]}")):
                    build_cycle_counterexample(quiver, window)


@pytest.mark.parametrize("label", ["x0", "x1", "x4"])
def test_multiarrow_certificate_sees_an_arrow_acting_by_zero(monkeypatch, label):
    _mutated_certificate(monkeypatch, module=lambda rep: _with_map(rep, label, ((Fraction(0),),)))
    with pytest.raises(AssertionError, match="so their difference is not in Ann"):
        build_multiarrow_counterexample(Family("multiarrow"), 4)


def test_multiarrow_counterexample_reads_that_no_arrow_acts_by_zero(monkeypatch):
    # The certificate's M on W with x1 made the zero matrix: x1 would then
    # lie in the ideal.
    exact = algebra._certify_annihilator

    def zeroing(*args):
        identities, codimension, matrix = exact(*args)
        matrix[3] = (None, None, ())
        return identities, codimension, matrix

    monkeypatch.setattr(algebra, "_certify_annihilator", zeroing)
    with pytest.raises(AssertionError, match=re.escape("arrow x1 unexpectedly lies in the ideal")):
        build_multiarrow_counterexample(Family("multiarrow"), 3)


def field_path_action(rep, field):
    """Path matrices of a representation in field scalars, as the
    counterexample certificate once formed them: (source, target, nonzero
    entries sorted), one object per value and every zero matrix one.
    Returns the vertex matrix and ``times(m, arrow)``, which forms one
    product per distinct matrix and arrow."""
    zero, canonical, formed = (None, None, ()), {}, {}

    def matrix_of(source, target, entries):
        key = (source, target, tuple(sorted(entries.items()))) if entries else zero
        return canonical.setdefault(key, key)

    def vertex(v):
        return matrix_of(v, v, {(j, j): field.one for j in range(rep.dims[v])})

    def times(m, a):
        if (id(m), a) not in formed:
            acc = {}
            for (i, k), c in m[2]:
                for j, d in enumerate(rep.maps[a.label][k]):
                    acc[i, j] = acc.get((i, j), 0) + c * d
            formed[id(m), a] = matrix_of(m[0], a.target, {ij: x for ij, x in acc.items() if x})
        return formed[id(m), a]

    return vertex, times


def field_annihilator_basis(rep, field):
    """The Krylov walk of ``annihilator_basis`` on the field path matrices:
    a product joins the basis when the oracle rank grows."""
    vertex, times = field_path_action(rep, field)
    quiver, basis, rows = rep.quiver, [], []

    def admit(m):
        row = SparseVector({(m[0], i, m[1], j): x for (i, j), x in m[2]})
        if oracle_rank(rows + [row], field) == len(rows):
            return False
        rows.append(row)
        return True

    for v in quiver.vertices:
        if admit(m := vertex(v)):
            basis.append((quiver.vertex_path(v), m))
    for path, m in basis:
        for a in quiver.out_arrows(path.target):
            if admit(product := times(m, a)):
                basis.append((Path(quiver, None, path.arrows + (a,)), product))
    return [path for path, _ in basis]


_ENTRIES = [(0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-1, 3)]


@st.composite
def cycle_representations(draw):
    """A representation of a cycle quiver over QQ or GF(5): random entries
    (integral and rational), or each arrow a scalar times a permutation
    matrix, whose powers repeat."""
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    quiver = Family("cycle", draw(st.integers(1, 3))).truncate(0)
    entry = st.sampled_from(_ENTRIES).map(lambda nd: field.of(*nd))
    if draw(st.booleans()):
        d = draw(st.integers(1, 2))
        dims, maps = dict.fromkeys(quiver.vertices, d), {}
        for a in quiver.arrows:
            c, perm = draw(entry), draw(st.permutations(range(d)))
            maps[a.label] = tuple(tuple(c if j == perm[i] else field.zero for j in range(d)) for i in range(d))
    else:
        dims = {v: draw(st.integers(0, 2)) for v in quiver.vertices}
        maps = {a.label: tuple(tuple(draw(entry) for _ in range(dims[a.target])) for _ in range(dims[a.source]))
                for a in quiver.arrows}
    return Representation(quiver, dims, maps), field


@settings(max_examples=200, deadline=None)
@given(cycle_representations())
def test_the_integer_kernel_tells_path_matrices_apart_as_the_field_oracle_does(drawn):
    # Every pair of winding paths up to window 2s + 1: the integer kernel
    # forms one object for M_p and M_r exactly when the field oracle does.
    rep, field = drawn
    cycle = find_simple_cycle(rep.quiver)
    s = len(cycle)
    q = winding_paths(rep.quiver, cycle, 2 * s + 1)
    action, (vertex, times) = PathAction(rep, field), field_path_action(rep, field)
    kernel, oracle = {}, {}
    for (n, k), p in sorted(q.items(), key=lambda item: item[0][1]):
        if k:
            before, a = q[n, k - 1], cycle[(n + k - 1) % s]
            kernel[p], oracle[p] = action.times(kernel[before], a.label), times(oracle[before], a)
        else:
            kernel[p], oracle[p] = action.vertices[p.vertex], vertex(p.vertex)
    paths = list(q.values())
    assert [[kernel[p] is kernel[r] for r in paths] for p in paths] == [[oracle[p] is oracle[r] for r in paths]
                                                                         for p in paths]
    assert annihilator_basis(rep, field) == field_annihilator_basis(rep, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("quiver", finite_corpus(), ids=lambda q: q.name)
def test_annihilator_basis_matches_the_field_oracle_on_the_corpus(quiver, field):
    # The cycle module of each cyclic quiver, and on every quiver the module
    # of dimension one at each vertex with every arrow acting by one.
    ones = Representation(quiver, dict.fromkeys(quiver.vertices, 1), {a.label: ((field.one,),) for a in quiver.arrows})
    for rep in [ones] + ([cycle_module(quiver, field)] if find_simple_cycle(quiver) else []):
        assert annihilator_basis(rep, field) == field_annihilator_basis(rep, field)


def test_counterexample_certificate_needs_the_paths_of_w_arrows_on_w():
    # W the winding paths of the loop up to length 2, certified at window
    # 3: x.x.x is made of arrows of W but lies off it, and the window part
    # of the span would claim it while the loop's module does not kill it.
    loop = named_quiver("loop")
    ce = build_cycle_counterexample(loop, 2)
    with pytest.raises(AssertionError, match=re.escape("x.x.x is off W but its arrows are on it")):
        algebra._certify_annihilator(lambda rep: rep.cycle_module(loop), ce.closed_path_set, ce.difference_pairs, 3)


def test_counterexample_certificate_needs_a_path_basis_inside_the_window():
    # Two loops x and y acting by the same nilpotent 3 x 3 Jordan block:
    # span{M_p} has the basis v, x, x.x, three matrices like the three paths
    # of W = {v, x, y}, but x.x lies outside window 1.  Within the window
    # Ann(M) holds x - y, which the empty set of differences does not span.
    quiver = named_quiver("two_loops")
    zero, one = Fraction(0), Fraction(1)
    block = ((zero, one, zero), (zero, zero, one), (zero, zero, zero))
    closed = [quiver.vertex_path("v"), quiver.arrow_path("x"), quiver.arrow_path("y")]
    message = "codimension 3 on W, Ann(M) 3 to length 2"
    with pytest.raises(AssertionError, match=re.escape(message)):
        algebra._certify_annihilator(lambda rep: rep.Representation(quiver, {"v": 3}, {"x": block, "y": block}),
                                     closed, [], 1)


def test_cycle_counterexample_checks_the_monomial_part(monkeypatch):
    # The paths off the winding paths are certified an ideal by the subpath
    # closure of the winding paths, read on their arrow words.  Corrupt the
    # word of x.x, a prefix of x.x.x, to that of the tail arrow y: the
    # closure check, which runs before the module is formed, must notice.
    quiver = named_quiver("loop_with_tail")
    target, tail, exact = quiver.path_from_labels(["x", "x"]), quiver.arrow_path("y"), algebra._word
    monkeypatch.setattr(algebra, "_word", lambda p: exact(tail) if p == target else exact(p))
    with pytest.raises(AssertionError, match=re.escape("subpath x.x of the winding path x.x.x is off the winding paths")):
        build_cycle_counterexample(quiver, 4)


@pytest.mark.parametrize("dropped", [(0, 0), (0, 2), (1, 3)])
def test_cycle_counterexample_catches_a_missing_winding_path(monkeypatch, dropped):
    # Drop one winding path from W: the longer winding path through it has
    # a subpath off W, and the closure check must say so.
    quiver = Family("cycle", 2).truncate(0)
    exact = algebra.winding_paths

    def without(*args):
        table = exact(*args)
        del table[dropped]
        return table

    monkeypatch.setattr(algebra, "winding_paths", without)
    with pytest.raises(AssertionError, match="is off the winding paths"):
        build_cycle_counterexample(quiver, 4)


def _products(side, g, v):
    return multiply(g, v) if side == "left" else multiply(v, g)


def test_check_ideal_finds_one_sided_ideals():
    # The loop over single identities is the reference for the ideal
    # identities; it must tell one-sided ideals from two-sided ones.  In the
    # path algebra of a -x-> b -y-> c, span{x} is a left ideal that x·y
    # leaves, and span{y} a right ideal that x·y leaves; span{x, x.y} is
    # two-sided.
    q = named_quiver("line3")
    x, y, xy = unit(q.arrow_path("x")), unit(q.arrow_path("y")), unit(q.path_from_labels(["x", "y"]))
    generators = _generators(q)

    def within(*spanning):
        span = [v.combo for v in spanning]
        return lambda e: e.is_zero() or solve_membership(e.combo, span, QQ) is not None

    assert per_identity_check_ideal([x], generators, _products, within(x)) == ("right", y, x)
    assert per_identity_check_ideal([y], generators, _products, within(y)) == ("left", x, y)
    assert per_identity_check_ideal([x, xy], generators, _products, within(x, xy)) is None
    # Without y among the generators, span{x} would pass: the generating
    # set has to be complete.
    assert per_identity_check_ideal([x], [g for g in generators if g != y], _products, within(x)) is None


def test_check_ideal_skips_products_outside_the_window():
    # A product outside the window is None: it is asked for, on each side,
    # and never tested.
    q = named_quiver("line3")
    x, y = unit(q.arrow_path("x")), unit(q.arrow_path("y"))
    calls = []

    def product(side, g, v):
        calls.append((side, g))

    assert per_identity_check_ideal([x], [y], product, lambda e: False) is None
    assert calls == [("left", y), ("right", y)]


def test_cycle_counterexample_window_must_reach_the_cycle():
    quiver = Family("cycle", 3).truncate(0)
    for window in (0, 2):
        with pytest.raises(ValueError, match="shorter than the cycle"):
            build_cycle_counterexample(quiver, window)
    ce = build_cycle_counterexample(quiver, 3)
    assert len(ce.difference_pairs) == 3 and ce.identities_checked == _identity_count(3, 3)


def test_cycle_counterexample_needs_a_cycle():
    with pytest.raises(ValueError):
        build_cycle_counterexample(named_quiver("line3"), 4)


def test_cycle_counterexample_on_quiver_with_tail():
    q = named_quiver("loop_with_tail")
    ce = build_cycle_counterexample(q, 6)
    # Everything off the cycle is swallowed whole: the stray vertex and the
    # tail arrow generate it, and every path off the winding paths goes
    # through the tail to the stray vertex.
    assert any(p.length == 0 and p.vertex == "w" for p in ce.monomial_generators)
    assert any(any(a.label == "y" for a in p.arrows) for p in ce.monomial_generators)
    winding = set(ce.closed_path_set)
    assert all(p not in winding for p in ce.monomial_generators)
    off = [p for p in enumerate_paths(q, 6).paths if p not in winding]
    assert len(off) == 7 and all(p.target == "w" for p in off)


def test_multiarrow_counterexample():
    fam = Family("multiarrow")
    ce = build_multiarrow_counterexample(fam, 1)
    gens = [SparseVector({p: Fraction(1), r: Fraction(-1)}) for p, r in ce.difference_pairs]
    x0 = ce.quiver.arrow_path("x0")
    assert solve_membership(SparseVector({x0: Fraction(1)}), gens, QQ) is None
    ce3 = build_multiarrow_counterexample(fam, 3)
    assert ce3.codimension == 3
    with pytest.raises(ValueError):
        build_multiarrow_counterexample(Family("loop"), 3)


def test_bialgebra_examples():
    assert bialgebra_check(named_quiver("single_arrow")).status == "yes"
    line = bialgebra_check(named_quiver("line3"))
    assert line.status == "no" and line.data == {"compatible": False, "pairs_checked": 10, "witness": "([x], [y])"}
    assert tuple(str(p) for p in line.witness) == ("x", "y")
    par = bialgebra_check(named_quiver("parallel_pair"))
    assert par.status == "no"
    assert {str(p) for p in par.witness} == {"x", "y"}
    assert bialgebra_check(named_quiver("loop")).status == "no"
    assert bialgebra_check(named_quiver("two_points")).status == "yes"


def _bialgebra_outcome(check, quiver, field=QQ):
    """The verdict's status, witness and pair count, or the AssertionError's
    message."""
    try:
        report = check(quiver, field)
    except AssertionError as exc:
        return str(exc)
    return report.status, report.witness, report.data["pairs_checked"]


def test_bialgebra_check_agrees_with_the_element_check():
    small = list(enumerate_small_quivers(3, 3))
    assert len(small) == 259
    for quiver in small + acyclic_corpus() + cyclic_corpus():
        expected = _bialgebra_outcome(element_bialgebra_check, quiver)
        assert not isinstance(expected, str)
        assert _bialgebra_outcome(bialgebra_check, quiver) == expected
    for quiver in acyclic_corpus() + cyclic_corpus():
        for field in (PrimeField(2), PrimeField(5)):
            assert _bialgebra_outcome(bialgebra_check, quiver, field) == _bialgebra_outcome(
                element_bialgebra_check, quiver, field
            )


def _corrupt_product(monkeypatch, target, wrong):
    """Corrupt one product where ``bialgebra_check`` and the tensor product
    read it (``algebra.compose_paths``) and where ``multiply`` does
    (``Quiver.compose``, through ``quiver.compose_paths``)."""
    exact = quiver_module.compose_paths
    corrupted = lambda p, r: wrong if (p, r) == target else exact(p, r)
    monkeypatch.setattr(quiver_module, "compose_paths", corrupted)
    monkeypatch.setattr(algebra, "compose_paths", corrupted)


def test_bialgebra_check_raises_the_element_checks_error_on_a_corrupted_product(monkeypatch):
    # a·a = x breaks Δ(aa) = Δ(a)Δ(a) on the vertex pairs; u·y = 0 makes
    # Δ(x)Δ(y) = y⊗x vanish, so the parallel pair (x, y) looks compatible.
    # x·y = 0 leaves Δ(x)Δ(y) = x⊗y, from the second split of x, against
    # Δ(0) = 0: still a witness.
    arrow = named_quiver("single_arrow")
    a = arrow.vertex_path("a")
    parallel = named_quiver("parallel_pair")
    line = named_quiver("line3")
    cases = [
        (arrow, (a, a), arrow.arrow_path("x"), "grouplike multiplicativity fails; bug"),
        (parallel, (parallel.vertex_path("u"), parallel.arrow_path("y")), None,
         "expected product incompatibility at (x, y); bug"),
        (line, (line.arrow_path("x"), line.arrow_path("y")), None, _bialgebra_outcome(bialgebra_check, line)),
    ]
    for quiver, target, wrong, outcome in cases:
        with monkeypatch.context() as mp:
            _corrupt_product(mp, target, wrong)
            assert _bialgebra_outcome(element_bialgebra_check, quiver) == outcome
            assert _bialgebra_outcome(bialgebra_check, quiver) == outcome


def test_bialgebra_check_reads_its_counts_mod_the_characteristic(monkeypatch):
    # With x·x = 0 on the loop, Δ(x)Δ(x) holds x⊗x twice against nothing in
    # Δ(xx) = 0: a count of -2, a witness over QQ and GF(3) and zero over
    # GF(2), where the compatible pair contradicts the criterion.  No count
    # is made a field scalar.
    loop = named_quiver("loop")
    x = Path(loop, None, (loop.arrows[0],))
    _corrupt_product(monkeypatch, (x, x), None)
    outcome = "expected product incompatibility at (x, x); bug"
    assert _bialgebra_outcome(element_bialgebra_check, loop, PrimeField(2)) == outcome
    monkeypatch.setattr(PrimeField, "of", None)
    assert _bialgebra_outcome(bialgebra_check, loop, PrimeField(2)) == outcome
    for field in (QQ, PrimeField(3)):
        assert _bialgebra_outcome(bialgebra_check, loop, field) == ("no", (x, x), 2)


_SMALL_QUIVERS = list(enumerate_small_quivers(3, 3))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_SMALL_QUIVERS) - 1), st.data())
def test_bialgebra_check_sees_every_corrupted_product_the_element_check_sees(index, data):
    quiver = _SMALL_QUIVERS[index]
    generators = [quiver.vertex_path(v) for v in quiver.vertices] + [Path(quiver, None, (a,)) for a in quiver.arrows]
    target = (data.draw(st.sampled_from(generators)), data.draw(st.sampled_from(generators)))
    wrong = data.draw(st.sampled_from([None] + generators))
    with pytest.MonkeyPatch.context() as mp:
        _corrupt_product(mp, target, wrong)
        assert _bialgebra_outcome(bialgebra_check, quiver) == _bialgebra_outcome(element_bialgebra_check, quiver)


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
