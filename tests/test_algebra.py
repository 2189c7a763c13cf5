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
from quivercoalg.corpus import (
    acyclic_corpus,
    cyclic_corpus,
    enumerate_small_quivers,
    named_quiver,
    random_element,
    random_quiver,
)
from quivercoalg.linalg import SparseVector, solve_membership
from quivercoalg.quiver import Family, Path, Quiver, enumerate_paths, family_from_token, find_simple_cycle
from quivercoalg.scalars import QQ, PrimeField

from helpers import (
    cycle_codimension_oracle,
    cycle_identity_oracle,
    dense_rank,
    element_bialgebra_check,
    expanded_subpath_closure,
    per_identity_difference_ideal,
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


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["cycle:1", "cycle:2", "cycle:3", "cycle:4", "loop_with_tail", "two_loops", "cycle3-tails"]),
    data=st.data(),
)
def test_product_table_agrees_with_multiply(shape, data):
    # Every entry of the generator product table is the element product of
    # the two unit paths: the position of a winding product, any other
    # product itself, and a position left out of a row (below its fitting
    # count) zero.  The union-find codimension is the dense rank's.
    quiver = _cyclic_quiver(shape)
    s = len(find_simple_cycle(quiver))
    window = data.draw(st.integers(s, 4 * s), label="window")
    ce = build_cycle_counterexample(quiver, window)
    paths = ce.closed_path_set
    index = {p: i for i, p in enumerate(paths)}
    generators = _generators(quiver)
    rows = algebra._generator_rows([g for e in generators for g in e.combo.labels()], paths, window)
    for element in generators:
        (g,) = element.combo.labels()
        fits = [p for p in paths if g.length + p.length <= window]
        (n, left), (m, right) = rows["left", g], rows["right", g]
        assert n == m == len(fits) and set(left) | set(right) <= set(range(n))
        for i, p in enumerate(fits):
            for entry, (a, b) in zip((left.get(i), right.get(i)), ((g, p), (p, g))):
                assert not isinstance(entry, Path) or entry not in index
                path = paths[entry] if isinstance(entry, int) else entry
                assert (CoalgElement.zero(quiver) if path is None else unit(path)) == multiply(unit(a), unit(b))
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


# Every window that the cycle-recovery benchmark builds: ``check thm33`` at
# (codim bound + 2)·s and ``counterexample cycle`` at its --max-len.
_LADDER = {"loop": (6, 10, 14), "cycle:2": (12, 16, 20), "cycle:3": (12, 18, 24, 36), "cycle:4": (16, 20, 24),
           "cycle3-tails": (12, 18, 24)}


@pytest.mark.parametrize(
    "shape, window", [pytest.param(shape, w, id=f"{shape}-{w}") for shape, ws in _LADDER.items() for w in ws]
)
def test_identity_counts_over_the_cycle_recovery_ladder(shape, window):
    # The rows examine only the differences that meet a nonzero product,
    # yet count one identity per generator, side and fitting difference,
    # as the loop over single identities does; on a pure cycle that is the
    # closed form.  The codimension is the dense rank's.
    quiver = family_from_token("loop").truncate(0) if shape == "loop" else _cyclic_quiver(shape)
    ce = build_cycle_counterexample(quiver, window)
    oracle = per_identity_difference_ideal(ce.closed_path_set, ce.difference_pairs, window)
    assert (ce.identities_checked, ce.codimension) == oracle
    if shape != "cycle3-tails":
        assert ce.identities_checked == _identity_count(ce.details["cycle_length"], window)


@pytest.mark.parametrize("side", ["right", "left"])
def test_cycle_counterexample_catches_a_wrong_product(monkeypatch, side):
    quiver = Family("cycle", 3).truncate(0)
    q = winding_paths(quiver, find_simple_cycle(quiver), 9)
    # The vertex times the leading path of q[0,3] - q[0,0], on one side,
    # loses its one term in the product table.
    target = (q[(0, 3)], q[(0, 0)]) if side == "right" else (q[(0, 0)], q[(0, 3)])
    exact = quiver_module.compose_paths
    monkeypatch.setattr(algebra, "compose_paths", lambda p, r: None if (p, r) == target else exact(p, r))
    message = f"{side} product by generator [v0] takes -1*[v0] + [x0.x1.x2] out of the ideal"
    with pytest.raises(AssertionError, match=re.escape(message)):
        build_cycle_counterexample(quiver, 9)


def _corrupt_table(monkeypatch, side, g, position, entry):
    """Make the product table that ``algebra._generator_rows`` gives hold
    ``entry`` (None for zero) for ``g`` times the path at ``position``, on
    the given side, whether or not that product was composed."""
    exact = algebra._generator_rows

    def wrong(*args):
        rows = exact(*args)
        rows[side, g][1][position] = entry
        return rows

    monkeypatch.setattr(algebra, "_generator_rows", wrong)


def _leave_the_ideal(monkeypatch, side, generator, ce, window, stray):
    """Corrupt the product table's entry for ``generator`` times one leading
    path of a difference of ``ce``, on the given side, where the check reads
    it.  The leading path is the first longest whose product stays in the
    window.  A product on ``ce.closed_path_set`` is dropped, any other (zero
    or off it) becomes ``stray``: either way the product of the generator
    with that difference leaves the ideal."""
    (g,) = generator.combo.labels()
    leads = [max(pair, key=lambda p: p.length) for pair in ce.difference_pairs]
    leading = max((p for p in leads if g.length + p.length <= window), key=lambda p: p.length)
    product = quiver_module.compose_paths(*((g, leading) if side == "left" else (leading, g)))
    paths = ce.closed_path_set
    entry = None if product in paths else paths.index(stray)
    _corrupt_table(monkeypatch, side, g, paths.index(leading), entry)


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
    # A lone winding path is never in the ideal (its winding coefficients
    # do not sum to zero), so the corrupted product leaves the ideal; the
    # check must test this generator on this side to notice.
    stray = find_simple_cycle(quiver)[0].source
    _leave_the_ideal(monkeypatch, side, generator, build_cycle_counterexample(quiver, 4), 4, quiver.vertex_path(stray))
    with pytest.raises(AssertionError, match=re.escape(f"{side} product by generator {generator} takes")):
        build_cycle_counterexample(quiver, 4)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("label", ["a", "b", "x0", "x2"])
def test_multiarrow_counterexample_checks_every_generator(monkeypatch, label, side):
    quiver = Family("multiarrow").truncate(2)
    generator = next(g for g in _generators(quiver) if str(g) == f"[{label}]")
    ce = build_multiarrow_counterexample(Family("multiarrow"), 2)
    _leave_the_ideal(monkeypatch, side, generator, ce, 2, quiver.arrow_path("x0"))
    with pytest.raises(AssertionError, match=re.escape(f"{side} product by generator [{label}] takes")):
        build_multiarrow_counterexample(Family("multiarrow"), 2)


def test_cycle_counterexample_checks_every_fitting_bucket_position(monkeypatch):
    # Drop the leading path of q[0,3] - q[0,0] from the bucket of paths that
    # start at v0: its products with v0 and x2 on the left are then never
    # composed, and the check must notice the lone term left over.
    quiver = Family("cycle", 3).truncate(0)
    q = winding_paths(quiver, find_simple_cycle(quiver), 9)
    exact = algebra.endpoint_buckets

    def dropping(paths):
        starts, ends = exact(paths)
        starts["v0"].remove(paths.index(q[(0, 3)]))
        return starts, ends

    monkeypatch.setattr(algebra, "endpoint_buckets", dropping)
    message = "left product by generator [v0] takes -1*[v0] + [x0.x1.x2] out of the ideal"
    with pytest.raises(AssertionError, match=re.escape(message)):
        build_cycle_counterexample(quiver, 9)


def test_cycle_counterexample_checks_the_monomial_part(monkeypatch):
    # The paths off the winding paths are certified an ideal by the subpath
    # closure of the winding paths.  Corrupt one prefix, of x.x.x, to the
    # tail arrow y: only the closure check can notice.
    quiver = named_quiver("loop_with_tail")
    target, tail, exact = quiver.path_from_labels(["x", "x", "x"]), quiver.arrow_path("y"), Path.prefix
    monkeypatch.setattr(Path, "prefix", lambda p, n: tail if (p, n) == (target, 2) else exact(p, n))
    with pytest.raises(AssertionError, match=re.escape("subpath y of the winding path x.x.x is off the winding paths")):
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


def _rows(vectors):
    """The rows of element products g·v or v·g over the spanning vectors,
    by position."""
    return lambda side, g: {k: multiply(g, v) if side == "left" else multiply(v, g) for k, v in enumerate(vectors)}


def test_check_ideal_finds_one_sided_ideals():
    # In the path algebra of a -x-> b -y-> c, span{x} is a left ideal that
    # x·y leaves, and span{y} a right ideal that x·y leaves; span{x, x.y} is
    # two-sided.
    q = named_quiver("line3")
    x, y, xy = unit(q.arrow_path("x")), unit(q.arrow_path("y")), unit(q.path_from_labels(["x", "y"]))
    generators = _generators(q)

    def within(*spanning):
        span = {v.combo for v in spanning}
        member = lambda e: e.is_zero() or solve_membership(e.combo, list(span)) is not None
        return lambda products: min((k for k, e in products.items() if not member(e)), default=None)

    assert check_ideal([x], generators, _rows([x]), within(x)) == ("right", y, x)
    assert check_ideal([y], generators, _rows([y]), within(y)) == ("left", x, y)
    assert check_ideal([x, xy], generators, _rows([x, xy]), within(x, xy)) is None
    # Without y among the generators, span{x} would pass: the generating
    # set has to be complete.
    assert check_ideal([x], [g for g in generators if g != y], _rows([x]), within(x)) is None


def test_check_ideal_skips_products_outside_the_window():
    # A row leaves out the products outside the window: each row is still
    # asked for, and an empty one passes.
    q = named_quiver("line3")
    x, y = unit(q.arrow_path("x")), unit(q.arrow_path("y"))
    calls = []

    def row(side, g):
        calls.append((side, g))
        return {}

    assert check_ideal([x], [y], row, lambda products: 0 if products else None) is None
    assert calls == [("left", y), ("right", y)]


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
    # Optionally drop the product of one cycle vertex or cycle arrow with
    # the leading path of one difference, on one side, at the composition
    # that fills the product table: both checks must then fail, or both
    # pass when the product is zero or leaves the window.
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
            (g,), leading = generator.combo.labels(), max(difference.combo.labels(), key=lambda p: p.length)
            target = (g, leading) if side == "left" else (leading, g)
            exact = quiver_module.compose_paths
            wrong = lambda a, b: None if (a, b) == target else exact(a, b)
            # The oracle composes through ``multiply``, which reads
            # ``Quiver.compose``, the counterexample through its product
            # table: both see the same corruption.
            mp.setattr(quiver_module, "compose_paths", wrong)
            mp.setattr(algebra, "compose_paths", wrong)
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


def _closure_outcome(check):
    try:
        return ("pass", check())
    except AssertionError as error:
        return ("fail", str(error))


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["cycle:1", "cycle:2", "cycle:3", "cycle:4", "loop_with_tail"]),
    data=st.data(),
)
def test_row_closure_check_agrees_with_the_per_identity_loop(shape, data):
    # With at most one product-table entry corrupted, to zero, to a winding
    # path or to a path off them, whether its endpoints meet or not, the
    # row-at-a-time check and the loop over single identities report the
    # same first failure, or pass with the same identity count and
    # codimension.
    quiver = named_quiver(shape) if shape == "loop_with_tail" else Family("cycle", int(shape[6:])).truncate(0)
    s = len(find_simple_cycle(quiver))
    window = data.draw(st.integers(s, 3 * s), label="window")
    ce = build_cycle_counterexample(quiver, window)
    paths, pairs = ce.closed_path_set, ce.difference_pairs
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans(), label="corrupt"):
            g = data.draw(st.sampled_from(algebra._generators(quiver)), label="generator")
            p = data.draw(st.sampled_from([p for p in paths if g.length + p.length <= window]), label="path")
            side = data.draw(st.sampled_from(["left", "right"]), label="side")
            wrong = data.draw(st.sampled_from([None, *paths, *ce.monomial_generators]), label="wrong")
            _corrupt_table(mp, side, g, paths.index(p), paths.index(wrong) if wrong in paths else wrong)
        rows = _closure_outcome(lambda: algebra._check_difference_ideal(paths, pairs, window))
        oracle = _closure_outcome(lambda: per_identity_difference_ideal(paths, pairs, window))
    assert rows == oracle
    if rows[0] == "pass":
        assert rows[1] == (ce.identities_checked, ce.codimension)


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


def _bialgebra_outcome(check, quiver, field=QQ):
    """The report's fields, or the AssertionError's message."""
    try:
        report = check(quiver, field)
    except AssertionError as exc:
        return str(exc)
    return report.compatible, report.criterion, report.witness, report.pairs_checked


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
