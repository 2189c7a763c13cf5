import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

import quivercoalg.quiver as quiver_module
from quivercoalg.corpus import enumerate_small_quivers, finite_corpus, named_quiver, random_quiver
from quivercoalg.quiver import (
    FAMILIES,
    VERDICT_STATUSES,
    Path,
    Quiver,
    Family,
    Verdict,
    check_recovery_clause_equivalence,
    check_recovery_condition,
    check_semiperfect_condition,
    check_unique_path_condition,
    compose_paths,
    enumerate_paths,
    family_from_token,
    find_simple_cycle,
    horizon_verdict,
    is_acyclic,
    path_labels,
)
from quivercoalg.textio import parse_quiver_text

from helpers import brute_force_path_count, brute_force_paths, first_cyclic_induced_subquiver


def test_compose_vertex_identity():
    q = named_quiver("single_arrow")
    v = q.vertex_path("a")
    assert compose_paths(v, v) == v
    x = q.arrow_path("x")
    assert compose_paths(v, x) == x
    assert compose_paths(x, q.vertex_path("b")) == x


def test_compose_follows_arrow_order():
    q = named_quiver("line3")
    x, y = q.arrow_path("x"), q.arrow_path("y")
    xy = compose_paths(x, y)
    assert [a.label for a in xy.arrows] == ["x", "y"]
    assert xy.source == "a" and xy.target == "c"


def test_compose_mismatch_is_none():
    q = Quiver(["u", "v", "w", "r"], [("x", "u", "v"), ("z", "w", "r")])
    assert compose_paths(q.arrow_path("x"), q.arrow_path("z")) is None


def test_compose_across_quivers_is_error():
    q1 = named_quiver("single_arrow")
    q2 = named_quiver("single_arrow")
    with pytest.raises(ValueError):
        compose_paths(q1.arrow_path("x"), q2.arrow_path("x"))


def test_enumerate_single_vertex():
    q = named_quiver("point")
    enum = enumerate_paths(q, 3)
    assert [str(p) for p in enum.paths] == ["a"]
    assert enum.exhaustive


def test_enumerate_line3_counts():
    q = named_quiver("line3")
    enum = enumerate_paths(q, 2)
    # Oracle: direct recursion over the arrow table.
    assert len(enum.paths) == brute_force_path_count(q, 2) == 6
    assert enum.exhaustive


def test_enumerate_loop():
    q = named_quiver("loop")
    enum = enumerate_paths(q, 4)
    assert len(enum.paths) == 5
    assert not enum.exhaustive


def test_enumeration_matches_oracle_on_random_quivers():
    rng = random.Random(99)
    for _ in range(25):
        q = random_quiver(rng, 4, 5)
        assert len(enumerate_paths(q, 3).paths) == brute_force_path_count(q, 3)


def test_enumeration_is_subpath_closed():
    rng = random.Random(17)
    for _ in range(20):
        q = random_quiver(rng, 4, 6)
        enum = enumerate_paths(q, 4)
        pool = set(enum.paths)
        for p in enum.paths:
            for sub in p.subpaths():
                assert sub in pool


def _oracle_labels(quiver, max_len):
    """The labels of the brute-force paths in sort_key order: the vertices
    by name, then the arrow paths by length and label sequence."""
    keys = sorted((len(seq) - 1, seq[1:] or seq) for seq in brute_force_paths(quiver, max_len))
    return [".".join(labels) for _, labels in keys]


def _assert_walk_agrees(quiver, max_len):
    """``path_labels`` lists ``str(p)`` of ``enumerate_paths`` with its flag,
    both match the oracle, and the flag is sound: an exhaustive window has
    no path one arrow longer."""
    enum = enumerate_paths(quiver, max_len)
    labels = path_labels(quiver, max_len)
    assert labels.paths == [str(p) for p in enum.paths] == _oracle_labels(quiver, max_len)
    assert labels.exhaustive == enum.exhaustive
    if enum.exhaustive:
        assert brute_force_path_count(quiver, max_len + 1) == len(enum.paths)
    elif is_acyclic(quiver):
        assert max_len < len(quiver.vertices) - 1


def test_path_labels_on_every_small_quiver():
    quivers = list(enumerate_small_quivers(3, 3))
    assert len(quivers) == 259
    for q in quivers:
        for max_len in range(5):
            _assert_walk_agrees(q, max_len)


def test_path_labels_on_the_corpus_and_family_truncations():
    families = [Family(kind, 3 if spec.parametrized else None) for kind, spec in FAMILIES.items()]
    stages = [family.truncate(level) for family in families if family.facts.carrier == "quiver" for level in (0, 2, 4)]
    for q in finite_corpus() + stages:
        for max_len in range(7):
            _assert_walk_agrees(q, max_len)


def test_path_labels_extend_by_out_arrows_in_label_order():
    # Arrows declared against label order, so the declared order of a
    # vertex's out-arrows is not the order of the walk.
    q = Quiver(["v", "u"], [("y", "v", "v"), ("x", "v", "v"), ("b", "v", "u"), ("a", "u", "v")])
    expected = ["u", "v", "a", "b", "x", "y", "a.b", "a.x", "a.y", "b.a", "x.b", "x.x", "x.y", "y.b", "y.x", "y.y"]
    assert path_labels(q, 2).paths == expected == [str(p) for p in enumerate_paths(q, 2).paths]


def test_compose_associativity_where_defined():
    rng = random.Random(31)
    for _ in range(50):
        q = random_quiver(rng, 4, 6)
        enum = enumerate_paths(q, 3)
        paths = enum.paths
        for _ in range(20):
            p, r, s = (rng.choice(paths) for _ in range(3))
            left = compose_paths(p, r)
            right = compose_paths(r, s)
            if left is not None and right is not None:
                assert compose_paths(left, s) == compose_paths(p, right)


def test_is_acyclic():
    assert not is_acyclic(named_quiver("loop"))
    assert is_acyclic(named_quiver("line3"))
    assert not is_acyclic(Family("cycle", 3).truncate(0))


def test_recovery_condition_families():
    assert not check_recovery_condition(Family("loop"))
    assert check_recovery_condition(Family("star51"))
    verdict = check_recovery_condition(Family("multiarrow"))
    assert not verdict and "arrows" in verdict.explanation


def test_semiperfect_condition():
    assert check_semiperfect_condition(named_quiver("line4"))
    assert not check_semiperfect_condition(Family("line1"))
    assert not check_semiperfect_condition(Family("loop"))


def test_unique_path_condition():
    assert check_unique_path_condition(named_quiver("line3"))
    assert not check_unique_path_condition(named_quiver("diamond"))
    assert not check_unique_path_condition(named_quiver("parallel_pair"))
    with pytest.raises(ValueError):
        check_unique_path_condition(named_quiver("loop"))


def test_recovery_clause_agreement_examples():
    assert not check_recovery_clause_equivalence(named_quiver("loop"))
    assert check_recovery_clause_equivalence(named_quiver("branching"))
    assert not check_recovery_clause_equivalence(Family("cycle", 2).truncate(0))


@pytest.mark.parametrize(
    "quivers",
    [
        pytest.param(lambda: enumerate_small_quivers(4, 3), id="all-4-3"),
        pytest.param(lambda: (random_quiver(random.Random(seed), 8, 10) for seed in range(150)), id="random-8"),
    ],
)
def test_cyclic_subset_search_matches_building_every_induced_subquiver(quivers):
    for quiver in quivers():
        # Clause two read off every induced subquiver, against the verdict.
        clause_two = first_cyclic_induced_subquiver(quiver) is None
        assert bool(check_recovery_clause_equivalence(quiver)) == clause_two, quiver


def test_recovery_clause_agreement_on_corpus():
    for q in finite_corpus():
        check_recovery_clause_equivalence(q)  # raises on disagreement


def test_family_truncations_are_cached_and_consistent():
    fam = Family("line1")
    assert fam.truncate(4) is fam.truncate(4)
    # A family answering False exhibits the violating feature at truncation.
    loop = Family("loop").truncate(0)
    assert find_simple_cycle(loop) is not None
    multi = Family("multiarrow")
    counts = [len(multi.truncate(level).arrows) for level in (1, 3, 7)]
    assert counts == [2, 4, 8]  # arrow count between the two vertices grows without bound
    star = Family("star51").truncate(3)
    assert len([a for a in star.arrows if a.source == "a" and a.target == "b3"]) == 3


def test_family_tokens():
    assert family_from_token("cycle:4").param == 4
    assert family_from_token("line2").kind == "line2"
    with pytest.raises(ValueError):
        family_from_token("cycle")
    with pytest.raises(ValueError):
        family_from_token("unknown")


def test_small_quiver_enumeration_is_exhaustive_up_to_multiset():
    quivers = list(enumerate_small_quivers(2, 2))
    # 1 vertex: arrow multisets over 1 pair: sizes 0,1,2 -> 3
    # 2 vertices: multisets over 4 pairs: 1 + 4 + 10 -> 15
    assert len(quivers) == 3 + 15


@st.composite
def quiver_texts(draw):
    """Quiver files with up to 4 vertices and 6 arrows, loops and parallels
    allowed; neither vertices nor arrows are declared in label order."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations(["v", "b", "w", "a"]))[:n]
    ends = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=6))
    labels = draw(st.permutations(["x", "u", "a2", "a10", "y", "c"]))
    lines = ["quiver"] + [f"vertex {name}" for name in names]
    lines += [f"arrow {label} {s} {t}" for label, (s, t) in zip(labels, ends)]
    return "\n".join(lines) + "\n"


def _rebuilt(p):
    """A fresh Path object with the same fields."""
    return Path(p.quiver, p.vertex, tuple(p.arrows))


@settings(max_examples=60, deadline=None)
@given(quiver_texts())
def test_prefix_suffix_recompose_to_the_same_path(text):
    q = parse_quiver_text(text).target
    for p in enumerate_paths(q, 3).paths:
        for i in range(p.length + 1):
            whole = compose_paths(p.prefix(i), p.suffix_from(i))
            assert whole == p and hash(whole) == hash(p)


@settings(max_examples=60, deadline=None)
@given(quiver_texts())
def test_paths_of_two_parses_of_one_text_are_unequal(text):
    first = parse_quiver_text(text).target
    second = parse_quiver_text(text).target
    seen = set(enumerate_paths(first, 2).paths)
    for p in enumerate_paths(second, 2).paths:
        twin = first.vertex_path(p.vertex) if not p.arrows else first.path_from_labels(
            a.label for a in p.arrows
        )
        assert twin in seen and str(twin) == str(p)
        assert p != twin and p not in seen


class _OraclePath:
    """The hand-written path value that the tuple-backed ``Path`` replaced:
    equal only on the same quiver object, base vertex and arrow objects,
    hashed on the vertex and arrows, ordered by length, then arrow labels,
    then arrow idents (a vertex path by its name)."""

    def __init__(self, p):
        self.quiver, self.vertex, self.arrows = p.quiver, p.vertex, tuple(map(id, p.arrows))
        labels = [a.label for a in p.arrows]
        self.key = (len(labels), tuple(labels), tuple(a.ident for a in p.arrows)) if labels else (0, (), (p.vertex,))

    def __hash__(self):
        return hash((self.vertex, self.arrows))

    def __eq__(self, other):
        return self.quiver is other.quiver and self.vertex == other.vertex and self.arrows == other.arrows


def _contract_pool(text):
    """Paths of length <= 2 of two quivers parsed from ``text``, each with a
    fresh copy and the pieces of its splits, in a shuffled order."""
    pool = []
    for q in (parse_quiver_text(text).target, parse_quiver_text(text).target):
        for p in enumerate_paths(q, 2).paths:
            pool += [p, _rebuilt(p), *(piece for pair in p.splits() for piece in pair)]
    random.Random(len(pool)).shuffle(pool)
    return pool


@settings(max_examples=60, deadline=None)
@given(quiver_texts())
def test_path_equality_is_quiver_vertex_and_arrow_sequence(text):
    pool = _contract_pool(text)
    oracle = {id(p): _OraclePath(p) for p in pool}
    for p in pool:
        for r in pool:
            same = oracle[id(p)] == oracle[id(r)]
            assert (p == r) is same and (p != r) is not same
            if same:
                assert hash(p) == hash(r)
    assert len(set(pool)) == len(set(oracle.values()))
    assert [id(p) for p in sorted(pool, key=lambda p: p.sort_key)] == [
        id(p) for p in sorted(pool, key=lambda p: oracle[id(p)].key)
    ]


@settings(max_examples=60, deadline=None)
@given(quiver_texts())
def test_vertices_and_arrows_of_two_parses_of_one_text_differ(text):
    first, second = parse_quiver_text(text).target, parse_quiver_text(text).target
    for v in first.vertices:
        assert first.vertex_path(v) == first.vertex_path(v) != second.vertex_path(v)
        assert second.vertex_path(v) not in {first.vertex_path(v)}
    arrows = first.arrows + second.arrows + Quiver(first.vertices, first.arrows).arrows
    assert all((a == b) is (a is b) for a in arrows for b in arrows)
    assert len(set(arrows)) == len(arrows)


@settings(max_examples=60, deadline=None)
@given(quiver_texts())
def test_splits_are_the_prefix_suffix_pairs_around_the_path_itself(text):
    q = parse_quiver_text(text).target
    for p in enumerate_paths(q, 3).paths:
        pairs = p.splits()
        assert pairs == [(p.prefix(i), p.suffix_from(i)) for i in range(p.length + 1)]
        assert pairs[0][1] is p and pairs[-1][0] is p
        assert all(compose_paths(left, right) == p for left, right in pairs)


@settings(max_examples=60, deadline=None)
@given(quiver_texts(), st.integers(0, 3))
def test_distinct_enumerated_paths_match_the_oracle(text, max_len):
    q = parse_quiver_text(text).target
    paths = enumerate_paths(q, max_len).paths
    assert len(set(paths)) == len(brute_force_paths(q, max_len))
    assert paths == sorted(paths, key=lambda p: p.sort_key)


@settings(max_examples=80, deadline=None)
@given(quiver_texts(), st.integers(0, 4))
def test_path_labels_match_the_enumeration_and_the_oracle(text, max_len):
    _assert_walk_agrees(parse_quiver_text(text).target, max_len)


def _appending_walk(quiver, max_len):
    """Every path up to ``max_len``, built by appending each arrow to each
    shorter path that ends at its source and sorted by ``sort_key``, and the
    exhaustive flag's rule: acyclic, and either some length up to
    ``max_len`` has no path or the window reaches min(|vertices| - 1,
    |arrows|)."""
    layer = [Path(quiver, v, ()) for v in quiver.vertices]
    paths, filled = list(layer), 0
    for _ in range(max_len):
        layer = [Path(quiver, None, p.arrows + (a,)) for p in layer for a in quiver.arrows if a.source == p.target]
        paths, filled = paths + layer, filled + bool(layer)
    bound = min(max(0, len(quiver.vertices) - 1), len(quiver.arrows))
    return sorted(paths, key=lambda p: p.sort_key), is_acyclic(quiver) and (filled < max_len or max_len >= bound)


def _assert_prepend_walk_agrees(quiver, max_len):
    paths, exhaustive = _appending_walk(quiver, max_len)
    enum, labels = enumerate_paths(quiver, max_len), path_labels(quiver, max_len)
    assert (enum.paths, enum.exhaustive) == (paths, exhaustive)
    assert (labels.paths, labels.exhaustive) == ([str(p) for p in enum.paths], exhaustive)


@settings(max_examples=80, deadline=None)
@given(quiver_texts(), st.integers(0, 5))
def test_the_prepend_walk_matches_the_appending_oracle(text, max_len):
    # Loops, parallel arrows and labels declared out of order.
    _assert_prepend_walk_agrees(parse_quiver_text(text).target, max_len)


def test_a_walk_that_keeps_payloads_per_end_vertex_fails_the_oracle(monkeypatch):
    # Prepending an arrow to the payloads that end, not start, at its target
    # builds x.x and y.y on a -x-> b -y-> c.
    source = inspect.getsource(quiver_module._walk)
    mutated = source.replace("setdefault(a.source,", "setdefault(a.target,").replace("setdefault(source,", "setdefault(target,")
    assert mutated.count("setdefault(a.target,") == mutated.count("setdefault(target,") == 1
    namespace = dict(vars(quiver_module))
    exec(mutated, namespace)
    monkeypatch.setattr(quiver_module, "_walk", namespace["_walk"])
    assert path_labels(named_quiver("line3"), 2).paths == ["a", "b", "c", "x", "y", "x.x", "y.y"]
    with pytest.raises(AssertionError):
        _assert_prepend_walk_agrees(named_quiver("line3"), 2)


def test_verdict_truth_and_closed_vocabulary():
    assert [bool(Verdict(status)) for status in VERDICT_STATUSES] == [True, False, True, False, False]
    with pytest.raises(ValueError, match="unknown verdict status"):
        Verdict("proved_yes")


def _loop_powers(n):
    loop = Quiver(["v"], [("x", "v", "v")])
    return [loop.vertex_path("v")] + [loop.path_from_labels(["x"] * k) for k in range(1, n + 1)]


@pytest.mark.parametrize(
    "found, exhaustive, top, status",
    [
        (True, True, 3, "yes"),  # exhaustive: a proof, wherever the witness lies
        (False, True, 1, "no"),
        (True, False, 2, "yes_up_to_bound"),  # witness strictly below the horizon
        (True, False, 3, "no_up_to_bound"),  # witness touches the horizon
        (False, False, 1, "no_up_to_bound"),
    ],
)
def test_horizon_rule(found, exhaustive, top, status):
    complement = _loop_powers(top)
    verdict = horizon_verdict(found, exhaustive, complement, 3, "why yes", "why not")
    assert verdict.status == status
    assert verdict.witness == (complement if verdict else None)
    assert verdict.explanation == ("why yes" if verdict else "why not")


def test_a_verdict_reads_its_data_as_attributes_and_survives_copy_and_pickle():
    import copy
    import pickle

    verdict = Verdict("yes", ("w",), "why", {"dimension": 3, "chain": ["(a) rule"]})
    assert verdict.dimension == 3 and verdict.chain == ["(a) rule"]
    for name in ("missing", "__setstate__", "__deepcopy__"):
        assert not hasattr(verdict, name)
    for twin in (copy.copy(verdict), copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
        assert twin == verdict and twin.dimension == 3
    # A bare instance has no fields yet: ``data`` is refused, not looked up.
    bare = Verdict.__new__(Verdict)
    with pytest.raises(AttributeError):
        bare.dimension
    assert Verdict("no").data == {}


def test_recovery_clauses_answer_a_family_from_its_facts():
    for kind, spec in FAMILIES.items():
        if spec.carrier == "quiver":
            family = Family(kind, 2) if spec.parametrized else Family(kind)
            verdict = check_recovery_clause_equivalence(family)
            assert bool(verdict) == (spec.acyclic and spec.finite_arrows) == bool(check_recovery_condition(family))
    assert not check_recovery_clause_equivalence(Family("multiarrow")).data["shared_value"]
