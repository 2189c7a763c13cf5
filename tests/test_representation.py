import inspect
import random
import re
from fractions import Fraction

import pytest

from quivercoalg import corpus, linalg, suites
from quivercoalg.algebra import build_cycle_counterexample, subpath_closure
from quivercoalg.corpus import (
    CYCLIC_CORPUS,
    enumerate_small_quivers,
    named_poset,
    named_quiver,
    random_acyclic_quiver,
    random_left_module,
    random_representation,
    random_structured_algebra,
)
from quivercoalg.finite_dual import structured_algebra
from quivercoalg.incidence import Poset, fia_structured_algebra
from quivercoalg.linalg import SparseVector, mat_eq, mat_identity, mat_mul, mat_zero
from quivercoalg.quiver import Family, Path, Quiver, Verdict, enumerate_paths, find_simple_cycle, is_acyclic
from quivercoalg.representation import (
    LeftModule,
    PathAction,
    Representation,
    annihilator_basis,
    annihilator_monomial_check,
    comodule_from_module,
    Coaction,
    cycle_module,
    cycle_quotient_module,
    is_locally_nilpotent,
    module_from_comodule,
    regular_left_module,
)
from quivercoalg.scalars import QQ, PrimeField

from helpers import dense_mat_mul, elementary_base_change, oracle_rank
from test_work_counts import TAILS


def one():
    return Fraction(1)


def test_locally_nilpotent_acyclic_always():
    # Every acyclic quiver with at most 4 vertices and 4 arrows, one random
    # representation each (dims <= 3).
    from quivercoalg.corpus import enumerate_small_quivers
    from quivercoalg.quiver import is_acyclic

    rng = random.Random(7)
    checked = 0
    for q in enumerate_small_quivers(4, 4):
        if not is_acyclic(q):
            continue
        rep = random_representation(rng, q, 3)
        assert is_locally_nilpotent(rep)
        checked += 1
    assert checked > 1000


def test_locally_nilpotent_loop_cases():
    loop = named_quiver("loop")
    nonnil = Representation(loop, {"v": 1}, {"x": ((one(),),)})
    verdict = is_locally_nilpotent(nonnil)
    assert verdict.status == "no"
    path, vector = verdict.witness
    assert path.length >= 1 and verdict.data["witness_path"] == str(path)
    nil = Representation(loop, {"v": 1}, {"x": ((Fraction(0),),)})
    assert is_locally_nilpotent(nil).status == "yes"


def test_annihilator_check_agrees():
    loop = named_quiver("loop")
    nonnil = Representation(loop, {"v": 1}, {"x": ((one(),),)})
    verdict = annihilator_monomial_check(nonnil, (one(),))
    assert verdict.status == "no" and verdict.witness == loop.arrow_path("x")
    zero_vec = annihilator_monomial_check(nonnil, (Fraction(0),))
    assert zero_vec.status == "yes" and len(zero_vec.witness) == 0
    rng = random.Random(8)
    for _ in range(15):
        q = random_acyclic_quiver(rng, 4, 4)
        rep = random_representation(rng, q, 2)
        nil = bool(is_locally_nilpotent(rep))
        unkilled = 0
        total = rep.total_dimension()
        for i in range(total):
            vector = tuple(one() if j == i else Fraction(0) for j in range(total))
            if annihilator_monomial_check(rep, vector).status != "yes":
                unkilled += 1
        assert (unkilled == 0) == nil


def _is_zero(m) -> bool:
    return not any(any(row) for row in m)


def _path_image(rep, row, path, field=QQ):
    """The row of V_(s(p)) times M_p, in field arithmetic."""
    image = (row,)
    for a in path.arrows:
        image = dense_mat_mul(image, rep.maps[a.label], field.zero)
    return image[0]


def _image(rep, vector, path, field=QQ):
    """v·M_p for v in the total space: its slice at the start of p times
    the arrows' matrices."""
    vertices = list(rep.quiver.vertices)
    offset = sum(rep.dims[v] for v in vertices[:vertices.index(path.source)])
    return _path_image(rep, vector[offset:offset + rep.dims[path.source]], path, field)


def _bounded_walk(rep, vector, bound, field=QQ) -> Verdict:
    """The bounded field-arithmetic walk that ``annihilator_monomial_check``
    replaced: the paths acting nonzero on v are prefix-closed, so a depth
    first walk with pruning enumerates them; one longer than the bound
    gives no_up_to_bound, and a finished walk gives yes with the subpath
    closure of the set."""
    starts = map(rep.quiver.vertex_path, rep.quiver.vertices)
    alive, stack = [], [(path, image) for path in starts if any(image := _image(rep, vector, path, field))]
    while stack:
        path, image = stack.pop()
        alive.append(path)
        if path.length > bound:
            return Verdict("no_up_to_bound")
        for a in rep.quiver.out_arrows(path.target):
            if any(product := dense_mat_mul((image,), rep.maps[a.label], field.zero)[0]):
                stack.append((Path(rep.quiver, None, path.arrows + (a,)), product))
    return Verdict("yes", subpath_closure(alive))


def _vector_disagreements(rep, check=annihilator_monomial_check, field=QQ) -> list[str]:
    """Where ``check`` and the bounded walk at a bound above dim M answer
    differently on a basis vector, and every no witness shorter than dim M
    or killing its vector."""
    n, wrong = rep.total_dimension(), []
    for i in range(n):
        vector = tuple(field.one if j == i else field.zero for j in range(n))
        exact, bounded = check(rep, vector, field), _bounded_walk(rep, vector, n + 1, field)
        if bool(exact) != bool(bounded) or (exact and exact.witness != bounded.witness):
            wrong.append(f"e{i}: {exact.status} {exact.witness} against {bounded.status} {bounded.witness}")
        elif not exact and (exact.status != "no" or exact.witness.length < n
                            or not any(_image(rep, vector, exact.witness, field))):
            wrong.append(f"e{i}: {exact.status} witness {exact.witness} is shorter than {n} or kills the vector")
    return wrong


def _all_ones_line(n: int) -> Representation:
    """The line v0 -> ... -> v(n-1), dimension 1 everywhere, every arrow
    acting by 1: nilpotent, yet e_v0 survives the path of length n - 1."""
    line = Quiver([f"v{i}" for i in range(n)], [(f"x{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    return Representation(line, dict.fromkeys(line.vertices, 1), {a.label: ((one(),),) for a in line.arrows})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_annihilator_check_agrees_with_the_bounded_walk_on_small_quivers(field):
    rng, answers = random.Random(12), set()
    for quiver in enumerate_small_quivers(3, 2):
        for _ in range(3):
            rep = random_representation(rng, quiver, 3, field)
            assert _vector_disagreements(rep, field=field) == [], quiver.arrows
            nil = is_locally_nilpotent(rep, field)
            answers.add(nil.status)
            if not nil:
                path, vector = nil.witness
                assert path.length >= len(quiver.vertices) + 1 and any(_path_image(rep, vector, path, field))
    assert answers == {"yes", "no"}


def test_annihilator_check_agrees_on_the_all_ones_line():
    # Dimension 13 with a nonzero path of length 12: a walk bounded at 10
    # would see a path longer than its bound and answer no.
    rep = _all_ones_line(13)
    assert is_locally_nilpotent(rep).data["vanishing_level"] == 13
    assert _vector_disagreements(rep) == []


def test_the_bounded_walk_refuses_a_check_one_step_short_of_dim_m():
    def one_short(rep, vector, field):
        depth, action, alive = rep.total_dimension() - 1, PathAction(rep, field), []
        for path, _ in action.alive(action.starts(vector), depth):
            if path.length == depth:
                return Verdict("no", path)
            alive.append(path)
        return Verdict("yes", subpath_closure(alive))

    assert _vector_disagreements(_all_ones_line(13), one_short) != []


def test_annihilator_check_slices_the_total_space_by_vertex():
    # a -x-> b -y-> c with dims 1, 2, 1: the vector is nonzero at a and at b.
    q = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    zero = Fraction(0)
    rep = Representation(q, {"a": 1, "b": 2, "c": 1}, {"x": ((one(), zero),), "y": ((zero,), (one(),))})
    # e_a survives x but dies on x.y; the first basis vector of V_b dies on y.
    verdict = annihilator_monomial_check(rep, (one(), one(), zero, zero))
    assert verdict.status == "yes"
    assert verdict.witness == sorted([q.vertex_path("a"), q.vertex_path("b"), q.arrow_path("x")],
                                     key=lambda p: p.sort_key)
    # The second basis vector of V_b survives y, which brings in c.
    verdict = annihilator_monomial_check(rep, (one(), zero, one(), zero))
    assert verdict.status == "yes"
    assert set(verdict.witness) == {q.vertex_path(v) for v in "abc"} | {q.arrow_path("x"), q.arrow_path("y")}
    with pytest.raises(ValueError, match="length 3, expected 4"):
        annihilator_monomial_check(rep, (one(), zero, zero))


@pytest.mark.parametrize("status", ["yes", "no_up_to_bound", "unknown"])
def test_the_cycle_quotient_suite_check_needs_a_no_on_every_basis_vector(monkeypatch, status):
    exact = PathAction.monomial_check
    monkeypatch.setattr(PathAction, "monomial_check",
                        lambda action, vector: Verdict(status) if vector[-1] else exact(action, vector))
    report = suites.check_cycle_quotient()
    assert not report.passed and report.details == {"failure": "annihilator verdicts disagree at n=1"}


def test_the_cycle_quotient_suite_check_remultiplies_the_nilpotence_witness(monkeypatch):
    exact = suites.is_locally_nilpotent

    def zeroed(rep):
        verdict = exact(rep)
        path, vector = verdict.witness
        return Verdict(verdict.status, (path, tuple(0 * x for x in vector)), data=verdict.data)

    monkeypatch.setattr(suites, "is_locally_nilpotent", zeroed)
    report = suites.check_cycle_quotient()
    assert not report.passed and report.details == {"failure": "witness path x0.x0 kills its vector at n=1"}


def test_cycle_quotient_dimensions_and_unit():
    for n in (1, 2, 3):
        rep = cycle_quotient_module(n)
        assert rep.dims == {f"v{m}": n for m in range(n)}
        assert rep.total_dimension() == n * n
    k1 = cycle_quotient_module(1)
    assert k1.maps["x0"] == ((one(),),)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cycle_quotient_satisfies_its_defining_relations(n):
    # Every full turn acts as the local unit at its start.
    rep = cycle_quotient_module(n)
    for start in range(n):
        turn = mat_identity(n)
        for step in range(n):
            turn = mat_mul(turn, rep.maps[f"x{(start + step) % n}"])
        assert turn == mat_identity(n)


def test_cycle_quotient_not_locally_nilpotent():
    for n in (1, 2, 3):
        assert not is_locally_nilpotent(cycle_quotient_module(n))


def test_cycle_module_of_the_n_cycle_is_the_cycle_quotient_module():
    # The n^2-dimensional quotient is n copies of the cycle module M1 of the
    # n-cycle, the s-dimensional oracle of the n-cycle, and has M1's basis.
    for n in (1, 2, 3, 4):
        quiver, quotient = Family("cycle", n).truncate(0), cycle_quotient_module(n)
        m1 = cycle_module(quiver)
        assert m1.dims == dict.fromkeys(quiver.vertices, 1)
        assert quotient == _copies_of(m1, n) == s_copies_module(quiver)
        assert annihilator_basis(quotient) == annihilator_basis(m1)


def test_cycle_module_lives_on_the_cycle():
    rep = cycle_module(TAILS)
    assert rep.dims == {"c0": 1, "c1": 1, "c2": 1, "t0": 0, "t1": 0}
    assert all(rep.maps[a] == ((one(),),) for a in "xyz")
    assert all(_is_zero(rep.maps[a]) for a in "st")
    with pytest.raises(ValueError, match="no oriented cycle"):
        cycle_module(named_quiver("line3"))


_CYCLIC = ([pytest.param(Family("cycle", s).truncate(0), id=f"cycle:{s}") for s in range(1, 6)]
           + [pytest.param(named_quiver(name), id=name) for name in CYCLIC_CORPUS] + [pytest.param(TAILS, id="tails")])
_CYCLIC_AND_SIX = _CYCLIC + [pytest.param(Family("cycle", 6).truncate(0), id="cycle:6")]


# The oracle of ``cycle_module``: the cycle-quotient module of the simple
# cycle, dimension s at each cycle vertex and the s x s identity on each
# cycle arrow.  It is s copies of M1, so the two have one annihilator: the
# same Krylov basis, and within a window the same linear relations among
# the path matrices, that is rank M = rank M1 = rank of the two side by side.


def s_copies_module(quiver, field=QQ):
    cycle = find_simple_cycle(quiver)
    s, on_cycle = len(cycle), {a.source for a in cycle}
    dims = {v: s if v in on_cycle else 0 for v in quiver.vertices}
    return Representation(quiver, dims, {a.label: mat_identity(s, field) if a in cycle
                                         else mat_zero(dims[a.source], dims[a.target], field) for a in quiver.arrows})


def _copies_of(rep, n, field=QQ):
    """n copies of ``rep``: each map m becomes m ⊗ I_n."""
    maps = {label: tuple(tuple(x if i == j else field.zero for x in row for j in range(n)) for row in m for i in range(n))
            for label, m in rep.maps.items()}
    return Representation(rep.quiver, {v: n * d for v, d in rep.dims.items()}, maps)


def _annihilator_disagreements(rep, field) -> list[str]:
    """How ``rep`` and the oracle differ in annihilator: their Krylov bases,
    and the path relations within window 2s + 1 by ``oracle_rank``."""
    quiver = rep.quiver
    oracle = s_copies_module(quiver, field)
    wrong = [] if annihilator_basis(rep, field) == annihilator_basis(oracle, field) else ["Krylov bases differ"]
    paths = enumerate_paths(quiver, _windows(quiver)[1]).paths

    def entries(module, tag, p):
        # A zero product ends the walk: the vertex spaces after it may be 0.
        m = mat_identity(module.dims[p.source], field)
        for a in p.arrows:
            if _is_zero(m):
                return {}
            m = mat_mul(m, module.maps[a.label])
        return {(tag, p.source, p.target, i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}

    rows = [(entries(oracle, "M", p), entries(rep, "M1", p)) for p in paths]
    ranks = [oracle_rank([SparseVector(part) for part in parts], field)
             for parts in ([m for m, _ in rows], [m1 for _, m1 in rows], [{**m, **m1} for m, m1 in rows])]
    return wrong + ([] if len(set(ranks)) == 1 else [f"ranks M, M1, both: {ranks}"])


_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])


@_FIELDS
@pytest.mark.parametrize("quiver", _CYCLIC_AND_SIX)
def test_cycle_module_has_the_annihilator_of_its_s_copies(field, quiver):
    assert _annihilator_disagreements(cycle_module(quiver, field), field) == []


@_FIELDS
def test_cycle_module_has_the_annihilator_of_its_s_copies_on_small_quivers(field):
    cyclic = [q for q in enumerate_small_quivers(3, 3) if not is_acyclic(q)]
    assert len(cyclic) == 190
    for quiver in cyclic:
        assert _annihilator_disagreements(cycle_module(quiver, field), field) == [], quiver.arrows


def _arrow_by_two(rep, field):
    arrow = find_simple_cycle(rep.quiver)[0].label
    return Representation(rep.quiver, rep.dims, {**rep.maps, arrow: ((field.of(2),),)})


def _vertex_missing(rep, field):
    vertex = find_simple_cycle(rep.quiver)[-1].source
    return Representation(rep.quiver, {**rep.dims, vertex: 0}, dict(rep.maps))


@_FIELDS
@pytest.mark.parametrize("mutant", [_arrow_by_two, _vertex_missing], ids=["arrow-by-two", "vertex-missing"])
@pytest.mark.parametrize("quiver", _CYCLIC_AND_SIX)
def test_the_s_copies_oracle_sees_a_mutated_cycle_module(field, mutant, quiver):
    assert _annihilator_disagreements(mutant(cycle_module(quiver, field), field), field) != []


# The windowed counterexample ideal of ``build_cycle_counterexample`` against
# Ann(M1) of the cycle module: the same codimension s², and M1 kills the
# ideal's differences and every path of its window off the winding paths
# W.  M1_p is the product of the arrows' matrices, in field arithmetic.


def _path_matrix(rep, path):
    m = mat_identity(rep.dims[path.source])
    for a in path.arrows:
        m = mat_mul(m, rep.maps[a.label])
    return m


def _acting_paths(rep, window):
    """The paths of length <= window with M_p nonzero.  A path whose prefix
    acts as zero acts as zero, so the set is prefix-closed and a walk that
    extends only nonzero products reaches all of it."""
    quiver = rep.quiver
    stack = [(quiver.vertex_path(v), mat_identity(rep.dims[v])) for v in quiver.vertices if rep.dims[v]]
    found = []
    while stack:
        path, m = stack.pop()
        found.append(path)
        for a in quiver.out_arrows(path.target) if path.length < window else ():
            if not _is_zero(product := mat_mul(m, rep.maps[a.label])):
                stack.append((Path(quiver, None, path.arrows + (a,)), product))
    return found


def _windowed_ideal_disagreements(quiver, rep, basis, window) -> list[str]:
    s = len(find_simple_cycle(quiver))
    ideal = build_cycle_counterexample(quiver, window)
    wrong = [] if len(basis) == ideal.codimension == s * s else [
        f"codimension {len(basis)}, windowed {ideal.codimension}, expected {s * s}"]
    wrong += [f"M differs on {p} - {r}" for p, r in ideal.difference_pairs
              if not mat_eq(_path_matrix(rep, p), _path_matrix(rep, r))]
    closed = set(ideal.closed_path_set)
    return wrong + [f"M is nonzero on {p} off W" for p in _acting_paths(rep, window) if p not in closed]


def _windows(quiver):
    s = len(find_simple_cycle(quiver))
    return (s, 2 * s + 1, 3 * s + 2)


@pytest.mark.parametrize("quiver", _CYCLIC)
def test_annihilator_basis_agrees_with_the_windowed_ideal(quiver):
    rep = cycle_module(quiver)
    basis = annihilator_basis(rep)
    for window in _windows(quiver):
        assert _windowed_ideal_disagreements(quiver, rep, basis, window) == []
    assert annihilator_basis(cycle_module(quiver, PrimeField(5)), PrimeField(5)) == basis


def test_annihilator_basis_agrees_with_the_windowed_ideal_on_small_quivers():
    cyclic = [q for q in enumerate_small_quivers(3, 3) if not is_acyclic(q)]
    assert len(cyclic) == 190
    for quiver in cyclic:
        rep = cycle_module(quiver)
        basis = annihilator_basis(rep)
        for window in _windows(quiver):
            assert _windowed_ideal_disagreements(quiver, rep, basis, window) == [], (quiver.arrows, window)


@pytest.mark.parametrize("quiver", [q for q in _CYCLIC if len(find_simple_cycle(q.values[0])) > 1])
def test_the_windowed_oracle_sees_a_closure_that_skips_an_arrow(monkeypatch, quiver):
    # On a loop the skipped product is the vertex's own matrix again, so
    # only cycles of length 2 or more can show the mutant.
    rep = cycle_module(quiver)
    skipped, exact = find_simple_cycle(quiver)[-1], Quiver.out_arrows
    monkeypatch.setattr(Quiver, "out_arrows", lambda self, v: [a for a in exact(self, v) if a is not skipped])
    basis = annihilator_basis(rep)
    monkeypatch.undo()
    assert _windowed_ideal_disagreements(quiver, rep, basis, _windows(quiver)[0]) != []


@pytest.mark.parametrize("quiver", _CYCLIC)
def test_the_windowed_oracle_sees_a_perturbed_cycle_arrow(quiver):
    # The first cycle arrow acts by 2, so a full turn tells q[n, s] from q[n, 0].
    rep = _arrow_by_two(cycle_module(quiver), QQ)
    assert _windowed_ideal_disagreements(quiver, rep, annihilator_basis(rep), _windows(quiver)[0]) != []


@pytest.mark.parametrize("dropped", range(9))
def test_the_rank_recheck_sees_a_basis_that_lacks_one_member(monkeypatch, dropped):
    # The echelon still holds the dropped member's row, so the closure
    # goes on as if it were there, but the basis does not span it.
    exact, admitted = linalg.Echelon.admit, []

    def lacking(self, row):
        if not exact(self, row):
            return False
        admitted.append(row)
        return len(admitted) != dropped + 1

    monkeypatch.setattr(linalg.Echelon, "admit", lacking)
    with pytest.raises(AssertionError, match="the Krylov basis does not span the path matrices"):
        annihilator_basis(cycle_module(TAILS))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("dropped", [0, 4, 8])
def test_the_rank_recheck_sees_a_member_swapped_for_a_dependent_one(monkeypatch, field, dropped):
    # One member leaves the basis (the echelon keeps its row) and the first
    # product the echelon rejects joins it: the basis keeps its size and
    # every product stays in its span, but it is not independent.
    exact, admitted, rejected = linalg.Echelon.admit, [], []

    def swapping(self, row):
        if exact(self, row):
            admitted.append(row)
            return len(admitted) != dropped + 1
        rejected.append(row)
        return len(rejected) == 1

    monkeypatch.setattr(linalg.Echelon, "admit", swapping)
    with pytest.raises(AssertionError, match="the Krylov basis does not span the path matrices"):
        annihilator_basis(cycle_module(TAILS, field), field)


def test_comodule_one_dimensional():
    one_ = QQ.one
    from quivercoalg.finite_dual import StructuredAlgebra
    from quivercoalg.linalg import SparseVector

    algebra = StructuredAlgebra(["v"], {("v", "v"): SparseVector({"v": one_})}, ["v"], QQ)
    module = LeftModule(algebra, 1, {"v": ((one_,),)})
    coaction = comodule_from_module(module)
    assert coaction.rho[0] == SparseVector({(0, "v"): one_})


def test_comodule_of_regular_module():
    q = named_quiver("single_arrow")
    algebra = structured_algebra(q)
    reg = regular_left_module(algebra)
    coaction = comodule_from_module(reg)
    back = module_from_comodule(coaction)
    for b in algebra.basis:
        assert back.action[b] == reg.action[b]


def test_comodule_roundtrip_random():
    rng = random.Random(9)
    for _ in range(20):
        algebra = random_structured_algebra(rng)
        module = random_left_module(rng, algebra)
        coaction = comodule_from_module(module)
        back = module_from_comodule(coaction)
        for b in algebra.basis:
            assert back.action[b] == module.action[b]


def test_module_from_comodule_refuses_a_corrupted_coaction():
    # Adding to one idempotent entry of a lawful coaction breaks its counit
    # law: the idempotents' actions no longer sum to the identity.
    rng = random.Random(4)
    refused = 0
    for _ in range(20):
        algebra = random_structured_algebra(rng)
        coaction = comodule_from_module(random_left_module(rng, algebra))
        if not coaction.dimension:
            continue
        rho = list(coaction.rho)
        i, j = rng.randrange(coaction.dimension), rng.randrange(coaction.dimension)
        e = rng.choice(algebra.idempotents)
        entries = dict(rho[j].items())
        entries[(i, e)] = entries.get((i, e), QQ.zero) + QQ.one
        rho[j] = SparseVector(entries)
        with pytest.raises(ValueError, match="not unital"):
            module_from_comodule(Coaction(algebra, coaction.dimension, rho))
        refused += 1
    assert refused >= 10


def test_regular_left_module_of_every_corpus_and_random_algebra():
    rng = random.Random(6)
    algebras = [structured_algebra(q) for q in corpus.acyclic_corpus()]
    algebras += [fia_structured_algebra(poset) for poset in corpus.poset_corpus()]
    algebras += [random_structured_algebra(rng) for _ in range(30)]
    for algebra in algebras:
        module = regular_left_module(algebra)
        assert module.dimension == len(algebra.basis)
        back = module_from_comodule(comodule_from_module(module))
        assert back.action == module.action


def test_left_module_is_always_checked():
    algebra = structured_algebra(named_quiver("single_arrow"))
    n = len(algebra.basis)
    zero = tuple(tuple(QQ.zero for _ in range(n)) for _ in range(n))
    action = {b: zero for b in algebra.basis}
    with pytest.raises(ValueError, match="not unital"):
        LeftModule(algebra, n, action)
    assert list(inspect.signature(LeftModule).parameters) == ["algebra", "dimension", "action"]
    with pytest.raises(TypeError):
        LeftModule(algebra, n, action, validate=False)


def test_representation_rejects_ragged_matrix():
    q = named_quiver("single_arrow")
    with pytest.raises(ValueError, match="ragged"):
        Representation(q, {"a": 2, "b": 2}, {"x": ((one(), one()), (one(),))})


def test_left_module_rejects_an_action_that_breaks_a_product():
    # Adding the action of (c0,c0) to that of (c0,c1) keeps the module
    # unital and the products into (c0,c1) intact, but (c0,c1)(c0,c0) = 0
    # now acts as the nonzero matrix of (c0,c0).
    algebra = fia_structured_algebra(named_poset("chain2"))
    action = dict(regular_left_module(algebra).action)
    arrow, vertex = ("c0", "c1"), ("c0", "c0")
    action[arrow] = tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(action[arrow], action[vertex])
    )
    n = len(algebra.basis)
    first_failure = None
    for a in algebra.basis:
        for b in algebra.basis:
            expected = [[QQ.zero] * n for _ in range(n)]
            for c, coeff in algebra.basis_product(a, b).items():
                for i in range(n):
                    for j in range(n):
                        expected[i][j] += coeff * action[c][i][j]
            if dense_mat_mul(action[a], action[b], QQ.zero) != tuple(map(tuple, expected)):
                first_failure = first_failure or f"action does not respect the product at ({a},{b})"
    assert first_failure == "action does not respect the product at (('c0', 'c1'),('c0', 'c0'))"
    with pytest.raises(ValueError) as info:
        LeftModule(algebra, n, action)
    assert str(info.value) == first_failure


def _fia4_regular_module():
    """The regular module of the 4-dimensional incidence algebra of a < b
    beside c."""
    return regular_left_module(fia_structured_algebra(Poset(["a", "b", "c"], [("a", "b")], name="ab_c")))


def test_left_module_refuses_a_dimension_below_its_matrices():
    # The 3 x 3 top-left blocks of the regular action are not read alone.
    regular = _fia4_regular_module()
    with pytest.raises(ValueError, match=r"is not a 3x3 matrix"):
        LeftModule(regular.algebra, regular.dimension - 1, regular.action)


def test_left_module_refuses_a_dimension_above_its_matrices():
    regular = _fia4_regular_module()
    with pytest.raises(ValueError, match=r"is not a 5x5 matrix"):
        LeftModule(regular.algebra, regular.dimension + 1, regular.action)


def test_left_module_refuses_an_action_that_misses_a_label():
    regular = _fia4_regular_module()
    for b in regular.algebra.basis:
        action = {c: m for c, m in regular.action.items() if c != b}
        with pytest.raises(ValueError, match=re.escape(f"the action of {b!r} is not a 4x4 matrix")):
            LeftModule(regular.algebra, regular.dimension, action)


def test_left_module_refuses_a_ragged_matrix_and_a_foreign_label():
    regular = _fia4_regular_module()
    b = regular.algebra.basis[-1]
    ragged = regular.action | {b: regular.action[b][:-1] + (regular.action[b][-1][:-1],)}
    with pytest.raises(ValueError, match=re.escape(f"the action of {b!r} is not a 4x4 matrix")):
        LeftModule(regular.algebra, regular.dimension, ragged)
    with pytest.raises(ValueError, match="a label that is not a basis label"):
        LeftModule(regular.algebra, regular.dimension, regular.action | {"z": regular.action[b]})


def _random_fia_coaction(seed):
    rng = random.Random(seed)
    return comodule_from_module(random_left_module(rng, fia_structured_algebra(corpus.random_poset(rng, 3))))


def test_module_from_comodule_refuses_an_entry_with_a_foreign_leg():
    # The entry was dropped, and the round trip passed on the other entries.
    for seed in range(10):
        coaction = _random_fia_coaction(seed)
        rho = list(coaction.rho)
        rho[0] = SparseVector(dict(rho[0].entries) | {(0, ("x", "y")): QQ.one})
        with pytest.raises(ValueError, match=re.escape("whose leg ('x', 'y') is not a basis label")):
            module_from_comodule(Coaction(coaction.algebra, coaction.dimension, rho))


def test_module_from_comodule_refuses_an_entry_with_an_index_out_of_range():
    for seed in range(10):
        coaction = _random_fia_coaction(seed)
        n, b = coaction.dimension, coaction.algebra.basis[0]
        for i in (n, -1):
            rho = list(coaction.rho)
            rho[-1] = SparseVector(dict(rho[-1].entries) | {(i, b): QQ.one})
            with pytest.raises(ValueError, match=re.escape(f"whose index is outside 0..{n - 1}")):
                module_from_comodule(Coaction(coaction.algebra, n, rho))


def test_module_from_comodule_refuses_a_coaction_with_the_wrong_number_of_rows():
    coaction = _random_fia_coaction(0)
    n = coaction.dimension
    for rho in (coaction.rho[:-1], coaction.rho + [SparseVector()]):
        with pytest.raises(ValueError, match=re.escape(f"the coaction has {len(rho)} rows, expected {n}")):
            module_from_comodule(Coaction(coaction.algebra, n, rho))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_random_base_change_matches_the_elementary_matrix_products(field):
    # Integer row and column operations in place give the same matrices,
    # read in the field, and take the same random draws, as the products
    # with elementary matrices.
    for seed in range(40):
        n = seed % 5 + 1
        ours, theirs = random.Random(seed), random.Random(seed)
        u, u_inv = (tuple(tuple(map(field.of, row)) for row in m) for m in corpus._random_base_change(ours, n))
        assert (u, u_inv) == elementary_base_change(theirs, n, field)
        assert mat_mul(u, u_inv) == mat_identity(n, field)
        assert ours.random() == theirs.random()
