import inspect
import random
from fractions import Fraction

import pytest

from quivercoalg import corpus
from quivercoalg.corpus import (
    named_poset,
    named_quiver,
    random_acyclic_quiver,
    random_left_module,
    random_representation,
    random_structured_algebra,
)
from quivercoalg.finite_dual import structured_from_quiver
from quivercoalg.incidence import fia_structured_algebra
from quivercoalg.linalg import SparseVector, mat_identity, mat_mul
from quivercoalg.quiver import Quiver
from quivercoalg.representation import (
    LeftModule,
    Representation,
    annihilator_monomial_check,
    comodule_from_module,
    Coaction,
    cycle_quotient_module,
    is_locally_nilpotent,
    module_from_comodule,
    regular_left_module,
)
from quivercoalg.scalars import QQ, PrimeField

from helpers import dense_mat_mul, elementary_base_change


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
        assert is_locally_nilpotent(rep).locally_nilpotent
        checked += 1
    assert checked > 1000


def test_locally_nilpotent_loop_cases():
    loop = named_quiver("loop")
    nonnil = Representation(loop, {"v": 1}, {"x": ((one(),),)})
    verdict = is_locally_nilpotent(nonnil)
    assert not verdict.locally_nilpotent
    assert verdict.witness_path is not None and verdict.witness_path.length >= 1
    nil = Representation(loop, {"v": 1}, {"x": ((Fraction(0),),)})
    assert is_locally_nilpotent(nil).locally_nilpotent


def test_annihilator_check_agrees():
    loop = named_quiver("loop")
    nonnil = Representation(loop, {"v": 1}, {"x": ((one(),),)})
    verdict = annihilator_monomial_check(nonnil, (one(),), 10)
    assert verdict.status == "no_up_to_bound"
    zero_vec = annihilator_monomial_check(nonnil, (Fraction(0),), 10)
    assert zero_vec.status == "yes" and len(zero_vec.witness) == 0
    rng = random.Random(8)
    for _ in range(15):
        q = random_acyclic_quiver(rng, 4, 4)
        rep = random_representation(rng, q, 2)
        nil = is_locally_nilpotent(rep).locally_nilpotent
        bounded_no = 0
        total = rep.total_dimension()
        for i in range(total):
            vector = tuple(one() if j == i else Fraction(0) for j in range(total))
            if annihilator_monomial_check(rep, vector, 10).status != "yes":
                bounded_no += 1
        assert (bounded_no == 0) == nil


def test_annihilator_check_slices_the_total_space_by_vertex():
    # a -x-> b -y-> c with dims 1, 2, 1: the vector is nonzero at a and at b.
    q = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    zero = Fraction(0)
    rep = Representation(q, {"a": 1, "b": 2, "c": 1}, {"x": ((one(), zero),), "y": ((zero,), (one(),))})
    # e_a survives x but dies on x.y; the first basis vector of V_b dies on y.
    verdict = annihilator_monomial_check(rep, (one(), one(), zero, zero), 10)
    assert verdict.status == "yes"
    assert verdict.witness == sorted([q.vertex_path("a"), q.vertex_path("b"), q.arrow_path("x")],
                                     key=lambda p: p.sort_key)
    # The second basis vector of V_b survives y, which brings in c.
    verdict = annihilator_monomial_check(rep, (one(), zero, one(), zero), 10)
    assert verdict.status == "yes"
    assert set(verdict.witness) == {q.vertex_path(v) for v in "abc"} | {q.arrow_path("x"), q.arrow_path("y")}
    with pytest.raises(ValueError, match="length 3, expected 4"):
        annihilator_monomial_check(rep, (one(), zero, zero), 10)


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
        assert not is_locally_nilpotent(cycle_quotient_module(n)).locally_nilpotent


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
    algebra = structured_from_quiver(q)
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
    algebras = [structured_from_quiver(q) for q in corpus.acyclic_corpus()]
    algebras += [fia_structured_algebra(poset) for poset in corpus.poset_corpus()]
    algebras += [random_structured_algebra(rng) for _ in range(30)]
    for algebra in algebras:
        module = regular_left_module(algebra)
        assert module.dimension == len(algebra.basis)
        back = module_from_comodule(comodule_from_module(module))
        assert back.action == module.action


def test_left_module_is_always_checked():
    algebra = structured_from_quiver(named_quiver("single_arrow"))
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


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_random_base_change_matches_the_elementary_matrix_products(field):
    # Row and column operations in place give the same matrices, and take
    # the same random draws, as the products with elementary matrices.
    for seed in range(40):
        n = seed % 5 + 1
        ours, theirs = random.Random(seed), random.Random(seed)
        u, u_inv = corpus._random_base_change(ours, n, field)
        assert (u, u_inv) == elementary_base_change(theirs, n, field)
        assert mat_mul(u, u_inv) == mat_identity(n, field)
        assert ours.random() == theirs.random()
