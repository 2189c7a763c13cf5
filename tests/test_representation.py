import random
from fractions import Fraction

import pytest

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
from quivercoalg.linalg import mat_eq, mat_mul
from quivercoalg.quiver import enumerate_paths
from quivercoalg.representation import (
    LeftModule,
    ModuleData,
    Representation,
    annihilator_monomial_check,
    comodule_from_module,
    cycle_quotient_module,
    is_locally_nilpotent,
    module_from_comodule,
    module_from_rep,
    regular_left_module,
    rep_from_module,
)
from quivercoalg.scalars import QQ

from helpers import dense_mat_mul


def one():
    return Fraction(1)


def test_single_vertex_module():
    q = named_quiver("point")
    module = ModuleData(q, 1, {"a": ((one(),),)}, {})
    rep = rep_from_module(module)
    assert rep.dims == {"a": 1}


def test_regular_module_of_single_arrow():
    # Right regular module: the idempotent image at a vertex is spanned by
    # the paths ending there.
    q = named_quiver("single_arrow")
    algebra = structured_from_quiver(q)
    # Build the right regular module directly through action matrices.
    paths = list(algebra.basis)
    index = {p: i for i, p in enumerate(paths)}
    from quivercoalg.quiver import compose_paths

    def right_action_matrix(by):
        rows = []
        for p in paths:
            row = [Fraction(0)] * len(paths)
            result = compose_paths(p, by)
            if result is not None:
                row[index[result]] = Fraction(1)
            rows.append(tuple(row))
        return tuple(rows)

    vertex_action = {v: right_action_matrix(q.vertex_path(v)) for v in q.vertices}
    arrow_action = {a.label: right_action_matrix(q.arrow_path(a.label)) for a in q.arrows}
    module = ModuleData(q, 3, vertex_action, arrow_action)
    rep = rep_from_module(module)
    # Paths ending at a: {a}; ending at b: {b, x}.
    assert rep.dims == {"a": 1, "b": 2}


def test_zero_module():
    q = named_quiver("single_arrow")
    module = ModuleData(q, 0, {"a": (), "b": ()}, {"x": ()})
    rep = rep_from_module(module)
    assert rep.dims == {"a": 0, "b": 0}


def test_module_rep_roundtrip_on_random_representations():
    rng = random.Random(5)
    for _ in range(30):
        q = random_acyclic_quiver(rng, 4, 4)
        rep = random_representation(rng, q, 3)
        module = module_from_rep(rep)
        back = rep_from_module(module)
        assert back.dims == rep.dims
        for a in q.arrows:
            assert mat_eq(back.maps[a.label], rep.maps[a.label])


def test_path_action_composes():
    rng = random.Random(6)
    for _ in range(20):
        q = random_acyclic_quiver(rng, 4, 4)
        rep = random_representation(rng, q, 2)
        module = module_from_rep(rep)
        enum = enumerate_paths(q, 3)
        for p in enum.paths:
            if p.length < 2:
                continue
            left = module.path_action(p.prefix(1))
            right = module.path_action(p.suffix_from(1))
            assert mat_eq(mat_mul(left, right), module.path_action(p))


def test_vertex_path_action_is_projection():
    q = named_quiver("single_arrow")
    rep = Representation(q, {"a": 1, "b": 1}, {"x": ((one(),),)})
    module = module_from_rep(rep)
    va = module.vertex_action["a"]
    assert mat_eq(mat_mul(va, va), va)
    # x in V_a: x . a = x, x . b = 0
    vec = (one(), Fraction(0))
    from quivercoalg.linalg import vec_mat

    assert vec_mat(vec, module.vertex_action["a"]) == vec
    assert vec_mat(vec, module.vertex_action["b"]) == (Fraction(0), Fraction(0))


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
    module = module_from_rep(nonnil)
    verdict = annihilator_monomial_check(module, (one(),), 10)
    assert verdict.status == "no_up_to_bound"
    zero_vec = annihilator_monomial_check(module, (Fraction(0),), 10)
    assert zero_vec.status == "yes" and len(zero_vec.witness) == 0
    rng = random.Random(8)
    for _ in range(15):
        q = random_acyclic_quiver(rng, 4, 4)
        rep = random_representation(rng, q, 2)
        module = module_from_rep(rep)
        nil = is_locally_nilpotent(rep).locally_nilpotent
        bounded_no = 0
        for i in range(module.dimension):
            vector = tuple(one() if j == i else Fraction(0) for j in range(module.dimension))
            if annihilator_monomial_check(module, vector, 10).status != "yes":
                bounded_no += 1
        assert (bounded_no == 0) == nil


def test_cycle_quotient_dimensions_and_unit():
    for n in (1, 2, 3):
        module = cycle_quotient_module(n)
        assert module.dimension == n * n
    k1 = cycle_quotient_module(1)
    assert k1.arrow_action["x0"] == ((one(),),)


def test_cycle_quotient_not_locally_nilpotent():
    for n in (1, 2, 3):
        rep = rep_from_module(cycle_quotient_module(n))
        assert not is_locally_nilpotent(rep).locally_nilpotent


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
    coaction = comodule_from_module(reg)  # verifies coassociativity + counit
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


def test_representation_rejects_ragged_matrix():
    q = named_quiver("single_arrow")
    with pytest.raises(ValueError, match="ragged"):
        Representation(q, {"a": 2, "b": 2}, {"x": ((one(), one()), (one(),))})


def test_module_validation_rejects_bad_data():
    q = named_quiver("single_arrow")
    with pytest.raises(ValueError):
        # Vertex actions that do not sum to the identity.
        ModuleData(q, 1, {"a": ((one(),),), "b": ((one(),),)}, {"x": ((one(),),)})


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
