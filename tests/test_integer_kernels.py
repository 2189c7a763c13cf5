"""The integer law kernel and the integer validators against their field-
scalar versions in ``helpers``.

Every table is a rescaled copy of a lawful one: basis element b becomes
λ_b·b, which keeps every law but makes the scalars non-integral over QQ.
Over GF(5) the scalars are residues.  Half the draws then corrupt one
entry.  Either way the integer code must give the same None or
``(law, label)``, or raise the same first ValueError, as the oracle.
The integer basis tables of quivers, posets and product quivers are
checked against the same tables in field scalars, unchanged and with one
count raised, one pair dropped or the counit 1 on a label that is not
grouplike.
"""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    field_basis_tables,
    fraction_check_coalgebra,
    fraction_check_comodule,
    fraction_check_morphism,
    fraction_validate_left_module,
    fraction_validate_structured,
    unchecked_left_module,
)
import quivercoalg
from quivercoalg import coalgebra, finite_dual, representation
from quivercoalg.coalgebra import CoalgElement, basis_tables, check_coalgebra, check_comodule, check_morphism
from quivercoalg.corpus import named_quiver, random_left_module, random_poset, random_quiver, random_structured_algebra
from quivercoalg.finite_dual import DualCoalgebra, StructuredAlgebra, structured_algebra
from quivercoalg.incidence import Poset, hasse_quiver, phi_embed
from quivercoalg.linalg import SparseVector
from quivercoalg.products import product_quiver
from quivercoalg.quiver import enumerate_paths
from quivercoalg.representation import LeftModule, regular_left_module
from quivercoalg.scalars import QQ, FieldError, PrimeField

FIELDS = st.sampled_from([QQ, PrimeField(5)])
SEEDS = st.integers(0, 2**32 - 1)


def _scalar(rng, field):
    """A nonzero scalar; over QQ most are not integers."""
    if field is QQ:
        return Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3, 7]))
    return field.of(rng.randint(1, 4))


def _base_coalgebra(rng, field):
    """(basis, Δ, ε) as dicts, of a path, incidence or dual coalgebra."""
    kind = rng.choice(["path", "incidence", "dual"])
    if kind == "dual":
        algebra = random_structured_algebra(rng, field=field)
        dual = DualCoalgebra(algebra, validate=False)
        return list(algebra.basis), dict(dual.delta_table), dict(dual.counit_table)
    if kind == "path":
        carrier = random_quiver(rng, 4, 5)
        basis = enumerate_paths(carrier, 2).paths
    else:
        carrier = random_poset(rng, 5)
        basis = carrier.intervals()
    delta, eps = field_basis_tables(carrier, field)
    return basis, {b: delta(b) for b in basis}, {b: eps(b) for b in basis}


def _rescale(delta, eps, lam):
    """Δ and ε on the basis λ_b·b."""
    return (
        {b: SparseVector({(x, y): c * lam[b] / (lam[x] * lam[y]) for (x, y), c in row.items()})
         for b, row in delta.items()},
        {b: value * lam[b] for b, value in eps.items()},
    )


def _rescaled_algebra(rng, field):
    """A random structured algebra on the basis λ_b·b, with λ = 1 on the
    idempotents so that they stay idempotent."""
    algebra = random_structured_algebra(rng, field=field)
    lam = {b: field.one if b in algebra.idempotents else _scalar(rng, field) for b in algebra.basis}
    mult = {
        (a, b): SparseVector({c: k * lam[a] * lam[b] / lam[c] for c, k in vec.items()})
        for (a, b), vec in algebra.mult.items()
    }
    return StructuredAlgebra(algebra.basis, mult, algebra.idempotents, field, algebra.name, validate=False)


def _corrupt_row(rng, field, table, new_keys):
    """Add a nonzero scalar to one entry (old or new) of one row."""
    label = rng.choice(list(table))
    entries = dict(table[label].entries)
    key = rng.choice(list(entries) + new_keys) if entries and rng.random() < 0.7 else rng.choice(new_keys)
    entries[key] = entries.get(key, field.zero) + _scalar(rng, field)
    table[label] = SparseVector(entries)


def _corrupt_scalar(rng, field, table):
    label = rng.choice(list(table))
    table[label] = table[label] + _scalar(rng, field)


@settings(max_examples=150, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_coalgebra_kernel_agrees_with_the_fraction_kernel(field, seed, corrupt):
    rng = random.Random(seed)
    basis, delta, eps = _base_coalgebra(rng, field)
    delta, eps = _rescale(delta, eps, {b: _scalar(rng, field) for b in basis})
    if corrupt:
        if rng.random() < 0.75:
            _corrupt_row(rng, field, delta, [(rng.choice(basis), rng.choice(basis)) for _ in range(3)])
        else:
            _corrupt_scalar(rng, field, eps)
    expected = fraction_check_coalgebra(basis, delta.__getitem__, eps.__getitem__)
    assert check_coalgebra(basis, delta.__getitem__, eps.__getitem__) == expected
    if not corrupt:
        assert expected is None


@settings(max_examples=150, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_comodule_kernel_agrees_with_the_fraction_kernel(field, seed, corrupt):
    rng = random.Random(seed)
    algebra = _rescaled_algebra(rng, field)
    module = random_left_module(rng, algebra)
    n = module.dimension
    # The module on the basis d_j·m_j: ρ(m_j) = Σ_i m_i ⊗ a_ij b* becomes
    # Σ_i m'_i ⊗ (d_j / d_i)·a_ij b*.
    d = [_scalar(rng, field) for _ in range(n)]
    rho = {
        j: SparseVector({(i, b): m[i][j] * d[j] / d[i] for b, m in module.action.items() for i in range(n) if m[i][j]})
        for j in range(n)
    }
    dual = DualCoalgebra(algebra, validate=False)
    delta, eps = dict(dual.delta_table), dict(dual.counit_table)
    if corrupt:
        basis = list(algebra.basis)
        which = rng.random()
        if which < 0.5:
            _corrupt_row(rng, field, rho, [(rng.randrange(n), rng.choice(basis)) for _ in range(3)])
        elif which < 0.8:
            _corrupt_row(rng, field, delta, [(rng.choice(basis), rng.choice(basis)) for _ in range(3)])
        else:
            _corrupt_scalar(rng, field, eps)
    tables = (range(n), rho.__getitem__, delta.__getitem__, eps.__getitem__)
    expected = fraction_check_comodule(*tables)
    assert check_comodule(*tables) == expected
    if not corrupt:
        assert expected is None


def _morphism_tables(rng, field):
    """(basis, f, source Δ and ε, target Δ and ε) of φ from a random poset's
    incidence coalgebra into its Hasse quiver's path coalgebra, or of the
    identity of a random coalgebra."""
    if rng.random() < 0.5:
        poset = random_poset(rng, 5)
        quiver = hasse_quiver(poset)
        basis = poset.intervals()
        f = {x: phi_embed(CoalgElement.unit(poset, x, field)).combo for x in basis}
        paths = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1)).paths
        delta, eps = field_basis_tables(poset, field)
        delta_t, eps_t = field_basis_tables(quiver, field)
        source = ({x: delta(x) for x in basis}, {x: eps(x) for x in basis})
        target = ({p: delta_t(p) for p in paths}, {p: eps_t(p) for p in paths})
    else:
        basis, delta, eps = _base_coalgebra(rng, field)
        f = {x: SparseVector({x: field.one}) for x in basis}
        source = target = (delta, eps)
    lam = {x: _scalar(rng, field) for x in source[0]}
    mu = {y: _scalar(rng, field) for y in target[0]}
    f = {x: SparseVector({y: c * lam[x] / mu[y] for y, c in row.items()}) for x, row in f.items()}
    return basis, f, _rescale(*source, lam), _rescale(*target, mu)


@settings(max_examples=150, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_morphism_kernel_agrees_with_the_fraction_kernel(field, seed, corrupt):
    rng = random.Random(seed)
    basis, f, (delta, eps), (delta_t, eps_t) = _morphism_tables(rng, field)
    if corrupt:
        targets = list(delta_t)
        which = rng.random()
        if which < 0.4:
            _corrupt_row(rng, field, f, [rng.choice(targets) for _ in range(3)])
        elif which < 0.6:
            _corrupt_row(rng, field, delta, [(rng.choice(basis), rng.choice(basis)) for _ in range(3)])
        elif which < 0.8:
            _corrupt_row(rng, field, delta_t, [(rng.choice(targets), rng.choice(targets)) for _ in range(3)])
        else:
            _corrupt_scalar(rng, field, rng.choice([eps, eps_t]))
    tables = (basis, f.__getitem__, delta.__getitem__, delta_t.__getitem__, eps.__getitem__, eps_t.__getitem__)
    expected = fraction_check_morphism(*tables)
    assert check_morphism(*tables) == expected
    if not corrupt:
        assert expected is None


def _integer_carrier(rng):
    """A random quiver, poset or product quiver, with a basis closed under
    the labels of its splits."""
    kind = rng.choice(["quiver", "poset", "product"])
    if kind == "poset":
        poset = random_poset(rng, 5)
        return poset, poset.intervals()
    carrier = random_quiver(rng, 4, 5) if kind == "quiver" else product_quiver(
        random_quiver(rng, 2, 3), random_quiver(rng, 2, 3))
    return carrier, enumerate_paths(carrier, 2).paths


def test_basis_tables_hold_only_integers():
    rng = random.Random(20)
    for _ in range(30):
        carrier, basis = _integer_carrier(rng)
        delta, eps = basis_tables(carrier)
        for label in basis:
            scale, row = delta(label)
            assert scale == 1 and row == {pair: 1 for pair in carrier.splits(label)}
            assert all(type(n) is int for n in row.values())
            assert eps(label) == (1, {0: 1} if carrier.is_grouplike(label) else {})


def _mutate(rng, carrier, basis, tables, field):
    """One mutant on the integer and the field tables alike (dicts over the
    basis): a count raised by one, a pair dropped, or the counit 1 on a
    label that is not grouplike (a raised count when there is none)."""
    (delta, eps), (field_delta, field_eps) = tables
    kind = rng.choice(["raise", "drop", "counit"])
    arrows = [b for b in basis if not carrier.is_grouplike(b)]
    if kind == "counit" and arrows:
        b = rng.choice(arrows)
        eps[b], field_eps[b] = (1, {0: 1}), field.one
        return
    b = rng.choice(basis)
    row = dict(delta[b][1])
    pair = rng.choice(list(row))
    if kind == "drop":
        del row[pair]
        field_delta[b] = SparseVector({k: c for k, c in field_delta[b].items() if k != pair})
    else:
        row[pair] += 1
        field_delta[b] = field_delta[b] + SparseVector({pair: field.one})
    delta[b] = (1, row)


@settings(max_examples=150, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_integer_basis_tables_agree_with_the_field_tables(field, seed, mutant):
    # The laws on the integer tables, and the identity (φ into the Hasse
    # quiver for a poset) as a morphism from them, against the oracle on
    # field tables.  A mutant goes into the source tables; it may still be
    # a coalgebra (Δ(xy) without x⊗y is one), but never makes the
    # injective map a morphism into the unmutated target.
    rng = random.Random(seed)
    carrier, basis = _integer_carrier(rng)
    integer, oracle = basis_tables(carrier), field_basis_tables(carrier, field)
    if mutant:
        integer, oracle = [({b: delta(b) for b in basis}, {b: eps(b) for b in basis}) for delta, eps in (integer, oracle)]
        _mutate(rng, carrier, basis, (integer, oracle), field)
        integer, oracle = [(delta.__getitem__, eps.__getitem__) for delta, eps in (integer, oracle)]
    expected = fraction_check_coalgebra(basis, *oracle)
    assert check_coalgebra(basis, *integer) == expected
    assert expected is None or mutant
    if isinstance(carrier, Poset):
        target = hasse_quiver(carrier)
        f = {x: phi_embed(CoalgElement.unit(carrier, x, field)).combo for x in basis}.__getitem__
    else:
        target, f = carrier, lambda x: SparseVector.unit(x, field)
    (delta, eps), (delta_t, eps_t) = integer, basis_tables(target)
    (field_delta, field_eps), (field_delta_t, field_eps_t) = oracle, field_basis_tables(target, field)
    expected = fraction_check_morphism(basis, f, field_delta, field_delta_t, field_eps, field_eps_t)
    assert check_morphism(basis, f, delta, delta_t, eps, eps_t) == expected
    assert (expected is None) == (not mutant)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_each_basis_table_mutant_is_caught_where_the_oracle_fails(field):
    quiver = named_quiver("line3")
    basis = enumerate_paths(quiver, 2).paths
    a, c, x = quiver.vertex_path("a"), quiver.vertex_path("c"), quiver.arrow_path("x")
    xy = quiver.path_from_labels(["x", "y"])
    row = {pair: 1 for pair in quiver.splits(xy)}
    mutants = [  # Δ(xy) or ε(x) changed, and the first failure
        ({xy: (1, {**row, (a, xy): 2})}, {}, ("coassociativity", xy)),
        ({xy: (1, {pair: n for pair, n in row.items() if pair != (xy, c)})}, {}, ("coassociativity", xy)),
        ({}, {x: (1, {0: 1})}, ("counit", x)),
    ]
    delta, eps = basis_tables(quiver)
    for delta_rows, eps_rows, failure in mutants:
        mutant = (lambda b: delta_rows.get(b) or delta(b), lambda b: eps_rows.get(b) or eps(b))
        oracle = (
            lambda b: SparseVector({pair: field.of(n) for pair, n in mutant[0](b)[1].items()}),
            lambda b: field.of(mutant[1](b)[1].get(0, 0)),
        )
        assert fraction_check_coalgebra(basis, *oracle) == failure
        assert check_coalgebra(basis, *mutant) == failure
    assert check_coalgebra(basis, delta, eps) is None


def _outcome(validate):
    try:
        validate()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_structured_algebra_validation_agrees_with_the_fraction_validator(field, seed, corrupt):
    rng = random.Random(seed)
    algebra = _rescaled_algebra(rng, field)
    mult = dict(algebra.mult)
    if corrupt:
        basis = list(algebra.basis)
        pair = (rng.choice(basis), rng.choice(basis))
        table = {pair: mult.get(pair, SparseVector())}
        _corrupt_row(rng, field, table, basis)
        mult[pair] = table[pair]
    unchecked = StructuredAlgebra(algebra.basis, mult, algebra.idempotents, field, validate=False)
    expected = _outcome(lambda: fraction_validate_structured(unchecked))
    assert _outcome(unchecked._validate) == expected
    if not corrupt:
        assert expected is None


@settings(max_examples=200, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_left_module_validation_agrees_with_the_fraction_validator(field, seed, corrupt):
    rng = random.Random(seed)
    algebra = _rescaled_algebra(rng, field)
    module = random_left_module(rng, algebra)
    n = module.dimension
    d = [_scalar(rng, field) for _ in range(n)]
    action = {b: [[m[i][j] * d[j] / d[i] for j in range(n)] for i in range(n)] for b, m in module.action.items()}
    if corrupt and n:
        b = rng.choice(list(algebra.basis))
        i, j = rng.randrange(n), rng.randrange(n)
        action[b][i][j] += _scalar(rng, field)
    unchecked = unchecked_left_module(algebra, n, {b: tuple(map(tuple, m)) for b, m in action.items()})
    expected = _outcome(lambda: fraction_validate_left_module(unchecked))
    assert _outcome(unchecked._validate) == expected
    if not corrupt:
        assert expected is None


@settings(max_examples=100, deadline=None)
@given(FIELDS, SEEDS, st.booleans())
def test_the_dual_integer_rows_are_the_kernel_conversion_of_its_field_rows(field, seed, rescaled):
    # The rows and counits that ``DualCoalgebra`` converts once are those a
    # kernel call converts from its field tables, with the same modulus, and
    # each stands for its field entries.
    rng = random.Random(seed)
    algebra = _rescaled_algebra(rng, field) if rescaled else random_structured_algebra(rng, field=field)
    dual = DualCoalgebra(algebra, validate=False)
    ints = coalgebra._IntegerTables()
    delta, counit = ints.table(dual.delta_table.__getitem__), ints.table(dual.counit_table.__getitem__, True)
    expected = {b: delta[b] for b in algebra.basis}, {b: counit[b] for b in algebra.basis}
    assert tuple(map(dict, dual.integer_tables)) == expected
    assert [(table.p, table.rational) for table in dual.integer_tables] == [(ints.p, ints.rational)] * 2
    assert ints.p == getattr(field, "p", 0)
    for field_table, integer in zip((dual.delta_table, dual.counit_table), dual.integer_tables):
        for b, value in field_table.items():
            entries = value.entries if isinstance(value, SparseVector) else {0: value}
            scale, row = integer[b]
            assert {k: c for k, n in row.items() if (c := field.of(n, scale))} == {k: c for k, c in entries.items() if c}


def test_a_module_over_a_prime_field_rereads_the_rational_rows_of_the_dual():
    # Over QQ, e + a with aa = a/5 is an algebra whose dual row of a* has
    # the scale 5.  A module over GF(5) whose coaction never reads that row
    # is still refused: the dual's rows count as read by the kernel call.
    one = QQ.one
    mult = {("e", "e"): {"e": one}, ("e", "a"): {"a": one}, ("a", "e"): {"a": one}, ("a", "a"): {"a": one / 5}}
    algebra = StructuredAlgebra(["e", "a"], {pair: SparseVector(row) for pair, row in mult.items()}, ["e"], QQ)
    gf5 = PrimeField(5)
    with pytest.raises(FieldError, match=re.escape("rational 1/5 has no residue mod 5")):
        LeftModule(algebra, 1, {"e": ((gf5.one,),), "a": ((gf5.zero,),)})


def test_rescaled_structures_need_both_denominators():
    # Non-integral structure constants (K > 1) and a non-integral module
    # (D > 1) that are lawful: an integer check that dropped either scale
    # would reject them.
    rng = random.Random(3)
    non_integral = {"K": 0, "D": 0}
    for _ in range(40):
        algebra = _rescaled_algebra(rng, QQ)
        algebra._validate()
        module = random_left_module(rng, algebra)  # validated on creation
        non_integral["K"] += any(c.denominator > 1 for vec in algebra.mult.values() for c in vec.entries.values())
        non_integral["D"] += any(x.denominator > 1 for m in module.action.values() for row in m for x in row)
        n = module.dimension
        rho = {j: SparseVector({(i, b): m[i][j] for b, m in module.action.items() for i in range(n) if m[i][j]})
               for j in range(n)}
        dual = DualCoalgebra(algebra)
        assert check_comodule(range(n), rho.__getitem__, dual.delta_table.__getitem__,
                              dual.counit_table.__getitem__) is None
    assert min(non_integral.values()) >= 10


def test_kernel_refuses_rows_of_two_moduli():
    quiver = named_quiver("single_arrow")
    basis = enumerate_paths(quiver, 1).paths
    delta5, eps5 = field_basis_tables(quiver, PrimeField(5))
    delta7 = field_basis_tables(quiver, PrimeField(7))[0]
    mixed = {b: (delta5 if i % 2 else delta7)(b) for i, b in enumerate(basis)}
    for check in (check_coalgebra, fraction_check_coalgebra):
        with pytest.raises(FieldError, match="mixed moduli 5 and 7"):
            check(basis, mixed.__getitem__, eps5)


_GF5 = PrimeField(5)


@pytest.mark.parametrize("delta_g, order", [
    # Δg = (1/5)·g⊗g, ε(g) = 5 holds every law over QQ and has no residue
    # mod 5; Δh = h⊗h in GF(5) fixes the modulus, read before or after it.
    ({("g", "g"): Fraction(1, 5)}, ["g", "h"]),
    ({("g", "g"): Fraction(1, 5)}, ["h", "g"]),
    # One row of both kinds, the rational read first.
    ({("g", "g"): Fraction(1, 5), ("g", "h"): _GF5.one}, ["g", "h"]),
], ids=["rational-row-first", "residue-row-first", "mixed-row"])
def test_kernel_refuses_a_rational_without_a_residue_in_any_order(delta_g, order):
    delta = {"g": SparseVector(delta_g), "h": SparseVector({("h", "h"): _GF5.one})}
    counit = {"g": Fraction(5), "h": _GF5.one}
    with pytest.raises(FieldError, match=re.escape("rational 1/5 has no residue mod 5")):
        check_coalgebra(order, delta.__getitem__, counit.__getitem__)


def test_left_module_refuses_actions_over_another_modulus():
    algebra = structured_algebra(named_quiver("single_arrow"), PrimeField(5))
    module = regular_left_module(algebra)
    gf7 = PrimeField(7)
    action = {b: tuple(tuple(gf7.of(x.value) for x in row) for row in m) for b, m in module.action.items()}
    with pytest.raises(FieldError, match="mixed moduli 5 and 7"):
        LeftModule(algebra, module.dimension, action)


def test_the_law_kernel_is_the_only_gate_of_the_validators(monkeypatch):
    # With the unit e, aa = b and ba = c but ab = 0 is not associative, and
    # adding a vertex's action to the arrow's breaks a product of the
    # regular module; both construct once the kernel accepts everything.
    basis = ["e", "a", "b", "c"]
    mult = {pair: SparseVector({x: QQ.one}) for x in basis for pair in (("e", x), (x, "e"))}
    mult.update({("a", "a"): SparseVector({"b": QQ.one}), ("b", "a"): SparseVector({"c": QQ.one})})
    algebra = structured_algebra(named_quiver("single_arrow"))
    action = dict(regular_left_module(algebra).action)
    arrow, vertex = algebra.basis[-1], algebra.basis[0]
    action[arrow] = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(action[arrow], action[vertex]))
    with pytest.raises(ValueError, match=re.escape("not associative at (a,a,a)")):
        StructuredAlgebra(basis, mult, ["e"], QQ)
    with pytest.raises(ValueError, match="does not respect the product"):
        LeftModule(algebra, len(algebra.basis), action)
    monkeypatch.setattr(finite_dual, "check_coalgebra", lambda *tables: None)
    monkeypatch.setattr(representation, "check_comodule", lambda *tables: None)
    StructuredAlgebra(basis, mult, ["e"], QQ)
    LeftModule(algebra, len(algebra.basis), action)


def test_only_the_law_kernels_use_the_integer_helpers():
    private = {"_integers", "_modulus", "_nonzero"}
    src = Path(quivercoalg.__file__).parent
    users = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            if private & set(names):
                users.add(path.stem)
    assert users == {"coalgebra"}
