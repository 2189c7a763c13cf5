import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivercoalg import linalg
from quivercoalg.coalgebra import check_coalgebra, subcoalgebra_span
from quivercoalg.linalg import (
    SparseVector,
    det2,
    difference_rank,
    kernel_of_map,
    label_sort_key,
    mat_eq,
    mat_mul,
    rank,
    rank1_decompose_2x2,
    rank1_factor_2x2,
    reducer,
    rref,
    solve_membership,
)
from quivercoalg.corpus import named_poset, named_quiver
from quivercoalg.finite_dual import maximal_ideal_in_kernel
from quivercoalg.incidence import fia_structured_algebra
from quivercoalg.quiver import enumerate_paths
from quivercoalg.scalars import QQ, FieldError, ModP, PrimeField

from helpers import (
    dense_mat_mul,
    dense_rank,
    eliminate,
    in_span,
    oracle_kernel_of_map,
    oracle_rank,
    oracle_rref,
    oracle_solve_membership,
    sparse_rows_to_dense,
)
from test_work_counts import benchmark_system

FIELDS = st.sampled_from([QQ, PrimeField(5)])


def sv(**entries):
    return SparseVector({k: Fraction(v) for k, v in entries.items()})


def test_repeated_labels_sum():
    assert SparseVector([("p", 1), ("p", 2)]) == SparseVector({"p": 3})
    assert SparseVector([("p", 1), ("q", 5), ("p", -1)]) == SparseVector({"q": 5})


# Few labels and small coefficients, so repeats and cancellations are common;
# GF(5) adds cancellations that do not happen over QQ.
@given(
    terms=st.lists(
        st.tuples(
            st.sampled_from(["p", "q", ("p", "q"), 3]),
            st.integers(-3, 3),
            st.integers(1, 3),
        ),
        max_size=12,
    ),
    field=st.sampled_from([QQ, PrimeField(5)]),
)
def test_summing_constructor_is_the_left_fold(terms, field):
    terms = [(label, field.of(num, den)) for label, num, den in terms]
    folded = SparseVector()
    for label, coeff in terms:
        folded = folded + SparseVector({label: coeff})
    built = SparseVector(terms)
    assert built == folded
    assert all(built.entries.values())


def test_solve_membership_zero_vector_empty_generators():
    assert solve_membership(SparseVector(), [], QQ) == []


def test_solve_membership_identity_case():
    g = sv(a=1, b=2)
    coeffs = solve_membership(g, [g], QQ)
    assert coeffs == [1]


def test_solve_membership_recombination():
    # Oracle: recombine the returned coefficients and compare exactly.
    e1me2 = sv(e1=1, e2=-1)
    e1pe2 = sv(e1=1, e2=1)
    e1 = sv(e1=1)
    target = sv(e1=1, e2=1)
    coeffs = solve_membership(target, [e1me2, e1pe2, e1], QQ)
    assert coeffs is not None
    recombined = SparseVector()
    for c, g in zip(coeffs, [e1me2, e1pe2, e1]):
        recombined = recombined + g.scale(c)
    assert recombined == target


def test_solve_membership_absent():
    assert solve_membership(sv(a=1), [sv(b=1)], QQ) is None


def test_solve_membership_needs_late_pivot():
    # Generators whose echelon form forces elimination of labels introduced
    # mid-reduction.
    g1 = sv(a=1, b=1)
    g2 = sv(b=1)
    coeffs = solve_membership(sv(a=1), [g1, g2], QQ)
    assert coeffs == [1, -1]


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
def test_difference_rank_is_the_dense_rank_of_the_differences(pairs):
    # Union-find merges against textbook elimination of the rows e_a - e_b
    # over QQ; repeated pairs, loops (a, a) and cycles included.
    rows = [[int(c == a) - int(c == b) for c in range(8)] for a, b in pairs]
    assert difference_rank(pairs) == dense_rank(rows)


def test_rref_is_canonical():
    rng = random.Random(5)
    labels = list("abcde")
    for _ in range(20):
        vectors = [
            SparseVector({l: Fraction(rng.randint(-2, 2)) for l in labels if rng.random() < 0.7})
            for _ in range(4)
        ]
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        mixed = [vectors[0] + vectors[1].scale(Fraction(3))] + vectors[1:]
        assert rref(vectors) == rref(shuffled)
        assert rref(vectors) == rref(mixed)


def test_kernel_of_map_annihilates():
    rng = random.Random(11)
    labels = list("abcd")
    images = {l: SparseVector({t: Fraction(rng.randint(-2, 2)) for t in "xy"}) for l in labels}
    kernel = kernel_of_map(labels, lambda l: images[l])
    for combo in kernel:
        acc = SparseVector()
        for l, c in combo.items():
            acc = acc + images[l].scale(c)
        assert acc.is_zero()
    # dimension count: dim ker = dim domain - rank of image rows
    assert len(kernel) == len(labels) - rank(list(images.values()))


def test_span_intersection():
    # span(A) ∩ span(B) is the A-side of the kernel of (a, b) -> a - b on the
    # two bases; here it is the line through x + y + z.
    a = [sv(x=1, y=1), sv(z=1)]
    b = [sv(x=1, y=1, z=1)]
    images = {("a", i): v for i, v in enumerate(a)} | {("b", j): v.scale(-1) for j, v in enumerate(b)}
    (combo,) = kernel_of_map(list(images), images.__getitem__)
    member = SparseVector((l, c * coeff) for (side, i), coeff in combo.items() if side == "a" for l, c in a[i].items())
    assert rref([member]) == [sv(x=1, y=1, z=1)]


def test_rank1_decompose_trivial_cases():
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    first, second = rank1_decompose_2x2(zero)
    assert first == zero and second == zero
    rank1 = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    first, second = rank1_decompose_2x2(rank1)
    assert first == rank1
    assert all(not x for row in second for x in row)


def test_rank1_decompose_identity():
    # Oracle: rank via determinant / dense elimination.
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    first, second = rank1_decompose_2x2(identity)
    assert det2(first) == 0 and det2(second) == 0
    assert dense_rank(list(map(list, first))) <= 1
    assert dense_rank(list(map(list, second))) <= 1
    total = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(first, second))
    assert total == identity


def test_rank1_decompose_1000_random_rational_matrices():
    rng = random.Random(2024)
    for _ in range(1000):
        m = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
            for _ in range(2)
        )
        first, second = rank1_decompose_2x2(m)
        assert det2(first) == 0
        assert det2(second) == 0
        total = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(first, second))
        assert total == m


def test_rank1_factor_outer_product():
    rng = random.Random(3)
    for _ in range(200):
        col = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        row = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        m = tuple(tuple(c * r for r in row) for c in col)
        ocol, orow = rank1_factor_2x2(m)
        rebuilt = tuple(tuple(c * r for r in orow) for c in ocol)
        assert rebuilt == m


def test_prime_field_mode():
    field = PrimeField(101)
    one = field.one
    g = SparseVector({"a": one, "b": field.of(2)})
    h = SparseVector({"b": one})
    coeffs = solve_membership(SparseVector({"a": field.of(3)}), [g, h], field)
    recombined = g.scale(coeffs[0]) + h.scale(coeffs[1])
    assert recombined == SparseVector({"a": field.of(3)})
    assert rank([g, h], field) == 2


def test_residues_and_rationals_do_not_mix_in_arithmetic():
    # Only PrimeField.of and PrimeField.parse turn a rational into a residue;
    # an int is a scalar of every field.
    gf5 = PrimeField(5)
    for mixed in (lambda: gf5.one + Fraction(1, 2), lambda: Fraction(1, 2) * gf5.one,
                  lambda: gf5.of(3) - Fraction(2), lambda: Fraction(3) / gf5.of(2)):
        with pytest.raises(FieldError, match="met a residue mod 5"):
            mixed()
    assert gf5.of(Fraction(1, 2)) == gf5.parse("1/2") == gf5.of(1, 2) == gf5.of(3)
    assert gf5.one + 2 == 2 + gf5.one == gf5.of(3)


def test_prime_field_powers():
    field = PrimeField(5)
    assert field.of(3) ** 0 == field.zero ** 0 == field.one
    assert field.zero ** 3 == field.zero
    assert [field.of(2) ** n for n in range(1, 6)] == [field.of(n) for n in (2, 4, 3, 1, 2)]


# ---------------------------------------------------------------------------
# Kernels against oracles: sparse dense-matrix products, the reducer, rref.
# Small entries make zeros common; some cases zero a whole row of the left
# factor and a whole column of the right one, and dimensions may be 0.
# ---------------------------------------------------------------------------


@st.composite
def matrix_pairs(draw):
    field = draw(FIELDS)
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(-2, 2).map(field.of)
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    if r and k and draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [field.zero] * k
    if k and c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in b:
            row[j] = field.zero
    return field, tuple(map(tuple, a)), tuple(map(tuple, b))


@given(matrix_pairs())
def test_mat_mul_matches_the_dense_oracle(case):
    field, a, b = case
    scalar = type(field.zero)
    if a and not b:  # an inner dimension 0: the right factor () has no width to give the product
        for multiply in (mat_mul, lambda a, b: dense_mat_mul(a, b, field.zero)):
            with pytest.raises(ValueError, match="has no known width"):
                multiply(a, b)
        return
    product = mat_mul(a, b)
    assert product == dense_mat_mul(a, b, field.zero)
    assert all(type(x) is scalar for row in product for x in row)


def test_mat_mul_rejects_shape_mismatch():
    one = QQ.one
    with pytest.raises(ValueError, match="shape mismatch 1x1 times 2x1"):
        mat_mul(((one,),), ((one,), (one,)))
    # A right factor with no rows is checked against the inner dimension too.
    with pytest.raises(ValueError, match=r"shape mismatch 1x1 times 0x\?"):
        mat_mul(((one,),), ())


def test_mat_mul_refuses_a_product_of_unknown_width():
    # 1x0 times 0x1 is the 1x1 zero, but () does not say it has one column:
    # returning the 1x0 matrix ((),) would be the wrong shape.
    with pytest.raises(ValueError, match=re.escape("1x0 times () has no known width")):
        mat_mul(((),), ())
    assert mat_mul((), ()) == () and mat_mul((), ((QQ.one,),)) == ()


def test_mat_eq_compares_values():
    one, zero = QQ.one, QQ.zero
    assert mat_eq(((one, zero),), ((one, zero),))
    assert not mat_eq(((one, zero),), ((one, one),))
    assert not mat_eq(((one,),), ((one,), (one,)))
    assert not mat_eq(((one,),), ((one, zero),))
    # Unequal as objects, equal as field elements: compared by difference.
    gf5 = PrimeField(5)
    assert mat_eq(((gf5.one, gf5.zero),), ((1, 0),))
    assert not mat_eq(((gf5.one,),), ((2,),))


LABELS = ["a", "b", "c", "d", ("a", 1), 2]


def vector_lists(field, max_size=6):
    coeff = st.integers(-2, 2).map(field.of)
    vector = st.dictionaries(st.sampled_from(LABELS), coeff, max_size=4).map(SparseVector)
    return st.lists(vector, max_size=max_size)


def field_and(*parts):
    """A field, then one draw of each strategy built from it."""
    return FIELDS.flatmap(lambda field: st.tuples(st.just(field), *(part(field) for part in parts)))


def _fresh_pivot_residue(v, basis):
    """Eliminate v against pivots found afresh from the basis rows."""
    pivots = {min(b.labels(), key=label_sort_key): b.entries for b in basis if b.entries}
    return eliminate(dict(v.entries), pivots)


@given(field_and(vector_lists, vector_lists))
def test_reducer_matches_fresh_pivot_elimination(case):
    field, generators, vectors = case
    basis = rref(generators, field)
    reduce = reducer(basis)
    leads = {min(b.labels(), key=label_sort_key) for b in basis}
    for v in vectors + generators + [SparseVector()]:
        residue = reduce(v)
        expected = _fresh_pivot_residue(v, basis)
        assert list(residue.items()) == list(expected.items())
        assert not leads & set(residue.labels())
        assert solve_membership(v - residue, generators, field) is not None
        assert in_span(v, basis) == residue.is_zero()


def test_reducer_clears_leads_smallest_first():
    # Clearing lead a appends c, then clearing lead b appends d; the residue
    # keeps that order, as the elimination with fresh pivots does.
    basis = rref([sv(a=1, c=1), sv(b=1, d=1)])
    residue = reducer(basis)(sv(b=1, a=1))
    assert list(residue.items()) == [("c", -1), ("d", -1)]
    assert not in_span(sv(b=1, a=1), basis) and in_span(sv(a=2, c=2), basis)


@given(field_and(vector_lists), st.randoms(use_true_random=False))
def test_rref_is_order_independent_and_matches_dense_rank(case, rnd):
    field, vectors = case
    basis = rref(vectors, field)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    assert rref(shuffled, field) == basis
    leads = [min(b.labels(), key=label_sort_key) for b in basis]
    assert leads == sorted(leads, key=label_sort_key) and len(set(leads)) == len(leads)
    for b, lead in zip(basis, leads):
        assert b.coeff(lead) == field.one
        assert not (set(leads) - {lead}) & set(b.labels())
    assert len(basis) == rank(vectors, field)
    if field is QQ:
        assert len(basis) == dense_rank(sparse_rows_to_dense(vectors, LABELS))


# ---------------------------------------------------------------------------
# The integer elimination kernel against the dict-row oracle of helpers,
# value for value and type for type.  Labels mix strings, ints, tuples and
# paths; rows may hold plain ints, repeat or be proportional to each other.
# ---------------------------------------------------------------------------


GF5 = PrimeField(5)
MIXED_LABELS = ["a", "b", 2, 7, ("a", 1), (("b",), 2)] + enumerate_paths(named_quiver("two_loops"), 2).paths[:5]


@st.composite
def systems(draw, max_rows=6):
    """A field and rows over it.  A row drawn "raw" holds plain ints, which
    every field reads as its own."""
    field = draw(FIELDS)
    labels = st.sampled_from(MIXED_LABELS)
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["fresh", "raw", "repeat", "multiple"]))
        if kind in ("repeat", "multiple") and rows:
            factor = field.of(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) if kind == "multiple" else 1
            rows.append(SparseVector({l: c * factor for l, c in draw(st.sampled_from(rows)).items()}))
            continue
        entries = draw(st.dictionaries(labels, st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=4))
        if kind == "raw":
            rows.append(SparseVector({l: num for l, (num, den) in entries.items()}))
        else:
            rows.append(SparseVector({l: field.of(num, den) for l, (num, den) in entries.items()}))
    return field, rows


def typed(vectors):
    return [{label: (type(c), c) for label, c in v.items()} for v in vectors]


@given(systems())
def test_rref_and_rank_match_the_oracle(case):
    field, rows = case
    assert typed(rref(rows, field)) == typed(oracle_rref(rows, field))
    assert rank(rows, field) == oracle_rank(rows, field)


@given(systems(), st.data())
def test_kernel_of_map_matches_the_oracle(case, data):
    field, rows = case
    # Some domain labels map to zero; the domain labels are paths or ints.
    domain = data.draw(st.sampled_from([list(range(len(rows) + 2)), MIXED_LABELS[6:]]))
    images = dict(zip(domain, rows + [SparseVector()] * len(domain)))
    kernel = kernel_of_map(domain, images.__getitem__, field)
    assert typed(kernel) == typed(oracle_kernel_of_map(domain, images.__getitem__, field))
    if field is QQ:  # the field kernel_of_map is told when none is named
        assert typed(kernel_of_map(domain, images.__getitem__)) == typed(kernel)


@given(systems(), st.data())
def test_solve_membership_matches_the_oracle(case, data):
    field, generators = case
    weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(generators), max_size=len(generators)))
    v = SparseVector((l, field.of(w) * c) for w, g in zip(weights, generators) for l, c in g.items())
    if data.draw(st.booleans()):
        v = v + SparseVector({data.draw(st.sampled_from(MIXED_LABELS)): field.one})
    coeffs = solve_membership(v, generators, field)
    expected = oracle_solve_membership(v, generators, field)
    assert (coeffs is None) == (expected is None)
    if coeffs is not None:
        assert [(type(c), c) for c in coeffs] == [(type(c), c) for c in expected]
        recombined = SparseVector((l, c * x) for c, g in zip(coeffs, generators) for l, x in g.items())
        assert recombined == SparseVector({l: field.of(c) for l, c in v.items()})


def test_exact_results_hold_field_scalars_only():
    # Plain-int input and all-zero images once gave Python floats.
    kernel = kernel_of_map(["a", "b"], lambda label: SparseVector())
    assert typed(kernel) == [{"a": (Fraction, 1)}, {"b": (Fraction, 1)}]
    assert typed(rref([SparseVector({"x": 2, "y": 3})])) == [{"x": (Fraction, 1), "y": (Fraction, Fraction(3, 2))}]
    images = [SparseVector({"x": 2, "y": 4}), SparseVector({"x": 3, "y": 6})]
    assert typed(kernel_of_map([0, 1], images.__getitem__)) == [{0: (Fraction, 1), 1: (Fraction, Fraction(-2, 3))}]
    assert rank(images) == 1
    assert [(type(c), c) for c in solve_membership(SparseVector({"a": 1}), [SparseVector({"a": 2})], QQ)] == [
        (Fraction, Fraction(1, 2))
    ]
    # The scalars are those of the field told, also of an all-zero map and
    # of plain-int generators.
    assert typed(kernel_of_map(["a"], lambda label: SparseVector(), GF5)) == [{"a": (ModP, GF5.one)}]
    assert solve_membership(SparseVector({"a": GF5.of(3)}), [SparseVector({"a": 1}), SparseVector({"b": 2})], GF5) == [
        GF5.of(3),
        GF5.zero,
    ]


def test_elimination_on_empty_input():
    assert rref([]) == [] and rank([]) == 0 and rref([SparseVector()]) == []
    assert kernel_of_map([], lambda label: SparseVector()) == []
    assert solve_membership(SparseVector(), [SparseVector()], QQ) == [0]


def test_mixed_moduli_raise_field_error():
    # Told GF(5), a residue mod 7 is refused, also after a rational, which
    # is read as its residue mod 5.
    for rows in ([SparseVector({"a": GF5.one}), SparseVector({"b": PrimeField(7).one})],
                 [SparseVector({"a": Fraction(1, 2)}), SparseVector({"a": GF5.one}),
                  SparseVector({"b": PrimeField(7).one})]):
        for call in (lambda: rref(rows, GF5), lambda: rank(rows, GF5), lambda: solve_membership(rows[0], rows[1:], GF5),
                     lambda: kernel_of_map(range(len(rows)), rows.__getitem__, GF5)):
            with pytest.raises(FieldError, match=re.escape("mixed moduli 5 and 7")):
                call()
    with pytest.raises(FieldError, match=re.escape("mixed moduli 5 and 7")):
        kernel_of_map(["a"], lambda label: rows[1], PrimeField(7))


def test_a_kernel_told_qq_refuses_a_residue():
    # A residue has no rational reading: FieldError where its denominator is
    # read, never an AttributeError, and never a second reading mod p.
    rows = [SparseVector({"a": Fraction(1, 2), "b": 3}), SparseVector({"b": GF5.of(2)})]
    delta = {"g": SparseVector({("g", "g"): GF5.one})}
    for call in (lambda: rref(rows), lambda: rank(rows, QQ), lambda: kernel_of_map([0, 1], rows.__getitem__, QQ),
                 lambda: solve_membership(rows[1], rows[:1], QQ), lambda: solve_membership(rows[0], rows[1:], QQ),
                 lambda: check_coalgebra(["g"], delta.__getitem__, {"g": QQ.one}.__getitem__, QQ),
                 lambda: check_coalgebra(["g"], {"g": SparseVector({("g", "g"): 1})}.__getitem__,
                                         {"g": GF5.one}.__getitem__, QQ)):
        with pytest.raises(FieldError, match=re.escape("mod 5 in a system over QQ")):
            call()


def test_rationals_without_a_residue_raise_field_error():
    # Over GF(5), 1/5 has no value: its denominator is 0 mod 5.
    rows = [SparseVector({"a": GF5.one}), SparseVector({"b": Fraction(1, 5)})]
    delta = {"g": SparseVector({("g", "g"): GF5.one, ("g", "h"): Fraction(1, 5)})}
    # The last images are rationals only: the field told alone calls for
    # the residues.
    for call in (lambda: rref(rows, GF5), lambda: rank(rows, GF5), lambda: kernel_of_map([0, 1], rows.__getitem__, GF5),
                 lambda: solve_membership(rows[0], rows[1:], GF5),
                 lambda: check_coalgebra(["g"], delta.__getitem__, {"g": GF5.one}.__getitem__, GF5),
                 lambda: kernel_of_map([0, 1], [SparseVector({"b": Fraction(1, 2)}), rows[1]].__getitem__, GF5)):
        with pytest.raises(FieldError, match="rational 1/5 has no residue mod 5"):
            call()


def test_rref_accepts_empty_and_repeated_rows():
    for field in (QQ, GF5):
        rows = [SparseVector(), SparseVector({"a": field.one, "b": field.of(2)}), SparseVector(),
                SparseVector({"a": field.one, "b": field.of(2)}), SparseVector({"b": field.of(4), "c": field.of(2)}),
                SparseVector({"a": field.of(2), "b": field.of(4)}), SparseVector()]
        assert typed(rref(rows, field)) == typed(oracle_rref(rows, field))
        assert len(rref(rows, field)) == rank(rows, field) == 2
    assert rref([SparseVector()] * 3) == []


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("n", [25, 50, 100])
def test_benchmark_systems_match_the_oracles(n, field):
    rows = benchmark_system(n, field, random.Random(-n))
    # Every row of such a system is peeled; sums of row pairs stop that, so
    # rank and kernel_of_map also eliminate and the kernel is not empty.
    pairs = random.Random(n)
    summed = rows + [rows[i] + rows[j] for i, j in (pairs.sample(range(n), 2) for _ in range(n // 5))]
    for system in (rows, summed):
        assert typed(rref(system, field)) == typed(oracle_rref(system, field))
        assert rank(system, field) == oracle_rank(system, field)
        domain = range(len(system))
        assert typed(kernel_of_map(domain, system.__getitem__, field)) == typed(
            oracle_kernel_of_map(domain, system.__getitem__, field))


_INTS = st.integers(-9, 9)
_PAIRS = st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]))
_LABELS = st.one_of(_INTS, st.booleans(), st.sampled_from(["a", "b", "ab", "10"]), _PAIRS,
                    st.sampled_from(enumerate_paths(named_quiver("two_loops"), 3).paths))


@given(st.sets(_LABELS, max_size=12) | st.sets(_INTS | _PAIRS))
def test_rank_labels_ranks_in_label_sort_key_order(labels):
    # Mixed sets: ints of both signs (and bools, which are not plain ints),
    # strings, tuples of strings and paths of lengths 0 to 3; the second
    # strategy mixes ints with tuples alone.
    expected = {label: rank for rank, label in enumerate(sorted(labels, key=label_sort_key))}
    assert linalg._rank_labels(labels) == expected


# ---------------------------------------------------------------------------
# Peeling.  rank, kernel_of_map and solve_membership drop a row that alone
# holds a label before they eliminate.  These inputs make it work: stairs
# that peel one step at a time, repeated rows and zero images, entries that
# vanish mod p and bad scalars in rows that peeling would drop.
# ---------------------------------------------------------------------------


@st.composite
def staircases(draw):
    """A field and rows: a core from ``systems``, zero rows, and the stair
    x0 + c1 x1, ..., x(k-1) + ck xk whose top label only its last step
    holds, so each peel exposes the next step; x0 may be a core label.  A
    step's entry may be a plain int that is 0 mod 5, an entry over QQ and
    none over GF(5).  The rows come shuffled."""
    field, core = draw(systems(max_rows=4))
    steps = draw(st.integers(1, 6))
    stair = [("stair", i) for i in range(steps + 1)]
    if draw(st.booleans()):
        stair[0] = draw(st.sampled_from(MIXED_LABELS))
    coeff = st.one_of(st.integers(-3, 3).filter(bool).map(field.of), st.sampled_from([5, -10]))
    rows = core + [SparseVector({stair[i]: draw(coeff), stair[i + 1]: draw(coeff)}) for i in range(steps)]
    rows += [SparseVector()] * draw(st.integers(0, 2))
    return field, draw(st.permutations(rows))


@given(staircases(), st.data())
def test_peeled_systems_match_the_oracles(case, data):
    field, rows = case
    assert rank(rows, field) == oracle_rank(rows, field)
    domain = list(range(len(rows)))
    kernel = kernel_of_map(domain, rows.__getitem__, field)
    assert typed(kernel) == typed(oracle_kernel_of_map(domain, rows.__getitem__, field))
    # v holds the labels of its combination, and at times one more label
    # (the stair's top one among them), which no peel may then go through.
    weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    v = SparseVector((l, field.of(w) * c) for w, g in zip(weights, rows) for l, c in g.items())
    labels = list(dict.fromkeys(l for g in rows for l in g.labels()))
    if labels and data.draw(st.booleans()):
        v = v + SparseVector({data.draw(st.sampled_from(labels)): field.one})
    coeffs = solve_membership(v, rows, field)
    expected = oracle_solve_membership(v, rows, field)
    assert coeffs == expected and [type(c) for c in coeffs or []] == [type(c) for c in expected or []]


def test_staircase_peels_one_step_at_a_time():
    # Only the last step holds x4; peeling it leaves x3 to one step, and so
    # on down to x0, which the two core rows share.  They are proportional.
    steps = [SparseVector({f"x{i}": Fraction(1), f"x{i + 1}": Fraction(i + 2)}) for i in range(4)]
    rows = steps[::-1] + [sv(x0=1), sv(x0=-2)]
    assert rank(rows) == 5
    assert kernel_of_map(range(6), rows.__getitem__) == [SparseVector({4: Fraction(1), 5: Fraction(1, 2)})]
    assert solve_membership(sv(x0=3), rows, QQ) == [0, 0, 0, 0, 3, 0]
    # With x4 held by v, no step is peeled and the stair is solved for.
    assert solve_membership(sv(x0=1, x4=5), rows, QQ) == [1, Fraction(-1, 4), Fraction(1, 12), Fraction(-1, 24),
                                                      Fraction(25, 24), 0]


def test_repeated_rows_and_zero_images_are_never_peeled():
    # Repeated rows share every label and zero images hold none, so both
    # stay in the system; the kernel holds their relations.
    rows = [sv(a=1, b=2), sv(a=1, b=2), SparseVector(), sv(b=1, c=1)]
    assert rank(rows) == 2
    assert kernel_of_map(range(4), rows.__getitem__) == [SparseVector({0: Fraction(1), 1: Fraction(-1)}),
                                                         SparseVector({2: Fraction(1)})]
    assert solve_membership(sv(a=2, b=4), rows, QQ) == [2, 0, 0, 0]
    assert kernel_of_map(["a", "b"], lambda label: SparseVector()) == [sv(a=1), sv(b=1)]


def test_peeling_reads_entries_after_conversion():
    # 5 is zero mod 5, so over GF(5) the first row holds only a and is twice
    # the second: neither may be peeled through x.
    rows = [sv(x=5, a=2), sv(a=1)]
    assert typed(kernel_of_map([0, 1], rows.__getitem__, GF5)) == [{0: (ModP, GF5.one), 1: (ModP, GF5.of(-2))}]
    assert rank(rows + [SparseVector({"b": GF5.one})], GF5) == 2
    assert solve_membership(SparseVector({"a": GF5.one}), rows[:1], GF5) == [GF5.of(3)]


def test_bad_scalars_raise_in_rows_that_peeling_would_drop():
    # x alone would peel the first row, but every scalar is read first.
    for bad, message in ((Fraction(1, 5), "rational 1/5 has no residue mod 5"),
                         (PrimeField(7).one, "mixed moduli 5 and 7")):
        rows = [SparseVector({"x": bad, "a": Fraction(1)}), SparseVector({"a": GF5.one})]
        for call in (lambda: rank(rows, GF5), lambda: kernel_of_map([0, 1], rows.__getitem__, GF5),
                     lambda: solve_membership(rows[1], rows[:1], GF5)):
            with pytest.raises(FieldError, match=message):
                call()


# ---------------------------------------------------------------------------
# The field boundary.  Every kernel is told its field and reads each vector
# once, with that field's characteristic; no scan finds the field from the
# scalars.  Told QQ, a residue is refused in that pass; told GF(p), a rational
# is read as its residue.  Each output scalar is built once per (lead value,
# numerator).  These pin every way into and out of the integer kernel
# against its earlier form: ``_reference_converted`` keeps the scan that found
# the field, and the told reading agrees with it wherever that scan finds
# the field told.
# ---------------------------------------------------------------------------


def test_rationals_before_a_residue_are_read_mod_p():
    # 1/2 is 3 mod 5 and 3/4 is 2 mod 5: told GF(5), the rational rows
    # before the residue are read mod 5 in the one pass.
    rows = [SparseVector({"a": Fraction(1, 2), "b": Fraction(3, 4)}), SparseVector({"b": 4, "c": Fraction(1, 3)}),
            SparseVector({"a": GF5.one, "c": GF5.of(2)})]
    field_rows = [SparseVector({label: GF5.of(c) if isinstance(c, ModP) else GF5.of(c.numerator, c.denominator)
                                for label, c in v.items()}) for v in rows]
    assert typed(rref(rows, GF5)) == typed(oracle_rref(field_rows, GF5))
    assert rank(rows, GF5) == oracle_rank(field_rows, GF5)
    assert typed(kernel_of_map([0, 1, 2], rows.__getitem__, GF5)) == typed(
        oracle_kernel_of_map([0, 1, 2], field_rows.__getitem__, GF5))
    assert solve_membership(rows[2], rows[:2], GF5) == oracle_solve_membership(field_rows[2], field_rows[:2], GF5)


_STRS = st.text(alphabet="ab(),' 10", max_size=3)
_STR_TUPLES = st.lists(_STRS, max_size=3).map(tuple)
_OTHER_PARTS = st.one_of(_INTS, st.booleans(), st.sampled_from(enumerate_paths(named_quiver("line3"), 2).paths))


@given(st.lists(_STR_TUPLES, max_size=14, unique=True)
       | st.tuples(st.lists(_STR_TUPLES, min_size=1, max_size=8, unique=True),
                   st.one_of(_OTHER_PARTS, st.tuples(_STRS, _OTHER_PARTS), st.just(()))).map(
           lambda pair: pair[0] + [pair[1]]),
       st.randoms(use_true_random=False))
def test_rank_labels_ranks_string_tuples_in_label_sort_key_order(labels, rnd):
    # Tuples of strings of mixed lengths, the empty tuple among them, in any
    # order; then sets with one label that is no tuple of strs (an int, a
    # bool, a path, a tuple holding one of those) or the empty tuple.  A
    # ranking by str(label) differs wherever a prefix and its extension
    # meet: str(("a",)) sorts after str(("a", "b")).
    labels = list(dict.fromkeys(labels))
    rnd.shuffle(labels)
    expected = {label: rank for rank, label in enumerate(sorted(labels, key=label_sort_key))}
    assert linalg._rank_labels(labels) == expected


def _reference_reduced_rows(pivots, p, labels, offset=0):
    """The output stage as it was before the per-lead memo: one scalar per
    distinct (entry, lead) pair from a global table."""
    leads = sorted(pivots)
    for lead in reversed(leads):
        pivots[lead] = linalg._reduce(pivots.pop(lead), pivots, p)
    scalars = {(c, d): ModP(p, c) if p else Fraction(c, d)
               for c, d in {(c, row[lead]) for lead, row in pivots.items() for c in row.values()}}
    basis = []
    for lead in leads:
        row = pivots[lead]
        vec = SparseVector()
        vec.entries = {labels[k - offset]: scalars[c, row[lead]] for k, c in row.items()}
        basis.append(vec)
    return basis


def _reference_converted(vectors, field=None):
    """The conversion as it was when the kernels found their field: one scan
    of every scalar (and of ``field``, when it is a prime field) for the
    moduli, then each vector read with the modulus found, 0 for none."""
    moduli = {c.p for v in vectors for c in v.entries.values() if isinstance(c, ModP)}
    moduli.update([field.p] if field is not None and field.p else [])
    if len(moduli) > 1:
        raise FieldError(f"mixed moduli {' and '.join(map(str, sorted(moduli)))}")
    p = moduli.pop() if moduli else 0
    return p, [linalg._integers(v.entries, p) for v in vectors]


@given(systems())
def test_the_told_reading_agrees_with_the_scan_it_replaced(case):
    # Told the field of its scalars, every system is read as the scan read
    # it; told QQ, a system that holds a residue is refused instead.
    field, rows = case
    assert [linalg._integers(v.entries, field.p) for v in rows] == _reference_converted(rows, field)[1]
    p, found = _reference_converted(rows)
    if p:
        with pytest.raises(FieldError, match="in a system over QQ"):
            [linalg._integers(v.entries, 0) for v in rows]
    else:
        assert [linalg._integers(v.entries, 0) for v in rows] == found


def _shape(basis):
    """Each vector's entries in iteration order, and for every entry the
    position of the first entry holding the same scalar object."""
    entries = [(label, c) for v in basis for label, c in v.items()]
    first = {}
    return ([list(v.items()) for v in basis],
            [first.setdefault(id(c), i) for i, (_, c) in enumerate(entries)])


def _finite_dual_calls():
    """rref and kernel_of_map on the finite-dual benchmark's systems, and
    on its chain incidence algebras the closure's span (an rref over
    intervals) and the maximal ideal in the kernel."""
    calls = []
    for n in (25, 50, 100):
        rows = benchmark_system(n, QQ, random.Random(n))
        summed = rows + [rows[i] + rows[j] for i, j in (random.Random(-n).sample(range(n), 2) for _ in range(n // 5))]
        calls += [lambda r=rows: rref(r), lambda r=summed: rref(r),
                  lambda r=summed: kernel_of_map(range(len(r)), r.__getitem__)]
    for n in (3, 4, 5, 6, 7):
        chain = named_poset(f"chain{n}")
        values = random.Random(n)
        f = SparseVector({b: Fraction(values.choice((-3, -1, 2, 5)), values.randint(1, 3))
                          for b in [(x, x) for x in chain.elements] + chain.covers()})
        fia = fia_structured_algebra(chain)
        calls += [lambda a=fia, f=f: subcoalgebra_span([f], a.dual().comultiply, a.field),
                  lambda a=fia, f=f: maximal_ideal_in_kernel(a, f)]
    return calls


def test_finite_dual_outputs_keep_their_entry_order_and_scalar_sharing(monkeypatch):
    got = [_shape(call()) for call in _finite_dual_calls()]
    monkeypatch.setattr(linalg, "_reduced_rows", _reference_reduced_rows)
    monkeypatch.setattr(linalg, "_rank_labels",
                        lambda labels: {label: r for r, label in enumerate(sorted(labels, key=label_sort_key))})
    assert got == [_shape(call()) for call in _finite_dual_calls()]
    assert sum(len(sharing) for _, sharing in got) > 1000
