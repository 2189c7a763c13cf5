import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quivercoalg.linalg import (
    SparseVector,
    codimension_of_span,
    det2,
    kernel_of_map,
    mat_rank,
    rank,
    rank1_decompose_2x2,
    rank1_factor_2x2,
    rref,
    solve_membership,
    span_intersection,
    spans_equal,
)
from quivercoalg.scalars import QQ, PrimeField

from helpers import dense_rank, sparse_rows_to_dense


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
    assert solve_membership(SparseVector(), []) == []


def test_solve_membership_identity_case():
    g = sv(a=1, b=2)
    coeffs = solve_membership(g, [g])
    assert coeffs == [1]


def test_solve_membership_recombination():
    # Oracle: recombine the returned coefficients and compare exactly.
    e1me2 = sv(e1=1, e2=-1)
    e1pe2 = sv(e1=1, e2=1)
    e1 = sv(e1=1)
    target = sv(e1=1, e2=1)
    coeffs = solve_membership(target, [e1me2, e1pe2, e1])
    assert coeffs is not None
    recombined = SparseVector()
    for c, g in zip(coeffs, [e1me2, e1pe2, e1]):
        recombined = recombined + g.scale(c)
    assert recombined == target


def test_solve_membership_absent():
    assert solve_membership(sv(a=1), [sv(b=1)]) is None


def test_solve_membership_needs_late_pivot():
    # Generators whose echelon form forces elimination of labels introduced
    # mid-reduction.
    g1 = sv(a=1, b=1)
    g2 = sv(b=1)
    coeffs = solve_membership(sv(a=1), [g1, g2])
    assert coeffs == [1, -1]


def test_codimension_trivial_cases():
    assert codimension_of_span([], ["a", "b", "c", "d", "e"]) == 5
    basis = [sv(a=1), sv(b=1), sv(c=1)]
    assert codimension_of_span(basis, ["a", "b", "c"]) == 0


def test_codimension_outside_ambient_is_error():
    with pytest.raises(ValueError):
        codimension_of_span([sv(z=1)], ["a"])


def test_codimension_matches_dense_oracle_on_random_spans():
    rng = random.Random(7)
    labels = list("abcdef")
    for _ in range(30):
        vectors = []
        for _ in range(rng.randint(0, 6)):
            vectors.append(
                SparseVector({l: Fraction(rng.randint(-3, 3)) for l in labels if rng.random() < 0.6})
            )
        expected = len(labels) - dense_rank(sparse_rows_to_dense([v for v in vectors], labels))
        assert codimension_of_span(vectors, labels) == expected


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
        assert spans_equal(vectors, mixed)


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
    a = [sv(x=1, y=1), sv(z=1)]
    b = [sv(x=1, y=1, z=1)]
    inter = span_intersection(a, b)
    assert len(inter) == 1
    assert inter[0] == sv(x=1, y=1, z=1)


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
    coeffs = solve_membership(SparseVector({"a": field.of(3)}), [g, h])
    recombined = g.scale(coeffs[0]) + h.scale(coeffs[1])
    assert recombined == SparseVector({"a": field.of(3)})
    assert rank([g, h]) == 2


def test_rank_agrees_with_mat_rank():
    rows = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)), (Fraction(0), Fraction(1)))
    assert mat_rank(rows) == dense_rank([list(r) for r in rows]) == 2
