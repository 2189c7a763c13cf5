import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercoalg.corpus import enumerate_posets_up_to_iso, named_poset, poset_corpus, random_poset, random_scalar
from quivercoalg.dual import CertificateWindow, Functional, RationalCertificate
from quivercoalg.incidence import (
    Poset,
    fia_structured_algebra,
    hasse_quiver,
    incidence_dual_recovery_check,
    incidence_semiperfect_check,
    phi_embed,
    phi_image_check,
    phi_table,
)
from quivercoalg.algebra import multiply
from quivercoalg.coalgebra import CoalgElement, comultiply, counit
from quivercoalg.linalg import SparseVector, rank
from quivercoalg.quiver import Family, check_unique_path_condition, enumerate_paths
from quivercoalg.scalars import QQ, PrimeField

from helpers import brute_force_posets_up_to_iso, dense_convolve, fixpoint_order_closure, path_sum_phi_embed


def test_poset_construction_validates():
    with pytest.raises(ValueError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        Poset(["a"], [("a", "z")])
    chain = named_poset("chain3")
    assert ("c0", "c2") in chain.leq
    assert ("c2", "c0") not in chain.leq


@given(st.integers(1, 7), st.data())
def test_order_closure_matches_the_fixpoint_of_all_pairs_passes(n, data):
    # Any relation on n elements, so loops, repeats, shortcuts and cycles
    # all occur; the closure must be the fixpoint's, and a cycle is refused
    # with its least pair in label order.
    elements = [f"e{i}" for i in range(n)]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(elements), st.sampled_from(elements)), max_size=12))
    leq = fixpoint_order_closure(elements, pairs)
    both_ways = sorted((x, y) for x, y in leq if x != y and (y, x) in leq)
    if both_ways:
        x, y = both_ways[0]
        with pytest.raises(ValueError, match=f"^antisymmetry fails: {x} and {y} are comparable both ways$"):
            Poset(elements, pairs)
    else:
        assert Poset(elements, pairs).leq == frozenset(leq)


def test_long_chain_closure():
    n = 60
    chain = Poset([f"c{i:02d}" for i in range(n)], [(f"c{i:02d}", f"c{i + 1:02d}") for i in range(n - 1)])
    assert len(chain.leq) == n * (n + 1) // 2
    assert chain.leq == frozenset(fixpoint_order_closure(chain.elements, [(x, y) for x, y in chain.leq]))


def test_interval_and_cover_structure():
    diamond = named_poset("diamond")
    assert len(diamond.intervals()) == 9  # 4 points + 4 covers + the long interval
    assert len(diamond.covers()) == 4
    assert sorted(diamond.closed_interval("0", "1")) == ["0", "1", "x", "y"]


def test_comultiply_grouplike_interval():
    p = named_poset("chain2")
    e = CoalgElement.unit(p, ("c0", "c0"))
    tensor = comultiply(e)
    assert tensor == SparseVector({(("c0", "c0"), ("c0", "c0")): Fraction(1)})
    assert counit(e) == 1


def test_comultiply_cover_and_chain():
    p = named_poset("chain3")
    cover = CoalgElement.unit(p, ("c0", "c1"))
    tensor = comultiply(cover)
    assert tensor == SparseVector(
        {
            (("c0", "c0"), ("c0", "c1")): Fraction(1),
            (("c0", "c1"), ("c1", "c1")): Fraction(1),
        }
    )
    assert counit(cover) == 0
    long = CoalgElement.unit(p, ("c0", "c2"))
    terms = comultiply(long)
    assert len(terms.entries) == 3
    assert terms.coeff((("c0", "c1"), ("c1", "c2"))) == Fraction(1)


def test_hasse_quiver_examples():
    antichain = named_poset("antichain3")
    assert len(hasse_quiver(antichain).arrows) == 0
    chain = named_poset("chain3")
    assert len(hasse_quiver(chain).arrows) == 2
    diamond = named_poset("diamond")
    assert len(hasse_quiver(diamond).arrows) == 4


def test_phi_examples():
    diamond = named_poset("diamond")
    point = phi_embed(CoalgElement.unit(diamond, ("0", "0")))
    assert str(point) == "[0]"
    long = phi_embed(CoalgElement.unit(diamond, ("0", "1")))
    assert len(long.combo.entries) == 2  # both branch paths
    chain = named_poset("chain2")
    cover = phi_embed(CoalgElement.unit(chain, ("c0", "c1")))
    assert len(cover.combo.entries) == 1


def test_poset_enumeration_matches_the_all_relabelings_oracle():
    # Same classes, same first-seen representatives, same order.
    def shape(posets):
        return [(p.name, p.elements, p.leq) for p in posets]

    assert shape(enumerate_posets_up_to_iso(5)) == shape(brute_force_posets_up_to_iso(5))


def test_poset_class_counts():
    posets = enumerate_posets_up_to_iso(7)
    counts = [sum(1 for p in posets if len(p.elements) == n) for n in range(1, 8)]
    assert counts == [1, 2, 5, 16, 63, 318, 2045]


@pytest.mark.parametrize("max_elements", [0, -1])
def test_poset_enumeration_below_one_element_is_empty(max_elements):
    # It used to return the one-element poset.
    assert enumerate_posets_up_to_iso(max_elements) == []


def test_phi_is_coalgebra_morphism_and_injective_small():
    for poset in enumerate_posets_up_to_iso(4):
        images = []
        for (x, y) in poset.intervals():
            e = CoalgElement.unit(poset, (x, y))
            img = phi_embed(e)
            images.append(img.combo)
            lhs = comultiply(img)
            rhs = SparseVector()
            for (iv1, iv2), coeff in comultiply(e).items():
                a = phi_embed(CoalgElement(poset, SparseVector({iv1: coeff})))
                b = phi_embed(CoalgElement(poset, SparseVector({iv2: Fraction(1)})))
                for p1, c1 in a.combo.items():
                    for p2, c2 in b.combo.items():
                        rhs = rhs + SparseVector({(p1, p2): c1 * c2})
            assert lhs == rhs
            assert counit(img) - counit(e) == 0
        assert rank(images) == len(poset.intervals())
        quiver = hasse_quiver(poset)
        surjective = rank(images) == len(enumerate_paths(quiver, len(quiver.vertices)).paths)
        assert surjective == check_unique_path_condition(quiver)


def test_convolution_identity_and_units():
    p = named_poset("diamond")
    delta = CoalgElement(p, SparseVector({(x, x): Fraction(1) for x in p.elements}))
    rng = random.Random(1)
    values = {iv: Fraction(rng.randint(-3, 3)) for iv in p.intervals()}
    f = CoalgElement(p, SparseVector(values))
    assert multiply(delta, f) == f
    assert multiply(f, delta) == f
    exx = CoalgElement.unit(p, ("0", "0"))
    exy = CoalgElement.unit(p, ("0", "1"))
    assert multiply(exx, exy) == exy
    other = CoalgElement.unit(p, ("x", "1"))
    assert multiply(exy, other).combo.is_zero()  # endpoints do not chain


def test_multiply_refuses_elements_of_different_carriers():
    poset = named_poset("chain2")
    quiver = hasse_quiver(poset)
    interval = CoalgElement.unit(poset, ("c0", "c0"))
    vertex = CoalgElement.from_path(quiver.vertex_path("c0"))
    for a, b in ((interval, vertex), (vertex, interval), (interval, CoalgElement.unit(named_poset("chain3"), ("c0", "c0")))):
        with pytest.raises(ValueError, match="different carriers"):
            multiply(a, b)


def test_convolution_is_transpose_of_comultiplication():
    rng = random.Random(23)
    for _ in range(20):
        poset = random_poset(rng, 6)
        intervals = poset.intervals()
        f = CoalgElement(poset, SparseVector({iv: Fraction(rng.randint(-2, 2)) for iv in intervals if rng.random() < 0.6}))
        g = CoalgElement(poset, SparseVector({iv: Fraction(rng.randint(-2, 2)) for iv in intervals if rng.random() < 0.6}))
        product = multiply(f, g)
        for iv in intervals:
            element = CoalgElement.unit(poset, iv)
            total = 0
            for (iv1, iv2), coeff in comultiply(element).items():
                total = total + f.combo.coeff(iv1) * g.combo.coeff(iv2) * coeff
            assert not (total - product.combo.coeff(iv))


@st.composite
def posets_with_functions(draw):
    """A poset on up to five shuffled names, with two interval functions
    (possibly empty) over QQ or GF(5)."""
    names = draw(st.permutations(list("abcde")))[: draw(st.integers(1, 5))]
    n = len(names)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    poset = Poset(names, [(names[i], names[j]) for i, j in pairs if i < j])
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    values = st.dictionaries(st.sampled_from(poset.intervals()), st.integers(-2, 2).map(field.of))
    f, g = (CoalgElement(poset, SparseVector(draw(values))) for _ in range(2))
    return field, poset, f, g


@given(posets_with_functions())
def test_convolution_matches_the_dense_oracle(case):
    field, poset, f, g = case
    product = multiply(f, g).combo
    expected = dense_convolve(poset, f.combo.entries, g.combo.entries, field.zero)
    assert product.entries == expected
    assert all(type(c) is type(field.zero) for c in product.entries.values())


def test_recovery_examples():
    singleton = named_poset("chain1")
    report = incidence_dual_recovery_check(singleton)
    assert report.status == "yes" and report.data["dimension"] == 1
    chain3 = incidence_dual_recovery_check(named_poset("chain3"))
    assert chain3.status == "yes" and chain3.data["dimension"] == 6
    diamond = incidence_dual_recovery_check(named_poset("diamond"))
    assert diamond.status == "yes" and diamond.data["dimension"] == 9


def test_recovery_on_corpus():
    for poset in poset_corpus():
        assert incidence_dual_recovery_check(poset)


def test_fia_structured_algebra_has_matrix_unit_rule():
    p = named_poset("chain3")
    algebra = fia_structured_algebra(p)
    one = algebra.field.one
    assert algebra.basis_product(("c0", "c1"), ("c1", "c2")) == SparseVector({("c0", "c2"): one})
    assert algebra.basis_product(("c0", "c1"), ("c0", "c1")).is_zero()


def test_semiperfect_examples():
    chain = incidence_semiperfect_check(named_poset("chain4"))
    assert chain.status == "yes" and chain.witness
    nat = incidence_semiperfect_check(Family("natchain"))
    assert nat.status == "no" and "above" in nat.explanation
    anti = incidence_semiperfect_check(Family("natantichain"))
    assert anti.status == "yes"


def _pair_loop_certificates(poset, field=QQ):
    """The semiperfect certificates as one convolution per pair of
    intervals finds them: for each interval (x, y), c*·E_{x,y} is checked
    equal to Σ_{u <= x} c*(u,x)·E_{u,y} for every c* = E_{p,q}, and the
    certificate is {e_{u,x}: E_{u,y}} over the down-set of x."""
    certificates = []
    for x, y in poset.intervals():
        e_xy = CoalgElement.unit(poset, (x, y), field)
        below = [u for u in poset.elements if (u, x) in poset.leq]
        for p, q in poset.intervals():
            c_star = CoalgElement.unit(poset, (p, q), field)
            right = SparseVector(((u, y), field.one * c_star.coeff((u, x))) for u in below)
            assert multiply(c_star, e_xy).combo == right, ((x, y), (p, q))
        certificates.append({(u, x): (field.one, SparseVector({(u, y): field.one})) for u in below})
    return certificates


def _as_pairs(cert):
    """A certificate of one-label elements as {label: (its coefficient,
    the member's support)}."""
    pairs = {}
    for element, member in zip(cert.elements, cert.functionals):
        (label,) = element.combo.labels()
        pairs[label] = (element.coeff(label), member.support)
    return pairs


def _small_posets():
    return enumerate_posets_up_to_iso(5) + poset_corpus()


def test_semiperfect_certificates_match_the_pair_loop():
    checked = 0
    for poset in _small_posets():
        for field in (QQ, PrimeField(5)):
            verdict = incidence_semiperfect_check(poset, field)
            assert verdict.status == "yes"
            assert all(isinstance(cert, RationalCertificate) for cert in verdict.witness)
            assert [_as_pairs(cert) for cert in verdict.witness] == _pair_loop_certificates(poset, field)
            checked += len(verdict.witness)
    assert checked > 1000


def _verify_on_poset(cert, interval, poset):
    return cert.verify(Functional(poset, support=SparseVector({interval: QQ.one})),
                       CertificateWindow(poset, poset.intervals()))


def test_verify_rejects_mutated_poset_certificates():
    # Two mutants of the certificate of E_{x,y}: one translate dropped, and
    # the up-set of y in place of the down-set of x, {e_{y,u}: E_{x,u}}
    # (the certificate of right, not left, rationality).  Every poset with a
    # cover has an x whose down-set is more than x itself.
    with_cover = 0
    for poset in _small_posets():
        mutants_rejected = 0
        for (x, y), cert in zip(poset.intervals(), incidence_semiperfect_check(poset).witness):
            assert _verify_on_poset(cert, (x, y), poset)
            for i in range(len(cert.elements)):
                dropped = RationalCertificate(cert.elements[:i] + cert.elements[i + 1:],
                                              cert.functionals[:i] + cert.functionals[i + 1:])
                assert not _verify_on_poset(dropped, (x, y), poset)
            above = [u for u in poset.elements if (y, u) in poset.leq]
            upward = RationalCertificate([CoalgElement.unit(poset, (y, u)) for u in above],
                                         [Functional(poset, support=SparseVector({(x, u): QQ.one})) for u in above])
            rejected = not _verify_on_poset(upward, (x, y), poset)
            assert rejected == (_as_pairs(upward) != _as_pairs(cert))
            mutants_rejected += rejected
        if poset.covers():
            with_cover += 1
            assert mutants_rejected
    assert with_cover > 80


def test_poset_family_truncations():
    chain = Family("natchain").truncate(4)
    assert len(chain.elements) == 5 and len(chain.covers()) == 4
    anti = Family("natantichain").truncate(4)
    assert len(anti.covers()) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([QQ, PrimeField(5)]))
def test_phi_table_extension_matches_the_path_sum_oracle(seed, field):
    rng = random.Random(seed)
    poset = random_poset(rng, 6)
    intervals = poset.intervals()
    element = CoalgElement(
        poset, SparseVector((rng.choice(intervals), random_scalar(rng, field)) for _ in range(rng.randint(0, 5)))
    )
    image = phi_embed(element)
    assert image == path_sum_phi_embed(element)
    assert all(type(c) is type(field.one) for c in image.combo.entries.values())
    table = phi_table(poset)
    for interval in intervals:
        scale, row = table(interval)
        assert scale == 1 and set(row.values()) <= {1}
        assert SparseVector(row) == path_sum_phi_embed(CoalgElement.unit(poset, interval)).combo


def _bench_workloads():
    """``bench/workloads.py``, loaded by path: the benchmark is no package."""
    import importlib.util
    import sys
    from pathlib import Path

    if "bench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


@pytest.mark.parametrize("poset", [named_poset("chain3"), named_poset("diamond"), Family("natchain").truncate(4)],
                         ids=["chain3", "diamond", "natchain4"])
def test_incidence_recovery_answers_the_names_the_benchmark_reads(poset):
    # The finite-dual workload checks each answer through these three
    # attributes; a renamed field would fail every one of its operations.
    report = incidence_dual_recovery_check(poset)
    assert report.isomorphism is True
    assert report.dimension == len(poset.intervals())
    assert report.explanation == "bijective coalgebra morphism onto the finite dual"
    assert _bench_workloads()._incidence_check(poset)(report) is None


def test_phi_image_check_reads_like_the_oracle():
    for poset in poset_corpus():
        verdict = phi_image_check(poset)
        images = [path_sum_phi_embed(CoalgElement.unit(poset, i, QQ)).combo for i in poset.intervals()]
        image_rank = rank(images)
        unique = check_unique_path_condition(hasse_quiver(poset))
        surjective = image_rank == len(hasse_quiver(poset).basis())
        assert verdict.data == {
            "injective": image_rank == len(poset.intervals()),
            "surjective": surjective,
            "unique_path_condition": unique,
            "agreement": surjective == unique,
        }
        assert verdict.status == "yes"
