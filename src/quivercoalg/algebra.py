"""The quiver algebra: concatenation product, monomial ideals, the
bialgebra compatibility test, and the two explicit cofinite-ideal
constructions that defeat monomial approximation on bad quivers.

Elements are the same sparse path combinations as in ``coalgebra``; only
the operations differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .coalgebra import CoalgElement, comultiply
from .linalg import SparseVector, rank, reduce_mod_span, rref, solve_membership
from .quiver import (
    Path,
    Quiver,
    QuiverFamily,
    compose_paths,
    enumerate_paths,
    find_simple_cycle,
    has_composable_arrow_pair,
    has_multiple_edges,
)
from .scalars import QQ

def multiply(a: CoalgElement, b: CoalgElement) -> CoalgElement:
    """Bilinear extension of concatenation-or-zero."""
    if a.carrier is not b.carrier:
        raise ValueError("elements belong to different quivers")
    return CoalgElement(
        a.carrier,
        SparseVector(
            (pq, cp * cq)
            for p, cp in a.combo.items()
            for q, cq in b.combo.items()
            if (pq := compose_paths(p, q)) is not None
        ),
    )


def tensor_multiply(s: SparseVector, t: SparseVector) -> SparseVector:
    """Componentwise product (a⊗b)(c⊗d) = ac ⊗ bd on path-pair tensors."""
    return SparseVector(
        ((left, right), c * d)
        for (p1, p2), c in s.items()
        for (q1, q2), d in t.items()
        if (left := compose_paths(p1, q1)) is not None
        and (right := compose_paths(p2, q2)) is not None
    )


def local_unit(elements, field=QQ) -> CoalgElement:
    """Sum of the endpoint vertices of all support paths: a local unit."""
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element to determine the quiver")
    quiver = elements[0].carrier
    vertices = []
    for e in elements:
        for p in e.combo.labels():
            for v in (p.source, p.target):
                if v not in vertices:
                    vertices.append(v)
    acc = SparseVector({quiver.vertex_path(v): field.one for v in vertices})
    return CoalgElement(quiver, acc)


@dataclass
class MonomialIdeal:
    """Span of all paths r·g·s over the generators, within a length window."""

    quiver: Quiver
    generators: list
    closure: list
    max_len: int
    exhaustive: bool


def monomial_closure(generators, quiver: Quiver, max_len: int) -> MonomialIdeal:
    """All paths of length <= max_len containing a generator as a factor."""
    generators = list(generators)
    enum = enumerate_paths(quiver, max_len)
    gen_set = set(generators)
    closure = []
    for p in enum.paths:
        if any(g in gen_set for g in p.subpaths()):
            closure.append(p)
    return MonomialIdeal(quiver, generators, closure, max_len, enum.exhaustive)


def subpath_closure(paths) -> list[Path]:
    """Close a path set under taking contiguous subpaths; sorted output."""
    out = set()
    for p in paths:
        out.update(p.subpaths())
    return sorted(out, key=lambda p: p.sort_key)


def is_subpath_closed(paths) -> bool:
    pset = set(paths)
    return all(s in pset for p in pset for s in p.subpaths())


@dataclass
class CofiniteMonomialVerdict:
    status: str  # yes | no_up_to_bound | yes_exhaustive | no_exhaustive
    witness_complement: Optional[list] = None

    @property
    def found(self) -> bool:
        return self.status.startswith("yes")


def contains_cofinite_monomial_ideal(
    ideal_generators,
    quiver: Quiver,
    max_len: int,
    codim_bound: int,
) -> CofiniteMonomialVerdict:
    """Does the span of the generators contain a cofinite monomial ideal?

    Candidate monomial ideals are described by their complements: finite
    subpath-closed path sets E with |E| <= codim_bound.  The span of the
    paths outside E lies inside the ideal iff E contains every path whose
    residue modulo the ideal is nonzero, so the minimal candidate is the
    subpath closure of the set of non-member paths; the search reduces to
    checking its size.  Verdicts are exact on exhaustive enumerations and
    bound-qualified otherwise.
    """
    enum = enumerate_paths(quiver, max_len)
    basis = rref(list(ideal_generators))
    outside = [p for p in enum.paths if not reduce_mod_span(SparseVector.unit(p), basis).is_zero()]
    complement = subpath_closure(outside)
    if len(complement) <= codim_bound:
        if enum.exhaustive:
            return CofiniteMonomialVerdict("yes_exhaustive", complement)
        # On a truncated window a candidate complement touching the horizon
        # keeps growing with the window, so no yes-witness is certified.
        if any(p.length >= max_len for p in complement):
            return CofiniteMonomialVerdict("no_up_to_bound")
        return CofiniteMonomialVerdict("yes", complement)
    status = "no_exhaustive" if enum.exhaustive else "no_up_to_bound"
    return CofiniteMonomialVerdict(status)


# ---------------------------------------------------------------------------
# Counterexample ideals: cofinite ideals that contain no cofinite monomial
# ideal, materialized at a truncation level with verified product identities.
# ---------------------------------------------------------------------------


@dataclass
class CounterexampleIdeal:
    kind: str  # "cycle" | "multiarrow"
    quiver: Quiver
    max_len: int
    difference_generators: list  # the set S as elements
    monomial_part: list  # the set P \ X as paths
    closed_path_set: list  # the set X
    codimension: int
    identities_checked: int
    details: dict = field(default_factory=dict)

    def ideal_generators(self) -> list[SparseVector]:
        return [e.combo for e in self.difference_generators] + [
            SparseVector.unit(p) for p in self.monomial_part
        ]


def winding_paths(quiver: Quiver, cycle_arrows, max_len: int) -> dict:
    """q[n, k]: the path of length k winding around the cycle from vertex n."""
    s = len(cycle_arrows)
    table = {}
    for n in range(s):
        start = cycle_arrows[n].source
        table[(n, 0)] = quiver.vertex_path(start)
        arrows = []
        for k in range(1, max_len + 1):
            arrows.append(cycle_arrows[(n + k - 1) % s])
            table[(n, k)] = Path(quiver, None, tuple(arrows))
    return table


def build_cycle_counterexample(quiver: Quiver, max_len: int, field=QQ) -> CounterexampleIdeal:
    """Cofinite ideal supported on a simple cycle with no cofinite monomial
    subideal.

    With q[n,k] the winding path of length k from cycle vertex n, the ideal
    is spanned by the differences q[n,ks+i] - q[n,i] (k >= 1) together with
    every path that leaves the cycle.  The four product identities that make
    this span an ideal are verified on every index combination that stays
    inside the truncation window.
    """
    cycle = find_simple_cycle(quiver)
    if cycle is None:
        raise ValueError("quiver has no oriented cycle")
    s = len(cycle)
    q = winding_paths(quiver, cycle, max_len)
    x_set = set(q.values())

    differences = {}
    for n in range(s):
        for i in range(0, max_len + 1):
            for k in range(1, max_len + 1):
                if k * s + i > max_len:
                    break
                differences[(n, k, i)] = (
                    CoalgElement.from_path(q[(n, k * s + i)], field)
                    - CoalgElement.from_path(q[(n, i)], field)
                )

    checked = 0
    # (q[n,ks+i] - q[n,i]) * q[n+i,j] = q[n,ks+i+j] - q[n,i+j]; zero for other
    # starting vertices.  Mirrored on the left with the matching endpoint rule.
    # Both expected sides are entries of the differences table, since
    # ks + i + j <= max_len.
    winding = {key: CoalgElement.from_path(path, field) for key, path in q.items()}
    zero = CoalgElement.zero(quiver)
    for (n, k, i), element in differences.items():
        for m in range(s):
            for j in range(0, max_len + 1 - k * s - i):
                right = winding[(m, j)]
                product = multiply(element, right)
                expected = differences[(n, k, i + j)] if m % s == (n + i) % s else zero
                if product != expected:
                    raise AssertionError(
                        f"right product identity fails at n={n},k={k},i={i},m={m},j={j}"
                    )
                checked += 1
                left_product = multiply(right, element)
                expected_left = differences[(m, k, i + j)] if (m + j) % s == n % s else zero
                if left_product != expected_left:
                    raise AssertionError(
                        f"left product identity fails at n={n},k={k},i={i},m={m},j={j}"
                    )
                checked += 1

    enum = enumerate_paths(quiver, max_len)
    monomial_part = [p for p in enum.paths if p not in x_set]
    generators = [e.combo for e in differences.values()] + [
        SparseVector.unit(p) for p in monomial_part
    ]
    codim = len(enum.paths) - rank(generators)
    return CounterexampleIdeal(
        kind="cycle",
        quiver=quiver,
        max_len=max_len,
        difference_generators=list(differences.values()),
        monomial_part=monomial_part,
        closed_path_set=sorted(x_set, key=lambda p: p.sort_key),
        codimension=codim,
        identities_checked=checked,
        details={"cycle_length": s, "cycle": [a.label for a in cycle]},
    )


def build_multiarrow_counterexample(
    family: QuiverFamily, truncation: int, field=QQ
) -> CounterexampleIdeal:
    """The parallel-arrow analogue: the span of the differences x_n - x_0.

    At stage N the ambient span is {a, b, x_0..x_N}; the difference span is
    an ideal of codimension three there, and no single arrow belongs to it.
    """
    if family.kind != "multiarrow":
        raise ValueError("expected the multiarrow family")
    quiver = family.truncate(truncation)
    arrows = [quiver.arrow_path(f"x{i}") for i in range(truncation + 1)]
    x0 = CoalgElement.from_path(arrows[0], field)
    differences = [CoalgElement.from_path(p, field) - x0 for p in arrows[1:]]

    a = CoalgElement.from_path(quiver.vertex_path("a"), field)
    b = CoalgElement.from_path(quiver.vertex_path("b"), field)
    checked = 0
    for d in differences:
        if multiply(a, d) != d or multiply(d, b) != d:
            raise AssertionError("vertex action on a difference is wrong")
        if not multiply(d, a).is_zero() or not multiply(b, d).is_zero():
            raise AssertionError("difference should vanish on the wrong side")
        for p in arrows:
            e = CoalgElement.from_path(p, field)
            if not multiply(d, e).is_zero() or not multiply(e, d).is_zero():
                raise AssertionError("arrow products should vanish")
            checked += 2
        checked += 4

    gens = [d.combo for d in differences]
    for p in arrows:
        if solve_membership(SparseVector.unit(p, field), gens) is not None:
            raise AssertionError(f"arrow {p} unexpectedly lies in the ideal")
    enum = enumerate_paths(quiver, 1)
    codim = len(enum.paths) - rank(gens)
    return CounterexampleIdeal(
        kind="multiarrow",
        quiver=quiver,
        max_len=1,
        difference_generators=differences,
        monomial_part=[],
        closed_path_set=[quiver.vertex_path("a"), quiver.vertex_path("b")] + arrows,
        codimension=codim,
        identities_checked=checked,
        details={"stage": truncation},
    )


@dataclass
class BialgebraReport:
    compatible: bool
    criterion: bool
    witness: Optional[tuple] = None
    pairs_checked: int = 0

    def __bool__(self):
        return self.compatible


def bialgebra_check(quiver: Quiver, max_len: int = 3, field=QQ) -> BialgebraReport:
    """Compatibility of the concatenation product with the path
    comultiplication, against the structural criterion: no paths of length
    >= 2 and no multiple edges.

    Incompatibility, when present, is witnessed on a pair of arrows: either
    a composable pair (giving a path of length two) or a pair of distinct
    parallel arrows.  The check enumerates all ordered arrow pairs, and for
    every witness candidate certifies the exact inequality
    Δ(xy) != Δ(x)Δ(y).  Pairs at idempotent boundaries (a vertex against a
    longer path) are outside the comparison: with enough idempotents the
    grouplike pieces of a vertex only multiply correctly against local
    units, so they carry no information about the criterion.

    Grouplike consistency Δ(vw) = Δ(v)Δ(w) is also verified on all vertex
    pairs.
    """
    criterion = not has_multiple_edges(quiver) and not has_composable_arrow_pair(quiver)
    witness = None
    checked = 0
    for v in quiver.vertices:
        ev = CoalgElement.from_path(quiver.vertex_path(v), field)
        for w in quiver.vertices:
            ew = CoalgElement.from_path(quiver.vertex_path(w), field)
            lhs = comultiply(multiply(ev, ew))
            rhs = tensor_multiply(comultiply(ev), comultiply(ew))
            checked += 1
            if lhs != rhs:
                raise AssertionError("grouplike multiplicativity fails; bug")
    for a in quiver.arrows:
        pa = Path(quiver, None, (a,))
        ea = CoalgElement.from_path(pa, field)
        for b in quiver.arrows:
            composable = a.target == b.source
            parallel = a is not b and a.source == b.source and a.target == b.target
            if not composable and not parallel:
                continue
            pb = Path(quiver, None, (b,))
            eb = CoalgElement.from_path(pb, field)
            lhs = comultiply(multiply(ea, eb))
            rhs = tensor_multiply(comultiply(ea), comultiply(eb))
            checked += 1
            if lhs == rhs:
                raise AssertionError(
                    f"expected product incompatibility at ({pa}, {pb}); bug"
                )
            if witness is None:
                witness = (pa, pb)
    compatible = witness is None
    if compatible != criterion:
        raise AssertionError(
            "structural criterion and exhaustive witness test disagree; bug"
        )
    return BialgebraReport(compatible, criterion, witness, checked)
