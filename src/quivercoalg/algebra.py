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
from .linalg import SparseVector, rank, reducer, rref, solve_membership
from .quiver import (
    Family,
    Path,
    Quiver,
    compose_paths,
    enumerate_paths,
    find_simple_cycle,
    has_composable_arrow_pair,
    has_multiple_edges,
    horizon_verdict,
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


def _generator_product(a: CoalgElement, b: CoalgElement) -> CoalgElement:
    """a·b when one factor is a generator of kQ, a vertex or arrow path with
    coefficient one: ``a`` when it has a single term (the spanning vectors
    of the counterexample ideals have two), else ``b``.  The other factor's
    terms are relabelled through ``compose_paths`` with no scalar
    arithmetic; by left and right cancellation in kQ no two terms meet."""
    if len(a.combo.entries) == 1:
        (g,) = a.combo.entries
        entries = {gq: c for q, c in b.combo.entries.items() if (gq := compose_paths(g, q)) is not None}
    else:
        (g,) = b.combo.entries
        entries = {qg: c for q, c in a.combo.entries.items() if (qg := compose_paths(q, g)) is not None}
    combo = SparseVector()
    combo.entries = entries
    return CoalgElement._of_own_labels(a.carrier, combo)


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
    """Close a path set under taking contiguous subpaths; sorted output.

    Paths are expanded longest first, and a path already in the closure is
    skipped: its subpaths are there too."""
    out = set()
    for p in sorted(paths, key=lambda p: p.length, reverse=True):
        if p not in out:
            out.update(p.subpaths())
    return sorted(out, key=lambda p: p.sort_key)


def is_subpath_closed(paths) -> bool:
    pset = set(paths)
    return all(s in pset for p in pset for s in p.subpaths())


def contains_cofinite_monomial_ideal(
    ideal_generators,
    quiver: Quiver,
    max_len: int,
    codim_bound: int,
) -> Verdict:
    """Does the span of the generators contain a cofinite monomial ideal?

    Candidate monomial ideals are described by their complements: finite
    subpath-closed path sets E with |E| <= codim_bound.  The span of the
    paths outside E lies inside the ideal iff E contains every path whose
    residue modulo the ideal is nonzero, so the minimal candidate is the
    subpath closure of the set of non-member paths; the search reduces to
    checking its size.  The horizon rule qualifies the verdict; a yes
    carries the complement as its witness.
    """
    enum = enumerate_paths(quiver, max_len)
    reduce = reducer(rref(list(ideal_generators)))
    outside = [p for p in enum.paths if not reduce(SparseVector.unit(p)).is_zero()]
    complement = subpath_closure(outside)
    return horizon_verdict(len(complement) <= codim_bound, enum.exhaustive, complement, max_len)


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


def check_ideal(vectors, generators, product, contains):
    """Closure of the span of ``vectors`` under multiplication by the
    ``generators`` on both sides.

    A subspace is a two-sided ideal exactly when it is closed under left
    and right multiplication by a generating set of the algebra, so for
    each spanning vector v and generator g only gv and vg are tested with
    ``contains``.  ``product(x, y)`` returns None for a pair outside a
    truncation window, which is skipped.  Returns ``None`` or the first
    failing ``(side, generator, vector)``.
    """
    for v in vectors:
        for g in generators:
            left = product(g, v)
            if left is not None and not contains(left):
                return ("left", g, v)
            right = product(v, g)
            if right is not None and not contains(right):
                return ("right", g, v)
    return None


class _SpanMembership:
    """Membership in span(spanning) + span(monomial paths), counting calls.

    Zero, a spanning vector itself and a combination of monomial paths are
    answered at once; any other element is reduced against the canonical
    basis of the whole span, built on first use.  Spanning vectors are
    looked up by their label set, since paths hash once and scalars do not.
    """

    def __init__(self, spanning, monomial=()):
        self.spanning = list(spanning)
        self.monomial = list(monomial)
        self._by_labels = {frozenset(e.combo.labels()): e.combo for e in self.spanning}
        self._monomial_set = set(self.monomial)
        self._reduce = None
        self.calls = 0

    def __call__(self, element: CoalgElement) -> bool:
        self.calls += 1
        labels = element.combo.labels()
        monomial = self._monomial_set
        if all(p in monomial for p in labels) or self._by_labels.get(frozenset(labels)) == element.combo:
            return True
        if self._reduce is None:
            basis = [e.combo for e in self.spanning] + [SparseVector.unit(p) for p in self.monomial]
            self._reduce = reducer(rref(basis))
        return self._reduce(element.combo).is_zero()


def _generator_elements(quiver: Quiver, field) -> list[CoalgElement]:
    """The vertex and arrow paths, which generate the path algebra."""
    return [CoalgElement.from_path(quiver.vertex_path(v), field) for v in quiver.vertices] + [
        CoalgElement.from_path(Path(quiver, None, (a,)), field) for a in quiver.arrows
    ]


def _raise_on_failure(failure, what: str) -> None:
    if failure is not None:
        side, generator, vector = failure
        raise AssertionError(f"{side} product by generator {generator} takes {vector} out of the {what}")


def build_cycle_counterexample(quiver: Quiver, max_len: int, field=QQ) -> CounterexampleIdeal:
    """Cofinite ideal supported on a simple cycle with no cofinite monomial
    subideal.

    With q[n,k] the winding path of length k from cycle vertex n, the ideal
    is spanned by the differences q[n,ks+i] - q[n,i] (k >= 1) together with
    every path that leaves the cycle.  It is certified an ideal inside the
    window by closure under the generators of the path algebra: each
    difference times each vertex and each arrow, on both sides, lies in the
    span, and the monomial part stays off the winding paths under arrow
    products.  A product longer than the window is skipped; every factor of
    an in-window product of paths is in the window, so this proves every
    product identity that stays inside it.  The window must be at least the
    cycle length, or there are no differences.
    """
    cycle = find_simple_cycle(quiver)
    if cycle is None:
        raise ValueError("quiver has no oriented cycle")
    s = len(cycle)
    if max_len < s:
        raise ValueError(f"window {max_len} is shorter than the cycle of length {s}")
    q = winding_paths(quiver, cycle, max_len)
    x_set = set(q.values())

    differences = []
    # Longest path of each difference and generator, keyed by id: they live
    # through the whole call, and hashing an element hashes its terms.
    degree = {}
    for n in range(s):
        for i in range(0, max_len + 1):
            for k in range(1, max_len + 1):
                if k * s + i > max_len:
                    break
                difference = CoalgElement.from_path(q[(n, k * s + i)], field) - CoalgElement.from_path(
                    q[(n, i)], field
                )
                differences.append(difference)
                degree[id(difference)] = k * s + i

    enum = enumerate_paths(quiver, max_len)
    monomial_part = [p for p in enum.paths if p not in x_set]

    def windowed_multiply(x, y):
        if degree[id(x)] + degree[id(y)] > max_len:
            return None
        return _generator_product(x, y)

    def windowed_compose(p, r):
        return compose_paths(p, r) if p.length + r.length <= max_len else None

    membership = _SpanMembership(differences, monomial_part)
    generators = _generator_elements(quiver, field)
    degree.update((id(g), max(p.length for p in g.combo.labels())) for g in generators)
    _raise_on_failure(check_ideal(differences, generators, windowed_multiply, membership), "ideal")
    # Label-level: a path off the winding paths stays off them under arrow
    # products (None from ``compose_paths`` is a zero product).
    arrows = [Path(quiver, None, (a,)) for a in quiver.arrows]
    _raise_on_failure(
        check_ideal(monomial_part, arrows, windowed_compose, lambda p: p not in x_set), "monomial part"
    )

    # The differences live on the winding paths and the monomial part off
    # them, so the two ranks add.
    codim = len(enum.paths) - len(monomial_part) - rank([e.combo for e in differences])
    return CounterexampleIdeal(
        kind="cycle",
        quiver=quiver,
        max_len=max_len,
        difference_generators=differences,
        monomial_part=monomial_part,
        closed_path_set=sorted(x_set, key=lambda p: p.sort_key),
        codimension=codim,
        identities_checked=membership.calls,
        details={"cycle_length": s, "cycle": [a.label for a in cycle]},
    )


def build_multiarrow_counterexample(family: Family, truncation: int, field=QQ) -> CounterexampleIdeal:
    """The parallel-arrow analogue: the span of the differences x_n - x_0.

    At stage N the ambient span is {a, b, x_0..x_N}; the difference span is
    an ideal of codimension three there (closed under the vertices and
    arrows on both sides), and no single arrow belongs to it.
    """
    if family.facts.finite_arrows:
        raise ValueError("expected the multiarrow family")
    quiver = family.truncate(truncation)
    arrows = [quiver.arrow_path(f"x{i}") for i in range(truncation + 1)]
    x0 = CoalgElement.from_path(arrows[0], field)
    differences = [CoalgElement.from_path(p, field) - x0 for p in arrows[1:]]

    membership = _SpanMembership(differences)
    failure = check_ideal(differences, _generator_elements(quiver, field), _generator_product, membership)
    _raise_on_failure(failure, "ideal")

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
        identities_checked=membership.calls,
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


def bialgebra_check(quiver: Quiver, field=QQ) -> BialgebraReport:
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
