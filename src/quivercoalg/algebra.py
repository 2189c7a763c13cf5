"""The quiver algebra: concatenation product, monomial ideals, the
bialgebra compatibility test, and the two explicit cofinite-ideal
constructions that defeat monomial approximation on bad quivers.

Elements are the same sparse path combinations as in ``coalgebra``; only
the operations differ.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

from .coalgebra import CoalgElement
from .linalg import SparseVector, difference_rank, reducer, rref, solve_membership
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
    """Bilinear extension of the carrier's product of basis labels:
    concatenation of paths, or intervals composed like matrix units; zero
    where the labels do not meet."""
    if a.carrier is not b.carrier:
        raise ValueError("elements belong to different carriers")
    compose = a.carrier.compose
    return CoalgElement(
        a.carrier,
        SparseVector(
            (pq, cp * cq)
            for p, cp in a.combo.items()
            for q, cq in b.combo.items()
            if (pq := compose(p, q)) is not None
        ),
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
    difference_pairs: list  # the set S as pairs (p, r), each standing for p - r
    monomial_generators: list  # the vertices and arrows off X; they generate P \ X
    closed_path_set: list  # the set X
    codimension: int
    identities_checked: int
    field: object  # the scalars of the differences
    details: dict = field(default_factory=dict)

    def ideal_generators(self) -> list[SparseVector]:
        """The differences, then every path of the window off X (enumerated)."""
        closed = set(self.closed_path_set)
        return [_difference(p, r, self.field) for p, r in self.difference_pairs] + [
            SparseVector.unit(p) for p in enumerate_paths(self.quiver, self.max_len).paths if p not in closed
        ]


def _difference(p, r, field) -> SparseVector:
    """p - r, where None stands for a zero product."""
    return SparseVector((x, c) for x, c in ((p, field.one), (r, -field.one)) if x is not None)


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


def check_ideal(vectors, generators, row, outside):
    """Closure of the span of ``vectors`` under multiplication by the
    ``generators`` on both sides.

    A subspace is a two-sided ideal exactly when it is closed under left
    and right multiplication by a generating set of the algebra, so for
    each spanning vector v and generator g only gv and vg are tested.
    ``row(side, g)`` gives g·v ("left") or v·g ("right") as a dict from the
    position of v to the product; a position left out is skipped, its
    product zero, outside a truncation window or known to lie in the span.
    ``outside(products)`` gets a row and returns the least position whose
    product is not in the span, or None.  Returns ``None`` or the first
    failing ``(side, generator, vector)``, vectors outer, generators inner,
    left before right.
    """
    first = None
    for rank, (g, side) in enumerate((g, side) for g in generators for side in ("left", "right")):
        k = outside(row(side, g))
        if k is not None and (first is None or (k, rank) < first[:2]):
            first = (k, rank, side, g)
    return None if first is None else (first[2], first[3], vectors[first[0]])


def _generators(quiver: Quiver) -> list[Path]:
    """The vertex and arrow paths, which generate the path algebra."""
    return [quiver.vertex_path(v) for v in quiver.vertices] + [Path(quiver, None, (a,)) for a in quiver.arrows]


def endpoint_buckets(paths):
    """The positions in ``paths`` of the paths that start at each vertex,
    and of those that end at each vertex, each list increasing."""
    starts, ends = {}, {}
    for i, p in enumerate(paths):
        starts.setdefault(p.source, []).append(i)
        ends.setdefault(p.target, []).append(i)
    return starts, ends


def _generator_rows(generators, paths, window: int) -> dict:
    """g·p and p·g for each generator path g and each path p of ``paths``
    (sorted by length) with |g| + |p| <= window, composed only where the
    endpoints meet.  Per ``(side, g)``: the number n of those p, which are
    a prefix of the positions, and a row from the position of p to the
    product's position, or to the product if it is another path.  A
    position below n that the row leaves out is a zero product: p does not
    start at t(g) ("left"), or does not end at s(g) ("right")."""
    index = {p: i for i, p in enumerate(paths)}
    lengths = [p.length for p in paths]
    starts, ends = endpoint_buckets(paths)
    rows = {}
    for g in generators:
        n = bisect_right(lengths, window - g.length)
        after, before = starts.get(g.target, []), ends.get(g.source, [])
        after, before = after[:bisect_left(after, n)], before[:bisect_left(before, n)]
        rows["left", g] = n, {i: index.get(r, r) for i, r in zip(after, [compose_paths(g, paths[i]) for i in after])}
        rows["right", g] = n, {i: index.get(r, r) for i, r in zip(before, [compose_paths(paths[i], g) for i in before])}
    return rows


def _check_difference_ideal(paths, pairs, window, field=QQ) -> tuple[int, int]:
    """Certify that the span of the differences p - r of the ``pairs``, plus
    every path of the window off ``paths``, is closed on both sides under
    the vertex and arrow paths, which generate the path algebra, inside
    ``window``; returns the identities checked and the span's codimension.
    The caller guarantees that the paths off ``paths`` span an ideal inside
    the window, so the codimension is |paths| less the differences' rank.
    A difference p - r is the pair (p, r) of ``paths`` (sorted by length),
    p the longer, so a generator times it is a pair of ``_generator_rows``
    entries; a generator times a difference with no term on its row is
    zero, and is counted as checked without being examined.  A product is
    in the span when a stored pair or with no term on ``paths`` (zero, or
    a path off them); the others have their terms on ``paths`` reduced
    against the differences' basis.
    """
    quiver = paths[0].quiver
    generators = _generators(quiver)
    index = {p: i for i, p in enumerate(paths)}
    vectors = [(index[p], index[r]) for p, r in pairs]
    # The differences by the position of their leading path and of the other.
    by_lead, by_other = {}, {}
    for k, (i, j) in enumerate(vectors):
        by_lead.setdefault(i, []).append((k, j))
        by_other.setdefault(j, []).append((k, i))
    rows = _generator_rows(generators, paths, window)
    stored = set(vectors)
    reduce = None

    def row(side, g):
        # The products with the differences whose leading path, or only
        # whose other path, is on the row, less the stored pairs and those
        # with no term on ``paths``.
        n, entries = rows[side, g]
        get = entries.get
        products = {k: t for x, e in entries.items() if x < n for k, j in by_lead.get(x, ())
                    if (t := (e, get(j))) not in stored and (e.__class__ is int or t[1].__class__ is int)}
        products.update((k, (None, e)) for x, e in entries.items() if e.__class__ is int
                        for k, i in by_other.get(x, ()) if i < n and i not in entries)
        return products

    def outside(products):
        nonlocal reduce
        if not products:
            return None
        if reduce is None:
            reduce = reducer(rref([_difference(p, r, field) for p, r in pairs]))
        bad = {t for t in set(products.values())
               if not reduce(_difference(*(paths[x] if x.__class__ is int else None for x in t), field)).is_zero()}
        return min((k for k, t in products.items() if t in bad), default=None)

    failure = check_ideal(vectors, generators, row, outside)
    if failure is not None:
        side, g, pair = failure
        difference = CoalgElement(quiver, _difference(*pairs[vectors.index(pair)], field))
        _raise_on_failure((side, CoalgElement.from_path(g, field), difference), "ideal")
    # An identity per generator, side and difference whose leading path fits.
    leads = sorted(i for i, _ in vectors)
    checked = sum(bisect_left(leads, n) for n, _ in rows.values())
    return checked, len(paths) - difference_rank(vectors)


def _raise_on_failure(failure, what: str) -> None:
    if failure is not None:
        side, generator, vector = failure
        raise AssertionError(f"{side} product by generator {generator} takes {vector} out of the {what}")


def build_cycle_counterexample(quiver: Quiver, max_len: int, field=QQ) -> CounterexampleIdeal:
    """Cofinite ideal supported on a simple cycle with no cofinite monomial
    subideal.

    With q[n,k] the winding path of length k from cycle vertex n, the ideal
    is spanned by the differences q[n,ks+i] - q[n,i] (k >= 1) together with
    every path off the winding paths W, which is built alone.  W is
    certified closed under subpaths, so the paths off it span the monomial
    ideal generated by the vertices and arrows off the cycle.  The whole is
    certified an ideal inside the window by closure under the generators of
    the path algebra: each difference times each vertex and each arrow, on
    both sides, lies in the span.  A product longer than the window is
    skipped; every factor of an in-window product of paths is in the window,
    so this proves every product identity that stays inside it.  The window
    must be at least the cycle length, or there are no differences.
    """
    cycle = find_simple_cycle(quiver)
    if cycle is None:
        raise ValueError("quiver has no oriented cycle")
    s = len(cycle)
    if max_len < s:
        raise ValueError(f"window {max_len} is shorter than the cycle of length {s}")
    q = winding_paths(quiver, cycle, max_len)
    x_set = set(q.values())
    # W in path order: by length, then first arrow label (vertex name at length 0).
    by_vertex = sorted(range(s), key=lambda n: cycle[n].source)
    by_arrow = sorted(range(s), key=lambda n: cycle[n].label)
    closed = [p for k in range(max_len + 1) for n in (by_arrow if k else by_vertex) if (p := q.get((n, k)))]
    # Both subpaths of length n - 1 of each path of W in W: by induction W
    # holds every subpath, so a product with a path off W is off W or zero.
    for p in closed:
        for part in (p.prefix(p.length - 1), p.suffix_from(1)) if p.length else ():
            if part not in x_set:
                raise AssertionError(f"subpath {part} of the winding path {p} is off the winding paths")
    pairs = [(q[(n, k * s + i)], q[(n, i)])
             for n in range(s) for i in range(max_len + 1) for k in range(1, (max_len - i) // s + 1)]
    # The differences live on W and the monomial part off it, so the
    # codimension is |W| less the rank of the differences.
    identities, codimension = _check_difference_ideal(closed, pairs, max_len, field)
    return CounterexampleIdeal(
        kind="cycle",
        quiver=quiver,
        max_len=max_len,
        difference_pairs=pairs,
        monomial_generators=[g for g in _generators(quiver) if g not in x_set],
        closed_path_set=closed,
        codimension=codimension,
        identities_checked=identities,
        field=field,
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
    window = [quiver.vertex_path("a"), quiver.vertex_path("b")] + arrows
    pairs = [(p, arrows[0]) for p in arrows[1:]]
    # Every product of a generator and an arrow has length at most two, and
    # none has length two, so every product is zero or on the window.
    identities, codim = _check_difference_ideal(window, pairs, 2, field)

    gens = [_difference(p, r, field) for p, r in pairs]
    for p in arrows:
        if solve_membership(SparseVector.unit(p, field), gens) is not None:
            raise AssertionError(f"arrow {p} unexpectedly lies in the ideal")
    return CounterexampleIdeal(
        kind="multiarrow",
        quiver=quiver,
        max_len=1,
        difference_pairs=pairs,
        monomial_generators=[],
        closed_path_set=window,
        codimension=codim,
        identities_checked=identities,
        field=field,
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
    vertices = [quiver.vertex_path(v) for v in quiver.vertices]
    arrows = [Path(quiver, None, (a,)) for a in quiver.arrows]
    splits = {p: p.splits() for p in vertices + arrows}

    def multiplicative(x: Path, y: Path) -> bool:
        """Δ(xy) = Δ(x)Δ(y): both sides are counts of basis pairs, those
        of Δ(x)Δ(y) the componentwise products of the splits of x and y."""
        xy = compose_paths(x, y)
        counts = dict.fromkeys(xy.splits(), 1) if xy is not None else {}
        for x1, x2 in splits[x]:
            for y1, y2 in splits[y]:
                if (left := compose_paths(x1, y1)) is not None and (right := compose_paths(x2, y2)) is not None:
                    counts[left, right] = counts.get((left, right), 0) - 1
        return not any(field.of(n) for n in counts.values())

    witness = None
    checked = 0
    for v in vertices:
        for w in vertices:
            checked += 1
            if not multiplicative(v, w):
                raise AssertionError("grouplike multiplicativity fails; bug")
    for pa in arrows:
        for pb in arrows:
            composable = pa.target == pb.source
            parallel = pa is not pb and pa.source == pb.source and pa.target == pb.target
            if not composable and not parallel:
                continue
            checked += 1
            if multiplicative(pa, pb):
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
