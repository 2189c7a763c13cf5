"""The quiver algebra: concatenation product, monomial ideals, the
bialgebra compatibility test, and the two explicit cofinite-ideal
constructions that defeat monomial approximation on bad quivers.

Elements are the same sparse path combinations as in ``coalgebra``; only
the operations differ.

Each counterexample ideal is spanned by differences p - r of paths of a
subpath-closed set W (winding paths, or the arrows of a bundle) and by the
paths off W, up to a length w.  p ↦ M_p is an algebra map for a
representation M, so Ann(M) is a two-sided ideal of codimension
dim span{M_p}, and the span is certified as Ann(M) within length w:
(1) every vertex and arrow off W acts by zero, and W holds every path of
its arrows up to w, so M kills every path off W; (2) M_p = M_r on every
difference; (3) |W| less the rank of the differences is dim span{M_p},
with a path basis no longer than w.  By (1) and (2) the span lies in
Ann(M), by (3) the codimensions agree, so every product of a generator
and a difference that stays within w lies in the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coalgebra import CoalgElement
from .linalg import SparseVector, difference_rank, reducer, rref
from .quiver import (
    Family,
    Path,
    Quiver,
    Verdict,
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
# ideal, materialized at a truncation level as the annihilator of a module.
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
        one = self.field.one
        return [SparseVector({p: one, r: -one}) for p, r in self.difference_pairs] + [
            SparseVector.unit(p) for p in enumerate_paths(self.quiver, self.max_len).paths if p not in closed
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


def _generators(quiver: Quiver) -> list[Path]:
    """The vertex and arrow paths, which generate the path algebra."""
    return [quiver.vertex_path(v) for v in quiver.vertices] + [Path(quiver, None, (a,)) for a in quiver.arrows]


def _word(path: Path):
    """The key of a path in W: its arrow word, or its vertex at length 0."""
    return path.arrows or path.vertex


def _certify_annihilator(module, closed, pairs, window: int, field=QQ) -> tuple[int, int, list]:
    """The three checks of the module docstring, each raising
    AssertionError, for W = ``closed`` (subpath-closed, sorted by length)
    and the representation M that ``module`` builds from the
    ``representation`` module.  One ``PathAction`` of M forms M along W
    and the path basis of span{M_p}.  Returns the identities proved (one
    per generator, side and difference whose leading path fits beside it),
    the codimension, and M on each path of W: one object per distinct
    matrix, its nonzero entries last."""
    from . import representation  # representation imports this module

    action = representation.PathAction(rep := module(representation), field)
    quiver, index, lengths = rep.quiver, {_word(p): i for i, p in enumerate(closed)}, [p.length for p in closed]
    for g in _generators(quiver):
        if _word(g) not in index and (action.arrows[g.arrows[0].label][1] if g.length else rep.dims[g.vertex]):
            raise AssertionError(f"{g} is off W but does not act by zero")
    # M on W by arrow word; a path that no extension reaches keeps itself, equal to no matrix.
    steps, matrix = {p.arrows[0] for p, n in zip(closed, lengths) if n == 1}, list(closed)
    for i, p in enumerate(closed):
        if not lengths[i]:
            matrix[i] = action.vertices[p.vertex]
        for a in quiver.out_arrows(p.target) if lengths[i] < window else ():
            if a in steps:
                if (k := index.get(p.arrows + (a,))) is None:
                    raise AssertionError(f"{Path(quiver, None, p.arrows + (a,))} is off W but its arrows are on it")
                matrix[k] = action.times(matrix[i], a.label)
    positions = [(index[_word(p)], index[_word(r)]) for p, r in pairs]
    for (i, j), (p, r) in zip(positions, pairs):
        if matrix[i] is not matrix[j]:
            raise AssertionError(f"M tells {p} from {r}, so their difference is not in Ann(M)")
    basis = action.basis()
    codimension, longest = len(closed) - difference_rank(positions), max((b.length for b in basis), default=0)
    if codimension != len(basis) or longest > window:
        raise AssertionError(f"codimension {codimension} on W, Ann(M) {len(basis)} to length {longest}")
    leads = [max(lengths[i], lengths[j]) for i, j in positions]
    identities = 2 * sum(len(quiver.vertices) * (n <= window) + len(quiver.arrows) * (n < window) for n in leads)
    return identities, codimension, matrix


def build_cycle_counterexample(quiver: Quiver, max_len: int, field=QQ) -> CounterexampleIdeal:
    """Cofinite ideal supported on a simple cycle with no cofinite monomial
    subideal.

    With q[n,k] the winding path of length k from cycle vertex n, the ideal
    is spanned by the differences q[n,ks+i] - q[n,i] (k >= 1) together with
    every path off the winding paths W, which is built alone.  W is
    certified closed under subpaths.  Inside the window the whole is
    certified as Ann(M1), M1 = ``cycle_module`` with dimension one at each
    cycle vertex, in three steps: every vertex and arrow off W acts by
    zero; M1_p = M1_r on every difference, M1 formed along W; and the
    differences' codimension on W is dim span{M1_p} = s^2.  So every
    product of a generator and a difference that stays inside the window
    lies in the ideal.  The s^2-dimensional cycle-quotient module is s
    copies of M1, with the same annihilator.  The ideal lies in the kernel
    of the winding indicator, Σ_v e_v·M1_p·e_v over the cycle vertices v, a
    sum of coefficient functionals of M1.  The window must reach the cycle
    length, or there are no differences.
    """
    cycle = find_simple_cycle(quiver)
    if cycle is None:
        raise ValueError("quiver has no oriented cycle")
    s = len(cycle)
    if max_len < s:
        raise ValueError(f"window {max_len} is shorter than the cycle of length {s}")
    q = winding_paths(quiver, cycle, max_len)
    # W in path order: by length, then first arrow label (vertex name at length 0).
    by_vertex = sorted(range(s), key=lambda n: cycle[n].source)
    by_arrow = sorted(range(s), key=lambda n: cycle[n].label)
    closed = [p for k in range(max_len + 1) for n in (by_arrow if k else by_vertex) if (p := q.get((n, k)))]
    # Both subpaths of length n - 1 of each path of W in W, as words: by
    # induction W holds every subpath, so a product with a path off W is off W or zero.
    words = {_word(p) for p in closed}
    for p in closed:
        for part in (p.arrows[:-1], p.arrows[1:]) if p.length > 1 else (p.source, p.target) if p.length else ():
            if part not in words:
                part = Path(quiver, None, part) if isinstance(part, tuple) else quiver.vertex_path(part)
                raise AssertionError(f"subpath {part} of the winding path {p} is off the winding paths")
    pairs = [(q[(n, k * s + i)], q[(n, i)])
             for n in range(s) for i in range(max_len + 1) for k in range(1, (max_len - i) // s + 1)]
    identities, codimension, _ = _certify_annihilator(
        lambda rep: rep.cycle_module(quiver, field), closed, pairs, max_len, field)
    return CounterexampleIdeal(
        kind="cycle",
        quiver=quiver,
        max_len=max_len,
        difference_pairs=pairs,
        monomial_generators=[g for g in _generators(quiver) if _word(g) not in words],
        closed_path_set=closed,
        codimension=codimension,
        identities_checked=identities,
        field=field,
        details={"cycle_length": s, "cycle": [a.label for a in cycle]},
    )


def build_multiarrow_counterexample(family: Family, truncation: int, field=QQ) -> CounterexampleIdeal:
    """The parallel-arrow analogue: the span of the differences x_n - x_0.

    At stage N the ambient span is {a, b, x_0..x_N}; the difference span is
    the annihilator there of the representation with dimension one at a and
    b and every arrow acting by one, an ideal of codimension three, and no
    single arrow belongs to it, as none acts by zero.
    """
    if family.facts.finite_arrows:
        raise ValueError("expected the multiarrow family")
    quiver = family.truncate(truncation)
    arrows = [quiver.arrow_path(f"x{i}") for i in range(truncation + 1)]
    window = [quiver.vertex_path("a"), quiver.vertex_path("b")] + arrows
    pairs = [(p, arrows[0]) for p in arrows[1:]]
    # No path is longer than an arrow, so window two holds every product of
    # a generator and an arrow.  M: dimension one at a and b, arrows by one.
    ones = {a.label: ((field.one,),) for a in quiver.arrows}
    identities, codim, matrix = _certify_annihilator(
        lambda rep: rep.Representation(quiver, {"a": 1, "b": 1}, ones), window, pairs, 2, field)
    for p, m in zip(window, matrix):
        if p.length and not m[-1]:
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


def bialgebra_check(quiver: Quiver, field=QQ) -> Verdict:
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
    pairs.  A no is witnessed by the first incompatible pair.
    """
    criterion = not has_multiple_edges(quiver) and not has_composable_arrow_pair(quiver)
    vertices = [quiver.vertex_path(v) for v in quiver.vertices]
    arrows = [Path(quiver, None, (a,)) for a in quiver.arrows]
    splits = {p: p.splits() for p in vertices + arrows}
    char = getattr(field, "p", 0)  # counts are scalars n·1 of the field, zero when char divides n

    def multiplicative(x: Path, y: Path) -> bool:
        """Δ(xy) = Δ(x)Δ(y): both sides are counts of basis pairs, those
        of Δ(x)Δ(y) the componentwise products of the splits of x and y."""
        xy = compose_paths(x, y)
        counts = dict.fromkeys(xy.splits(), 1) if xy is not None else {}
        for x1, x2 in splits[x]:
            for y1, y2 in splits[y]:
                if (left := compose_paths(x1, y1)) is not None and (right := compose_paths(x2, y2)) is not None:
                    counts[left, right] = counts.get((left, right), 0) - 1
        return not any(n % char if char else n for n in counts.values())

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
    data = {"compatible": compatible, "pairs_checked": checked}
    if witness:
        data["witness"] = f"([{witness[0]}], [{witness[1]}])"
    return Verdict("yes" if compatible else "no", witness, data=data)
