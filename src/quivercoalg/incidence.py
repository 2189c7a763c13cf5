"""Locally finite posets, incidence coalgebras, incidence algebras, and the
finite-support subalgebra with enough idempotents.

Finite posets are input by cover relations; the reflexive-transitive
closure is computed and validated.  The two built-in infinite posets, the
chain and the antichain on the natural numbers, are ``quiver.FAMILIES``
entries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .coalgebra import CoalgElement, basis_tables, check_morphism, linear_extension
from .dual import Functional, is_rational_left
from .finite_dual import StructuredAlgebra, structured_algebra
from .linalg import SparseVector, label_sort_key, rank
from .quiver import Family, Quiver, Verdict, check_semiperfect_condition, check_unique_path_condition
from .scalars import QQ


def _interval_order(interval):
    """Intervals in listing order: the one-point ones first, then by name."""
    x, y = str(interval[0]), str(interval[1])
    return (x != y, x, y)


class Poset:
    """Finite partially ordered set with precomputed closure and intervals."""

    def __init__(self, elements, relation_pairs, name: str = ""):
        self.elements = tuple(elements)
        self.name = name
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate poset elements")
        index = set(self.elements)
        for x, y in relation_pairs:
            if x not in index or y not in index:
                raise ValueError(f"relation pair ({x},{y}) uses undeclared elements")
        # The reflexive-transitive closure: one search per element along the
        # given pairs.
        above = {x: [] for x in self.elements}
        for x, y in relation_pairs:
            above[x].append(y)
        leq = set()
        for x in self.elements:
            reached = {x}
            stack = [x]
            while stack:
                for z in above[stack.pop()]:
                    if z not in reached:
                        reached.add(z)
                        stack.append(z)
            leq.update((x, z) for z in reached)
        both_ways = [(x, y) for x, y in leq if x != y and (y, x) in leq]
        if both_ways:
            x, y = min(both_ways, key=label_sort_key)
            raise ValueError(f"antisymmetry fails: {x} and {y} are comparable both ways")
        self.leq = frozenset(leq)
        self._hasse: Optional[Quiver] = None
        self._paths_between: Optional[dict] = None
        self._points: dict = {}  # interval -> the points between its ends, built on first use

    def intervals(self) -> list:
        pairs = [(x, y) for x in self.elements for y in self.elements if (x, y) in self.leq]
        pairs.sort(key=_interval_order)
        return pairs

    def closed_interval(self, x, y) -> list:
        return [z for z in self.elements if (x, z) in self.leq and (z, y) in self.leq]

    def covers(self) -> list:
        out = []
        for x, y in self.leq:
            if x == y:
                continue
            if any(z != x and z != y and (x, z) in self.leq and (z, y) in self.leq for z in self.elements):
                continue
            out.append((x, y))
        out.sort(key=lambda xy: (str(xy[0]), str(xy[1])))
        return out

    # The carrier contract of ``coalgebra.CoalgElement``: the basis of the
    # incidence coalgebra is the intervals (x, y) with x <= y, Δ splits an
    # interval through every point between its ends and the counit is 1 on
    # the one-point intervals.  The incidence algebra multiplies intervals
    # that meet like matrix units; the one-point ones are its idempotents.
    def owns(self, label) -> bool:
        return label in self.leq

    def splits(self, interval):
        x, y = interval
        if (points := self._points.get(interval)) is None:
            points = self._points[interval] = self.closed_interval(x, y)
        return [((x, z), (z, y)) for z in points]

    @staticmethod
    def is_grouplike(interval) -> bool:
        return interval[0] == interval[1]

    def grouplikes(self) -> list:
        return [(x, x) for x in self.elements]

    basis = intervals

    @staticmethod
    def compose(a, b):
        """(x, z)(z, y) = (x, y), an interval by transitivity; None if they do not meet."""
        return (a[0], b[1]) if a[1] == b[0] else None

    def __repr__(self):
        return f"Poset({self.name or len(self.elements)})"


def hasse_quiver(poset: Poset) -> Quiver:
    """Quiver on the poset's elements with one arrow per cover relation."""
    if poset._hasse is None:
        covers = poset.covers()
        arrows = [(f"{x}<{y}", str(x), str(y)) for x, y in covers]
        poset._hasse = Quiver([str(e) for e in poset.elements], arrows, name=f"hasse({poset.name})")
    return poset._hasse


def _paths_between(poset: Poset) -> dict:
    if poset._paths_between is None:
        table: dict = {}
        for p in hasse_quiver(poset).basis():
            table.setdefault((p.source, p.target), []).append(p)
        poset._paths_between = table
    return poset._paths_between


def phi_table(poset: Poset):
    """φ on the intervals, in the law kernel's integer form: e_{x,y} ->
    ``(1, {p: 1})`` over the Hasse-quiver paths from x to y."""
    table = _paths_between(poset)
    return lambda interval: (1, dict.fromkeys(table.get((str(interval[0]), str(interval[1])), ()), 1))


def phi_embed(element: CoalgElement) -> CoalgElement:
    """The linear extension of ``phi_table``: the interval e_{x,y} goes to
    the sum of all Hasse-quiver paths from x to y; an injective coalgebra
    morphism, surjective exactly when paths between points are unique."""
    return CoalgElement(hasse_quiver(element.carrier), linear_extension(phi_table(element.carrier), element.combo))


def fia_structured_algebra(poset: Poset, field=QQ) -> StructuredAlgebra:
    """The finite-support incidence algebra as structure constants."""
    return structured_algebra(poset, field, f"FIA({poset.name})")


def phi_image_check(poset: Poset) -> Verdict:
    """φ is injective, and onto exactly when the Hasse quiver has at most
    one path between any two points: the rank of the interval images
    against the interval count and the Hasse path count."""
    phi = phi_table(poset)
    intervals = poset.intervals()
    image_rank = rank([SparseVector(phi(interval)[1]) for interval in intervals])
    injective = image_rank == len(intervals)
    surjective = image_rank == sum(map(len, _paths_between(poset).values()))
    unique = check_unique_path_condition(hasse_quiver(poset))
    return Verdict("yes" if injective and surjective == unique else "no", data={
        "injective": injective,
        "surjective": surjective,
        "unique_path_condition": unique,
        "agreement": surjective == unique,
    })


def _recovery_verdict(isomorphism: bool, dimension: int, why: str) -> Verdict:
    return Verdict("yes" if isomorphism else "no", explanation=why,
                   data={"isomorphism": isomorphism, "dimension": dimension, "explanation": why})


def incidence_dual_recovery_check(poset: Poset, field=QQ) -> Verdict:
    """The incidence coalgebra is the finite dual of the finite-support
    incidence algebra: the evaluation map interval -> dual basis vector is a
    bijective coalgebra morphism.  Verified exactly on every interval."""
    algebra = fia_structured_algebra(poset, field)
    # Building the algebra checked these tables' coalgebra laws.
    (delta, eps), (dual_delta, dual_eps) = basis_tables(poset), algebra.dual().integer_tables
    intervals = poset.intervals()
    failure = check_morphism(intervals, lambda interval: (1, {interval: 1}), delta, dual_delta, eps, dual_eps)
    if failure is not None:
        law, interval = failure
        return _recovery_verdict(False, len(algebra.basis), f"{law} mismatch at {interval}")
    # The evaluation map sends the intervals to distinct dual basis vectors
    # exactly when they are the algebra's basis with no repeats; this holds
    # by construction of ``fia_structured_algebra`` and guards it.
    dim = len(intervals)
    if len(set(intervals)) != dim or set(intervals) != set(algebra.basis):
        raise AssertionError("dual basis vectors are not independent; bug")
    return _recovery_verdict(True, dim, "bijective coalgebra morphism onto the finite dual")


def incidence_semiperfect_check(target, field=QQ) -> Verdict:
    """Finiteness of down-sets and up-sets, with rational-part certificates.

    For a finite poset the condition holds, and every basis functional
    E_{x,y} gets the rational-part certificate of ``dual.is_rational_left``:
    c*·E_{x,y} = Σ_{u <= x} c*(u,x)·E_{u,y}, the elements e_{u,x} of the
    down-set of x with their translates E_{u,y}, verified against every
    dual basis element c* = E_{p,q}.  The chain family on the naturals
    fails the condition upward; the antichain family satisfies it.  The
    witness is the list of verified certificates; a family has none.
    """
    if isinstance(target, Family):
        verdict = check_semiperfect_condition(target)
        return replace(verdict, data={**verdict.data, "certificates": 0})
    units = (Functional(target, support=SparseVector({i: field.one}), field=field) for i in target.intervals())
    certificates = [is_rational_left(e_xy, target).witness for e_xy in units]
    why = "finite poset: every down-set and up-set is finite; all certificates verified"
    return Verdict("yes", certificates, why, {"holds": True, "explanation": why, "certificates": len(certificates)})
