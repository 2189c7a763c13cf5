"""Locally finite posets, incidence coalgebras, incidence algebras, and the
finite-support subalgebra with enough idempotents.

Finite posets are input by cover relations; the reflexive-transitive
closure is computed and validated.  The two built-in infinite posets, the
chain and the antichain on the natural numbers, are ``quiver.FAMILIES``
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coalgebra import CoalgElement, basis_tables, check_morphism
from .finite_dual import DualCoalgebra, StructuredAlgebra
from .linalg import SparseVector, label_sort_key, rank
from .quiver import Family, Quiver, Verdict, check_semiperfect_condition, enumerate_paths
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
    # the one-point intervals.
    def owns(self, label) -> bool:
        return label in self.leq

    def splits(self, interval):
        x, y = interval
        return [((x, z), (z, y)) for z in self.closed_interval(x, y)]

    @staticmethod
    def is_grouplike(interval) -> bool:
        return interval[0] == interval[1]

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
        quiver = hasse_quiver(poset)
        enum = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1))
        if not enum.exhaustive:
            raise AssertionError("Hasse quiver of a finite poset must be acyclic")
        table: dict = {}
        for p in enum.paths:
            table.setdefault((p.source, p.target), []).append(p)
        poset._paths_between = table
    return poset._paths_between


def phi_embed(element: CoalgElement) -> CoalgElement:
    """The interval e_{x,y} goes to the sum of all Hasse-quiver paths from x
    to y; an injective coalgebra morphism, surjective exactly when paths
    between points are unique."""
    quiver = hasse_quiver(element.carrier)
    table = _paths_between(element.carrier)
    return CoalgElement(
        quiver,
        SparseVector(
            (p, coeff)
            for (x, y), coeff in element.combo.items()
            for p in table.get((str(x), str(y)), [])
        ),
    )


def incidence_convolve(f: CoalgElement, g: CoalgElement) -> CoalgElement:
    """Product of the finite-support incidence algebra, on interval
    functions: (fg)(x,y) = sum over x <= z <= y of f(x,z) g(z,y).  Only
    pairs of support intervals that meet at z contribute."""
    if f.carrier is not g.carrier:
        raise ValueError("functions on different posets")
    g_from = {}  # g's support, indexed by the lower end of the interval
    for (z, y), c in g.combo.items():
        g_from.setdefault(z, []).append((y, c))
    product = SparseVector(
        ((x, y), a * c) for (x, z), a in f.combo.items() for y, c in g_from.get(z, ())
    )
    ordered = sorted(product.items(), key=lambda item: _interval_order(item[0]))
    return CoalgElement(f.carrier, SparseVector(dict(ordered)))


def fia_structured_algebra(poset: Poset, field=QQ) -> StructuredAlgebra:
    """The finite-support incidence algebra as structure constants: the
    E_{x,y} multiply like matrix units along composable intervals, and the
    diagonal ones form the complete orthogonal idempotent system."""
    basis = poset.intervals()
    mult = {}
    for (x, y) in basis:
        for (u, v) in basis:
            if y == u:
                mult[((x, y), (u, v))] = (
                    SparseVector({(x, v): field.one}) if (x, v) in poset.leq else SparseVector()
                )
    mult = {k: v for k, v in mult.items() if not v.is_zero()}
    idempotents = [(x, x) for x in poset.elements]
    return StructuredAlgebra(basis, mult, idempotents, field, name=f"FIA({poset.name})")


@dataclass
class IncidenceRecoveryReport:
    isomorphism: bool
    dimension: int
    explanation: str

    def __bool__(self):
        return self.isomorphism


def incidence_dual_recovery_check(poset: Poset, field=QQ) -> IncidenceRecoveryReport:
    """The incidence coalgebra is the finite dual of the finite-support
    incidence algebra: the evaluation map interval -> dual basis vector is a
    bijective coalgebra morphism.  Verified exactly on every interval."""
    algebra = fia_structured_algebra(poset, field)
    # Building the algebra checked these tables' coalgebra laws.
    dual = DualCoalgebra(algebra, validate=False)
    delta, eps = basis_tables(poset)
    failure = check_morphism(
        poset.intervals(),
        lambda interval: SparseVector.unit(interval, field),
        delta,
        dual.delta_table.__getitem__,
        eps,
        dual.counit_table.__getitem__,
    )
    if failure is not None:
        law, interval = failure
        return IncidenceRecoveryReport(False, len(algebra.basis), f"{law} mismatch at {interval}")
    dim = len(poset.intervals())
    vectors = [SparseVector.unit(interval) for interval in poset.intervals()]
    if rank(vectors) != dim:
        raise AssertionError("dual basis vectors are not independent; bug")
    return IncidenceRecoveryReport(True, dim, "bijective coalgebra morphism onto the finite dual")


@dataclass
class SemiperfectCertificate:
    interval: tuple
    below: list  # elements u <= x
    identity_checked: bool


def incidence_semiperfect_check(target, field=QQ) -> Verdict:
    """Finiteness of down-sets and up-sets, with rational-part certificates.

    For a finite poset the condition holds, and for every basis functional
    E_{x,y} the certificate expresses c*·E_{x,y} through the elements
    e_{u,x} with u <= x; the identity is verified against every dual basis
    element c* = E_{p,q}.  The chain family on the naturals fails the
    condition upward; the antichain family satisfies it.  The witness is
    the list of verified certificates; a family has none.
    """
    if isinstance(target, Family):
        return check_semiperfect_condition(target)
    poset: Poset = target
    certificates = []
    for (x, y) in poset.intervals():
        e_xy = CoalgElement.unit(poset, (x, y), field)
        below = [u for u in poset.elements if (u, x) in poset.leq]
        for (p, q) in poset.intervals():
            c_star = CoalgElement.unit(poset, (p, q), field)
            left = incidence_convolve(c_star, e_xy)
            right = SparseVector(((u, y), field.one * c_star.coeff((u, x))) for u in below)
            if left.combo != right:
                raise AssertionError(f"certificate identity fails at {(x, y)} against {(p, q)}")
        certificates.append(SemiperfectCertificate((x, y), below, True))
    return Verdict(
        "yes", certificates, "finite poset: every down-set and up-set is finite; all certificates verified"
    )
