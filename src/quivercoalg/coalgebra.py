"""Coalgebra elements, comultiplication and the coalgebra-law kernel.

One element class serves the path coalgebra and the quiver algebra of a
quiver, and the incidence coalgebra and the finite-support incidence
algebra of a poset: a sparse combination of basis labels of a carrier.
Comultiplication splits a label into the carrier's pairs, the counit picks
out the grouplike part.
"""

from __future__ import annotations

from .linalg import (
    SparseVector,
    kernel_of_map,
    reduce_mod_span,
    rref,
)
from .quiver import Path, Quiver, enumerate_paths, is_acyclic
from .scalars import QQ


class CoalgElement:
    """Sparse exact-scalar combination of the basis labels of a carrier.

    The carrier is a ``Quiver`` (labels are its paths) or a ``Poset``
    (labels are its intervals ``(x, y)``).  It answers three basis
    questions: ``owns(label)``, ``splits(label)`` (the pairs of Δ) and
    ``is_grouplike(label)`` (where the counit is 1).
    """

    __slots__ = ("carrier", "combo")

    def __init__(self, carrier, combo: SparseVector):
        owns = carrier.owns
        for label in combo.labels():
            if not owns(label):
                raise ValueError(f"label {label!r} does not belong to {carrier!r}")
        self.carrier = carrier
        self.combo = combo

    @staticmethod
    def unit(carrier, label, field=QQ) -> "CoalgElement":
        return CoalgElement(carrier, SparseVector({label: field.one}))

    @staticmethod
    def from_path(path: Path, field=QQ) -> "CoalgElement":
        return CoalgElement.unit(path.quiver, path, field)

    @staticmethod
    def zero(carrier) -> "CoalgElement":
        return CoalgElement(carrier, SparseVector())

    def is_zero(self) -> bool:
        return self.combo.is_zero()

    def coeff(self, label):
        return self.combo.coeff(label)

    def __add__(self, other: "CoalgElement") -> "CoalgElement":
        self._check(other)
        return CoalgElement(self.carrier, self.combo + other.combo)

    def __sub__(self, other: "CoalgElement") -> "CoalgElement":
        self._check(other)
        return CoalgElement(self.carrier, self.combo - other.combo)

    def scale(self, coeff) -> "CoalgElement":
        return CoalgElement(self.carrier, self.combo.scale(coeff))

    def _check(self, other: "CoalgElement"):
        if self.carrier is not other.carrier:
            raise ValueError("elements belong to different carriers")

    def __eq__(self, other):
        return (
            isinstance(other, CoalgElement)
            and self.carrier is other.carrier
            and self.combo == other.combo
        )

    def __hash__(self):
        return hash((id(self.carrier), self.combo))

    def __str__(self):
        if self.combo.is_zero():
            return "0"
        parts = []
        for label, coeff in self.combo.sorted_items():
            if coeff == 1 or (hasattr(coeff, "value") and coeff.value == 1):
                parts.append(f"[{label}]")
            else:
                parts.append(f"{coeff}*[{label}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"CoalgElement({self})"


def comultiply(element: CoalgElement) -> SparseVector:
    """Δ over label pairs: each label goes to the sum of its carrier's
    splits (prefix/suffix pairs of a path, ((x,z),(z,y)) for an interval),
    extended linearly."""
    splits = element.carrier.splits
    return SparseVector(
        (pair, coeff) for label, coeff in element.combo.items() for pair in splits(label)
    )


def counit(element: CoalgElement):
    """Sum of the coefficients of the grouplike labels (falsy when zero)."""
    grouplike = element.carrier.is_grouplike
    total = 0
    for label, coeff in element.combo.items():
        if grouplike(label):
            total = total + coeff
    return total


def basis_tables(carrier, field=QQ):
    """Basis-level comultiplication and counit tables of the carrier's
    coalgebra, as functions of a label."""
    one, zero = field.one, field.zero
    return (
        lambda label: SparseVector((pair, one) for pair in carrier.splits(label)),
        lambda label: one if carrier.is_grouplike(label) else zero,
    )


# ---------------------------------------------------------------------------
# The coalgebra-law kernel: every law check in the library goes through these
# three functions.  They read basis-level tables (``delta(label)`` a
# SparseVector over label pairs, ``rho(label)`` one over (module index,
# coalgebra label) pairs, ``counit(label)`` a scalar) and return None, or
# (law, label) for the first failure; callers word their own messages.
# ---------------------------------------------------------------------------


def _sums_to_unit(terms, label) -> bool:
    """Whether the summed terms equal the basis vector at ``label``."""
    return SparseVector([*terms, (label, -1)]).is_zero()


def _comodule_failure(j, rho, delta, counit):
    coaction = rho(j)
    lhs = SparseVector(
        ((k, c, b), inner * coeff)
        for (i, b), coeff in coaction.items()
        for (k, c), inner in rho(i).items()
    )
    rhs = SparseVector(
        ((i, c, d), inner * coeff)
        for (i, b), coeff in coaction.items()
        for (c, d), inner in delta(b).items()
    )
    if lhs != rhs:
        return ("coassociativity", j)
    if not _sums_to_unit(((i, counit(b) * coeff) for (i, b), coeff in coaction.items()), j):
        return ("counit", j)
    return None


def check_comodule(basis, rho, delta, counit):
    """(ρ⊗id)ρ = (id⊗Δ)ρ and (id⊗ε)ρ = id on every basis label."""
    for j in basis:
        failure = _comodule_failure(j, rho, delta, counit)
        if failure is not None:
            return failure
    return None


def check_coalgebra(basis, delta, counit):
    """Coassociativity and both counit laws on every basis label: the
    coalgebra coacting on itself (ρ = Δ) plus (ε⊗id)Δ = id."""
    for b in basis:
        failure = _comodule_failure(b, delta, delta, counit)
        if failure is not None:
            return failure
        if not _sums_to_unit(((y, counit(x) * coeff) for (x, y), coeff in delta(b).items()), b):
            return ("left counit", b)
    return None


def _tensor_square(f, tensor):
    """The terms of (f⊗f)(tensor)."""
    for (a, b), coeff in tensor.items():
        image_b = f(b)
        for u, cu in f(a).items():
            for v, cv in image_b.items():
                yield (u, v), coeff * cu * cv


def check_morphism(basis, f, delta_src, delta_tgt, counit_src, counit_tgt):
    """Δ'∘f = (f⊗f)∘Δ and ε'∘f = ε on every basis label; ``f(label)`` is a
    SparseVector over target labels."""
    for x in basis:
        image = f(x)
        lhs = SparseVector(
            (pair, inner * coeff)
            for y, coeff in image.items()
            for pair, inner in delta_tgt(y).items()
        )
        if lhs != SparseVector(_tensor_square(f, delta_src(x))):
            return ("comultiplication", x)
        if sum((counit_tgt(y) * coeff for y, coeff in image.items()), -counit_src(x)):
            return ("counit", x)
    return None


def left_tensor_components(tensor: SparseVector) -> list[SparseVector]:
    """For each right label, the sparse vector of matching left parts."""
    grouped: dict = {}
    for (left, right), coeff in tensor.items():
        grouped.setdefault(right, []).append((left, coeff))
    return [SparseVector(dict(items)) for items in grouped.values()]


def right_tensor_components(tensor: SparseVector) -> list[SparseVector]:
    grouped: dict = {}
    for (left, right), coeff in tensor.items():
        grouped.setdefault(left, []).append((right, coeff))
    return [SparseVector(dict(items)) for items in grouped.values()]


def subcoalgebra_closure(elements) -> list[CoalgElement]:
    """Basis of the smallest subcoalgebra containing the given elements.

    Iterates comultiplication, adjoining the left and right tensor
    components (grouped over the label basis on the opposite side), until the
    span stabilizes.  The result is the canonical reduced basis; closing it
    again changes nothing.
    """
    elements = list(elements)
    if not elements:
        return []
    carrier = elements[0].carrier
    basis = rref([e.combo for e in elements])
    while True:
        vectors = list(basis)
        for vec in basis:
            tensor = comultiply(CoalgElement(carrier, vec))
            vectors.extend(left_tensor_components(tensor))
            vectors.extend(right_tensor_components(tensor))
        refined = rref(vectors)
        if len(refined) == len(basis):
            return [CoalgElement(carrier, v) for v in refined]
        basis = refined


class WedgeResult:
    def __init__(self, basis, exact: bool):
        self.basis = basis
        self.exact = exact

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)


def wedge(x_basis, y_basis, quiver: Quiver, max_len: int) -> WedgeResult:
    """The wedge X ∧ Y = Δ^{-1}(X ⊗ C + C ⊗ Y) within a path-length window.

    Exact when the quiver is acyclic and the window is exhaustive; otherwise
    the result is the truncated wedge and is flagged as such.
    """
    enum = enumerate_paths(quiver, max_len)
    rx = rref([e.combo for e in x_basis])
    ry = rref([e.combo for e in y_basis])
    residue_x = {p: reduce_mod_span(SparseVector.unit(p), rx) for p in enum.paths}
    residue_y = {p: reduce_mod_span(SparseVector.unit(p), ry) for p in enum.paths}

    def image_of(path: Path) -> SparseVector:
        return SparseVector(
            ((ll, rl), lc * rc)
            for left, right in path.splits()
            for ll, lc in residue_x[left].items()
            for rl, rc in residue_y[right].items()
        )

    kernel = kernel_of_map(enum.paths, image_of)
    basis = [CoalgElement(quiver, v) for v in kernel]
    return WedgeResult(basis, exact=enum.exhaustive)


def hull_span(vertex: str, side: str, quiver: Quiver, max_len=None) -> list[Path]:
    """Path basis of the injective hull span at a vertex.

    ``right`` collects the paths starting at the vertex, ``left`` the paths
    ending there.  Exhaustive for acyclic quivers; otherwise a window must
    be supplied.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if max_len is None:
        if not is_acyclic(quiver):
            raise ValueError("cyclic quiver: supply max_len for a truncated hull")
        max_len = max(0, len(quiver.vertices) - 1)
    enum = enumerate_paths(quiver, max_len)
    if side == "right":
        return [p for p in enum.paths if p.source == vertex]
    return [p for p in enum.paths if p.target == vertex]


def grouplike_coradical(quiver: Quiver) -> list[Path]:
    """The coradical basis: every vertex as a length-zero path."""
    return [quiver.vertex_path(v) for v in quiver.vertices]
