"""The path coalgebra of a quiver.

The same sparse path combinations also serve as elements of the quiver
algebra (see ``algebra``); only the operations differ.  Comultiplication
splits a path into all prefix/suffix pairs, the counit picks out the
length-zero part.
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
    """Sparse exact-scalar combination of paths of a fixed quiver."""

    __slots__ = ("quiver", "combo")

    def __init__(self, quiver: Quiver, combo: SparseVector):
        for label in combo.labels():
            if not isinstance(label, Path) or label.quiver is not quiver:
                raise ValueError(f"label {label!r} does not belong to the quiver")
        self.quiver = quiver
        self.combo = combo

    @staticmethod
    def from_path(path: Path, field=QQ) -> "CoalgElement":
        return CoalgElement(path.quiver, SparseVector({path: field.one}))

    @staticmethod
    def zero(quiver: Quiver) -> "CoalgElement":
        return CoalgElement(quiver, SparseVector())

    @staticmethod
    def from_items(quiver: Quiver, items) -> "CoalgElement":
        return CoalgElement(quiver, SparseVector(dict(items)))

    def is_zero(self) -> bool:
        return self.combo.is_zero()

    def coeff(self, path: Path):
        return self.combo.coeff(path)

    def support(self):
        return sorted(self.combo.labels(), key=lambda p: p.sort_key)

    def __add__(self, other: "CoalgElement") -> "CoalgElement":
        self._check(other)
        return CoalgElement(self.quiver, self.combo + other.combo)

    def __sub__(self, other: "CoalgElement") -> "CoalgElement":
        self._check(other)
        return CoalgElement(self.quiver, self.combo - other.combo)

    def scale(self, coeff) -> "CoalgElement":
        return CoalgElement(self.quiver, self.combo.scale(coeff))

    def _check(self, other: "CoalgElement"):
        if self.quiver is not other.quiver:
            raise ValueError("elements belong to different quivers")

    def __eq__(self, other):
        return (
            isinstance(other, CoalgElement)
            and self.quiver is other.quiver
            and self.combo == other.combo
        )

    def __hash__(self):
        return hash((id(self.quiver), self.combo))

    def __str__(self):
        if self.combo.is_zero():
            return "0"
        parts = []
        for path, coeff in self.combo.sorted_items():
            if coeff == 1 or (hasattr(coeff, "value") and coeff.value == 1):
                parts.append(f"[{path}]")
            else:
                parts.append(f"{coeff}*[{path}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"CoalgElement({self})"


class TensorElement:
    """Sparse combination of ordered path pairs (an element of KΓ ⊗ KΓ')."""

    __slots__ = ("combo",)

    def __init__(self, combo: SparseVector):
        self.combo = combo

    def is_zero(self) -> bool:
        return self.combo.is_zero()

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.combo + other.combo)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.combo - other.combo)

    def scale(self, coeff) -> "TensorElement":
        return TensorElement(self.combo.scale(coeff))

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.combo == other.combo

    def __hash__(self):
        return hash(self.combo)

    def __str__(self):
        if self.combo.is_zero():
            return "0"
        return " + ".join(
            f"{coeff}*[{pair[0]}]⊗[{pair[1]}]" for pair, coeff in self.combo.sorted_items()
        )

    def __repr__(self):
        return f"TensorElement({self})"


def comultiply(element: CoalgElement) -> TensorElement:
    """Δ(p) = sum of q ⊗ r over all decompositions p = qr, extended linearly."""
    return TensorElement(
        SparseVector(
            (pair, coeff) for path, coeff in element.combo.items() for pair in path.splits()
        )
    )


def counit(element: CoalgElement):
    """Sum of the coefficients of the length-zero paths (falsy when zero)."""
    total = 0
    for path, coeff in element.combo.items():
        if path.length == 0:
            total = total + coeff
    return total


def path_delta(path: Path, field=QQ) -> SparseVector:
    """Basis-level comultiplication table of the path coalgebra."""
    return SparseVector((pair, field.one) for pair in path.splits())


def path_counit(path: Path, field=QQ):
    """Basis-level counit table of the path coalgebra."""
    return field.one if path.length == 0 else field.zero


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


def left_tensor_components(tensor: TensorElement) -> list[SparseVector]:
    """For each right path label, the sparse vector of matching left parts."""
    grouped: dict = {}
    for (left, right), coeff in tensor.combo.items():
        grouped.setdefault(right, []).append((left, coeff))
    return [SparseVector(dict(items)) for items in grouped.values()]


def right_tensor_components(tensor: TensorElement) -> list[SparseVector]:
    grouped: dict = {}
    for (left, right), coeff in tensor.combo.items():
        grouped.setdefault(left, []).append((right, coeff))
    return [SparseVector(dict(items)) for items in grouped.values()]


def subcoalgebra_closure(elements) -> list[CoalgElement]:
    """Basis of the smallest subcoalgebra containing the given elements.

    Iterates comultiplication, adjoining the left and right tensor
    components (grouped over the path basis on the opposite side), until the
    span stabilizes.  The result is the canonical reduced basis; closing it
    again changes nothing.
    """
    elements = list(elements)
    if not elements:
        return []
    quiver = elements[0].quiver
    basis = rref([e.combo for e in elements])
    while True:
        vectors = list(basis)
        for vec in basis:
            tensor = comultiply(CoalgElement(quiver, vec))
            vectors.extend(left_tensor_components(tensor))
            vectors.extend(right_tensor_components(tensor))
        refined = rref(vectors)
        if len(refined) == len(basis):
            return [CoalgElement(quiver, v) for v in refined]
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
