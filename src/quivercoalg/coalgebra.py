"""Coalgebra elements, comultiplication and the coalgebra-law kernel.

One element class serves the path coalgebra and the quiver algebra of a
quiver, and the incidence coalgebra and the finite-support incidence
algebra of a poset: a sparse combination of basis labels of a carrier.
Comultiplication splits a label into the carrier's pairs, the counit picks
out the grouplike part.
"""

from __future__ import annotations

from math import lcm

from .linalg import (
    SparseVector,
    _integers,
    _modulus,
    _nonzero,
    kernel_of_map,
    reducer,
    rref,
)
from .quiver import Path, Quiver, enumerate_paths
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


def basis_tables(carrier):
    """Basis-level comultiplication and counit tables of the carrier's
    coalgebra, as functions of a label, in the law kernel's integer form:
    Δ(label) is ``(1, {pair: 1})`` over the carrier's splits, ε(label) is
    ``(1, {0: 1})`` on grouplike labels and ``(1, {})`` elsewhere.  The
    structure constants are 0 and 1, so the tables serve every field."""
    splits, grouplike = carrier.splits, carrier.is_grouplike
    return (
        lambda label: (1, dict.fromkeys(splits(label), 1)),
        lambda label: _ONE if grouplike(label) else _ZERO,
    )


def linear_extension(table, combo: SparseVector) -> SparseVector:
    """Σ c·table(label) over the combination, for a table of integer rows
    ``(1, {key: n})`` such as the embeddings' basis tables."""
    return SparseVector((key, coeff * n) for label, coeff in combo.items() for key, n in table(label)[1].items())


# ---------------------------------------------------------------------------
# The coalgebra-law kernel: every law check in the library goes through these
# three functions.  They read basis-level tables (``delta(label)`` a row over
# label pairs, ``rho(label)`` one over (module index, coalgebra label) pairs,
# ``counit(label)`` a scalar) and return None, or (law, label) for the first
# failure; callers word their own messages.  A row is a SparseVector or an
# integer row ``(scale, {key: int})`` standing for the entries over the
# scale; a scalar is a field scalar or an integer row ``(scale, {0: int})``.
# The arithmetic is on integers: each field row or scalar a call reads is
# converted once, to numerators over a scale (residues mod p over GF(p)),
# and both sides of a law are multiplied by a common multiple of their
# scales before they are compared.
# ---------------------------------------------------------------------------


class _IntegerTables:
    """The tables of one kernel call as integers: each field row or scalar
    is converted by ``linalg._integers`` on first use, an integer row is
    taken as it is, and either is kept for the call.  ``p`` is the modulus
    of the residues met so far, 0 for rationals."""

    def __init__(self):
        self.p, self._rational = 0, []

    def _convert(self, entries: dict):
        if self.p:
            return _integers(entries, self.p)
        try:
            converted = _integers(entries, 0)
        except AttributeError:  # a residue (no denominator): the rows read before need residues too
            self.p = _modulus(entries.values())
            for rational in self._rational:
                _integers(rational, self.p)
            return _integers(entries, self.p)
        self._rational.append(entries)
        return converted

    def rows(self, table):
        """label -> (scale, {key: int}) of a table of rows."""
        return self._memo(table, lambda row: row.entries)

    def scalars(self, table):
        """label -> (scale, {0: int}) of a table of scalars."""
        return self._memo(table, lambda value: {0: value})

    def _memo(self, table, entries_of):
        memo = {}

        def converted(label):
            got = memo.get(label)
            if got is None:
                got = table(label)
                if got.__class__ is not tuple:
                    got = self._convert(entries_of(got))
                memo[label] = got
            return got

        return converted


_ONE, _ZERO = (1, {0: 1}), (1, {})  # the scalars 1 and 0 as integer rows


def _counit_differs(terms, counit, scale_j, key, value, p) -> bool:
    """Whether Σ ε(b)·n / scale_j over the (index, b, n) terms, index by
    index, differs from the scalar ``value`` = (e, {0: u}), that is u/e, at
    ``key`` and from zero elsewhere."""
    e, u = value[0], value[1].get(0, 0)
    terms = [(i, counit(b), n) for i, b, n in terms]
    scale = lcm(*[scale_b for _, (scale_b, _), _ in terms])
    sums = {key: -u * scale * scale_j}
    for i, (scale_b, value_b), n in terms:
        sums[i] = sums.get(i, 0) + n * value_b.get(0, 0) * (scale // scale_b) * e
    return _nonzero(sums, p)


def _comodule_failure(j, rho, delta, counit, ints):
    scale_j, coaction = rho(j)
    terms = [(i, b, n, rho(i), delta(b)) for (i, b), n in coaction.items()]
    scale = lcm(*[row_i[0] for *_, row_i, _ in terms], *[row_b[0] for *_, row_b in terms])
    sums = {}
    for i, b, n, (scale_i, inner), (scale_b, split) in terms:
        w = n * (scale // scale_i)
        for (k, c), m in inner.items():
            key = (k, c, b)
            sums[key] = sums.get(key, 0) + w * m
        w = n * (scale // scale_b)
        for (c, d), m in split.items():
            key = (i, c, d)
            sums[key] = sums.get(key, 0) - w * m
    if _nonzero(sums, ints.p):
        return ("coassociativity", j)
    if _counit_differs([(i, b, n) for (i, b), n in coaction.items()], counit, scale_j, j, _ONE, ints.p):
        return ("counit", j)
    return None


def check_comodule(basis, rho, delta, counit):
    """(ρ⊗id)ρ = (id⊗Δ)ρ and (id⊗ε)ρ = id on every basis label."""
    ints = _IntegerTables()
    rho, delta, counit = ints.rows(rho), ints.rows(delta), ints.scalars(counit)
    for j in basis:
        failure = _comodule_failure(j, rho, delta, counit, ints)
        if failure is not None:
            return failure
    return None


def check_coalgebra(basis, delta, counit):
    """Coassociativity and both counit laws on every basis label: the
    coalgebra coacting on itself (ρ = Δ) plus (ε⊗id)Δ = id."""
    ints = _IntegerTables()
    delta, counit = ints.rows(delta), ints.scalars(counit)
    for b in basis:
        failure = _comodule_failure(b, delta, delta, counit, ints)
        if failure is not None:
            return failure
        scale_b, split = delta(b)
        if _counit_differs([(y, x, n) for (x, y), n in split.items()], counit, scale_b, b, _ONE, ints.p):
            return ("left counit", b)
    return None


def check_morphism(basis, f, delta_src, delta_tgt, counit_src, counit_tgt):
    """Δ'∘f = (f⊗f)∘Δ and ε'∘f = ε on every basis label; ``f(label)`` is a
    row over target labels."""
    ints = _IntegerTables()
    f, delta_src, delta_tgt = ints.rows(f), ints.rows(delta_src), ints.rows(delta_tgt)
    counit_src, counit_tgt = ints.scalars(counit_src), ints.scalars(counit_tgt)
    for x in basis:
        # Both sides times scale_f · scale_x · scale.
        scale_f, image = f(x)
        scale_x, split = delta_src(x)
        image_terms = [(n, delta_tgt(y)) for y, n in image.items()]
        split_terms = [(n, f(a), f(b)) for (a, b), n in split.items()]
        scale = lcm(*[row[0] for _, row in image_terms], *[row_a[0] * row_b[0] for _, row_a, row_b in split_terms])
        sums = {}
        for n, (scale_y, image_split) in image_terms:
            w = n * scale_x * (scale // scale_y)
            for pair, m in image_split.items():
                sums[pair] = sums.get(pair, 0) + w * m
        for n, (scale_a, image_a), (scale_b, image_b) in split_terms:
            w = n * scale_f * (scale // (scale_a * scale_b))
            for u, cu in image_a.items():
                wu = w * cu
                for v, cv in image_b.items():
                    sums[u, v] = sums.get((u, v), 0) - wu * cv
        if _nonzero(sums, ints.p):
            return ("comultiplication", x)
        if _counit_differs([(x, y, n) for y, n in image.items()], counit_tgt, scale_f, x, counit_src(x), ints.p):
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


def _closed_span(vectors, grow) -> list[SparseVector]:
    """Canonical ``rref`` basis of the smallest span that holds the vectors
    and ``grow(vec)`` of each of its vectors, ``grow`` linear.  Each round
    grows only the frontier, the rows new to the span, which with the old
    basis span it; the closure stops when the rank does not grow."""
    basis = rref(vectors)
    frontier = basis
    while frontier:
        grown = list(basis)
        for vec in frontier:
            grown.extend(grow(vec))
        refined = rref(grown)
        if len(refined) == len(basis):
            break
        old = set(basis)
        frontier = [vec for vec in refined if vec not in old]
        basis = refined
    return basis


def subcoalgebra_span(vectors, delta) -> list[SparseVector]:
    """Canonical ``rref`` basis of the smallest span that contains the
    vectors and the left and right tensor components of ``delta`` of each
    of its vectors (grouped over the label basis on the opposite side);
    components are linear in the tensor."""

    def components(vec):
        tensor = delta(vec)
        return left_tensor_components(tensor) + right_tensor_components(tensor)

    return _closed_span(vectors, components)


def subcoalgebra_closure(elements) -> list[CoalgElement]:
    """Basis of the smallest subcoalgebra containing the given elements.

    The result is the canonical reduced basis; closing it again changes
    nothing.
    """
    elements = list(elements)
    if not elements:
        return []
    carrier = elements[0].carrier
    basis = subcoalgebra_span([e.combo for e in elements], lambda vec: comultiply(CoalgElement(carrier, vec)))
    return [CoalgElement(carrier, v) for v in basis]


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
    reduce_x = reducer(rref([e.combo for e in x_basis]))
    reduce_y = reducer(rref([e.combo for e in y_basis]))
    residue_x = {p: reduce_x(SparseVector.unit(p)) for p in enum.paths}
    residue_y = {p: reduce_y(SparseVector.unit(p)) for p in enum.paths}

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
    paths = quiver.basis() if max_len is None else enumerate_paths(quiver, max_len).paths
    if side == "right":
        return [p for p in paths if p.source == vertex]
    return [p for p in paths if p.target == vertex]


def grouplike_coradical(quiver: Quiver) -> list[Path]:
    """The coradical basis: every vertex as a length-zero path."""
    return quiver.grouplikes()
