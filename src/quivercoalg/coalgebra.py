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
from .scalars import QQ, FieldError


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
# three functions.  They read basis-level tables (``delta[label]`` a row over
# label pairs, ``rho[label]`` one over (module index, coalgebra label) pairs,
# ``counit[label]`` a scalar), each a function of a label or an
# ``IntegerRows``, and return None, or (law, label) for the first failure;
# callers word their own messages.  A row is a SparseVector or an integer row
# ``(scale, {key: int})`` standing for the entries over the scale; a scalar
# is a field scalar or an integer row ``(scale, {0: int})``.  Each field row
# a call reads is converted once to numerators over a scale (residues mod p
# over GF(p)), and the laws at a label are compared on integers, multiplied
# by one common multiple of the scales they read.
# ---------------------------------------------------------------------------


class IntegerRows(dict):
    """Integer rows label -> (scale, {key: int}) built once by ``integer_rows``
    with their modulus ``p`` (0 for rationals) and, while p is 0, the field
    entries over a scale other than 1 (``rational``) a later modulus re-reads."""

    __slots__ = ("p", "rational")


def integer_rows(rows: dict, scalars: dict):
    """A table of rows and a table of scalars as two ``IntegerRows`` with
    one modulus, each entry converted once, as a kernel call would."""
    ints = _IntegerTables()
    tables = (IntegerRows((label, ints.convert(row.entries)) for label, row in rows.items()),
              IntegerRows((label, ints.convert({0: value})) for label, value in scalars.items()))
    for table in tables:
        table.p, table.rational = ints.p, ints.rational
    return tables


class _Memo(dict):
    """A table of one kernel call: a label read first is looked up and converted."""

    __slots__ = ("table", "convert", "scalar")

    def __missing__(self, label):
        got = self.table(label)
        if got.__class__ is not tuple:
            got = self.convert({0: got} if self.scalar else got.entries)
        self[label] = got
        return got


class _IntegerTables:
    """The tables of one kernel call as integers.  ``p`` is the modulus of
    the residues met so far, 0 for rationals; ``rational`` the entries over
    a scale other than 1 read before, which must have residues mod p too."""

    def __init__(self):
        self.p, self.rational = 0, []

    def _meet(self, p: int):
        if self.p not in (0, p):
            raise FieldError(f"mixed moduli {min(p, self.p)} and {max(p, self.p)}")
        self.p, rational, self.rational = p, self.rational, []
        for entries in rational:
            _integers(entries, p)

    def convert(self, entries: dict):
        if self.p:
            return _integers(entries, self.p)
        try:
            converted = _integers(entries, 0)
        except AttributeError:  # a residue (no denominator)
            self._meet(_modulus(entries.values()))
            return _integers(entries, self.p)
        if converted[0] != 1:
            self.rational.append(entries)
        return converted

    def table(self, table, scalar=False):
        """An ``IntegerRows`` as it is, any other table behind a memo."""
        if table.__class__ is IntegerRows:
            self.rational += table.rational
            if table.p or self.p:
                self._meet(table.p or self.p)
            return table
        memo = _Memo()
        memo.table, memo.convert, memo.scalar = table, self.convert, scalar
        return memo


_ONE, _ZERO = (1, {0: 1}), (1, {})  # the scalars 1 and 0 as integer rows


def _first_failure(basis, rho, delta, counit):
    """The first failure of ``check_comodule``, or with ``rho`` None of
    ``check_coalgebra`` (ρ = Δ), in one pass over the terms of each ρ(j)."""
    ints, left = _IntegerTables(), rho is None
    delta, counit = ints.table(delta), ints.table(counit, True)
    rho = delta if left else ints.table(rho)
    for j in basis:
        scale_j, coaction = rho[j]
        terms = [(i, b, n, rho[i], delta[b], counit[b], counit[i] if left else _ZERO) for (i, b), n in coaction.items()]
        # Each law at j times scale_j · scale, a common multiple of the scales read.
        scale = lcm(*[row[0] for term in terms for row in term[3:]])
        sums, right, left_sums = {}, {j: -scale * scale_j}, {j: -scale * scale_j}
        for i, b, n, (scale_i, inner), (scale_b, split), (e_b, u_b), (e_i, u_i) in terms:
            w = n * (scale // scale_i)
            for (k, c), m in inner.items():
                key = (k, c, b)
                sums[key] = sums.get(key, 0) + w * m
            w = n * (scale // scale_b)
            for (c, d), m in split.items():
                key = (i, c, d)
                sums[key] = sums.get(key, 0) - w * m
            if u_b:
                right[i] = right.get(i, 0) + n * u_b[0] * (scale // e_b)
            if u_i:
                left_sums[b] = left_sums.get(b, 0) + n * u_i[0] * (scale // e_i)
        if _nonzero(sums, ints.p):
            return ("coassociativity", j)
        if _nonzero(right, ints.p):
            return ("counit", j)
        if left and _nonzero(left_sums, ints.p):
            return ("left counit", j)
    return None


def check_comodule(basis, rho, delta, counit):
    """(ρ⊗id)ρ = (id⊗Δ)ρ and (id⊗ε)ρ = id on every basis label."""
    return _first_failure(basis, rho, delta, counit)


def check_coalgebra(basis, delta, counit):
    """Coassociativity and both counit laws on every basis label: the
    coalgebra coacting on itself (ρ = Δ) plus (ε⊗id)Δ = id."""
    return _first_failure(basis, None, delta, counit)


def check_morphism(basis, f, delta_src, delta_tgt, counit_src, counit_tgt):
    """Δ'∘f = (f⊗f)∘Δ and ε'∘f = ε on every basis label; ``f(label)`` is a
    row over target labels."""
    ints = _IntegerTables()
    f, delta_src, delta_tgt = ints.table(f), ints.table(delta_src), ints.table(delta_tgt)
    counit_src, counit_tgt = ints.table(counit_src, True), ints.table(counit_tgt, True)
    for x in basis:
        # Both sides of Δ'∘f = (f⊗f)∘Δ times scale_f · scale_x · scale, and
        # of ε'∘f = ε times scale_f · e_x · scale.
        scale_f, image = f[x]
        scale_x, split = delta_src[x]
        e_x, u_x = counit_src[x]
        image_terms = [(n, delta_tgt[y], counit_tgt[y]) for y, n in image.items()]
        split_terms = [(n, f[a], f[b]) for (a, b), n in split.items()]
        scale = lcm(*[row[0] for term in image_terms for row in term[1:]],
                    *[row_a[0] * row_b[0] for _, row_a, row_b in split_terms])
        sums, counit_sum = {}, -u_x.get(0, 0) * scale_f * scale
        for n, (scale_y, image_split), (e_y, u_y) in image_terms:
            w = n * scale_x * (scale // scale_y)
            for pair, m in image_split.items():
                sums[pair] = sums.get(pair, 0) + w * m
            if u_y:
                counit_sum += n * u_y[0] * (scale // e_y) * e_x
        for n, (scale_a, image_a), (scale_b, image_b) in split_terms:
            w = n * scale_f * (scale // (scale_a * scale_b))
            for u, cu in image_a.items():
                wu = w * cu
                for v, cv in image_b.items():
                    sums[u, v] = sums.get((u, v), 0) - wu * cv
        if _nonzero(sums, ints.p):
            return ("comultiplication", x)
        if counit_sum % ints.p if ints.p else counit_sum:
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
