"""Sparse exact linear algebra over an arbitrary exact field.

Vectors are sparse maps from hashable basis labels to nonzero scalars.
All elimination routines pivot along a fixed total order on labels
(``label_sort_key``), so every output basis is canonical: two generating
sets spanning the same subspace reduce to the identical basis.
"""

from __future__ import annotations

from .scalars import QQ


def label_sort_key(label):
    """Total order on basis labels of any of the kinds used in the library.

    Objects may carry their own ``sort_key`` attribute (paths do); tuples are
    ordered componentwise; everything else falls back to its string form.
    Keys are type-tagged so heterogeneous label sets still compare.
    """
    key = getattr(label, "sort_key", None)
    if key is not None:
        return ("k",) + tuple(key)
    if isinstance(label, tuple):
        return ("t", tuple(label_sort_key(part) for part in label))
    if isinstance(label, int):
        return ("i", label)
    return ("s", str(label))


class SparseVector:
    """Sparse linear combination over a set of basis labels.

    Built from a dict ``{label: coeff}`` or from an iterable of
    ``(label, coeff)`` terms.  Terms with a repeated label are summed in
    place, so ``SparseVector(gen)`` is the one way to accumulate a sum; it
    equals the left fold of ``+`` over the one-term vectors.  Zero
    coefficients, given or summed, are never stored.  Instances are treated
    as immutable; all arithmetic returns fresh vectors.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = out = {}
        if entries is None:
            return
        if isinstance(entries, dict):
            for label, coeff in entries.items():
                if coeff:
                    out[label] = coeff
            return
        for label, coeff in entries:
            if not coeff:
                continue
            acc = out.get(label)
            if acc is None:
                out[label] = coeff
            elif total := acc + coeff:
                out[label] = total
            else:
                del out[label]

    @staticmethod
    def unit(label, field=QQ):
        return SparseVector({label: field.one})

    def is_zero(self) -> bool:
        return not self.entries

    def coeff(self, label):
        return self.entries.get(label, 0)

    def labels(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self.entries)
        for label, coeff in other.entries.items():
            acc = out.get(label)
            total = coeff if acc is None else acc + coeff
            if total:
                out[label] = total
            else:
                out.pop(label, None)
        result = SparseVector()
        result.entries = out
        return result

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(-1)

    def scale(self, coeff) -> "SparseVector":
        if not coeff:
            return SparseVector()
        result = SparseVector()
        result.entries = {label: c * coeff for label, c in self.entries.items()}
        return result

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset((k, v) for k, v in self.entries.items()))

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda kv: label_sort_key(kv[0]))

    def __repr__(self):
        if not self.entries:
            return "SparseVector(0)"
        body = " + ".join(f"{c}*{label}" for label, c in self.sorted_items())
        return f"SparseVector({body})"


# ---------------------------------------------------------------------------
# Elimination core.  Rows are plain dicts.  Marker labels of the form
# ("#coeff", key) carry bookkeeping coefficients; they are never pivots.
# ---------------------------------------------------------------------------


def _is_marker(label) -> bool:
    return isinstance(label, tuple) and len(label) == 2 and label[0] == "#coeff"


def _subtract_multiple(row: dict, pivot_row: dict, coeff) -> None:
    for plabel, pcoeff in pivot_row.items():
        acc = row.get(plabel)
        total = (0 if acc is None else acc) - coeff * pcoeff
        if total:
            row[plabel] = total
        else:
            row.pop(plabel, None)


def _eliminate(row: dict, pivots: dict) -> dict:
    """Eliminate every pivot label from the row (smallest label first).

    Pivot rows satisfy the invariant that all their labels are >= their own
    lead, so the minimal pivotable label strictly increases and the loop
    terminates regardless of whether the pivots are fully back-substituted.
    """
    while True:
        hits = [label for label in row if not _is_marker(label) and label in pivots]
        if not hits:
            return row
        label = min(hits, key=label_sort_key)
        _subtract_multiple(row, pivots[label], row[label])


def _row_lead(row: dict):
    main = [label for label in row if not _is_marker(label)]
    if not main:
        return None
    return min(main, key=label_sort_key)


def _insert_echelon(row: dict, pivots: dict):
    """Normalize a reduced row and register it without back-substitution."""
    lead = _row_lead(row)
    if lead is None:
        return None
    inv = row[lead]
    pivots[lead] = {label: coeff / inv for label, coeff in row.items()}
    return lead


def rref(vectors) -> list[SparseVector]:
    """Canonical reduced basis of the span of the given vectors.

    The result depends only on the span, not on the generating set: pivots
    are chosen along the fixed label order.  Rows are reduced to echelon
    form first and back-substituted once at the end, in decreasing lead
    order, so each row is cleared only of leads that are already final.
    """
    pivots: dict = {}
    for v in vectors:
        row = _eliminate(dict(v.entries), pivots)
        _insert_echelon(row, pivots)
    leads = sorted(pivots, key=label_sort_key)
    for lead in reversed(leads):
        row = pivots[lead]
        for label in [label for label in row if label != lead and label in pivots]:
            _subtract_multiple(row, pivots[label], row[label])
    basis = []
    for lead in leads:
        vec = SparseVector()
        vec.entries = pivots[lead]
        basis.append(vec)
    return basis


def rank(vectors) -> int:
    pivots: dict = {}
    for v in vectors:
        row = _eliminate(dict(v.entries), pivots)
        _insert_echelon(row, pivots)
    return len(pivots)


def reducer(rref_basis):
    """Residue map modulo the span of an ``rref`` basis.

    The pivot map (each basis row under its lead) is built once; the
    returned ``reduce(v)`` gives the canonical residue of v as a fresh
    SparseVector.  Rows of an ``rref`` basis hold no other row's lead, so
    clearing the leads present in v, smallest first, leaves none behind.
    """
    pivots = {_row_lead(b.entries): b.entries for b in rref_basis if b.entries}
    order = {lead: i for i, lead in enumerate(sorted(pivots, key=label_sort_key))}

    def reduce(v: SparseVector) -> SparseVector:
        row = dict(v.entries)
        for label in sorted((label for label in row if label in pivots), key=order.__getitem__):
            _subtract_multiple(row, pivots[label], row[label])
        residue = SparseVector()
        residue.entries = row
        return residue

    return reduce


def in_span(v: SparseVector, rref_basis) -> bool:
    """Membership test against a precomputed ``rref`` basis."""
    return reducer(rref_basis)(v).is_zero()


def solve_membership(v: SparseVector, generators) -> list | None:
    """Coefficients expressing v in terms of the generators, or None.

    Deterministic: Gaussian elimination with pivoting along the fixed label
    order; the certificate satisfies ``v == sum(c_i * g_i)`` exactly.
    """
    generators = list(generators)
    pivots: dict = {}
    for index, g in enumerate(generators):
        row = dict(g.entries)
        row[("#coeff", index)] = _one_like(g)
        row = _eliminate(row, pivots)
        _insert_echelon(row, pivots)
    residue = _eliminate(dict(v.entries), pivots)
    if any(not _is_marker(label) for label in residue):
        return None
    coeffs = [0] * len(generators)
    for label, coeff in residue.items():
        coeffs[label[1]] = -coeff
    return coeffs


def _one_like(v: SparseVector):
    if not v.entries:
        return 1
    coeff = next(iter(v.entries.values()))
    return coeff / coeff


def codimension_of_span(generators, ambient_basis) -> int:
    """dim(ambient) - rank(generators); generators must live in the ambient."""
    generators = list(generators)
    ambient = set(ambient_basis)
    for g in generators:
        for label in g.labels():
            if label not in ambient:
                raise ValueError(f"generator label outside ambient basis: {label!r}")
    return len(ambient) - rank(generators)


def kernel_of_map(domain_labels, image_of) -> list[SparseVector]:
    """Canonical basis of the kernel of a linear map given on domain labels.

    ``image_of(label)`` must return a SparseVector over the image labels.
    """
    pivots: dict = {}
    kernel_rows = []
    for label in sorted(domain_labels, key=label_sort_key):
        row = dict(image_of(label).entries)
        row[("#coeff", label)] = 1
        row = _eliminate(row, pivots)
        if _row_lead(row) is None:
            kernel_rows.append(SparseVector({l[1]: c for l, c in row.items()}))
        else:
            _insert_echelon(row, pivots)
    return rref(kernel_rows)


def span_intersection(basis_a, basis_b) -> list[SparseVector]:
    """Canonical basis of span(A) ∩ span(B)."""
    basis_a = list(basis_a)
    basis_b = list(basis_b)
    domain = [("a", i) for i in range(len(basis_a))] + [("b", j) for j in range(len(basis_b))]

    def image_of(marker):
        side, index = marker
        return basis_a[index] if side == "a" else basis_b[index].scale(-1)

    combos = kernel_of_map(domain, image_of)
    members = [
        SparseVector(
            (label, c * coeff)
            for (side, index), coeff in combo.items()
            if side == "a"
            for label, c in basis_a[index].items()
        )
        for combo in combos
    ]
    return rref(members)


def spans_equal(basis_a, basis_b) -> bool:
    return rref(basis_a) == rref(basis_b)


# ---------------------------------------------------------------------------
# Small dense matrices (tuples of tuples of scalars), used by representations
# and the rank-1 splitting of 2x2 systems.
# ---------------------------------------------------------------------------


def mat_zero(rows: int, cols: int, field=QQ):
    return tuple(tuple(field.zero for _ in range(cols)) for _ in range(rows))


def mat_identity(n: int, field=QQ):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _sparse_rows(m):
    return [[(j, y) for j, y in enumerate(row) if y] for row in m]


def _row_times(vec, sparse_rows, zero, width):
    """vec times the matrix whose nonzero entries are ``sparse_rows``."""
    acc = [zero] * width
    for x, row in zip(vec, sparse_rows):
        if x:
            for j, y in row:
                acc[j] += x * y
    return tuple(acc)


def mat_mul(a, b):
    """Dense product that skips zero entries of both factors.

    Entries of the result that no term reaches are the field's zero, taken
    as ``0 * a[0][0] * b[0][0]``, as a sum over every term would give."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    width = len(b[0]) if b else 0
    if not (a and width):
        return tuple(() for _ in a)
    rows = _sparse_rows(b)
    zero = 0 * a[0][0] * b[0][0]
    return tuple(_row_times(ra, rows, zero, width) for ra in a)


def vec_mat(vec, m):
    """Row vector times matrix (right-action convention)."""
    if len(vec) != len(m):
        raise ValueError("shape mismatch in vec_mat")
    width = len(m[0]) if m else 0
    if not width:
        return ()
    return _row_times(vec, _sparse_rows(m), 0 * vec[0] * m[0][0], width)


def mat_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        # Rows equal entry by entry have zero differences; only other rows
        # (or rows of different scalar types) are compared by subtraction.
        if ra != rb and any(x - y for x, y in zip(ra, rb)):
            return False
    return True


def mat_rank(m) -> int:
    rows = [SparseVector({j: x for j, x in enumerate(row) if x}) for row in m]
    return rank(rows)


def mat_is_zero(m) -> bool:
    return all(not x for row in m for x in row)


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def rank1_decompose_2x2(m, field=QQ):
    """Split a 2x2 matrix into two summands of rank at most one.

    Fixed rule: when the (0,0) entry is nonzero the first summand is the
    first column times the row (1, m01/m00); when only the (1,0) entry of the
    first column is nonzero the first summand keeps that entry alone;
    otherwise the first column is zero and m itself already has rank <= 1.
    """
    a, b = m[0]
    c, d = m[1]
    zero = field.zero
    if a:
        first = ((a, b), (c, c * b / a))
    elif c:
        first = ((zero, zero), (c, zero))
    else:
        first = ((a, b), (c, d))
    second = mat_sub(m, first)
    return first, second


def rank1_factor_2x2(m, field=QQ):
    """Write a rank <= 1 matrix as an outer product column * row."""
    zero, one = field.zero, field.one
    if det2(m):
        raise ValueError("matrix has rank 2, not an outer product")
    for j in (0, 1):
        col = (m[0][j], m[1][j])
        if col[0] or col[1]:
            i = 0 if col[0] else 1
            other = 1 - j
            ratio = m[i][other] / col[i]
            row = (one, ratio) if j == 0 else (ratio, one)
            return col, row
    return (zero, zero), (zero, zero)
