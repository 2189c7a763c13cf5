"""Sparse exact linear algebra over an arbitrary exact field.

Vectors are sparse maps from hashable basis labels to nonzero scalars.
All elimination routines pivot along a fixed total order on labels
(``label_sort_key``), so every output basis is canonical: two generating
sets spanning the same subspace reduce to the identical basis.  Results
hold the field's scalars: ``Fraction`` over the rationals (ints are read as
rationals), ``ModP`` over GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, inf, lcm

from .scalars import QQ, FieldError, ModP


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
# Elimination kernel.  Each call ranks its labels once, in label_sort_key
# order, and works on rows {rank: int}: over QQ primitive integer vectors
# combined fraction-free, over GF(p) residues mod p made monic at their lead.
# Columns ranked at or after ``main`` carry bookkeeping coefficients and are
# never leads.  Field scalars appear only at the boundary.
#
# Over QQ a pivot step cancels only gcd(a, b) of the two leads; a row's
# content is divided out once, when its reduction ends.  rref feeds its rows
# largest lead first, so back-substitution has little left to clear.  Each
# label gets one sort key (paths one length at a time, to bound the keys
# alive), and each distinct output value one scalar object.
#
# rank, kernel_of_map and solve_membership peel before they eliminate.  A
# row that alone holds some label (with a nonzero entry) has coefficient 0
# in every relation among the rows, so it adds one to the rank, its domain
# label is 0 in every kernel vector and its generator 0 in every solution;
# dropping it may leave another label with one holder.  Peeling runs on the
# integer entries, after every scalar is read (a bad one still raises, a
# rational that is 0 mod p is no entry), and on real labels only: a marker
# column is unique to its row.  Only the rows left are ranked and reduced.
# ---------------------------------------------------------------------------


def _rank_labels(labels) -> dict:
    """Label -> rank in ``label_sort_key`` order, one sort key per label.
    Plain ints sort as themselves.  Paths (whose class has ``sort_key``) sort
    one length at a time, after the ints and before the other labels."""
    labels = list(labels)
    if all(type(label) is int for label in labels):
        return {label: rank for rank, label in enumerate(sorted(labels))}
    buckets: dict = {}
    for label in labels:
        coarse = label.length if hasattr(type(label), "sort_key") else -1 if isinstance(label, int) else inf
        buckets.setdefault(coarse, []).append(label)
    ordered = (label for coarse in sorted(buckets) for label in sorted(buckets[coarse], key=label_sort_key))
    return {label: rank for rank, label in enumerate(ordered)}


def _modulus(scalars, field=None) -> int:
    """The modulus of the scalars' field: p when they (or ``field``) are
    residues mod p, 0 for the rationals."""
    moduli = {c.p for c in scalars if isinstance(c, ModP)}
    moduli.update([field.p] if hasattr(field, "p") else [])
    if len(moduli) > 1:
        raise FieldError(f"mixed moduli {' and '.join(map(str, sorted(moduli)))}")
    return moduli.pop() if moduli else 0


def _integers(entries: dict, p: int):
    """``(scale, ints)`` with ``entries[k] == ints[k] / scale`` in the field:
    over the rationals (p = 0) the numerators over the least common
    denominator, over GF(p) the nonzero residues mod p with scale 1."""
    if p:
        for c in entries.values():
            if isinstance(c, ModP):
                if c.p != p:
                    raise FieldError(f"mixed moduli {min(p, c.p)} and {max(p, c.p)}")
            elif not c.denominator % p:
                raise FieldError(f"rational {c} has no residue mod {p}")
        return 1, {k: r for k, c in entries.items()
                   if (r := c.value if isinstance(c, ModP) else c.numerator * pow(c.denominator, -1, p) % p)}
    scale = lcm(*[c.denominator for c in entries.values()])
    if scale == 1:
        return 1, {k: c.numerator for k, c in entries.items()}
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in entries.items()}


def _nonzero(sums: dict, p: int) -> bool:
    """Whether some integer sum is nonzero (mod p when p)."""
    return any(v % p for v in sums.values()) if p else any(sums.values())


def _converted(vectors, field=None):
    """The modulus (0 for the rationals) and the ``(scale, ints)`` of every
    vector from ``_integers``."""
    p = _modulus((c for v in vectors for c in v.entries.values()), field)
    return p, [_integers(v.entries, p) for v in vectors]


def _peel(converted, held=()) -> list:
    """The ``(index, (scale, ints))`` pairs of the converted vectors left by
    peeling, in order.

    A label held by one remaining vector drops that vector; labels in
    ``held`` never drop one.  Each label keeps its holder count and the sum
    of its holders' indices, which names the holder once the count is 1, so
    the peeling is linear in the entries."""
    count, total = dict.fromkeys(held, 2), {}  # a held label's count never falls to 1
    for index, (_, ints) in enumerate(converted):
        for label in ints:
            count[label] = count.get(label, 0) + 1
            total[label] = total.get(label, 0) + index
    queue = [label for label, n in count.items() if n == 1]
    kept = [True] * len(converted)
    while queue:
        label = queue.pop()
        if count[label] != 1:
            continue
        index = total[label]
        kept[index] = False
        for other in converted[index][1]:
            count[other] -= 1
            total[other] -= index
            if count[other] == 1:
                queue.append(other)
    return [(index, pair) for index, pair in enumerate(converted) if kept[index]]


def _rows(p: int, converted, marked=False):
    """The label ranks and the rows of ``(index, (scale, ints))`` pairs.
    With ``marked``, the row of vector ``index`` holds in column
    ``len(ranks) + index`` the multiplier applied to that vector, so the
    main part of every row derived from them is the combination its marker
    columns name."""
    ranks = _rank_labels({label: None for _, (_, ints) in converted for label in ints})
    rows = []
    for index, (scale, ints) in converted:
        row = {ranks[label]: c for label, c in ints.items()}
        if marked:
            row[len(ranks) + index] = scale
        rows.append(row if p else _primitive(row))
    return ranks, rows


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    if g > 1:
        for k, c in row.items():
            row[k] = c // g
    return row


def _reduce(row: dict, pivots: dict, p: int) -> dict:
    """Clear every pivot lead from the row, smallest first, in place.  A pivot
    row holds no column below its lead, so the cleared lead grows strictly
    and the leads a step brings in are queued as they appear.  Over QQ the
    row is made primitive once, at the end."""
    todo = [k for k in row if k in pivots]
    heapify(todo)
    while todo:
        lead = heappop(todo)
        b = row.get(lead)
        if b is None:
            continue
        prow = pivots[lead]
        if not p:
            a = prow[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                for k, c in row.items():
                    row[k] = a * c
        for k, c in prow.items():
            old = row.get(k)
            if old is None:
                row[k] = (-b * c) % p if p else -b * c
                if k in pivots:
                    heappush(todo, k)
            elif t := ((old - b * c) % p if p else old - b * c):
                row[k] = t
            else:
                del row[k]
    return row if p else _primitive(row)


def _add_pivot(row: dict, pivots: dict, p: int, main=inf) -> bool:
    """Reduce the row in place against the echelon pivots {lead: row}, and
    make it a pivot, monic over GF(p), when its main part (columns below
    ``main``) is left nonzero; returns whether it did."""
    _reduce(row, pivots, p)
    lead = min(row, default=main)
    if lead >= main:
        return False
    if p and row[lead] != 1:
        inv = pow(row[lead], -1, p)
        for k, c in row.items():
            row[k] = c * inv % p
    pivots[lead] = row
    return True


def _echelon(rows, p: int, main: int):
    """Echelon pivots {lead: row} of the rows, and the rows whose main part
    (columns below ``main``) reduces to zero."""
    pivots: dict = {}
    return pivots, [row for row in rows if not _add_pivot(row, pivots, p, main)]


def _reduced_rows(pivots: dict, p: int, labels: list, offset: int = 0) -> list[SparseVector]:
    """Back-substitute echelon pivots, largest lead first, and return the
    rows divided by their leads as field-valued vectors in lead order, with
    one (immutable) scalar per distinct (entry, lead) pair."""
    leads = sorted(pivots)
    for lead in reversed(leads):
        pivots[lead] = _reduce(pivots.pop(lead), pivots, p)
    scalars = {(c, d): ModP(p, c) if p else Fraction(c, d)
               for c, d in {(c, row[lead]) for lead, row in pivots.items() for c in row.values()}}
    basis = []
    for lead in leads:
        row = pivots[lead]
        vec = SparseVector()
        vec.entries = {labels[k - offset]: scalars[c, row[lead]] for k, c in row.items()}
        basis.append(vec)
    return basis


def rref(vectors) -> list[SparseVector]:
    """Canonical reduced basis of the span of the given vectors.

    The result depends only on the span, not on the generating set: pivots
    are chosen along the fixed label order.  Rows enter the echelon largest
    lead first and are back-substituted once at the end, in decreasing
    lead order, so each row is cleared only of leads that are already final.
    """
    p, converted = _converted(list(vectors))
    ranks, rows = _rows(p, list(enumerate(converted)))
    rows.sort(key=lambda row: min(row, default=-1), reverse=True)
    return _reduced_rows(_echelon(rows, p, len(ranks))[0], p, list(ranks))


def rank(vectors) -> int:
    """Dimension of the span: each peeled vector counts one, and the
    nonzero vectors left count their pivots."""
    p, converted = _converted(list(vectors))
    left = _peel(converted)
    ranks, rows = _rows(p, left)
    return len(converted) - len(left) + len(_echelon(rows, p, len(ranks))[0])


def integer_matrices(matrices, field=None) -> tuple[int, list]:
    """The modulus of the scalars' field (0 for the rationals, p for GF(p))
    and each matrix as ``_integers`` gives it, ``(scale, {(row, column):
    n})`` with the matrix equal to the integers over the scale."""
    entries = [{(i, j): c for i, row in enumerate(m) for j, c in enumerate(row) if c} for m in matrices]
    p = _modulus((c for e in entries for c in e.values()), field)
    return p, [_integers(e, p) for e in entries]


class Echelon:
    """Echelon pivots of integer rows {column: n}, residues mod p when p,
    admitted one at a time."""

    def __init__(self, p: int = 0):
        self.p, self.pivots = p, {}

    def admit(self, row: dict) -> bool:
        """Whether the row is independent of the rows admitted before; if
        it is, it joins them.  The row itself is left as it is."""
        return _add_pivot(dict(row), self.pivots, self.p)


def difference_rank(pairs) -> int:
    """Rank of the vectors e_a - e_b over label pairs (a, b), over any field:
    they are a graph's incidence vectors, whose rank is the number of
    union-find merges (the edges of a spanning forest).  Labels are any
    hashables; integer positions hash fastest."""
    parent, merges = {}, 0

    def root(a):
        while (up := parent.get(a, a)) != a:
            parent[a] = a = parent.get(up, up)  # path halving: a steps to its grandparent
        return a

    for a, b in pairs:
        if (ra := root(a)) != (rb := root(b)):
            parent[ra] = rb
            merges += 1
    return merges


def _subtract_multiple(row: dict, pivot_row: dict, coeff) -> None:
    for plabel, pcoeff in pivot_row.items():
        acc = row.get(plabel)
        total = (0 if acc is None else acc) - coeff * pcoeff
        if total:
            row[plabel] = total
        else:
            row.pop(plabel, None)


def reducer(rref_basis):
    """Residue map modulo the span of an ``rref`` basis.

    The pivot map (each basis row under its lead) is built once; the
    returned ``reduce(v)`` gives the canonical residue of v as a fresh
    SparseVector.  Rows of an ``rref`` basis hold no other row's lead, so
    clearing the leads present in v, smallest first, leaves none behind.
    """
    pivots = {min(b.entries, key=label_sort_key): b.entries for b in rref_basis if b.entries}
    order = {lead: i for i, lead in enumerate(sorted(pivots, key=label_sort_key))}

    def reduce(v: SparseVector) -> SparseVector:
        row = dict(v.entries)
        for label in sorted((label for label in row if label in pivots), key=order.__getitem__):
            _subtract_multiple(row, pivots[label], row[label])
        residue = SparseVector()
        residue.entries = row
        return residue

    return reduce


def solve_membership(v: SparseVector, generators) -> list | None:
    """Coefficients expressing v in terms of the generators, or None.

    Deterministic: each generator independent of the earlier ones becomes a
    pivot, v is written in those and the others get zero.  The certificate
    satisfies ``v == sum(c_i * g_i)`` exactly.  A generator peeled through a
    label v does not hold is zero in every solution, and dropping it leaves
    the pivot status of the others as it was.
    """
    p, converted = _converted(list(generators) + [v])
    target = converted.pop()
    ranks, rows = _rows(p, _peel(converted, target[1]) + [(len(converted), target)], marked=True)
    main, own = len(ranks), len(ranks) + len(converted)
    residue = _reduce(rows.pop(), _echelon(rows, p, main)[0], p)
    if min(residue) < main:
        return None
    coeffs = [-residue.get(k, 0) for k in range(main, own)]
    # Over GF(p) the marker of v keeps its value 1: pivot rows never hold it.
    return [ModP(p, c % p) if p else Fraction(c, residue[own]) for c in coeffs]


def kernel_of_map(domain_labels, image_of, field=None) -> list[SparseVector]:
    """Canonical basis of the kernel of a linear map given on domain labels.

    ``image_of(label)`` must return a SparseVector over the image labels.
    The kernel's scalars are those of ``field``, else of the images, else
    (every image zero) rationals.  A domain label whose image is peeled is
    0 in every kernel vector; zero images stay, as kernel vectors.
    """
    domain = list(_rank_labels(domain_labels))
    p, converted = _converted([image_of(label) for label in domain], field)
    ranks, rows = _rows(p, _peel(converted), marked=True)
    main = len(ranks)
    kernel = _echelon(rows, p, main)[1]
    return _reduced_rows(_echelon(kernel, p, main + len(domain))[0], p, domain, main)


# ---------------------------------------------------------------------------
# Small dense matrices (tuples of tuples of scalars), used to build and
# validate representations and modules, and by the rank-1 splitting of 2x2
# systems.
# ---------------------------------------------------------------------------


def mat_zero(rows: int, cols: int, field=QQ):
    return tuple(tuple(field.zero for _ in range(cols)) for _ in range(rows))


def mat_identity(n: int, field=QQ):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    """Dense product that skips zero entries of both factors.

    Entries of the result that no term reaches are the field's zero, taken
    as ``0 * a[0][0] * b[0][0]``, as a sum over every term would give."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    width = len(b[0]) if b else 0
    if not (a and width):
        return tuple(() for _ in a)
    rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    zero = 0 * a[0][0] * b[0][0]
    product = []
    for ra in a:
        acc = [zero] * width
        for x, row in zip(ra, rows):
            if x:
                for j, y in row:
                    acc[j] += x * y
        product.append(tuple(acc))
    return tuple(product)


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
