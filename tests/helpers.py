"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own elimination and enumeration
code: ranks come from a plain dense Gaussian elimination over Fraction
lists, path sets from a direct recursion over the arrow table, matrix
products and incidence convolutions from sums over every index, and the
cycle counterexample's ideal property from every product of a difference
with every winding path.  Sparse elimination is checked against the
dict-row elimination in field scalars that ``linalg`` used before its
integer kernel, and ``subpath_closure`` against the expansion of every
path.  Convolution of functionals is checked against the sum over every
split, poset canonical forms against the minimum over all n! relabelings,
and the cycle counterexample's codimension against one rank of the
differences and the monomial units together.
"""

from fractions import Fraction
from itertools import permutations

from quivercoalg import algebra
from quivercoalg.coalgebra import CoalgElement
from quivercoalg.dual import Functional
from quivercoalg.incidence import Poset
from quivercoalg.linalg import SparseVector, label_sort_key
from quivercoalg.scalars import QQ
from quivercoalg.quiver import find_simple_cycle


def dense_rank(rows):
    """Rank of a list-of-lists matrix by textbook elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    n_cols = len(matrix[0])
    rank = 0
    col = 0
    row = 0
    while row < len(matrix) and col < n_cols:
        pivot = None
        for r in range(row, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = matrix[row][col]
        matrix[row] = [x / inv for x in matrix[row]]
        for r in range(len(matrix)):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        rank += 1
        row += 1
        col += 1
    return rank


def sparse_rows_to_dense(vectors, labels):
    order = {label: i for i, label in enumerate(labels)}
    out = []
    for v in vectors:
        row = [Fraction(0)] * len(labels)
        for label, coeff in v.items():
            row[order[label]] = Fraction(coeff)
        out.append(row)
    return out


def brute_force_paths(quiver, max_len):
    """All label sequences of paths up to the length bound, by recursion."""
    results = {(v,): None for v in quiver.vertices}
    out = [(v,) for v in quiver.vertices]

    def extend(seq, end, length):
        if length == max_len:
            return
        for a in quiver.arrows:
            if a.source == end:
                new = seq + (a.label,)
                out.append(new)
                extend(new, a.target, length + 1)

    for v in quiver.vertices:
        extend((v,), v, 0)
    return out


def brute_force_path_count(quiver, max_len):
    return len(brute_force_paths(quiver, max_len))


def loop_power_decompositions(n):
    """Number of ways to write the n-th loop power as a product of two."""
    return sum(1 for i in range(n + 1))


def dense_mat_mul(a, b, zero):
    """Textbook product of tuple-of-tuple matrices: every entry is the sum,
    started at the field's zero, of all its terms."""
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(b))), zero) for j in range(cols))
        for row in a
    )


def dense_convolve(poset, f, g, zero):
    """(fg)(x, y) = sum of f(x, z) g(z, y) over every x <= z <= y, for
    interval functions given as dicts; returns the nonzero values."""
    out = {}
    for x in poset.elements:
        for y in poset.elements:
            if (x, y) not in poset.leq:
                continue
            total = zero
            for z in poset.elements:
                if (x, z) in poset.leq and (z, y) in poset.leq:
                    total = total + f.get((x, z), zero) * g.get((z, y), zero)
            if total:
                out[(x, y)] = total
    return out


def cycle_identity_oracle(quiver, window):
    """The cubic identity check of the cycle counterexample, by brute force.

    With q[n,k] the winding path of length k from cycle vertex n and the
    differences d(n,k,i) = q[n,ks+i] - q[n,i], every product with every
    winding path inside the window must follow the closed forms
    d(n,k,i) q[m,j] = d(n,k,i+j) when m = n+i (mod s), else 0, and
    q[m,j] d(n,k,i) = d(m,k,i+j) when m+j = n (mod s), else 0.
    Products go through ``algebra.multiply`` at call time, so a patched
    product is seen.  Returns the number of identities; raises
    AssertionError at the first that fails.
    """
    cycle = find_simple_cycle(quiver)
    s = len(cycle)
    q = algebra.winding_paths(quiver, cycle, window)
    winding = {key: CoalgElement.from_path(path) for key, path in q.items()}
    differences = {
        (n, k, i): winding[(n, k * s + i)] - winding[(n, i)]
        for n in range(s)
        for k in range(1, window + 1)
        for i in range(window + 1)
        if k * s + i <= window
    }
    zero = CoalgElement.zero(quiver)
    checked = 0
    for (n, k, i), element in differences.items():
        for m in range(s):
            for j in range(window + 1 - k * s - i):
                right = winding[(m, j)]
                expected = differences[(n, k, i + j)] if m % s == (n + i) % s else zero
                if algebra.multiply(element, right) != expected:
                    raise AssertionError(f"right identity fails at n={n},k={k},i={i},m={m},j={j}")
                expected = differences[(m, k, i + j)] if (m + j) % s == n % s else zero
                if algebra.multiply(right, element) != expected:
                    raise AssertionError(f"left identity fails at n={n},k={k},i={i},m={m},j={j}")
                checked += 2
    return checked


# ---------------------------------------------------------------------------
# Sparse elimination on dict rows of field scalars.  Marker labels
# ("#coeff", key) carry bookkeeping coefficients and are never pivots.  Every
# entry is converted to a field scalar first, so results hold no floats.
# ---------------------------------------------------------------------------


def _is_marker(label):
    return isinstance(label, tuple) and len(label) == 2 and label[0] == "#coeff"


def _field_row(v, field):
    return {label: field.of(c) for label, c in v.entries.items() if field.of(c)}


def subtract_multiple(row, pivot_row, coeff):
    for plabel, pcoeff in pivot_row.items():
        total = row.get(plabel, 0) - coeff * pcoeff
        if total:
            row[plabel] = total
        else:
            row.pop(plabel, None)


def eliminate(row, pivots):
    """Eliminate every pivot label from the row, smallest label first."""
    while True:
        hits = [label for label in row if not _is_marker(label) and label in pivots]
        if not hits:
            return row
        label = min(hits, key=label_sort_key)
        subtract_multiple(row, pivots[label], row[label])


def _row_lead(row):
    main = [label for label in row if not _is_marker(label)]
    return min(main, key=label_sort_key) if main else None


def _insert_echelon(row, pivots):
    lead = _row_lead(row)
    if lead is not None:
        inv = row[lead]
        pivots[lead] = {label: coeff / inv for label, coeff in row.items()}
    return lead


def oracle_rref(vectors, field):
    pivots = {}
    for v in vectors:
        _insert_echelon(eliminate(_field_row(v, field), pivots), pivots)
    leads = sorted(pivots, key=label_sort_key)
    for lead in reversed(leads):
        row = pivots[lead]
        for label in [label for label in row if label != lead and label in pivots]:
            subtract_multiple(row, pivots[label], row[label])
    return [SparseVector(pivots[lead]) for lead in leads]


def oracle_rank(vectors, field):
    return len(oracle_rref(vectors, field))


def oracle_solve_membership(v, generators, field):
    generators = list(generators)
    pivots = {}
    for index, g in enumerate(generators):
        row = _field_row(g, field)
        row[("#coeff", index)] = field.one
        _insert_echelon(eliminate(row, pivots), pivots)
    residue = eliminate(_field_row(v, field), pivots)
    if any(not _is_marker(label) for label in residue):
        return None
    coeffs = [field.zero] * len(generators)
    for label, coeff in residue.items():
        coeffs[label[1]] = -coeff
    return coeffs


def oracle_kernel_of_map(domain_labels, image_of, field):
    pivots = {}
    kernel_rows = []
    for label in sorted(domain_labels, key=label_sort_key):
        row = _field_row(image_of(label), field)
        row[("#coeff", label)] = field.one
        row = eliminate(row, pivots)
        if _row_lead(row) is None:
            kernel_rows.append(SparseVector({l[1]: c for l, c in row.items()}))
        else:
            _insert_echelon(row, pivots)
    return oracle_rref(kernel_rows, field)


def expanded_subpath_closure(paths):
    """Every contiguous subpath of every path, sorted by the path order."""
    return sorted({s for p in paths for s in p.subpaths()}, key=lambda p: p.sort_key)


def every_split_convolve(f, g, paths):
    """(f·g)(p) = sum of f(q)g(r) over every split p = qr, zero factors
    included, in window order."""
    values = {}
    for p in paths:
        total = 0
        for q, r in p.splits():
            total = total + f(q) * g(r)
        if total:
            values[p] = total
    return Functional(f.carrier, support=SparseVector(values), field=f.field)


def brute_force_canonical(n, leq):
    """Minimum relation matrix of a poset on 0..n-1 over all n! relabelings."""
    return min(
        tuple(tuple(1 if (perm[i], perm[j]) in leq else 0 for j in range(n)) for i in range(n))
        for perm in permutations(range(n))
    )


def brute_force_posets_up_to_iso(max_elements):
    """Posets up to isomorphism, built as ``corpus.enumerate_posets_up_to_iso``
    builds them (a new maximal element over every order ideal, first-seen
    representative kept) but deduplicated by ``brute_force_canonical``."""
    tables = [{brute_force_canonical(1, {(0, 0)}): {(0, 0)}}]
    for n in range(2, max_elements + 1):
        size = n - 1
        table = {}
        for leq in tables[-1].values():
            for mask in range(1 << size):
                ideal = {i for i in range(size) if mask >> i & 1}
                if not all(j in ideal for i in ideal for j in range(size) if (j, i) in leq):
                    continue
                new_leq = set(leq) | {(size, size)} | {(i, size) for i in ideal}
                table.setdefault(brute_force_canonical(n, new_leq), new_leq)
        tables.append(table)
    return [
        Poset([f"e{i}" for i in range(size)], [(f"e{i}", f"e{j}") for i, j in leq], name=f"iso{size}")
        for size, table in enumerate(tables, start=1)
        for leq in table.values()
    ]


def cycle_codimension_oracle(ce, paths):
    """Codimension of a cycle counterexample from one rank of its difference
    generators and its monomial units together, over the window's paths."""
    spanning = [e.combo for e in ce.difference_generators] + [SparseVector.unit(p) for p in ce.monomial_part]
    return len(paths) - oracle_rank(spanning, QQ)
