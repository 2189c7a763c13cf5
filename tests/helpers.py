"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own elimination and enumeration
code: ranks come from a plain dense Gaussian elimination over Fraction
lists, path sets from a direct recursion over the arrow table, matrix
products and incidence convolutions from sums over every index.
"""

from fractions import Fraction


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
