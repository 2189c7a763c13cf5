"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own elimination and enumeration
code: ranks come from a plain dense Gaussian elimination over Fraction
lists, path sets from a direct recursion over the arrow table, matrix
products and incidence convolutions from sums over every index.  Sparse
elimination is checked against the dict-row elimination in field scalars
that ``linalg`` used before its integer kernel, and ``subpath_closure``
against the expansion of every path.  Convolution of functionals is
checked against the sum over every split, poset canonical forms against
the minimum over all n! relabelings, and the cycle counterexample's
codimension against one rank of the differences and the units of the
window's paths off the winding paths together; the winding witness is
scanned on every one of those paths.  Span equality and intersection,
which only tests need, are computed by the dict-row elimination.
The integer law kernel and the integer validators of structured algebras
and left modules are checked against their earlier versions, which sum
field scalars; the order closure of posets against the fixpoint of
all-pairs passes; and the finiteness clauses of prop32 against building
every induced subquiver.  The rep and algebra printers serve the text
round-trip properties; the random base change is checked
against products with elementary matrices, and the ``winding_multiple``
rule against the predicate it replaced.  The largest ideal inside the
kernel of a functional is checked against the loop that shrank the kernel
one stage at a time, and its codimension against a dense rank of the
functional's two-sided translates; the frontier subcoalgebra closure
against the loop that comultiplies its whole basis every round.  The
integer basis tables of path and incidence coalgebras are checked against
the same tables as SparseVectors of field scalars, and the bialgebra test
on basis splits against the test that multiplies and comultiplies
elements.  Rational-part certificates built from translates are checked
against the certificate that convolves p*·f for every window path p, and
modules whose check must not run are built without ``LeftModule``'s
constructor.  The shuffle and interval embeddings, the linear extensions
of integer tables in the library, are checked against the sums they
replaced, one ``lattice_walks`` call per tensor pair and a filter of the
Hasse quiver's paths by endpoints; the certificate check that reads a
split index against the check that convolves every d* with f; and span
membership is tested by reducing against an ``rref`` basis.
"""

import re
from fractions import Fraction
from itertools import permutations

from quivercoalg import algebra
from quivercoalg.coalgebra import CoalgElement, comultiply, left_tensor_components, right_tensor_components
from quivercoalg.dual import Functional, RationalCertificate, convolve
from quivercoalg.incidence import Poset, hasse_quiver
from quivercoalg.linalg import (
    SparseVector,
    kernel_of_map,
    label_sort_key,
    mat_eq,
    mat_identity,
    mat_mul,
    mat_zero,
    reducer,
    rref,
)
from quivercoalg.representation import LeftModule
from quivercoalg.scalars import QQ
from quivercoalg.products import lattice_walks, walk_path
from quivercoalg.quiver import (
    Path,
    Verdict,
    enumerate_paths,
    has_composable_arrow_pair,
    has_multiple_edges,
    induced_subquiver,
    is_acyclic,
)


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
    started at the field's zero, of all its terms.  Rows times (), which
    carries no column count, have no known width and raise."""
    if a and not b:
        raise ValueError(f"{len(a)}x0 times () has no known width")
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


def spans_equal(basis_a, basis_b, field=QQ):
    """Equal spans: equal reduced row echelon forms."""
    return oracle_rref(list(basis_a), field) == oracle_rref(list(basis_b), field)


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
    generators and the units of the window's ``paths`` off its winding paths
    together, over those paths."""
    winding = set(ce.closed_path_set)
    spanning = [SparseVector({p: Fraction(1), r: Fraction(-1)}) for p, r in ce.difference_pairs]
    spanning += [SparseVector.unit(p) for p in paths if p not in winding]
    return len(paths) - oracle_rank(spanning, QQ)


def witness_off_winding_paths(quiver, window, witness):
    """Every path of length <= ``window`` off the winding paths of the
    window's cycle counterexample on which ``witness`` is nonzero, over
    the direct recursion's paths."""
    winding = set(algebra.build_cycle_counterexample(quiver, window).closed_path_set)
    paths = [quiver.path_from_labels(seq[1:]) if len(seq) > 1 else quiver.vertex_path(seq[0])
             for seq in brute_force_paths(quiver, window)]
    return [p for p in paths if p not in winding and witness(p)]


# ---------------------------------------------------------------------------
# The coalgebra-law kernel and the two validators as they were before they
# moved to integers: every sum is a sum of field scalars.
# ---------------------------------------------------------------------------


def _sums_to_unit(terms, label) -> bool:
    return SparseVector([*terms, (label, -1)]).is_zero()


def _fraction_comodule_failure(j, rho, delta, counit):
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


def fraction_check_comodule(basis, rho, delta, counit):
    for j in basis:
        failure = _fraction_comodule_failure(j, rho, delta, counit)
        if failure is not None:
            return failure
    return None


def fraction_check_coalgebra(basis, delta, counit):
    for b in basis:
        failure = _fraction_comodule_failure(b, delta, delta, counit)
        if failure is not None:
            return failure
        if not _sums_to_unit(((y, counit(x) * coeff) for (x, y), coeff in delta(b).items()), b):
            return ("left counit", b)
    return None


def _tensor_square(f, tensor):
    for (a, b), coeff in tensor.items():
        image_b = f(b)
        for u, cu in f(a).items():
            for v, cv in image_b.items():
                yield (u, v), coeff * cu * cv


def fraction_check_morphism(basis, f, delta_src, delta_tgt, counit_src, counit_tgt):
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


def fraction_validate_structured(algebra):
    """``StructuredAlgebra._validate`` on field scalars: raises the same
    ValueError at the same first failure."""
    one = algebra.field.one
    for e in algebra.idempotents:
        for f in algebra.idempotents:
            expected = SparseVector({e: one}) if e == f else SparseVector()
            if algebra.basis_product(e, f) != expected:
                raise ValueError(f"idempotents {e!r},{f!r} are not orthogonal idempotents")
    unit = SparseVector({e: one for e in algebra.idempotents})
    for b in algebra.basis:
        vec = SparseVector({b: one})
        if algebra.product(unit, vec) != vec or algebra.product(vec, unit) != vec:
            raise ValueError("idempotent system is not complete")
    right_factors = {b: [c for c in algebra.basis if (b, c) in algebra.mult] for b in algebra.basis}
    position = {b: i for i, b in enumerate(algebra.basis)}
    units = {b: SparseVector({b: one}) for b in algebra.basis}
    for a in algebra.basis:
        for b in algebra.basis:
            ab = algebra.basis_product(a, b)
            factors = right_factors[b]
            if ab.entries:
                factors = set(factors).union(*(right_factors[label] for label in ab.labels()))
                factors = sorted(factors, key=position.__getitem__)
            for c in factors:
                left = algebra.product(ab, units[c])
                right = algebra.product(units[a], algebra.basis_product(b, c))
                if left != right:
                    raise ValueError(f"multiplication not associative at ({a},{b},{c})")


def fraction_validate_left_module(module):
    """``LeftModule._validate`` on field scalars: raises the same ValueError
    at the same first failure."""
    field = module.algebra.field
    n = module.dimension
    total = mat_zero(n, n, field)
    for e in module.algebra.idempotents:
        total = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(total, module.action[e]))
    if not mat_eq(total, mat_identity(n, field)):
        raise ValueError("left module is not unital")
    nonzero = {
        c: [(i, j, y) for i, row in enumerate(m) for j, y in enumerate(row) if y]
        for c, m in module.action.items()
    }
    for a in module.algebra.basis:
        for b in module.algebra.basis:
            composite = mat_mul(module.action[a], module.action[b])
            expected = [[field.zero] * n for _ in range(n)]
            for c, coeff in module.algebra.basis_product(a, b).items():
                for i, j, y in nonzero[c]:
                    expected[i][j] += coeff * y
            if not mat_eq(composite, tuple(map(tuple, expected))):
                raise ValueError(f"action does not respect the product at ({a},{b})")


def unchecked_left_module(algebra, dimension, action):
    """A ``LeftModule`` with the given fields whose law check never ran."""
    module = object.__new__(LeftModule)
    module.algebra, module.dimension, module.action = algebra, dimension, action
    return module


def convolution_certificate(f, paths):
    """The rational-part certificate c_i = p, c_i* = p*·f over the window
    paths p with p*·f nonzero, each member computed by convolution."""
    elements = []
    functionals = []
    for p in paths:
        product = convolve(Functional.dual_of_path(p, f.field), f, paths)
        if not product.support.is_zero():
            elements.append(CoalgElement.from_path(p, f.field))
            functionals.append(product)
    return RationalCertificate(elements, functionals)


def fixpoint_order_closure(elements, relation_pairs):
    """The reflexive-transitive closure by all-pairs passes until nothing
    changes."""
    leq = {(x, x) for x in elements}
    leq.update(relation_pairs)
    changed = True
    while changed:
        changed = False
        for x, y in list(leq):
            for y2, z in list(leq):
                if y == y2 and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return leq


def first_cyclic_induced_subquiver(quiver):
    """The first vertex subset, as a bitmask over ``quiver.vertices`` in
    counting order, whose induced subquiver (built as a quiver) is cyclic,
    or None."""
    vertices = list(quiver.vertices)
    for mask in range(1 << len(vertices)):
        subset = {vertices[i] for i in range(len(vertices)) if mask >> i & 1}
        if not is_acyclic(induced_subquiver(quiver, subset)):
            return mask
    return None


# ---------------------------------------------------------------------------
# Printers for the rep and algebra text formats, the random base change as
# a product of elementary matrices, and the winding indicator as the
# predicate it was written as before it became a rule kind.
# ---------------------------------------------------------------------------


def rep_to_text(rep):
    """A rep file: every dimension, and the matrix of every arrow whose
    source and target spaces are both nonzero."""
    lines = ["rep"] + [f"dim {v} {rep.dims[v]}" for v in rep.quiver.vertices]
    lines += [f"map {a.label} " + " ; ".join(" ".join(map(str, row)) for row in rep.maps[a.label])
              for a in rep.quiver.arrows if rep.dims[a.source] and rep.dims[a.target]]
    return "\n".join(lines) + "\n"


def combination_to_text(vector, name):
    """``2*u - 1/3*v``, with each label written as ``name(label)``."""
    terms = []
    for label, coeff in vector.items():
        value = Fraction(str(coeff))  # a rational or a residue mod p
        scalar = "" if abs(value) == 1 else f"{abs(value)}*"
        terms.append(("-" if value < 0 else "+", f"{scalar}{name(label)}"))
    if not terms:
        return "0"
    text = " ".join(f"{sign} {term}" for sign, term in terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def algebra_label_names(algebra):
    """The name of each basis label in an algebra file: the label as
    printed when every printed label is distinct and reads back as one
    bare label, else ``b<i>`` for basis element i."""
    names = [str(label) for label in algebra.basis]
    if len(set(names)) < len(names) or not all(re.fullmatch(r"[A-Za-z0-9_.()]+", n) for n in names):
        names = [f"b{i}" for i in range(len(names))]
    return dict(zip(algebra.basis, names))


def algebra_to_text(algebra):
    """An algebra file over the names of ``algebra_label_names``."""
    name = algebra_label_names(algebra).__getitem__
    lines = ["algebra", "basis " + " ".join(map(name, algebra.basis)),
             "idempotents " + " ".join(map(name, algebra.idempotents))]
    lines += [f"mul {name(a)} {name(b)} = {combination_to_text(vec, name)}" for (a, b), vec in algebra.mult.items()]
    return "\n".join(lines) + "\n"


def elementary_base_change(rng, n, field=QQ):
    """``corpus._random_base_change`` with the same random draws, as products
    with elementary matrices: u = E·u and u^-1 = u^-1·E^-1 per step."""
    u = mat_identity(n, field)
    u_inv = mat_identity(n, field)
    for _ in range(rng.randint(0, 2 * n)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        lam = field.of(rng.randint(-2, 2))
        if not lam:
            continue
        elem = [[field.one if r == c else field.zero for c in range(n)] for r in range(n)]
        elem[j][i] = lam
        elem_inv = [[field.one if r == c else field.zero for c in range(n)] for r in range(n)]
        elem_inv[j][i] = -lam
        u = mat_mul(tuple(tuple(r) for r in elem), u)
        u_inv = mat_mul(u_inv, tuple(tuple(r) for r in elem_inv))
    return u, u_inv


def winds_a_multiple(cycle_arrows, path):
    """Whether the path starts on the cycle, follows its arrows and has
    length a multiple of the cycle length."""
    s = len(cycle_arrows)
    cycle_ids = [a.ident for a in cycle_arrows]
    start_of = {a.source: n for n, a in enumerate(cycle_arrows)}
    if path.length % s != 0:
        return False
    if path.length == 0:
        return path.vertex in start_of
    n = start_of.get(path.source)
    if n is None:
        return False
    return all(arrow.ident == cycle_ids[(n + offset) % s] for offset, arrow in enumerate(path.arrows))


def stage_loop_maximal_ideal(algebra, functional):
    """The largest two-sided ideal inside ker f by shrinking ker f: each
    stage keeps the vectors whose products with every basis unit, on both
    sides, stay in the stage, until a stage repeats."""
    units = [SparseVector({b: algebra.field.one}) for b in algebra.basis]
    current = kernel_of_map(list(algebra.basis), lambda b: SparseVector({"val": functional.coeff(b)}), algebra.field)
    while True:
        stage = list(current)
        reduce = reducer(stage)

        def image_of(idx):
            acc = {}
            for slot, unit in enumerate(units):
                for tag, product in (("l", algebra.product(unit, stage[idx])), ("r", algebra.product(stage[idx], unit))):
                    for label, c in reduce(product).items():
                        acc[(tag, slot, label)] = c
            return SparseVector(acc)

        combos = kernel_of_map(range(len(stage)), image_of, algebra.field)
        refined = rref([SparseVector((label, c * coeff) for idx, coeff in combo.items() for label, c in stage[idx].items())
                        for combo in combos], algebra.field)
        if refined == current:
            return refined
        current = refined


def translate_rank_codimension(algebra, functional):
    """dim A - dim I for the largest ideal I inside ker f, over the
    rationals: the dense rank of the functionals a -> f(u.a.w) over u and w
    in {1} and the basis, with products summed from the structure table."""
    def times(x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for label, c in algebra.mult.get((a, b), {}).items():
                    out[label] = out.get(label, 0) + Fraction(ca) * Fraction(cb) * Fraction(c)
        return out

    units = [{e: 1 for e in algebra.idempotents}] + [{b: 1} for b in algebra.basis]
    return dense_rank([[sum(Fraction(functional.coeff(label)) * c for label, c in times(times(u, {a: 1}), w).items())
                        for a in algebra.basis] for u in units for w in units])


def whole_basis_subcoalgebra_closure(elements):
    """The subcoalgebra spanned by the elements, adjoining the tensor
    components of every basis vector each round until the rank stops."""
    elements = list(elements)
    basis = rref([e.combo for e in elements])
    while True:
        vectors = list(basis)
        for vec in basis:
            tensor = comultiply(CoalgElement(elements[0].carrier, vec))
            vectors.extend(left_tensor_components(tensor) + right_tensor_components(tensor))
        refined = rref(vectors)
        if len(refined) == len(basis):
            return refined
        basis = refined


def field_basis_tables(carrier, field=QQ):
    """Δ and ε of the carrier's coalgebra in field scalars: Δ(label) the
    SparseVector of ones over its splits, ε(label) one or zero."""
    one, zero = field.one, field.zero
    return (
        lambda label: SparseVector((pair, one) for pair in carrier.splits(label)),
        lambda label: one if carrier.is_grouplike(label) else zero,
    )


def _tensor_multiply(s, t):
    """(a⊗b)(c⊗d) = ac ⊗ bd on path-pair tensors, through
    ``algebra.compose_paths`` as it is at call time."""
    compose = algebra.compose_paths
    return SparseVector(
        ((left, right), c * d)
        for (p1, p2), c in s.items()
        for (q1, q2), d in t.items()
        if (left := compose(p1, q1)) is not None and (right := compose(p2, q2)) is not None
    )


def element_bialgebra_check(quiver, field=QQ):
    """``algebra.bialgebra_check`` on elements: Δ(xy) against Δ(x)Δ(y) with
    ``multiply``, ``comultiply`` and the product of tensors."""
    criterion = not has_multiple_edges(quiver) and not has_composable_arrow_pair(quiver)
    witness = None
    checked = 0
    for v in quiver.vertices:
        ev = CoalgElement.from_path(quiver.vertex_path(v), field)
        for w in quiver.vertices:
            ew = CoalgElement.from_path(quiver.vertex_path(w), field)
            checked += 1
            if comultiply(algebra.multiply(ev, ew)) != _tensor_multiply(comultiply(ev), comultiply(ew)):
                raise AssertionError("grouplike multiplicativity fails; bug")
    for a in quiver.arrows:
        pa = Path(quiver, None, (a,))
        ea = CoalgElement.from_path(pa, field)
        for b in quiver.arrows:
            composable = a.target == b.source
            parallel = a is not b and a.source == b.source and a.target == b.target
            if not composable and not parallel:
                continue
            pb = Path(quiver, None, (b,))
            eb = CoalgElement.from_path(pb, field)
            checked += 1
            if comultiply(algebra.multiply(ea, eb)) == _tensor_multiply(comultiply(ea), comultiply(eb)):
                raise AssertionError(f"expected product incompatibility at ({pa}, {pb}); bug")
            if witness is None:
                witness = (pa, pb)
    if (witness is None) != criterion:
        raise AssertionError("structural criterion and exhaustive witness test disagree; bug")
    return Verdict("yes" if witness is None else "no", witness, data={"pairs_checked": checked})


def in_span(v, rref_basis):
    """Membership test against a precomputed ``rref`` basis."""
    return reducer(rref_basis)(v).is_zero()


def walk_sum_alpha_embed(tensor, product):
    """The shuffle embedding as a sum over the walks of each tensor pair,
    with the walks built for every pair."""
    return CoalgElement(
        product,
        SparseVector(
            (walk_path(p, q, walk, product), coeff)
            for (p, q), coeff in tensor.items()
            for walk in lattice_walks(p.length, q.length)
        ),
    )


def path_sum_phi_embed(element):
    """The interval embedding as a sum, for each interval (x, y), over the
    Hasse quiver's paths filtered to source x and target y."""
    quiver = hasse_quiver(element.carrier)
    paths = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1)).paths
    return CoalgElement(
        quiver,
        SparseVector(
            (p, coeff)
            for (x, y), coeff in element.combo.items()
            for p in paths
            if (p.source, p.target) == (str(x), str(y))
        ),
    )


def convolution_verify(cert, f, duals, paths):
    """``RationalCertificate.verify`` by convolving every d* with f and
    evaluating d* on every certificate element."""
    for d_star in duals:
        left = convolve(d_star, f, paths)
        right = SparseVector(
            (p, value * weight)
            for c, c_star in zip(cert.elements, cert.functionals)
            if (weight := sum((d_star(q) * x for q, x in c.combo.items()), d_star.field.zero))
            for p, value in c_star.restrict(paths).items()
        )
        if left.support != right:
            return False
    return True
