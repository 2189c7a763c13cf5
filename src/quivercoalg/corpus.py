"""Instance generators: named corpora, exhaustive small-case enumerations,
and seeded random quivers, posets, elements, algebras, and modules.

Everything is deterministic given the Random instance handed in.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product

from .coalgebra import CoalgElement
from .finite_dual import StructuredAlgebra, structured_algebra
from .incidence import Poset, fia_structured_algebra
from .linalg import SparseVector, integer_matrices, mat_mul
from .quiver import Path, Quiver
from .representation import LeftModule, Representation
from .scalars import QQ


# ---------------------------------------------------------------------------
# Named corpus.
# ---------------------------------------------------------------------------


def named_quiver(name: str) -> Quiver:
    table = {
        "point": (["a"], []),
        "two_points": (["a", "b"], []),
        "single_arrow": (["a", "b"], [("x", "a", "b")]),
        "line3": (["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")]),
        "line4": (["a", "b", "c", "d"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "d")]),
        "diamond": (
            ["a", "b", "c", "d"],
            [("x1", "a", "b"), ("x2", "a", "c"), ("y1", "b", "d"), ("y2", "c", "d")],
        ),
        "parallel_pair": (["u", "v"], [("x", "u", "v"), ("y", "u", "v")]),
        "triple_parallel": (["u", "v"], [("x", "u", "v"), ("y", "u", "v"), ("z", "u", "v")]),
        "star_out": (["c", "t1", "t2", "t3"], [("x1", "c", "t1"), ("x2", "c", "t2"), ("x3", "c", "t3")]),
        "star_in": (["c", "t1", "t2", "t3"], [("x1", "t1", "c"), ("x2", "t2", "c"), ("x3", "t3", "c")]),
        "branching": (
            ["a", "b", "c", "d", "e"],
            [("x", "a", "b"), ("y", "a", "c"), ("z", "b", "d"), ("w", "b", "e")],
        ),
        "loop": (["v"], [("x", "v", "v")]),
        "two_loops": (["v"], [("x", "v", "v"), ("y", "v", "v")]),
        "cycle2": (["v0", "v1"], [("x0", "v0", "v1"), ("x1", "v1", "v0")]),
        "cycle3": (["v0", "v1", "v2"], [("x0", "v0", "v1"), ("x1", "v1", "v2"), ("x2", "v2", "v0")]),
        "loop_with_tail": (["v", "w"], [("x", "v", "v"), ("y", "v", "w")]),
    }
    vertices, arrows = table[name]
    return Quiver(vertices, arrows, name=name)


ACYCLIC_CORPUS = (
    "point",
    "two_points",
    "single_arrow",
    "line3",
    "line4",
    "diamond",
    "parallel_pair",
    "triple_parallel",
    "star_out",
    "star_in",
    "branching",
)

CYCLIC_CORPUS = ("loop", "two_loops", "cycle2", "cycle3", "loop_with_tail")


def acyclic_corpus() -> list[Quiver]:
    return [named_quiver(n) for n in ACYCLIC_CORPUS]


def cyclic_corpus() -> list[Quiver]:
    return [named_quiver(n) for n in CYCLIC_CORPUS]


def finite_corpus() -> list[Quiver]:
    return acyclic_corpus() + cyclic_corpus()


def named_poset(name: str) -> Poset:
    if name.startswith("chain"):
        n = int(name[5:])
        elements = [f"c{i}" for i in range(n)]
        covers = [(f"c{i}", f"c{i+1}") for i in range(n - 1)]
        return Poset(elements, covers, name=name)
    if name.startswith("antichain"):
        n = int(name[9:])
        return Poset([f"a{i}" for i in range(n)], [], name=name)
    table = {
        "diamond": (["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")]),
        "vee": (["0", "l", "r"], [("0", "l"), ("0", "r")]),
        "wedge": (["l", "r", "1"], [("l", "1"), ("r", "1")]),
        "enn": (["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")]),
        "boolean3": (
            ["o", "p", "q", "r", "pq", "pr", "qr", "i"],
            [
                ("o", "p"), ("o", "q"), ("o", "r"),
                ("p", "pq"), ("p", "pr"), ("q", "pq"), ("q", "qr"), ("r", "pr"), ("r", "qr"),
                ("pq", "i"), ("pr", "i"), ("qr", "i"),
            ],
        ),
        "fence5": (["a", "b", "c", "d", "e"], [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")]),
    }
    elements, covers = table[name]
    return Poset(elements, covers, name=name)


POSET_CORPUS = (
    "chain1",
    "chain2",
    "chain3",
    "chain4",
    "chain5",
    "antichain3",
    "antichain5",
    "vee",
    "wedge",
    "diamond",
    "enn",
    "fence5",
    "boolean3",
)


def poset_corpus() -> list[Poset]:
    return [named_poset(n) for n in POSET_CORPUS]


# ---------------------------------------------------------------------------
# Exhaustive enumerations of small instances.
# ---------------------------------------------------------------------------


def enumerate_small_quivers(max_vertices: int, max_arrows: int):
    """All quivers with 1..max_vertices vertices and arrow multisets of size
    up to max_arrows (exhaustive up to arrow relabeling)."""
    for nv in range(1, max_vertices + 1):
        vertices = [f"v{i}" for i in range(nv)]
        pairs = [(s, t) for s in vertices for t in vertices]
        for count in range(0, max_arrows + 1):
            for multiset in combinations_with_replacement(pairs, count):
                arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(multiset)]
                yield Quiver(vertices, arrows, name=f"small{nv}v{count}a")


def enumerate_posets_up_to_iso(max_elements: int) -> list[Poset]:
    """All isomorphism classes of posets with 1..max_elements elements (none
    when max_elements < 1).

    Built from the empty poset by repeatedly adjoining a new maximal
    element over an arbitrary order ideal, keeping the first candidate of
    each class in generation order.  A candidate on 0..n-1 is its up-set
    and down-set masks: bit j of ``ups[i]`` is set when i <= j.  Every
    isomorphism keeps each element's (down-set size, up-set size), so the
    canonical form is the minimum tuple of row masks (column 0 the top
    bit) over the relabelings that list these classes in sorted order,
    permuting within each class.  Twins, elements with the same others
    below and above them, are swapped by an automorphism, so of the
    orders that differ only by twins one is tried.  Class counts for sizes
    1..7 are 1, 2, 5, 16, 63, 318, 2045.
    """
    elements_of = [[j for j in range(max_elements) if mask >> j & 1] for mask in range(1 << max(max_elements, 0))]

    def canonical(ups, downs):
        classes: dict = {}
        others = []  # the elements below and above each one, itself left out: equal for twins
        for i, (down, up) in enumerate(zip(downs, ups)):
            classes.setdefault((down.bit_count(), up.bit_count()), []).append(i)
            others.append((down ^ 1 << i, up ^ 1 << i))
        orders = []
        for size in sorted(classes):
            distinct: dict = {}
            for order in permutations(classes[size]):
                distinct.setdefault(tuple(map(others.__getitem__, order)), order)
            orders.append(distinct.values())
        best, bit = None, [0] * len(ups)
        for parts in product(*orders):
            order = [i for part in parts for i in part]
            for k, i in enumerate(order):
                bit[i] = 1 << len(ups) - 1 - k
            rows = tuple([sum([bit[j] for j in elements_of[ups[i]]]) for i in order])
            if best is None or rows < best:
                best = rows
        return best

    # Per size: canonical form -> the first candidate's (ups, downs).
    tables = [{(): ([], [])}]
    for size in range(max_elements):
        table: dict = {}
        top = 1 << size
        for ups, downs in tables[-1].values():
            for ideal in range(top):
                if all(not downs[i] & ~ideal for i in elements_of[ideal]):
                    new = ([up | top if ideal >> i & 1 else up for i, up in enumerate(ups)] + [top],
                           downs + [ideal | top])
                    table.setdefault(canonical(*new), new)
        tables.append(table)
    return [
        Poset([f"e{i}" for i in range(size)], [(f"e{i}", f"e{j}") for i in range(size) for j in elements_of[ups[i]]],
              name=f"iso{size}")
        for size, table in enumerate(tables) if size
        for ups, _ in table.values()
    ]


# ---------------------------------------------------------------------------
# Seeded random generators.
# ---------------------------------------------------------------------------


def random_quiver(rng, max_vertices=6, max_arrows=10) -> Quiver:
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    na = rng.randint(0, max_arrows)
    arrows = []
    for i in range(na):
        arrows.append((f"a{i}", rng.choice(vertices), rng.choice(vertices)))
    return Quiver(vertices, arrows, name=f"rnd{nv}v{na}a")


def random_acyclic_quiver(rng, max_vertices=5, max_arrows=6) -> Quiver:
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    na = rng.randint(0, max_arrows) if nv > 1 else 0
    arrows = []
    for i in range(na):
        s = rng.randint(0, nv - 2)
        t = rng.randint(s + 1, nv - 1)
        arrows.append((f"a{i}", f"v{s}", f"v{t}"))
    return Quiver(vertices, arrows, name=f"rnddag{nv}v{na}a")


def random_path(rng, quiver: Quiver, max_len: int):
    start = rng.choice(quiver.vertices)
    path = quiver.vertex_path(start)
    for _ in range(rng.randint(0, max_len)):
        options = quiver.out_arrows(path.target)
        if not options:
            break
        arrow = rng.choice(options)
        path = Path(quiver, None, path.arrows + (arrow,))
    return path


def random_scalar(rng, field=QQ):
    num = rng.randint(-6, 6)
    den = rng.randint(1, 4)
    return field.of(num, den)


def random_element(rng, quiver: Quiver, max_len=5, max_terms=4, field=QQ) -> CoalgElement:
    terms = (
        (random_path(rng, quiver, max_len), random_scalar(rng, field))
        for _ in range(rng.randint(1, max_terms))
    )
    return CoalgElement(quiver, SparseVector(terms))


def random_poset(rng, max_elements=8) -> Poset:
    n = rng.randint(1, max_elements)
    elements = [f"p{i}" for i in range(n)]
    relation = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                relation.append((f"p{i}", f"p{j}"))
    return Poset(elements, relation, name=f"rndposet{n}")


def random_representation(rng, quiver: Quiver, max_dim=3, field=QQ) -> Representation:
    dims = {v: rng.randint(0, max_dim) for v in quiver.vertices}
    maps = {}
    for a in quiver.arrows:
        rows = dims[a.source]
        cols = dims[a.target]
        maps[a.label] = tuple(
            tuple(random_scalar(rng, field) for _ in range(cols)) for _ in range(rows)
        )
    return Representation(quiver, dims, maps)


def random_structured_algebra(rng, max_basis=6, field=QQ) -> StructuredAlgebra:
    """A random pick among: quiver algebras of tiny acyclic quivers, finite
    incidence algebras, matrix and diagonal algebras, truncated polynomial
    rings, and cyclic group algebras."""
    kind = rng.choice(("quiver", "fia", "matrix", "trunc_poly", "group", "diagonal"))
    if kind == "quiver":
        while True:
            quiver = random_acyclic_quiver(rng, max_vertices=3, max_arrows=2)
            if len(quiver.basis()) <= max_basis:
                return structured_algebra(quiver, field, f"K[{quiver.name or 'quiver'}]")
    if kind == "fia":
        while True:
            poset = random_poset(rng, 3)
            if len(poset.intervals()) <= max_basis:
                return fia_structured_algebra(poset, field)
    if kind == "matrix":
        basis = [(i, j) for i in range(2) for j in range(2)]
        mult = {}
        for (i, j) in basis:
            for (k, l) in basis:
                if j == k:
                    mult[((i, j), (k, l))] = SparseVector({(i, l): field.one})
        return StructuredAlgebra(basis, mult, [(0, 0), (1, 1)], field, name="mat2")
    if kind == "trunc_poly":
        k = rng.randint(2, max_basis)
        basis = list(range(k))
        mult = {}
        for i in basis:
            for j in basis:
                if i + j < k:
                    mult[(i, j)] = SparseVector({i + j: field.one})
        return StructuredAlgebra(basis, mult, [0], field, name=f"poly{k}")
    if kind == "group":
        m = rng.randint(2, max_basis)
        basis = list(range(m))
        mult = {}
        for i in basis:
            for j in basis:
                mult[(i, j)] = SparseVector({(i + j) % m: field.one})
        return StructuredAlgebra(basis, mult, [0], field, name=f"cyclic{m}")
    n = rng.randint(1, max_basis)
    basis = list(range(n))
    mult = {(i, i): SparseVector({i: field.one}) for i in basis}
    return StructuredAlgebra(basis, mult, basis, field, name=f"diag{n}")


def _random_base_change(rng, n):
    """A unimodular integer matrix with its exact inverse: elementary
    operations, row j += lam * row i on u and column i -= lam * column j on
    u^-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [list(row) for row in u]
    for _ in range(rng.randint(0, 2 * n)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        lam = rng.randint(-2, 2)
        if not lam:
            continue
        u[j] = [x + lam * y for x, y in zip(u[j], u[i])]
        for row in u_inv:
            row[i] = row[i] - lam * row[j]
    return tuple(map(tuple, u)), tuple(map(tuple, u_inv))


def random_left_module(rng, algebra: StructuredAlgebra) -> LeftModule:
    """A left ideal cut of the regular module, conjugated in integers by a
    random exact base change; each entry becomes a field scalar once."""
    field, product = algebra.field, algebra.basis_product
    subset = [e for e in algebra.idempotents if rng.random() < 0.7] or [rng.choice(algebra.idempotents)]
    kept = [b for b in algebra.basis
            if SparseVector(term for e in subset for term in product(b, e).items()) == SparseVector({b: field.one})]
    index = {b: i for i, b in enumerate(kept)}
    n = len(kept)
    matrices = [[[0] * n for _ in range(n)] for _ in algebra.basis]
    for b, m in zip(algebra.basis, matrices):
        for c in kept:
            for d, coeff in product(b, c).items():
                if d not in index:
                    raise AssertionError("ideal cut is not closed under the left action; bug")
                m[index[d]][index[c]] = coeff
    u, u_inv = _random_base_change(rng, n)
    action = {}
    for b, (scale, ints) in zip(algebra.basis, integer_matrices(matrices, field)):
        right = [[0] * n for _ in range(n)]  # the integer matrix times u
        for (i, k), x in ints.items():
            right[i] = [y + x * z for y, z in zip(right[i], u[k])]
        action[b] = tuple(tuple(field.of(x, scale) if x else field.zero for x in row) for row in mat_mul(u_inv, right))
    return LeftModule(algebra, n, action)
