"""Finite-dimensional quiver representations, local nilpotence detection,
the cycle-quotient module, and the comodule construction over finite duals.

A right module over the quiver algebra is the same thing as a
representation (Assem–Simson–Skowroński I, Thm III.1.6), so quiver modules
are ``Representation``s.  They use the row-vector convention: a path acts on
the right, and the matrix of an arrow a has shape dim V_{s(a)} x dim
V_{t(a)}, so path composition is plain left-to-right matrix multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from typing import Optional

from .algebra import subpath_closure
from .coalgebra import check_comodule
from .finite_dual import DualCoalgebra, StructuredAlgebra
from .linalg import (
    Echelon,
    SparseVector,
    _add_pivot,
    integer_matrices,
    mat_eq,
    mat_identity,
    mat_mul,
    mat_zero,
)
from .quiver import Family, Path, Quiver, Verdict, find_simple_cycle
from .scalars import QQ, PrimeField


@dataclass
class Representation:
    """Per-vertex dimensions with an exact matrix per arrow."""

    quiver: Quiver
    dims: dict
    maps: dict  # arrow label -> matrix of shape (dim source, dim target)

    def __post_init__(self):
        for v in self.quiver.vertices:
            if v not in self.dims:
                raise ValueError(f"missing dimension for vertex {v}")
            if self.dims[v] < 0:
                raise ValueError("dimensions must be nonnegative")
        for a in self.quiver.arrows:
            m = self.maps.get(a.label)
            if m is None:
                raise ValueError(f"missing matrix for arrow {a.label}")
            if problem := shape_problem(a.label, m, self.dims[a.source], self.dims[a.target]):
                raise ValueError(problem)
            if self.dims[a.source] == 0 or self.dims[a.target] == 0:
                # Degenerate shapes are normalized to rows of empty tuples.
                self.maps[a.label] = tuple(() for _ in range(self.dims[a.source]))

    def total_dimension(self) -> int:
        return sum(self.dims.values())


def shape_problem(label: str, m, rows: int, cols: int) -> Optional[str]:
    """Why ``m`` is not a rows x cols matrix for the arrow ``label``, or
    None; any matrix will do when rows or cols is 0."""
    if not (rows and cols):
        return None
    got = len(m), (len(m[0]) if m else 0)
    if got != (rows, cols):
        return f"matrix for {label} has shape {got[0]}x{got[1]}, expected {rows}x{cols}"
    if any(len(row) != cols for row in m):
        return f"matrix for {label} is ragged: its rows differ in length"
    return None


def is_locally_nilpotent(rep: Representation, field=QQ) -> Verdict:
    """Subspace-chain decision on ``PathAction`` rows.  Level L holds one
    block of rows per vertex, together spanning V·J^L, the images of the
    total space under the paths of length L; one echelon per level admits
    the products of the blocks before with the arrows.  As
    V·J^(L+1) = (V·J^L)·J ⊆ V·J^L, the chain decreases and is stable from
    the first level that admits as many rows as the level before.  It
    either hits zero (locally nilpotent, from the vanishing level on) or
    stabilizes at a nonzero space, witnessed by a path long enough to
    repeat a vertex and the first unit vector at its start that it keeps
    alive."""
    quiver, action = rep.quiver, PathAction(rep, field)
    blocks, count, level = dict(action.units()), rep.total_dimension(), 0
    while count:
        echelon, admitted = Echelon(action.p), {v: {} for v in quiver.vertices}
        for a in quiver.arrows:
            for image in _block_product(blocks[a.source], action.arrows[a.label][1], action.p).values():
                if echelon.admit(image):
                    admitted[a.target][len(admitted[a.target])] = image
        if (admitted_count := sum(map(len, admitted.values()))) == count:
            depth = level + len(quiver.vertices) + 1
            path, block = next(walked for walked in action.alive(action.units(), depth) if walked[0].length == depth)
            start = min(block) - action.offsets[path.source]
            vector = tuple(field.one if j == start else field.zero for j in range(rep.dims[path.source]))
            return Verdict("no", (path, vector), data={
                "locally_nilpotent": False,
                "stable_dims": {str(v): len(admitted[v]) for v in quiver.vertices},
                "witness_path": str(path),
            })
        blocks, count, level = admitted, admitted_count, level + 1
    return Verdict("yes", level, data={"locally_nilpotent": True, "vanishing_level": level})


def annihilator_monomial_check(rep: Representation, vector) -> Verdict:
    """``PathAction.monomial_check`` of the vector, on its own kernel."""
    return PathAction(rep).monomial_check(vector)


def cycle_quotient_module(n: int, field=QQ) -> Representation:
    """The quotient of the cycle-quiver algebra by the relations making
    every full turn equal to the local unit at its start, as a
    representation of the n-cycle.

    The space at v_m has as basis the winding paths of length < n that end
    at v_m, the one that starts at v_j listed j-th (n^2 in total).  An arrow
    extends a path by one step and drops a completed turn, which keeps the
    start, so every arrow acts as the n x n identity: the module is n
    copies of ``cycle_module`` of the n-cycle, with the same annihilator.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    quiver, identity = Family("cycle", n).truncate(0), mat_identity(n, field)
    return Representation(quiver, dict.fromkeys(quiver.vertices, n), {a.label: identity for a in quiver.arrows})


def cycle_module(quiver: Quiver, field=QQ) -> Representation:
    """M1 of the simple cycle that ``find_simple_cycle`` finds: dimension 1
    at each cycle vertex and 0 elsewhere, 1 on each cycle arrow and zero
    maps on every other arrow.  So M1_p is the matrix unit E_{s(p),t(p)} on
    the paths that follow the cycle and zero on every other path.

    The cycle-quotient module M of a cycle of length s, dimension s at each
    cycle vertex and the identity on each cycle arrow, is s copies of M1:
    M_p = M1_p ⊗ I_s, so Σ c_p M_p = 0 exactly when Σ c_p M1_p = 0, and
    Ann(M) = Ann(M1), of codimension s^2.  The winding indicator is a sum
    of coefficient functionals p ↦ e_v·M1_p·e_v, one per cycle vertex v
    with e_v its unit vector; each vanishes on Ann(M1).  On the one-loop
    quiver it is eval(1)."""
    cycle = find_simple_cycle(quiver)
    if cycle is None:
        raise ValueError("quiver has no oriented cycle")
    on_cycle = {a.source for a in cycle}
    dims = {v: int(v in on_cycle) for v in quiver.vertices}
    maps = {a.label: ((field.one,),) if a in cycle else mat_zero(dims[a.source], dims[a.target], field)
            for a in quiver.arrows}
    return Representation(quiver, dims, maps)


def annihilator_basis(rep: Representation, field=QQ) -> list[Path]:
    """A path basis B of span{M_p}, the image of the path algebra in the
    endomorphisms of the total space: p ↦ M_p is an algebra map whose
    kernel is Ann(M), so Ann(M) is a two-sided ideal of codimension |B|,
    inside the kernel of every coefficient functional of M.

    Every path is a vertex followed by arrows, so the closure of the vertex
    idempotents under right multiplication by the arrows that leave t(b)
    spans every M_p; a product joins B when it is independent of B.  One
    exact elimination of the ``PathAction`` rows (nonzero multiples of the
    matrices) re-checks both claims: the rows of B all become pivots, and
    no other matrix formed does; else AssertionError."""
    return PathAction(rep, field).basis()


class PathAction:
    """The integer path-action kernel of a representation.  Each arrow's
    matrix is converted once, to block / scale (scale 1 over GF(p)) with
    block integer rows {row: {column: n}} in total-space coordinates.  A
    path matrix is one object per value, ``(scale, block, row)`` in lowest
    terms, row the block flattened to {row * total + column: n}: M_p = M_r,
    scale included, exactly when the objects are the same.  ``times`` forms
    one product per distinct matrix and arrow.  ``alive`` walks the products
    of row blocks, the unit rows of ``units`` or a vector's ``starts``,
    without forming path matrices."""

    def __init__(self, rep: Representation, field=QQ):
        self.quiver = quiver = rep.quiver
        self.offsets = offsets = dict(zip(quiver.vertices, accumulate([rep.dims[v] for v in quiver.vertices], initial=0)))
        self.p, converted = integer_matrices([rep.maps[a.label] for a in quiver.arrows], field)
        self.arrows = {}
        for a, (scale, ints) in zip(quiver.arrows, converted):
            self.arrows[a.label] = scale, (block := {})
            for (i, j), n in ints.items():
                block.setdefault(offsets[a.source] + i, {})[offsets[a.target] + j] = n
        self._total, self._canonical, self._formed = rep.total_dimension(), {}, {}
        self.vertices = {v: self._matrix(1, {offsets[v] + i: {offsets[v] + i: 1} for i in range(rep.dims[v])})
                         for v in quiver.vertices}

    def _matrix(self, scale: int, block: dict) -> tuple:
        if scale != 1 and (g := gcd(scale, *[n for cols in block.values() for n in cols.values()])) > 1:
            scale, block = scale // g, {r: {c: n // g for c, n in cols.items()} for r, cols in block.items()}
        row = {r * self._total + c: n for r, cols in block.items() for c, n in cols.items()}
        return self._canonical.setdefault((scale, frozenset(row.items())), (scale, block, row))

    def times(self, matrix: tuple, label: str) -> tuple:
        """The path matrix ``matrix`` times the arrow ``label``."""
        if (key := (id(matrix), label)) not in self._formed:
            scale, block = self.arrows[label]
            self._formed[key] = self._matrix(matrix[0] * scale, _block_product(matrix[1], block, self.p))
        return self._formed[key]

    def units(self) -> list:
        """The unit rows of the total space, as the starts (vertex, block)
        with the identity block of each vertex."""
        return [(v, matrix[1]) for v, matrix in self.vertices.items()]

    def starts(self, vector) -> list:
        """The starts (vertex, {0: row}) of a total-space vector, one per
        vertex where it is nonzero, the row its integers with the kernel's
        modulus."""
        ints = integer_matrices([(vector,)], PrimeField(self.p) if self.p else None)[1][0][1]
        bounds = [*self.offsets.values(), self._total]
        return [(v, {0: row}) for v, low, high in zip(self.offsets, bounds, bounds[1:])
                if (row := {k: n for (_, k), n in ints.items() if low <= k < high})]

    def alive(self, starts, depth: int):
        """Depth first, each path p of length at most ``depth`` from a start
        (vertex, block) whose product block·M_p is nonzero, with that
        product.  A zero product ends its branch, since every extension of
        the path is zero on the block too."""
        quiver = self.quiver
        stack = [(quiver.vertex_path(v), block) for v, block in starts if block]
        while stack:
            path, block = stack.pop()
            yield path, block
            for a in quiver.out_arrows(path.target) if path.length < depth else ():
                if product := _block_product(block, self.arrows[a.label][1], self.p):
                    stack.append((Path(quiver, None, path.arrows + (a,)), product))

    def monomial_check(self, vector) -> Verdict:
        """Whether a cofinite monomial ideal annihilates the vector v, exactly.

        ``vector`` lies in the total space, the vertex spaces taken in
        ``quiver.vertices`` order.  Let n = dim M and U_L = span{v·M_p : |p| ≥
        L}.  The chain U_0 ⊇ U_1 ⊇ … decreases and U_(L+1) = U_L·J, so it is
        constant from its first repeat on; each strict step lowers the
        dimension, so the first repeat comes by L = n and U_L = U_n for every
        L ≥ n.  The paths acting nonzero on v are prefix-closed, so a depth
        first walk with pruning to depth n enumerates those of length ≤ n.
        If one of length n acts nonzero, U_n ≠ 0, so every U_L is nonzero and
        paths of every length act nonzero: no cofinite set of paths kills v,
        and the answer is no with that path as witness.  Otherwise every path
        of length ≥ n kills v, the nonvanishing set is finite, and the yes
        witness is its subpath closure: the span of the paths outside it is a
        cofinite two-sided ideal, and it annihilates v.
        """
        if len(vector) != (n := self._total):
            raise ValueError(f"vector has length {len(vector)}, expected {n}")
        alive = []
        for path, _ in self.alive(self.starts(vector), n):
            if path.length == n:
                return Verdict("no", path, f"the path {path} of length dim M = {n} acts nonzero, so paths of every length do")
            alive.append(path)
        return Verdict("yes", subpath_closure(alive), "the span of all paths outside the closure annihilates the vector")

    def basis(self) -> list[Path]:
        """``annihilator_basis`` of the representation."""
        quiver, echelon = self.quiver, Echelon(self.p)
        basis = [(quiver.vertex_path(v), matrix) for v, matrix in self.vertices.items() if echelon.admit(matrix[2])]
        # B grows while it is walked, so each member is extended once.
        for path, matrix in basis:
            for a in quiver.out_arrows(path.target):
                if echelon.admit((product := self.times(matrix, a.label))[2]):
                    basis.append((Path(quiver, None, path.arrows + (a,)), product))
        pivots, members = {}, {id(matrix) for _, matrix in basis}
        if (not all(_add_pivot(dict(matrix[2]), pivots, self.p) for _, matrix in basis)
                or any(_add_pivot(dict(m[2]), pivots, self.p) for m in self._canonical.values() if id(m) not in members)):
            raise AssertionError("the Krylov basis does not span the path matrices; bug")
        return [path for path, _ in basis]


def _block_product(left: dict, right: dict, p: int) -> dict:
    """The product of two integer sparse matrices {row: {column: n}},
    reduced mod p when p."""
    out = {}
    for r, cols in left.items():
        acc = {}
        for k, c in cols.items():
            for j, n in right.get(k, {}).items():
                acc[j] = acc.get(j, 0) + c * n
        if acc := {j: n for j, x in acc.items() if (n := x % p if p else x)}:
            out[r] = acc
    return out


# ---------------------------------------------------------------------------
# Left modules over structured algebras and the comodule construction.
# ---------------------------------------------------------------------------


class LeftModule:
    """Finite-dimensional unital left module over a StructuredAlgebra.

    ``action[b]`` is the matrix of the basis element b acting on column
    vectors; unitality means the idempotents' actions sum to the identity.
    Every module is checked when it is built.
    """

    def __init__(self, algebra: StructuredAlgebra, dimension: int, action: dict):
        self.algebra = algebra
        self.dimension = dimension
        self.action = action
        self._validate()

    def _validate(self):
        # A left A-module is a right A*-comodule: ρ(a)ρ(b) = ρ(ab) is the
        # coaction's coassociativity and unitality its counit law.
        dual = DualCoalgebra(self.algebra, validate=False)
        rho = _coaction_rows(self)
        if check_comodule(range(self.dimension), rho.__getitem__, dual.delta_table.__getitem__,
                          dual.counit_table.__getitem__) is not None:
            raise ValueError(self._first_violation())

    def _first_violation(self) -> str:
        """The failure a full scan meets first, in field arithmetic:
        unitality, then ρ(a)ρ(b) = ρ(ab) on every pair (a, b)."""
        algebra, field, n = self.algebra, self.algebra.field, self.dimension
        total = mat_zero(n, n, field)
        for e in algebra.idempotents:
            total = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(total, self.action[e]))
        if not mat_eq(total, mat_identity(n, field)):
            return "left module is not unital"
        for a in algebra.basis:
            for b in algebra.basis:
                expected = mat_zero(n, n, field)
                for c, coeff in algebra.basis_product(a, b).items():
                    expected = tuple(tuple(x + coeff * y for x, y in zip(r1, r2))
                                     for r1, r2 in zip(expected, self.action[c]))
                if not mat_eq(mat_mul(self.action[a], self.action[b]), expected):
                    return f"action does not respect the product at ({a},{b})"
        raise AssertionError("the law kernel and the scan disagree; bug")


def regular_left_module(algebra: StructuredAlgebra) -> LeftModule:
    field = algebra.field
    basis = list(algebra.basis)
    index = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    action = {}
    for b in basis:
        m = [[field.zero] * n for _ in range(n)]
        for c in basis:
            product = algebra.basis_product(b, c)
            for d, coeff in product.items():
                m[index[d]][index[c]] = coeff
        action[b] = tuple(tuple(row) for row in m)
    return LeftModule(algebra, n, action)


@dataclass
class Coaction:
    """Right comodule structure over the dual coalgebra of the algebra."""

    algebra: StructuredAlgebra
    dimension: int
    rho: list  # rho[j]: SparseVector over pairs (i, basis label)


def _coaction_rows(module: LeftModule) -> list:
    """ρ(m_j) = Σ_i m_i ⊗ a*_ij, with a_ij read off the action matrices."""
    n = module.dimension
    return [
        SparseVector({(i, b): c for b in module.algebra.basis for i in range(n) if (c := module.action[b][i][j])})
        for j in range(n)
    ]


def comodule_from_module(module: LeftModule) -> Coaction:
    """The right comodule of ``_coaction_rows``: the rows whose
    coassociativity and counit law the module's own check passed."""
    return Coaction(module.algebra, module.dimension, _coaction_rows(module))


def module_from_comodule(coaction: Coaction) -> LeftModule:
    """Inverse construction: b acts by pairing the dual-basis leg with b.
    A ``Coaction`` can be built from any rows, so the rebuilt module's own
    check is the one check of the comodule laws; it raises ValueError."""
    algebra = coaction.algebra
    field = algebra.field
    n = coaction.dimension
    action = {}
    for b in algebra.basis:
        m = [[field.zero] * n for _ in range(n)]
        for j in range(n):
            for (i, c), coeff in coaction.rho[j].items():
                if c == b:
                    m[i][j] = m[i][j] + coeff
        action[b] = tuple(tuple(row) for row in m)
    return LeftModule(algebra, n, action)
