"""Finite-dimensional quiver representations, the module/representation
correspondence, local nilpotence detection, the cycle-quotient module, and
the comodule construction over finite duals.

Quiver modules use the row-vector convention: a path acts on the right,
and the matrix of an arrow a has shape dim V_{s(a)} x dim V_{t(a)}, so
path composition is plain left-to-right matrix multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import subpath_closure
from .coalgebra import check_comodule
from .finite_dual import DualCoalgebra, StructuredAlgebra, dual_coalgebra
from .linalg import (
    SparseVector,
    mat_eq,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_zero,
    rref,
    solve_membership,
    vec_mat,
)
from .quiver import Family, Path, Quiver, Verdict
from .scalars import QQ


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
            if self.dims[a.source] == 0 or self.dims[a.target] == 0:
                # Degenerate shapes are normalized to rows of empty tuples.
                self.maps[a.label] = tuple(() for _ in range(self.dims[a.source]))
                continue
            rows, cols = len(m), (len(m[0]) if m else 0)
            if rows != self.dims[a.source] or cols != self.dims[a.target]:
                raise ValueError(
                    f"matrix for {a.label} has shape {rows}x{cols}, expected "
                    f"{self.dims[a.source]}x{self.dims[a.target]}"
                )
            if any(len(row) != cols for row in m):
                raise ValueError(f"matrix for {a.label} is ragged: its rows differ in length")

    def total_dimension(self) -> int:
        return sum(self.dims.values())


class ModuleData:
    """Unital right module over the quiver algebra, by action matrices.

    Validation checks that the vertex actions are orthogonal idempotents
    summing to the identity and that each arrow action is sandwiched by its
    endpoint idempotents; path actions then compose-or-vanish automatically.
    """

    def __init__(self, quiver: Quiver, dimension: int, vertex_action: dict, arrow_action: dict, field=QQ, validate=True):
        self.quiver = quiver
        self.dimension = dimension
        self.vertex_action = vertex_action
        self.arrow_action = arrow_action
        self.field = field
        if validate:
            self._validate()

    def _validate(self):
        n = self.dimension
        identity = mat_identity(n, self.field)
        total = mat_zero(n, n, self.field)
        for v in self.quiver.vertices:
            m = self.vertex_action[v]
            if not mat_eq(mat_mul(m, m), m):
                raise ValueError(f"vertex action at {v} is not idempotent")
            total = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(total, m))
        if not mat_eq(total, identity):
            raise ValueError("module is not unital: vertex actions do not sum to identity")
        for v in self.quiver.vertices:
            for w in self.quiver.vertices:
                if v != w and not mat_is_zero(mat_mul(self.vertex_action[v], self.vertex_action[w])):
                    raise ValueError(f"vertex actions at {v},{w} are not orthogonal")
        for a in self.quiver.arrows:
            m = self.arrow_action[a.label]
            if not mat_eq(mat_mul(self.vertex_action[a.source], m), m):
                raise ValueError(f"arrow {a.label} not left-sandwiched by its source idempotent")
            if not mat_eq(mat_mul(m, self.vertex_action[a.target]), m):
                raise ValueError(f"arrow {a.label} not right-sandwiched by its target idempotent")

    def path_action(self, path: Path):
        if path.length == 0:
            return self.vertex_action[path.vertex]
        m = self.arrow_action[path.arrows[0].label]
        for a in path.arrows[1:]:
            m = mat_mul(m, self.arrow_action[a.label])
        return m

    def act(self, vector, path: Path):
        return vec_mat(vector, self.path_action(path))


def _row_space_basis(matrix, field=QQ):
    rows = [SparseVector({j: x for j, x in enumerate(row) if x}) for row in matrix]
    return rref(rows)


def _dense_rows(basis, width, field=QQ):
    out = []
    for vec in basis:
        out.append(tuple(vec.coeff(j) if vec.coeff(j) else field.zero for j in range(width)))
    return out


def rep_from_module(module: ModuleData) -> Representation:
    """The representation with V_u the image of the idempotent at u and the
    arrow maps induced by the right action."""
    n = module.dimension
    field = module.field
    bases = {}
    for v in module.quiver.vertices:
        bases[v] = _dense_rows(_row_space_basis(module.vertex_action[v], field), n, field)
    dims = {v: len(bases[v]) for v in module.quiver.vertices}
    maps = {}
    for a in module.quiver.arrows:
        source_rows = bases[a.source]
        target_rows = [SparseVector({j: x for j, x in enumerate(row) if x}) for row in bases[a.target]]
        block = []
        for row in source_rows:
            image = vec_mat(row, module.arrow_action[a.label])
            image_vec = SparseVector({j: x for j, x in enumerate(image) if x})
            coeffs = solve_membership(image_vec, target_rows)
            if coeffs is None:
                raise AssertionError("arrow action leaves the target idempotent image; bug")
            block.append(tuple(c if c else field.zero for c in coeffs))
        maps[a.label] = tuple(block) if block else ()
    return Representation(module.quiver, dims, maps)


def module_from_rep(rep: Representation, field=QQ) -> ModuleData:
    """Total space of the representation with the path action; inverse of
    ``rep_from_module`` up to the canonical identification."""
    order = list(rep.quiver.vertices)
    offsets = {}
    total = 0
    for v in order:
        offsets[v] = total
        total += rep.dims[v]

    vertex_action = {}
    for v in order:
        m = [[field.zero] * total for _ in range(total)]
        for i in range(rep.dims[v]):
            m[offsets[v] + i][offsets[v] + i] = field.one
        vertex_action[v] = tuple(tuple(row) for row in m)
    arrow_action = {}
    for a in rep.quiver.arrows:
        m = [[field.zero] * total for _ in range(total)]
        block = rep.maps[a.label]
        for i in range(rep.dims[a.source]):
            for j in range(rep.dims[a.target]):
                m[offsets[a.source] + i][offsets[a.target] + j] = block[i][j]
        arrow_action[a.label] = tuple(tuple(row) for row in m)
    return ModuleData(rep.quiver, total, vertex_action, arrow_action, field)


@dataclass
class NilpotenceReport:
    locally_nilpotent: bool
    vanishing_level: Optional[int] = None
    stable_dims: Optional[dict] = None
    witness_path: Optional[Path] = None
    witness_vector: Optional[tuple] = None

    def __bool__(self):
        return self.locally_nilpotent


def is_locally_nilpotent(rep: Representation, field=QQ) -> NilpotenceReport:
    """Subspace-chain decision: propagate the spaces reached by length-L
    path actions; the chain is decreasing, so it either hits zero (locally
    nilpotent) or stabilizes at a nonzero state (witnessed by a nonvanishing
    action of a path long enough to repeat a vertex)."""
    quiver = rep.quiver

    def canonical(state):
        return tuple(
            tuple(tuple(row) for row in _dense_rows(state[v], rep.dims[v], field))
            for v in quiver.vertices
        )

    state = {
        v: _row_space_basis(mat_identity(rep.dims[v], field), field) for v in quiver.vertices
    }
    level = 0
    while True:
        if all(not state[v] for v in quiver.vertices):
            return NilpotenceReport(True, vanishing_level=level)
        new_state = {v: [] for v in quiver.vertices}
        for a in quiver.arrows:
            m = rep.maps[a.label]
            for basis_vec in state[a.source]:
                row = tuple(basis_vec.coeff(j) if basis_vec.coeff(j) else field.zero for j in range(rep.dims[a.source]))
                image = vec_mat(row, m)
                vec = SparseVector({j: x for j, x in enumerate(image) if x})
                if not vec.is_zero():
                    new_state[a.target].append(vec)
        new_state = {v: rref(new_state[v]) for v in quiver.vertices}
        if canonical(new_state) == canonical(state):
            witness = _find_nonvanishing_long_path(rep, level + len(quiver.vertices) + 1, field)
            stable_dims = {v: len(new_state[v]) for v in quiver.vertices}
            return NilpotenceReport(
                False,
                stable_dims=stable_dims,
                witness_path=witness[0] if witness else None,
                witness_vector=witness[1] if witness else None,
            )
        state = new_state
        level += 1


def _find_nonvanishing_long_path(rep: Representation, depth: int, field=QQ):
    """DFS for a path of the target length whose action matrix is nonzero,
    together with a vector not killed by it."""
    quiver = rep.quiver
    stack = []
    for v in quiver.vertices:
        if rep.dims[v]:
            stack.append((quiver.vertex_path(v), mat_identity(rep.dims[v], field)))
    while stack:
        path, matrix = stack.pop()
        if path.length >= depth:
            for i, row in enumerate(matrix):
                if any(row):
                    vector = tuple(field.one if j == i else field.zero for j in range(len(matrix)))
                    return path, vector
            continue
        for a in quiver.out_arrows(path.target):
            product = mat_mul(matrix, rep.maps[a.label])
            if not mat_is_zero(product):
                stack.append((Path(quiver, None, path.arrows + (a,)), product))
    return None


def annihilator_monomial_check(module: ModuleData, vector, codim_bound: int = 10) -> Verdict:
    """Search for a cofinite monomial ideal annihilating the vector.

    The nonvanishing path set of the vector is prefix-closed, so a depth
    first walk with pruning enumerates it; a surviving path longer than the
    bound already forces more than codim_bound complement elements.  A yes
    walked the whole set, and its witness is the complement.
    """
    quiver = module.quiver
    alive = []
    stack = []
    for v in quiver.vertices:
        image = vec_mat(vector, module.vertex_action[v])
        if any(image):
            stack.append((quiver.vertex_path(v), image))
    while stack:
        path, image = stack.pop()
        alive.append(path)
        if path.length > codim_bound:
            return Verdict("no_up_to_bound", explanation=f"a path of length {path.length} still acts nontrivially")
        for a in quiver.out_arrows(path.target):
            new_image = vec_mat(image, module.arrow_action[a.label])
            if any(new_image):
                stack.append((Path(quiver, None, path.arrows + (a,)), new_image))
    return Verdict(
        "yes", subpath_closure(alive), "the span of all paths outside the closure annihilates the vector"
    )


def cycle_quotient_module(n: int, field=QQ) -> ModuleData:
    """The quotient of the cycle-quiver algebra by the relations making
    every full turn equal to the local unit at its start.

    Basis: winding paths of length < n from each of the n vertices (n^2 in
    total).  Right multiplication reduces any full turn by dropping it, and
    the resulting action is verified associative and unital.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    quiver = Family("cycle", n).truncate(0)
    labels = [(j, k) for j in range(n) for k in range(n)]
    index = {lab: i for i, lab in enumerate(labels)}
    dim = n * n

    def matrix_from_action(action):
        rows = []
        for lab in labels:
            row = [field.zero] * dim
            target = action(lab)
            if target is not None:
                row[index[target]] = field.one
            rows.append(tuple(row))
        return tuple(rows)

    vertex_action = {}
    for m in range(n):
        vertex_action[f"v{m}"] = matrix_from_action(
            lambda lab, m=m: lab if (lab[0] + lab[1]) % n == m else None
        )
    arrow_action = {}
    for m in range(n):
        def act(lab, m=m):
            j, k = lab
            if (j + k) % n != m:
                return None
            return (j, k + 1) if k + 1 < n else (j, 0)

        arrow_action[f"x{m}"] = matrix_from_action(act)
    return ModuleData(quiver, dim, vertex_action, arrow_action, field)


# ---------------------------------------------------------------------------
# Left modules over structured algebras and the comodule construction.
# ---------------------------------------------------------------------------


class LeftModule:
    """Finite-dimensional unital left module over a StructuredAlgebra.

    ``action[b]`` is the matrix of the basis element b acting on column
    vectors; unitality means the idempotents' actions sum to the identity.
    """

    def __init__(self, algebra: StructuredAlgebra, dimension: int, action: dict, validate=True):
        self.algebra = algebra
        self.dimension = dimension
        self.action = action
        if validate:
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
    return LeftModule(algebra, n, action, validate=False)


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
    """The right comodule of ``_coaction_rows``; coassociativity and the
    counit law are verified exactly."""
    coaction = Coaction(module.algebra, module.dimension, _coaction_rows(module))
    _verify_coaction(coaction, module)
    return coaction


def _verify_coaction(coaction: Coaction, module: LeftModule):
    dual = dual_coalgebra(coaction.algebra)
    failure = check_comodule(
        range(coaction.dimension),
        coaction.rho.__getitem__,
        dual.delta_table.__getitem__,
        dual.counit_table.__getitem__,
    )
    if failure is None:
        return
    law, j = failure
    if law == "coassociativity":
        raise AssertionError(f"coaction is not coassociative at basis vector {j}")
    raise AssertionError(f"coaction counit law fails at basis vector {j}")


def module_from_comodule(coaction: Coaction) -> LeftModule:
    """Inverse construction: b acts by pairing the dual-basis leg with b."""
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
