"""Product quivers, lattice walks, the shuffle embedding of a tensor
product of path coalgebras, perp-factorization constructions, and the
rule-based coreflexivity verdict engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from itertools import combinations
from typing import Optional

from .coalgebra import CoalgElement, comultiply, counit, linear_extension
from .dual import Functional
from .incidence import Poset
from .linalg import SparseVector, rank1_decompose_2x2, rank1_factor_2x2
from .quiver import Family, Path, Quiver, Verdict, enumerate_paths, is_acyclic
from .scalars import QQ


# ---------------------------------------------------------------------------
# Product quivers and lattice walks.
# ---------------------------------------------------------------------------


def _pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def product_quiver(left: Quiver, right: Quiver) -> Quiver:
    """Vertices are vertex pairs; arrows pair an arrow on one side with a
    vertex on the other."""
    vertices = [_pair_label(a, b) for a in left.vertices for b in right.vertices]
    arrows = []
    origin = {}
    for x in left.arrows:
        for b in right.vertices:
            label = _pair_label(x.label, b)
            arrows.append((label, _pair_label(x.source, b), _pair_label(x.target, b)))
            origin[label] = ("L", x.label, b)
    for a in left.vertices:
        for y in right.arrows:
            label = _pair_label(a, y.label)
            arrows.append((label, _pair_label(a, y.source), _pair_label(a, y.target)))
            origin[label] = ("R", a, y.label)
    product = Quiver(vertices, arrows, name=f"{left.name}x{right.name}")
    product.product_data = {"left": left, "right": right, "origin": origin}
    return product


@dataclass(frozen=True)
class LatticeWalk:
    """Monotone staircase from (0,0) to (n,k): points after each step."""

    points: tuple

    @property
    def shape(self):
        return self.points[-1]

    def steps(self) -> tuple:
        out = []
        for (i0, j0), (i1, j1) in zip(self.points, self.points[1:]):
            out.append("R" if i1 == i0 + 1 else "U")
        return tuple(out)

    @staticmethod
    def from_steps(steps) -> "LatticeWalk":
        i = j = 0
        points = [(0, 0)]
        for step in steps:
            if step == "R":
                i += 1
            elif step == "U":
                j += 1
            else:
                raise ValueError(f"bad step {step!r}")
            points.append((i, j))
        return LatticeWalk(tuple(points))


def lattice_walks(n: int, k: int) -> list[LatticeWalk]:
    """All monotone walks from (0,0) to (n,k): one per choice of up-step
    positions, in lexicographic order; there are binomial(n+k, k) of them."""
    if n < 0 or k < 0:
        raise ValueError("grid dimensions must be nonnegative")
    walks = []
    for ups in combinations(range(n + k), k):
        # Step i + j moves from (i, j): up at the positions in ups, else right.
        i = j = 0
        points = [(0, 0)]
        for r in ups:
            while i + j < r:
                i += 1
                points.append((i, j))
            j += 1
            points.append((i, j))
        while i < n:
            i += 1
            points.append((i, j))
        walks.append(LatticeWalk(tuple(points)))
    assert len(walks) == comb(n + k, k)
    return walks


def _vertex_chain(path: Path) -> list:
    return [path.source] + [a.target for a in path.arrows]


def walk_path(p: Path, q: Path, walk: LatticeWalk, product: Quiver) -> Path:
    """The product-quiver path obtained by interleaving p and q along the
    walk: a right step uses the next left arrow, an up step the next right
    arrow, each paired with the current vertex on the other side."""
    n, k = len(p.arrows), len(q.arrows)
    if walk.shape != (n, k):
        raise ValueError(f"walk shape {walk.shape} does not match ({n},{k})")
    averts = _vertex_chain(p)
    bverts = _vertex_chain(q)
    if n + k == 0:
        return product.vertex_path(_pair_label(averts[0], bverts[0]))
    arrows = []
    for (i0, j0), (i1, j1) in zip(walk.points, walk.points[1:]):
        if i1 == i0 + 1:
            label = _pair_label(p.arrows[i0].label, bverts[j0])
        else:
            label = _pair_label(averts[i0], q.arrows[j0].label)
        arrows.append(product.arrow_by_label[label])
    return Path(product, None, tuple(arrows))


def decompose_product_path(gamma: Path):
    """The unique (p, q, walk) triple with walk_path(p, q, walk) == gamma."""
    product = gamma.quiver
    data = getattr(product, "product_data", None)
    if data is None:
        raise ValueError("path does not live in a constructed product quiver")
    left, right, origin = data["left"], data["right"], data["origin"]
    if gamma.length == 0:
        a, b = _split_pair_label(gamma.vertex)
        return left.vertex_path(a), right.vertex_path(b), LatticeWalk.from_steps(())
    left_arrows = []
    right_arrows = []
    steps = []
    for arrow in gamma.arrows:
        side, first, second = origin[arrow.label]
        if side == "L":
            left_arrows.append(left.arrow_by_label[first])
            steps.append("R")
        else:
            right_arrows.append(right.arrow_by_label[second])
            steps.append("U")
    start_left, start_right = _split_pair_label(gamma.source)
    p = Path(left, None, tuple(left_arrows)) if left_arrows else left.vertex_path(start_left)
    q = Path(right, None, tuple(right_arrows)) if right_arrows else right.vertex_path(start_right)
    return p, q, LatticeWalk.from_steps(steps)


def _split_pair_label(label: str):
    if not (label.startswith("(") and label.endswith(")")):
        raise ValueError(f"not a pair label: {label!r}")
    depth = 0
    for idx, ch in enumerate(label):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 1:
            return label[1:idx], label[idx + 1 : -1]
    raise ValueError(f"not a pair label: {label!r}")


def alpha_table(product: Quiver):
    """The shuffle embedding on basis pairs, in the law kernel's integer
    form: (p, q) -> ``(1, {walk_path: 1})`` over the lattice walks of shape
    (|p|, |q|), whose interleavings are distinct paths.  The walks of each
    shape are built once per table."""
    walks = {}

    def row(pair):
        p, q = pair
        shape = (p.length, q.length)
        if shape not in walks:
            walks[shape] = lattice_walks(*shape)
        return (1, {walk_path(p, q, walk, product): 1 for walk in walks[shape]})

    return row


def alpha_embed(tensor: SparseVector, product: Quiver) -> CoalgElement:
    """The shuffle embedding, the linear extension of ``alpha_table``: a
    pure tensor p⊗q goes to the sum of its interleavings over all lattice
    walks."""
    return CoalgElement(product, linear_extension(alpha_table(product), tensor))


# ---------------------------------------------------------------------------
# Saturation and perp factorization.
# ---------------------------------------------------------------------------


@dataclass
class SaturationResult:
    """The finite-dimensional subcoalgebra swallowing a given one.

    ``seed_vertices``: the vertices met by the input's support paths;
    ``relevant_paths``: all paths with both endpoints among them;
    ``vertex_set``: every vertex on those paths; ``basis``: all paths with
    both endpoints in the vertex set (a subcoalgebra basis).
    """

    quiver: Quiver
    seed_vertices: list
    relevant_paths: list
    vertex_set: list
    basis: list

    def contains_path(self, path: Path) -> bool:
        return path.source in self._vertex_lookup and path.target in self._vertex_lookup

    def __post_init__(self):
        self._vertex_lookup = set(self.vertex_set)


def _reachable(quiver: Quiver, seeds, forward: bool) -> set:
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        arrows = quiver.out_arrows(v) if forward else quiver.in_arrows(v)
        for a in arrows:
            nxt = a.target if forward else a.source
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _paths_within(quiver: Quiver, allowed: set, sources: set, targets: set) -> list:
    """All paths staying inside the allowed vertex set with prescribed
    endpoint sets; requires the induced subquiver to be acyclic."""
    from .quiver import induced_subquiver

    induced = induced_subquiver(quiver, allowed)
    if not is_acyclic(induced):
        raise ValueError("cycle detected among relevant vertices; the hull would be infinite")
    out = []
    bound = max(0, len(allowed) - 1)
    stack = [quiver.vertex_path(v) for v in sorted(allowed & sources, key=str)]
    while stack:
        path = stack.pop()
        if path.target in targets:
            out.append(path)
        if path.length >= bound:
            continue
        for a in quiver.out_arrows(path.target):
            if a.target in allowed:
                stack.append(Path(quiver, None, path.arrows + (a,)))
    out.sort(key=lambda p: p.sort_key)
    return out


def saturate_subcoalgebra(elements, quiver: Quiver) -> SaturationResult:
    """Grow a finite-dimensional subcoalgebra V to the span W of all paths
    whose endpoints lie on paths between V's vertices; W is subpath-closed,
    contains V, and stays finite-dimensional whenever the relevant region
    has finitely many paths between any two vertices."""
    seed = set()
    for element in elements:
        for p in element.combo.labels():
            seed.update(_vertex_chain(p))
    seed_vertices = sorted(seed, key=str)
    region = _reachable(quiver, seed, True) & _reachable(quiver, seed, False)
    relevant = _paths_within(quiver, region, seed, seed)
    vertex_set = set()
    for p in relevant:
        vertex_set.update(_vertex_chain(p))
    vertex_list = sorted(vertex_set, key=str)
    region_s = _reachable(quiver, vertex_set, True) & _reachable(quiver, vertex_set, False)
    basis = _paths_within(quiver, region_s, vertex_set, vertex_set)
    result = SaturationResult(quiver, seed_vertices, relevant, vertex_list, basis)
    basis_set = set(basis)
    for element in elements:
        for p in element.combo.labels():
            if p not in basis_set:
                raise AssertionError("saturation does not contain its input; bug")
    for p in basis:
        for sub in p.subpaths():
            if sub not in basis_set:
                raise AssertionError("saturation basis is not subpath-closed; bug")
    return result


@dataclass
class FactorizationWitness:
    """Functionals with eta = f1*g1 + f2*g2, all four vanishing on W."""

    eta: Functional
    f1: Functional
    g1: Functional
    f2: Functional
    g2: Functional
    window: int
    checked_paths: int

    def pairs(self):
        return ((self.f1, self.g1), (self.f2, self.g2))


def factor_perp_element(eta: Functional, saturation: SaturationResult, max_len: int, field=QQ) -> FactorizationWitness:
    """Split a functional vanishing on the saturated subcoalgebra into a sum
    of two products of such functionals, by induction on path length.

    Base case on a vertex v outside the saturation: f1(v) = g2(v) = 1 and
    g1(v) = eta(v), f2(v) = 0.  Induction step: with f1(p) = g2(p) = 0
    fixed, the one remaining unknown among g1(p), f2(p) is solved from the
    convolution identity restricted to proper decompositions.
    """
    quiver = saturation.quiver
    enum = enumerate_paths(quiver, max_len)
    in_w = {p: saturation.contains_path(p) for p in enum.paths}
    for p in enum.paths:
        if in_w[p] and eta(p):
            raise ValueError("the functional does not vanish on the saturated subcoalgebra")
    zero, one = field.zero, field.one
    f1, g1, f2, g2 = {}, {}, {}, {}
    for p in sorted(enum.paths, key=lambda q: q.length):
        if p.length == 0:
            if in_w[p]:
                f1[p] = g1[p] = f2[p] = g2[p] = zero
            else:
                f1[p] = one
                g2[p] = one
                g1[p] = eta(p)
                f2[p] = zero
            continue
        if in_w[p]:
            f1[p] = g1[p] = f2[p] = g2[p] = zero
            continue
        u = quiver.vertex_path(p.source)
        v = quiver.vertex_path(p.target)
        inner = zero
        for q, r in p.splits():
            if q == p or r == p:
                continue
            inner = inner + f1[q] * g1[r] + f2[q] * g2[r]
        residual = eta(p) - inner
        f1[p] = zero
        g2[p] = zero
        if not in_w[u]:
            # f1(u) = 1 carries the unknown g1(p).
            g1[p] = residual
            f2[p] = zero
        else:
            # Here t(p) is outside the saturation, so g2(v) = 1.
            g1[p] = zero
            f2[p] = residual
    witness = FactorizationWitness(
        eta,
        Functional(quiver, support=SparseVector(f1), field=field),
        Functional(quiver, support=SparseVector(g1), field=field),
        Functional(quiver, support=SparseVector(f2), field=field),
        Functional(quiver, support=SparseVector(g2), field=field),
        max_len,
        len(enum.paths),
    )
    verify_factorization(witness, saturation.basis, enum.paths)
    return witness


def verify_factorization(witness: FactorizationWitness, w_basis, paths) -> None:
    """Exact check: the four functionals vanish on W and the convolution
    identity holds on every path of the window."""
    for functional in (witness.f1, witness.g1, witness.f2, witness.g2):
        for p in w_basis:
            if functional(p):
                raise AssertionError("factor does not vanish on the subcoalgebra")
    for p in paths:
        total = 0
        for q, r in p.splits():
            total = total + witness.f1(q) * witness.g1(r) + witness.f2(q) * witness.g2(r)
        if total - witness.eta(p):
            raise AssertionError(f"convolution identity fails at {p}")


def star_truncation_basis(quiver: Quiver, stage: int) -> list:
    """Path basis of a single-arrow star truncation: hub, tip, and per
    branch the middle vertex, the two arrows, and their composite."""
    paths = [quiver.vertex_path("a"), quiver.vertex_path("c")]
    for i in range(1, stage + 1):
        paths.append(quiver.vertex_path(f"b{i}"))
        paths.append(quiver.arrow_path(f"x{i}"))
        paths.append(quiver.arrow_path(f"y{i}"))
        paths.append(quiver.path_from_labels([f"x{i}", f"y{i}"]))
    return paths


def star_perp_factorization(n: int, truncation: int, eta: Functional, field=QQ) -> FactorizationWitness:
    """Perp factorization on the single-arrow star family.

    W_n is spanned by the hub, the tip, and the first n branches with their
    arrows and composites.  For each later branch k the values of the two
    factor pairs on (b_k, y_k, x_k, x_k y_k) are read off a rank-1 splitting
    of the 2x2 value matrix of eta; everything else is zero.
    """
    family = Family("star56")
    if truncation < n:
        raise ValueError("truncation must include the protected branches")
    quiver = family.truncate(truncation)
    w_basis = star_truncation_basis(quiver, n)
    for p in w_basis:
        if eta(p):
            raise ValueError("the functional does not vanish on the protected subcoalgebra")
    g1, h1, g2, h2 = {}, {}, {}, {}
    for k in range(n + 1, truncation + 1):
        b = quiver.vertex_path(f"b{k}")
        x = quiver.arrow_path(f"x{k}")
        y = quiver.arrow_path(f"y{k}")
        xy = quiver.path_from_labels([f"x{k}", f"y{k}"])
        matrix = ((eta(b), eta(y)), (eta(x), eta(xy)))
        first, second = rank1_decompose_2x2(matrix, field)
        for target_g, target_h, summand in ((g1, h1, first), (g2, h2, second)):
            col, row = rank1_factor_2x2(summand, field)
            if col[0] or col[1] or row[0] or row[1]:
                target_g[b] = col[0]
                target_g[x] = col[1]
                target_h[b] = row[0]
                target_h[y] = row[1]
    witness = FactorizationWitness(
        eta,
        Functional(quiver, support=SparseVector(g1), field=field),
        Functional(quiver, support=SparseVector(h1), field=field),
        Functional(quiver, support=SparseVector(g2), field=field),
        Functional(quiver, support=SparseVector(h2), field=field),
        truncation,
        len(star_truncation_basis(quiver, truncation)),
    )
    verify_factorization(witness, w_basis, star_truncation_basis(quiver, truncation))
    return witness


# ---------------------------------------------------------------------------
# Coreflexivity verdicts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorProduct:
    """Descriptor for the tensor product of two coalgebras, and the carrier
    of ``coalgebra.basis_tables`` on pairs of basis labels: (p⊗q) splits as
    (p1⊗q1) ⊗ (p2⊗q2) over the splits of each factor, and is grouplike
    when both factors are."""

    left: object
    right: object

    def splits(self, pair):
        p, q = pair
        return [((p1, q1), (p2, q2)) for p1, p2 in self.left.splits(p) for q1, q2 in self.right.splits(q)]

    def is_grouplike(self, pair) -> bool:
        return self.left.is_grouplike(pair[0]) and self.right.is_grouplike(pair[1])


_ONE_LOOP = "(b) one loop: the dual algebra is a power series ring; every cofinite ideal is closed"
# carrier -> (why a rule-(c) family is tame, its coradical reduction step)
_RULE_C = {
    "quiver": ("at most one path between any two vertices, countable vertex set",
               "(c) coradical reduction: coreflexivity follows from the grouplike coradical"),
    "poset": ("locally finite with countably many elements", "(c) coradical reduction through the incidence embedding"),
}


def _finitely_many_paths_and_tame(target) -> Optional[str]:
    """Reason string when the target embeds in a path coalgebra with
    finitely many paths between any two vertices and a nonmeasurable vertex
    set; None otherwise."""
    if isinstance(target, Quiver):
        if is_acyclic(target):
            return "finite acyclic quiver: finitely many paths between any two vertices"
        return None
    if isinstance(target, Poset):
        return "finite poset: its incidence coalgebra embeds in the Hasse path coalgebra with finitely many paths"
    if isinstance(target, Family) and target.facts.finite_paths:
        return f"{target.describe()}: {_RULE_C[target.facts.carrier][0]}"
    return None


def coreflexivity_verdict(target) -> Verdict:
    """Rule-based certifier; 'unknown' is a legitimate output.

    Rules, in order: (a) finite dimensional; (b) the one-loop quiver, whose
    dual is a power series ring with only closed cofinite ideals; (c)
    finitely many paths between any two vertices with a nonmeasurable
    vertex set, reducing to the grouplike coradical; (d) the multi-arrow
    star, whose skew-primitive quotient is a known non-coreflexive
    coalgebra; (e) tensor products of two case-(c) coalgebras.  A family
    takes the rule of its ``FAMILIES`` entry.  The witness is the chain of
    rules applied.
    """
    chain = []
    if isinstance(target, Quiver):
        if is_acyclic(target):
            chain.append("(a) finite acyclic quiver: the path coalgebra is finite dimensional")
            return Verdict("yes", chain)
        if len(target.vertices) == 1 and len(target.arrows) == 1:
            chain.append(_ONE_LOOP)
            return Verdict("yes", chain)
        chain.append("cyclic quiver outside the rule set")
        return Verdict("unknown", chain)
    if isinstance(target, Poset):
        chain.append("(a) finite poset: the incidence coalgebra is finite dimensional")
        return Verdict("yes", chain)
    if isinstance(target, Family):
        rule = target.facts.rule
        if rule == "b":
            chain.append(_ONE_LOOP)
            return Verdict("yes", chain)
        if rule == "c":
            chain.append(f"(c) {_finitely_many_paths_and_tame(target)}")
            chain.append(_RULE_C[target.facts.carrier][1])
            return Verdict("yes", chain)
        if rule == "d":
            chain.append(
                "(d) growing parallel bundles: the quotient by the skew-primitive span "
                "of hub minus tip is a known non-coreflexive coalgebra"
            )
            return Verdict("no", chain)
        chain.append(f"{target.describe()}: outside the rule set")
        return Verdict("unknown", chain)
    if isinstance(target, TensorProduct):
        left_reason = _finitely_many_paths_and_tame(target.left)
        right_reason = _finitely_many_paths_and_tame(target.right)
        left_verdict = coreflexivity_verdict(target.left)
        right_verdict = coreflexivity_verdict(target.right)
        if (
            left_reason is not None
            and right_reason is not None
            and left_verdict.status == "yes"
            and right_verdict.status == "yes"
        ):
            chain.append(f"(e) left factor: {left_reason}")
            chain.append(f"(e) right factor: {right_reason}")
            chain.append("(e) tensor rule: the product embeds in the path coalgebra of the product quiver")
            return Verdict("yes", chain)
        chain.append("tensor product outside the rule set")
        return Verdict("unknown", chain)
    chain.append("unrecognized input")
    return Verdict("unknown", chain)


def skew_primitive_quotient_check(stage: int, field=QQ) -> bool:
    """On the growing-bundle star truncation, the span of (hub - tip) is a
    coideal: its image under comultiplication lies in C⊗I + I⊗C and the
    counit kills it.  This backs the quotient step of the verdict rule."""
    quiver = Family("star51").truncate(stage)
    a = CoalgElement.from_path(quiver.vertex_path("a"), field)
    c = CoalgElement.from_path(quiver.vertex_path("c"), field)
    difference = a - c
    eps = counit(difference)
    if eps:
        return False
    tensor = comultiply(difference)
    # Delta(a - c) = a⊗a - c⊗c = a⊗(a-c) + (a-c)⊗c: exhibit the two-term form.
    pa, pc = quiver.vertex_path("a"), quiver.vertex_path("c")
    one = field.one
    expected = SparseVector([((pa, pa), one), ((pa, pc), -one), ((pa, pc), one), ((pc, pc), -one)])
    return tensor == expected
