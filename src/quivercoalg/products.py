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
from .dual import Functional, convolve
from .incidence import Poset
from .linalg import SparseVector, rank1_decompose_2x2, rank1_factor_2x2
from .quiver import Family, Path, Quiver, Verdict, enumerate_paths, is_acyclic
from .scalars import QQ


# ---------------------------------------------------------------------------
# Product quivers and lattice walks.
# ---------------------------------------------------------------------------


def _pair_label(a: str, b: str) -> str:
    return f"({a},{b})"


def _record(table: dict, label: str, value, kind: str) -> None:
    if label in table:
        raise ValueError(f"two {kind} pairs of the product get the label {label!r}")
    table[label] = value


def product_quiver(left: Quiver, right: Quiver) -> Quiver:
    """Vertices are vertex pairs; arrows pair an arrow on one side with a
    vertex on the other.  ``product_data`` records the pair behind each
    vertex label and the origin of each arrow label; two pairs that would
    share a label raise ``ValueError``."""
    pairs = {}
    for a in left.vertices:
        for b in right.vertices:
            _record(pairs, _pair_label(a, b), (a, b), "vertex")
    arrows = []
    origin = {}
    for x in left.arrows:
        for b in right.vertices:
            label = _pair_label(x.label, b)
            _record(origin, label, ("L", x.label, b), "arrow")
            arrows.append((label, _pair_label(x.source, b), _pair_label(x.target, b)))
    for a in left.vertices:
        for y in right.arrows:
            label = _pair_label(a, y.label)
            _record(origin, label, ("R", a, y.label), "arrow")
            arrows.append((label, _pair_label(a, y.source), _pair_label(a, y.target)))
    product = Quiver(pairs, arrows, name=f"{left.name}x{right.name}")
    product.product_data = {"left": left, "right": right, "pairs": pairs, "origin": origin}
    return product


@dataclass(frozen=True)
class LatticeWalk:
    """Monotone staircase from (0,0) to (n,k), as its step word: "R" steps
    right (the next left arrow), "U" steps up (the next right arrow)."""

    steps: tuple

    def __post_init__(self):
        if self.steps.count("R") + self.steps.count("U") != len(self.steps):
            bad = next(step for step in self.steps if step not in ("R", "U"))
            raise ValueError(f"bad step {bad!r}")

    @property
    def shape(self):
        right = self.steps.count("R")
        return right, len(self.steps) - right


def lattice_walks(n: int, k: int) -> list[LatticeWalk]:
    """All monotone walks from (0,0) to (n,k): one per choice of up-step
    positions, in lexicographic order; there are binomial(n+k, k) of them."""
    if n < 0 or k < 0:
        raise ValueError("grid dimensions must be nonnegative")
    walks = []
    for ups in combinations(range(n + k), k):
        steps = ["R"] * (n + k)
        for i in ups:
            steps[i] = "U"
        walks.append(LatticeWalk(tuple(steps)))
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
    i = j = 0
    for step in walk.steps:
        if step == "R":
            label = _pair_label(p.arrows[i].label, bverts[j])
            i += 1
        else:
            label = _pair_label(averts[i], q.arrows[j].label)
            j += 1
        arrows.append(product.arrow_by_label[label])
    return Path(product, None, tuple(arrows))


def decompose_product_path(gamma: Path):
    """The unique (p, q, walk) triple with walk_path(p, q, walk) == gamma."""
    data = getattr(gamma.quiver, "product_data", None)
    if data is None:
        raise ValueError("path does not live in a constructed product quiver")
    left, right, origin = data["left"], data["right"], data["origin"]
    start_left, start_right = data["pairs"][gamma.source]
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
    p = Path(left, None, tuple(left_arrows)) if left_arrows else left.vertex_path(start_left)
    q = Path(right, None, tuple(right_arrows)) if right_arrows else right.vertex_path(start_right)
    return p, q, LatticeWalk(tuple(steps))


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
    ``vertex_set``: every vertex on a path between two of them;
    ``basis``: all paths inside the vertex set (a subcoalgebra basis).
    """

    quiver: Quiver
    seed_vertices: list
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


def _paths_within(quiver: Quiver, allowed: set) -> list:
    """All paths staying inside the allowed vertex set; requires the
    induced subquiver to be acyclic, which also bounds the walk."""
    from .quiver import induced_subquiver

    if not is_acyclic(induced_subquiver(quiver, allowed)):
        raise ValueError("cycle detected among relevant vertices; the hull would be infinite")
    out = []
    stack = [quiver.vertex_path(v) for v in allowed]
    while stack:
        path = stack.pop()
        out.append(path)
        for a in quiver.out_arrows(path.target):
            if a.target in allowed:
                stack.append(Path(quiver, None, path.arrows + (a,)))
    out.sort(key=lambda p: p.sort_key)
    return out


def saturate_subcoalgebra(elements, quiver: Quiver) -> SaturationResult:
    """Grow a finite-dimensional subcoalgebra V to the span W of all paths
    whose endpoints lie on paths between V's vertices; W is subpath-closed,
    contains V, and stays finite-dimensional whenever the relevant region
    has finitely many paths between any two vertices.

    The vertices on paths between two seed vertices are exactly the region
    reach(seed) ∩ coreach(seed): a path seed → v → seed stays inside it,
    and every vertex on a path between two region vertices is in it too.
    So W is the span of the paths inside the region."""
    seed = set()
    for element in elements:
        for p in element.combo.labels():
            seed.update(_vertex_chain(p))
    region = _reachable(quiver, seed, True) & _reachable(quiver, seed, False)
    basis = _paths_within(quiver, region)
    result = SaturationResult(quiver, sorted(seed, key=str), sorted(region, key=str), basis)
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

    @classmethod
    def from_values(cls, eta, quiver, field, values, window, checked_paths) -> "FactorizationWitness":
        """The witness whose factors f1, g1, f2, g2 take the four given
        path -> value tables on ``quiver``."""
        f1, g1, f2, g2 = (Functional(quiver, support=SparseVector(table), field=field) for table in values)
        return cls(eta, f1, g1, f2, g2, window, checked_paths)

    def pairs(self):
        return ((self.f1, self.g1), (self.f2, self.g2))


def factor_perp_element(eta: Functional, saturation: SaturationResult, max_len: int, field=QQ) -> FactorizationWitness:
    """Split a functional vanishing on the saturated subcoalgebra into a sum
    of two products of such functionals, by induction on path length.

    Outside W, f1 and g2 are 1 on vertices and 0 on longer paths, and one
    of g1(p), f2(p) carries the residual of eta(p) after its proper splits:
    g1(p) when s(p) is outside W (f1(s(p)) = 1), else f2(p) (then t(p) is
    outside W and g2(t(p)) = 1).  A vertex has no proper split, so g1(v) =
    eta(v).  Everything is 0 on W.
    """
    quiver = saturation.quiver
    enum = enumerate_paths(quiver, max_len)
    in_w = {p: saturation.contains_path(p) for p in enum.paths}
    for p in enum.paths:
        if in_w[p] and eta(p):
            raise ValueError("the functional does not vanish on the saturated subcoalgebra")
    zero, one = field.zero, field.one
    f1, g1, f2, g2 = {}, {}, {}, {}
    for p in enum.paths:  # sorted by length, so every proper split is known
        if in_w[p]:
            f1[p] = g1[p] = f2[p] = g2[p] = zero
            continue
        inner = zero
        for q, r in p.splits():
            if q != p and r != p:
                inner = inner + f1[q] * g1[r] + f2[q] * g2[r]
        residual = eta(p) - inner
        f1[p] = g2[p] = zero if p.length else one
        if in_w[quiver.vertex_path(p.source)]:
            g1[p], f2[p] = zero, residual
        else:
            g1[p], f2[p] = residual, zero
    witness = FactorizationWitness.from_values(eta, quiver, field, (f1, g1, f2, g2), max_len, len(enum.paths))
    verify_factorization(witness, saturation.basis, enum.paths)
    return witness


def verify_factorization(witness: FactorizationWitness, w_basis, paths) -> None:
    """Exact check: the four functionals vanish on W and the convolution
    identity eta = f1·g1 + f2·g2 holds on every path of the window."""
    for functional in (witness.f1, witness.g1, witness.f2, witness.g2):
        for p in w_basis:
            if functional(p):
                raise AssertionError("factor does not vanish on the subcoalgebra")
    first, second = (convolve(f, g, paths) for f, g in witness.pairs())
    for p in paths:
        if first(p) + second(p) - witness.eta(p):
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
    basis = star_truncation_basis(quiver, truncation)
    witness = FactorizationWitness.from_values(eta, quiver, field, (g1, h1, g2, h2), truncation, len(basis))
    verify_factorization(witness, w_basis, basis)
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
    status, chain = _coreflexivity_rules(target)
    return Verdict(status, chain, data={"status": status, "chain": chain})


def _coreflexivity_rules(target) -> tuple:
    """The status of ``coreflexivity_verdict`` and its chain of rules."""
    if isinstance(target, Quiver):
        if is_acyclic(target):
            return "yes", ["(a) finite acyclic quiver: the path coalgebra is finite dimensional"]
        if len(target.vertices) == 1 and len(target.arrows) == 1:
            return "yes", [_ONE_LOOP]
        return "unknown", ["cyclic quiver outside the rule set"]
    if isinstance(target, Poset):
        return "yes", ["(a) finite poset: the incidence coalgebra is finite dimensional"]
    if isinstance(target, Family):
        rule = target.facts.rule
        if rule == "b":
            return "yes", [_ONE_LOOP]
        if rule == "c":
            return "yes", [f"(c) {_finitely_many_paths_and_tame(target)}", _RULE_C[target.facts.carrier][1]]
        if rule == "d":
            return "no", [
                "(d) growing parallel bundles: the quotient by the skew-primitive span "
                "of hub minus tip is a known non-coreflexive coalgebra"
            ]
        return "unknown", [f"{target.describe()}: outside the rule set"]
    if isinstance(target, TensorProduct):
        left_reason = _finitely_many_paths_and_tame(target.left)
        right_reason = _finitely_many_paths_and_tame(target.right)
        if (
            left_reason is not None
            and right_reason is not None
            and _coreflexivity_rules(target.left)[0] == "yes"
            and _coreflexivity_rules(target.right)[0] == "yes"
        ):
            return "yes", [
                f"(e) left factor: {left_reason}",
                f"(e) right factor: {right_reason}",
                "(e) tensor rule: the product embeds in the path coalgebra of the product quiver",
            ]
        return "unknown", ["tensor product outside the rule set"]
    return "unknown", ["unrecognized input"]


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
