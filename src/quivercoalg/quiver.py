"""Quivers, paths, path enumeration, and built-in infinite quiver families.

A quiver is a finite directed multigraph with labeled arrows.  Paths are
composable arrow sequences; vertices count as paths of length zero.  Path
identity is by arrow-id sequence, so parallel arrows give distinct paths.

Infinite quivers are supported only through seven named families, each with
hand-encoded answers to the structural predicates and a ``truncate`` method
that materializes a finite stage for witness generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, eq=False)
class Arrow:
    # Arrows hash and compare by identity: each Quiver builds its own.
    ident: int
    label: str
    source: str
    target: str


class Quiver:
    """Finite directed multigraph.  Immutable after construction."""

    def __init__(self, vertices, arrows, name: str = ""):
        self.vertices = tuple(vertices)
        self.name = name
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        built = []
        for ident, spec in enumerate(arrows):
            if isinstance(spec, Arrow):
                arrow = Arrow(ident, spec.label, spec.source, spec.target)
            else:
                label, source, target = spec
                arrow = Arrow(ident, label, source, target)
            if arrow.source not in vertex_set or arrow.target not in vertex_set:
                raise ValueError(f"arrow {arrow.label} has undeclared endpoint")
            built.append(arrow)
        self.arrows = tuple(built)
        if len({a.label for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow labels")
        self.arrow_by_label = {a.label: a for a in self.arrows}
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a.source].append(a)
            self._in[a.target].append(a)
        self._acyclic: Optional[bool] = None

    def out_arrows(self, vertex: str):
        return self._out[vertex]

    def in_arrows(self, vertex: str):
        return self._in[vertex]

    def vertex_path(self, vertex: str) -> "Path":
        if vertex not in self._out:
            raise ValueError(f"unknown vertex {vertex!r}")
        return Path(self, vertex, ())

    def arrow_path(self, label: str) -> "Path":
        arrow = self.arrow_by_label.get(label)
        if arrow is None:
            raise ValueError(f"unknown arrow {label!r}")
        return Path(self, None, (arrow,))

    def path_from_labels(self, labels) -> "Path":
        arrows = tuple(self.arrow_by_label[l] for l in labels)
        for first, second in zip(arrows, arrows[1:]):
            if first.target != second.source:
                raise ValueError(f"arrows {first.label},{second.label} do not compose")
        if not arrows:
            raise ValueError("expected at least one arrow label")
        return Path(self, None, arrows)

    # The carrier contract of ``coalgebra.CoalgElement``: the basis of the
    # path coalgebra is the quiver's paths, Δ splits a path into its
    # prefix/suffix pairs and the counit is 1 on the vertices.
    def owns(self, label) -> bool:
        return isinstance(label, Path) and label.quiver is self

    @staticmethod
    def splits(path: "Path"):
        return path.splits()

    @staticmethod
    def is_grouplike(path: "Path") -> bool:
        return not path.arrows

    def __repr__(self):
        tag = self.name or f"{len(self.vertices)}v{len(self.arrows)}a"
        return f"Quiver({tag})"


class Path:
    """A path in a fixed quiver: a base vertex, or a composable arrow chain.

    A value: the hash is computed once at construction, so the fields are
    never reassigned.  Two paths are equal only when they share the quiver
    object, the base vertex and the arrow sequence.
    """

    __slots__ = ("quiver", "vertex", "arrows", "_hash")

    def __init__(self, quiver: Quiver, vertex: Optional[str], arrows: tuple):
        self.quiver = quiver
        self.vertex = vertex
        self.arrows = arrows
        self._hash = hash((vertex, arrows))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.quiver is other.quiver
            and self.vertex == other.vertex
            and self.arrows == other.arrows
        )

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        return self.vertex if not self.arrows else self.arrows[0].source

    @property
    def target(self) -> str:
        return self.vertex if not self.arrows else self.arrows[-1].target

    @property
    def sort_key(self):
        # Fixed total order: length, then arrow-label sequence, then identity.
        if not self.arrows:
            return (0, (), (self.vertex,))
        return (len(self.arrows), tuple(a.label for a in self.arrows), tuple(a.ident for a in self.arrows))

    def prefix(self, n: int) -> "Path":
        if n == 0:
            return Path(self.quiver, self.source, ())
        return Path(self.quiver, None, self.arrows[:n])

    def suffix_from(self, n: int) -> "Path":
        if n == len(self.arrows):
            return Path(self.quiver, self.target, ())
        return Path(self.quiver, None, self.arrows[n:])

    def splits(self):
        """All decompositions p = q r, as (q, r) pairs (length+1 of them)."""
        return [(self.prefix(i), self.suffix_from(i)) for i in range(len(self.arrows) + 1)]

    def subpaths(self):
        """All contiguous subpaths, including all vertices on the path."""
        seen = set()
        out = []
        verts = [self.source] + [a.target for a in self.arrows]
        for v in verts:
            p = Path(self.quiver, v, ())
            if p not in seen:
                seen.add(p)
                out.append(p)
        for i in range(len(self.arrows)):
            for j in range(i + 1, len(self.arrows) + 1):
                p = Path(self.quiver, None, self.arrows[i:j])
                if p not in seen:
                    seen.add(p)
                    out.append(p)
        return out

    def __str__(self):
        if not self.arrows:
            return self.vertex
        return ".".join(a.label for a in self.arrows)

    def __repr__(self):
        return f"Path({self})"


def compose_paths(p: Path, q: Path) -> Optional[Path]:
    """The concatenation pq when t(p) = s(q), otherwise None."""
    if p.quiver is not q.quiver:
        raise ValueError("paths belong to different quivers")
    if p.target != q.source:
        return None
    if not p.arrows and not q.arrows:
        return p
    return Path(p.quiver, None, p.arrows + q.arrows)


@dataclass
class PathEnumeration:
    paths: list
    exhaustive: bool

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)


def enumerate_paths(quiver: Quiver, max_len: int) -> PathEnumeration:
    """All paths of length <= max_len, sorted by the fixed total order.

    The exhaustive flag is set only when acyclicity guarantees that no
    longer path exists.
    """
    # Each layer is built in sort_key order, so nothing is sorted afterwards:
    # vertices by name, arrows by label, and longer paths by extending the
    # sorted previous layer with out-arrows in label order.  Arrow labels are
    # unique, so a label sequence names one path and ties cannot occur.
    by_label = sorted(quiver.arrows, key=lambda a: a.label)
    out = {v: sorted(quiver.out_arrows(v), key=lambda a: a.label) for v in quiver.vertices}
    layers = [[quiver.vertex_path(v) for v in sorted(quiver.vertices)]]
    for length in range(1, max_len + 1):
        if length == 1:
            layer = [Path(quiver, None, (a,)) for a in by_label]
        else:
            layer = [Path(quiver, None, p.arrows + (a,)) for p in layers[-1] for a in out[p.target]]
        if not layer:
            break
        layers.append(layer)
    paths = [p for layer in layers for p in layer]
    acyclic = is_acyclic(quiver)
    # Ran out of extensions (no path of some length <= max_len exists), or the
    # acyclic longest-path bound is covered: a path visits distinct vertices,
    # so its length is at most min(|vertices| - 1, |arrows|).
    longest_bound = min(max(0, len(quiver.vertices) - 1), len(quiver.arrows))
    ran_out = len(layers) <= max_len or max_len >= longest_bound
    return PathEnumeration(paths, acyclic and ran_out)


def is_acyclic(quiver: Quiver) -> bool:
    """True iff the quiver has no directed cycle."""
    if quiver._acyclic is None:
        try:
            topological_order(quiver)
            quiver._acyclic = True
        except ValueError:
            quiver._acyclic = False
    return quiver._acyclic


def find_simple_cycle(quiver: Quiver):
    """Arrows of some directed cycle visiting distinct vertices, or None."""
    for start in quiver.vertices:
        stack = [(start, [], {start})]
        while stack:
            vertex, trail, visited = stack.pop()
            for arrow in quiver.out_arrows(vertex):
                if arrow.target == start:
                    return trail + [arrow]
                if arrow.target not in visited:
                    stack.append((arrow.target, trail + [arrow], visited | {arrow.target}))
    return None


def has_multiple_edges(quiver: Quiver) -> bool:
    seen = set()
    for a in quiver.arrows:
        pair = (a.source, a.target)
        if pair in seen:
            return True
        seen.add(pair)
    return False


def has_composable_arrow_pair(quiver: Quiver) -> bool:
    """True iff some path of length >= 2 exists."""
    targets = {a.target for a in quiver.arrows}
    sources = {a.source for a in quiver.arrows}
    return bool(targets & sources)


def path_counts_between(quiver: Quiver):
    """Number of paths u -> v for all vertex pairs; requires acyclic input."""
    if not is_acyclic(quiver):
        raise ValueError("path counts are finite only for acyclic quivers")
    order = topological_order(quiver)
    counts = {(u, v): 0 for u in quiver.vertices for v in quiver.vertices}
    for u in quiver.vertices:
        counts[(u, u)] = 1
    for v in order:
        for a in quiver.in_arrows(v):
            for u in quiver.vertices:
                counts[(u, v)] += counts[(u, a.source)]
    return counts


def topological_order(quiver: Quiver) -> list:
    indegree = {v: 0 for v in quiver.vertices}
    for a in quiver.arrows:
        indegree[a.target] += 1
    ready = [v for v in quiver.vertices if indegree[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for a in quiver.out_arrows(v):
            indegree[a.target] -= 1
            if indegree[a.target] == 0:
                ready.append(a.target)
    if len(order) != len(quiver.vertices):
        raise ValueError("quiver has a cycle; no topological order")
    return order


VERDICT_STATUSES = ("yes", "no", "yes_up_to_bound", "no_up_to_bound", "unknown")


@dataclass
class Verdict:
    """Every answer of the library, with its witness and a reason.

    ``yes``/``no`` are proved: on a finite object, an exhaustive search or
    a closed-form rule.  ``yes_up_to_bound``/``no_up_to_bound`` come from a
    truncated window and are never proofs.  ``unknown`` means no rule
    applies.  The witness is the certificate the answer rests on.
    """

    status: str
    witness: object = None
    explanation: str = ""

    def __post_init__(self):
        if self.status not in VERDICT_STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")

    def __bool__(self):
        return self.status in ("yes", "yes_up_to_bound")


def horizon_verdict(found: bool, exhaustive: bool, complement, horizon: int, because="", unless="") -> Verdict:
    """The horizon rule for a search over the paths below a window horizon.

    An exhaustive search is a proof either way.  On a truncated window a
    complement touching the horizon keeps growing with the window, so only
    a complement strictly below it is a (bounded) yes-witness.  ``because``
    explains a yes, ``unless`` a no.
    """
    if exhaustive:
        return Verdict("yes", complement, because) if found else Verdict("no", explanation=unless)
    if found and all(p.length < horizon for p in complement):
        return Verdict("yes_up_to_bound", complement, because)
    return Verdict("no_up_to_bound", explanation=unless)


def check_recovery_condition(target) -> Verdict:
    """No oriented cycles and finitely many arrows between any two vertices.

    Finite quivers reduce to acyclicity (arrow finiteness is automatic);
    families answer from their metadata.
    """
    if isinstance(target, QuiverFamily):
        return target.recovery_condition()
    if is_acyclic(target):
        return Verdict("yes", explanation="finite quiver with no oriented cycles")
    cycle = find_simple_cycle(target)
    route = ".".join(a.label for a in cycle)
    return Verdict("no", explanation=f"oriented cycle found: {route}")


def check_semiperfect_condition(target) -> Verdict:
    """Finitely many paths starting at v and ending at v, for every vertex v.

    For a finite quiver this holds iff the quiver is acyclic.
    """
    if isinstance(target, QuiverFamily):
        return target.semiperfect_condition()
    if is_acyclic(target):
        return Verdict("yes", explanation="finite acyclic quiver: the path set is finite")
    cycle = find_simple_cycle(target)
    v = cycle[0].source
    return Verdict("no", explanation=f"infinitely many paths start and end at {v} (cycle through it)")


def check_unique_path_condition(quiver: Quiver) -> bool:
    """At most one path between any ordered pair of vertices."""
    if not is_acyclic(quiver):
        raise ValueError("unique-path condition requires an acyclic quiver")
    counts = path_counts_between(quiver)
    return all(c <= 1 for c in counts.values())


def check_recovery_clause_equivalence(quiver: Quiver) -> Verdict:
    """Brute-force agreement of the two finiteness clauses on a finite quiver.

    Clause one: no oriented cycles (arrow finiteness is automatic here).
    Clause two: for every vertex subset E, only finitely many paths pass
    exclusively through E; with cycle detection standing in for infinitude,
    this says every induced subquiver is acyclic.  The shared truth value is
    returned; disagreement would be a bug and raises.
    """
    clause_one = is_acyclic(quiver)
    clause_two = _first_cyclic_subset(quiver) is None
    if clause_one != clause_two:
        raise AssertionError("finiteness clauses disagree; this is a bug")
    return Verdict("yes" if clause_one else "no", explanation="both finiteness clauses agree")


def _first_cyclic_subset(quiver: Quiver):
    """The first vertex subset, as a bitmask over ``quiver.vertices`` in
    counting order, whose induced subquiver has an oriented cycle, or None.

    A subset induces an acyclic subquiver exactly when repeatedly removing
    its vertices that have no arrow coming in from inside it empties it."""
    index = {v: i for i, v in enumerate(quiver.vertices)}
    sources = [0] * len(index)  # bitmask of the sources of the arrows into i
    for a in quiver.arrows:
        sources[index[a.target]] |= 1 << index[a.source]
    for mask in range(1 << len(index)):
        remaining = mask
        while remaining:
            removable = 0
            rest = remaining
            while rest:
                low = rest & -rest
                rest ^= low
                if not sources[low.bit_length() - 1] & remaining:
                    removable |= low
            if not removable:
                return mask
            remaining ^= removable
    return None


def induced_subquiver(quiver: Quiver, vertex_subset) -> Quiver:
    vertices = [v for v in quiver.vertices if v in vertex_subset]
    arrows = [
        (a.label, a.source, a.target)
        for a in quiver.arrows
        if a.source in vertex_subset and a.target in vertex_subset
    ]
    return Quiver(vertices, arrows)


def disjoint_union(first: Quiver, second: Quiver, tags=("L", "R")) -> Quiver:
    """Disjoint union with tagged labels so the pieces stay distinguishable."""
    vertices = [f"{tags[0]}:{v}" for v in first.vertices] + [
        f"{tags[1]}:{v}" for v in second.vertices
    ]
    arrows = [
        (f"{tags[0]}:{a.label}", f"{tags[0]}:{a.source}", f"{tags[0]}:{a.target}")
        for a in first.arrows
    ] + [
        (f"{tags[1]}:{a.label}", f"{tags[1]}:{a.source}", f"{tags[1]}:{a.target}")
        for a in second.arrows
    ]
    return Quiver(vertices, arrows, name=f"{first.name}+{second.name}")


# ---------------------------------------------------------------------------
# Built-in infinite families.
# ---------------------------------------------------------------------------

FAMILY_KINDS = ("line2", "line1", "loop", "cycle", "multiarrow", "star51", "star56")

_TRUNCATION_CACHE: dict = {}


@dataclass(frozen=True)
class QuiverFamily:
    """One of the built-in infinite quiver families.

    ``line2`` is the two-sided infinite line, ``line1`` the left-bounded
    one; ``loop`` and ``cycle`` are finite quivers with infinitely many
    paths; ``multiarrow`` has countably many parallel arrows a -> b;
    ``star51`` has n arrows a -> b_n -> c per branch n, ``star56`` one per
    branch.  Structural predicates are answered from closed-form metadata;
    truncations exist only for witness generation.
    """

    kind: str
    param: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "cycle":
            if not self.param or self.param < 1:
                raise ValueError("cycle family needs a length parameter >= 1")

    def describe(self) -> str:
        return {
            "line2": "two-sided infinite line quiver",
            "line1": "left-bounded infinite line quiver",
            "loop": "one vertex with one loop",
            "cycle": f"oriented cycle of length {self.param}",
            "multiarrow": "two vertices with countably many parallel arrows",
            "star51": "star with n parallel arrows into and out of branch n",
            "star56": "star with single arrows through infinitely many branches",
        }[self.kind]

    def truncate(self, level: int) -> Quiver:
        """Materialize all vertices/arrows within the stage parameter.

        Truncations are cached, so paths built on the same stage by
        different callers live on the identical quiver object.
        """
        if level < 0:
            raise ValueError("truncation level must be nonnegative")
        cached = _TRUNCATION_CACHE.get((self, level))
        if cached is not None:
            return cached
        kind = self.kind
        if kind == "line2":
            vertices = [f"v{i}" for i in range(-level, level + 1)]
            arrows = [(f"a{i}", f"v{i}", f"v{i+1}") for i in range(-level, level)]
        elif kind == "line1":
            vertices = [f"v{i}" for i in range(level + 1)]
            arrows = [(f"a{i}", f"v{i}", f"v{i+1}") for i in range(level)]
        elif kind == "loop":
            vertices = ["v"]
            arrows = [("x", "v", "v")]
        elif kind == "cycle":
            n = self.param
            vertices = [f"v{i}" for i in range(n)]
            arrows = [(f"x{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        elif kind == "multiarrow":
            vertices = ["a", "b"]
            arrows = [(f"x{i}", "a", "b") for i in range(level + 1)]
        elif kind == "star51":
            stage = max(level, 1)
            vertices = ["a"] + [f"b{n}" for n in range(1, stage + 1)] + ["c"]
            arrows = []
            for n in range(1, stage + 1):
                for i in range(1, n + 1):
                    arrows.append((f"x{n}_{i}", "a", f"b{n}"))
                for i in range(1, n + 1):
                    arrows.append((f"y{n}_{i}", f"b{n}", "c"))
        else:  # star56
            stage = max(level, 1)
            vertices = ["a"] + [f"b{n}" for n in range(1, stage + 1)] + ["c"]
            arrows = []
            for n in range(1, stage + 1):
                arrows.append((f"x{n}", "a", f"b{n}"))
                arrows.append((f"y{n}", f"b{n}", "c"))
        quiver = Quiver(vertices, arrows, name=f"{kind}[{level}]")
        _TRUNCATION_CACHE[(self, level)] = quiver
        return quiver

    def recovery_condition(self) -> Verdict:
        kind = self.kind
        if kind in ("line2", "line1"):
            return Verdict("yes", explanation="acyclic with at most one arrow between any two vertices")
        if kind in ("star51", "star56"):
            return Verdict("yes", explanation="acyclic with finitely many arrows between any two vertices")
        if kind == "loop":
            return Verdict("no", explanation="the loop is an oriented cycle")
        if kind == "cycle":
            return Verdict("no", explanation="the quiver is an oriented cycle")
        return Verdict("no", explanation="infinitely many arrows between the two vertices")

    def semiperfect_condition(self) -> Verdict:
        kind = self.kind
        reasons = {
            "line2": "infinitely many paths start (and end) at every vertex",
            "line1": "infinitely many paths start at the first vertex",
            "loop": "all powers of the loop start and end at the vertex",
            "cycle": "winding paths of every length start at each vertex",
            "multiarrow": "infinitely many arrows start at the source vertex",
            "star51": "infinitely many paths start at the hub vertex",
            "star56": "infinitely many paths start at the hub vertex",
        }
        return Verdict("no", explanation=reasons[kind])

    def finitely_many_paths_between_vertices(self) -> bool:
        return self.kind in ("line2", "line1")

    # Vertex sets of all built-in families are countable, hence nonmeasurable
    # in the sense used for grouplike-coalgebra coreflexivity.
    vertex_set_nonmeasurable = True

    def __str__(self):
        if self.kind == "cycle":
            return f"family:cycle:{self.param}"
        return f"family:{self.kind}"


def family_from_token(token: str) -> QuiverFamily:
    """Parse ``loop | line2 | line1 | cycle:<n> | multiarrow | star51 | star56``."""
    parts = token.split(":")
    kind = parts[0]
    if kind == "cycle":
        if len(parts) != 2:
            raise ValueError("cycle family needs a length: cycle:<n>")
        return QuiverFamily("cycle", int(parts[1]))
    if len(parts) != 1:
        raise ValueError(f"unexpected parameter for family {kind!r}")
    return QuiverFamily(kind)
