"""Quivers, paths, path enumeration, and built-in infinite quiver families.

A quiver is a finite directed multigraph with labeled arrows.  Paths are
composable arrow sequences; vertices count as paths of length zero.  A
path is the tuple (quiver, vertex, arrows), and arrows compare by identity,
so parallel arrows give distinct paths.

Infinite quivers and posets are supported only through the named families
of ``FAMILIES``: one table of closed-form answers to the structural
predicates, with a builder that materializes a finite stage for witness
generation.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable, Optional


class Arrow:
    # Arrows hash and compare by identity: each Quiver builds its own.
    __slots__ = ("ident", "label", "source", "target")

    def __init__(self, ident: int, label: str, source: str, target: str):
        self.ident, self.label, self.source, self.target = ident, label, source, target


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
            if arrow.label in vertex_set:
                raise ValueError(f"label {arrow.label!r} names both a vertex and an arrow")
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
        self._window = None  # dual.CertificateWindow over the basis, built on first use

    def out_arrows(self, vertex: str):
        return self._out[vertex]

    def in_arrows(self, vertex: str):
        return self._in[vertex]

    def vertex_path(self, vertex: str) -> "Path":
        if vertex not in self._out:
            raise ValueError(f"unknown vertex {vertex!r}")
        return Path(self, vertex, ())

    def _arrow(self, label: str):
        arrow = self.arrow_by_label.get(label)
        if arrow is None:
            raise ValueError(f"unknown arrow {label!r}")
        return arrow

    def arrow_path(self, label: str) -> "Path":
        return Path(self, None, (self._arrow(label),))

    def path_from_labels(self, labels) -> "Path":
        arrows = tuple(self._arrow(l) for l in labels)
        for first, second in zip(arrows, arrows[1:]):
            if first.target != second.source:
                raise ValueError(f"arrows {first.label},{second.label} do not compose")
        if not arrows:
            raise ValueError("expected at least one arrow label")
        return Path(self, None, arrows)

    # The carrier contract of ``coalgebra.CoalgElement``: the basis of the
    # path coalgebra is the quiver's paths, Δ splits a path into its
    # prefix/suffix pairs and the counit is 1 on the vertices.  The product
    # of the quiver algebra is concatenation, zero where the paths do not
    # meet; the vertices are its idempotents.
    def owns(self, label) -> bool:
        return isinstance(label, Path) and label.quiver is self

    @staticmethod
    def splits(path: "Path"):
        return path.splits()

    @staticmethod
    def is_grouplike(path: "Path") -> bool:
        return not path.arrows

    def grouplikes(self) -> list:
        return [self.vertex_path(v) for v in self.vertices]

    def basis(self) -> list:
        """Every path, in path order; a path visits distinct vertices."""
        enum = enumerate_paths(self, max(0, len(self.vertices) - 1))
        if not enum.exhaustive:
            raise ValueError(f"{self!r} has an oriented cycle, so infinitely many paths")
        return enum.paths

    @staticmethod
    def compose(p: "Path", q: "Path") -> Optional["Path"]:
        return compose_paths(p, q)  # looked up per call, so a wrapped one is seen

    def __repr__(self):
        tag = self.name or f"{len(self.vertices)}v{len(self.arrows)}a"
        return f"Quiver({tag})"


class Path(namedtuple("Path", "quiver vertex arrows")):
    """A path in a fixed quiver: a base vertex, or a composable arrow chain.

    A value: the tuple (quiver, vertex, arrows), so hashing, equality and
    field reads run in C.  Two paths are equal only when they share the
    quiver object, the base vertex and the arrow sequence (quivers and
    arrows compare by identity); ``vertex`` is None once there are arrows.
    Being a tuple, a path is written by ``json.dumps`` as an array: a report
    holds its label, ``str(p)``, instead.  ``Path(quiver, vertex, arrows)``
    is the one constructor.
    """

    __slots__ = ()

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
        # Key tuples are built from lists, at their final size: a tuple grown
        # from a generator is resized, and over many sorts the interpreter's
        # per-size tuple free lists fill up with the idle ones.
        if not self.arrows:
            return (0, (), (self.vertex,))
        return (len(self.arrows), tuple([a.label for a in self.arrows]), tuple([a.ident for a in self.arrows]))

    def prefix(self, n: int) -> "Path":
        if n == 0:
            return Path(self.quiver, self.source, ())
        return Path(self.quiver, None, self.arrows[:n])

    def suffix_from(self, n: int) -> "Path":
        if n == len(self.arrows):
            return Path(self.quiver, self.target, ())
        return Path(self.quiver, None, self.arrows[n:])

    def splits(self):
        """All decompositions p = q r, as (q, r) pairs (length+1 of them):
        the first and last pair hold p itself, beside its two vertex ends."""
        quiver, arrows = self.quiver, self.arrows
        if not arrows:
            return [(self, self)]
        inner = [(Path(quiver, None, arrows[:i]), Path(quiver, None, arrows[i:])) for i in range(1, len(arrows))]
        return [(Path(quiver, arrows[0].source, ()), self), *inner, (self, Path(quiver, arrows[-1].target, ()))]

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
        return ".".join([a.label for a in self.arrows])

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


def _walk(quiver: Quiver, max_len: int, first, joint):
    """The paths of lengths 1..max_len as layers of payloads, in ``sort_key``
    order, and the exhaustive flag.  An arrow a has the payload ``first(a)``
    and a·r, r not a vertex, ``joint(a) + r``; both are computed once per arrow."""
    # Arrow labels are unique, so within one length sort_key orders paths as label words,
    # by first arrow and then the rest: layer n + 1 is built in order, with nothing sorted,
    # by prepending each arrow in label order to the layer-n payloads that start at its target.
    # Only vertices where some payload starts get a list, so a sparse layer costs little.
    by_label = sorted(quiver.arrows, key=lambda a: a.label)
    steps = [(a.source, a.target, joint(a)) for a in by_label]
    layer = [first(a) for a in by_label] if max_len else []
    layers, starting = [], {}
    for a, x in zip(by_label, layer):
        starting.setdefault(a.source, []).append(x)
    while layer:
        layers.append(layer)
        if len(layers) == max_len:
            break
        layer, before, starting = [], starting, {}
        for source, target, j in steps:
            if target in before:
                starting.setdefault(source, []).extend(block := [j + r for r in before[target]])
                layer += block
    # Ran out of extensions (no path of some length <= max_len exists), or the
    # acyclic longest-path bound is covered: a path visits distinct vertices,
    # so its length is at most min(|vertices| - 1, |arrows|).
    longest_bound = min(max(0, len(quiver.vertices) - 1), len(quiver.arrows))
    ran_out = len(layers) < max_len or max_len >= longest_bound
    return layers, is_acyclic(quiver) and ran_out


def enumerate_paths(quiver: Quiver, max_len: int) -> PathEnumeration:
    """All paths of length <= max_len, sorted by the fixed total order: the
    vertices by name, then the layers of the walk, whose payloads are the
    arrow tuples.  Each ``Path`` is built once, from its finished tuple.

    The exhaustive flag is set only when acyclicity guarantees that no
    longer path exists.
    """
    layers, exhaustive = _walk(quiver, max_len, lambda a: (a,), lambda a: (a,))
    paths = [Path(quiver, v, ()) for v in sorted(quiver.vertices)]
    paths += [Path(quiver, None, arrows) for layer in layers for arrows in layer]
    return PathEnumeration(paths, exhaustive)


def path_labels(quiver: Quiver, max_len: int) -> PathEnumeration:
    """``enumerate_paths`` with each path given as its label, ``str(p)``,
    and no ``Path`` built: the walk's payloads are the label strings."""
    layers, exhaustive = _walk(quiver, max_len, lambda a: a.label, lambda a: a.label + ".")
    labels = sorted(quiver.vertices) + [label for layer in layers for label in layer]
    return PathEnumeration(labels, exhaustive)


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
    applies.  The witness is the certificate the answer rests on.  ``data``
    holds the fields a report prints, in order; ``check`` prints them as
    they are, and they read as attributes too (``verdict.dimension``).
    """

    status: str
    witness: object = None
    explanation: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in VERDICT_STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")

    def __bool__(self):
        return self.status in ("yes", "yes_up_to_bound")

    def __getattr__(self, name):
        # Only names missing from the instance get here.  Dunders and
        # ``data`` itself are refused, so copy and pickle, which probe an
        # instance before its fields are set, cannot recurse.
        if name.startswith("__") or name == "data":
            raise AttributeError(name)
        try:
            return self.data[name]
        except KeyError:
            raise AttributeError(name) from None


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
    if isinstance(target, Family):
        holds = target.facts.acyclic and target.facts.finite_arrows
        return Verdict("yes" if holds else "no", explanation=target.facts.recovery)
    if is_acyclic(target):
        return Verdict("yes", explanation="finite quiver with no oriented cycles")
    cycle = find_simple_cycle(target)
    route = ".".join(a.label for a in cycle)
    return Verdict("no", explanation=f"oriented cycle found: {route}")


def check_semiperfect_condition(target) -> Verdict:
    """Finitely many paths starting at v and ending at v, for every vertex v.

    For a finite quiver this holds iff the quiver is acyclic.
    """
    if isinstance(target, Family):
        holds, why = target.facts.semiperfect, target.facts.semiperfect_reason
    elif is_acyclic(target):
        holds, why = True, "finite acyclic quiver: the path set is finite"
    else:
        v = find_simple_cycle(target)[0].source
        holds, why = False, f"infinitely many paths start and end at {v} (cycle through it)"
    return Verdict("yes" if holds else "no", explanation=why, data={"holds": holds, "explanation": why})


def check_unique_path_condition(quiver: Quiver) -> bool:
    """At most one path between any ordered pair of vertices."""
    if not is_acyclic(quiver):
        raise ValueError("unique-path condition requires an acyclic quiver")
    counts = path_counts_between(quiver)
    return all(c <= 1 for c in counts.values())


def check_recovery_clause_equivalence(target) -> Verdict:
    """The shared truth value of the two finiteness clauses.

    Clause one: no oriented cycles, and finitely many arrows between any two
    vertices (automatic on a finite quiver).  Clause two: for every vertex
    subset E, only finitely many paths pass exclusively through E; with
    cycle detection standing in for infinitude, this says every induced
    subquiver is acyclic.  A cycle of an induced subquiver is a cycle of
    the quiver, which induces itself: clause two holds exactly when clause
    one does.  A family answers from its facts, so an infinite arrow bundle
    (which lies inside its two end vertices) fails both.
    """
    if isinstance(target, Family):
        holds = target.facts.acyclic and target.facts.finite_arrows
    else:
        holds = is_acyclic(target)
    why = "both finiteness clauses agree"
    return Verdict("yes" if holds else "no", explanation=why,
                   data={"clauses_agree": True, "shared_value": holds, "explanation": why})


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
# Built-in infinite families: one table of closed-form facts.
# ---------------------------------------------------------------------------


def _line2(level, param):
    return [f"v{i}" for i in range(-level, level + 1)], [(f"a{i}", f"v{i}", f"v{i+1}") for i in range(-level, level)]


def _line1(level, param):
    return [f"v{i}" for i in range(level + 1)], [(f"a{i}", f"v{i}", f"v{i+1}") for i in range(level)]


def _cycle(level, n):
    return [f"v{i}" for i in range(n)], [(f"x{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]


def _star(parallel: bool):
    # Hub a, tip c, branches b_1..b_N with N = max(level, 1); branch n has n
    # parallel arrows a -> b_n -> c when ``parallel``, else one each way.
    def build(level, param):
        stage = range(1, max(level, 1) + 1)
        arrows = []
        for n in stage:
            tags = [f"{n}_{i}" for i in range(1, n + 1)] if parallel else [f"{n}"]
            arrows += [(f"x{t}", "a", f"b{n}") for t in tags] + [(f"y{t}", f"b{n}", "c") for t in tags]
        return ["a"] + [f"b{n}" for n in stage] + ["c"], arrows

    return build


def _natchain(level, param):
    return [f"n{i}" for i in range(level + 1)], [(f"n{i}", f"n{i+1}") for i in range(level)]


@dataclass(frozen=True)
class FamilySpec:
    """The closed-form facts of one built-in family, read by every verdict.

    ``build(level, param)`` gives the truncation at ``level``: vertices and
    (label, source, target) arrows for a quiver, elements and cover pairs
    for a poset.  The path facts of a poset family are those of its Hasse
    quiver.  ``vertices`` matches the vertex names of every stage, whole,
    when the stages grow; otherwise every stage has the vertices of stage
    0.  ``rule`` is the coreflexivity rule that decides the family:
    (b) the one-loop quiver, (c) finitely many paths between any two
    vertices, (d) growing parallel bundles, or None; ``rules`` overrides it
    at single parameters, as ``at(param)`` reads it.
    """

    carrier: str  # "quiver" or "poset"
    build: Callable
    description: str  # formatted with the parameter
    acyclic: bool
    finite_arrows: bool  # finitely many arrows between any two vertices
    finite_paths: bool  # finitely many paths between any two vertices
    semiperfect: bool  # finitely many paths start, and end, at each vertex
    rule: Optional[str]
    semiperfect_reason: str
    recovery: str = ""  # why the Thm 3.3 recovery condition holds or fails
    parametrized: bool = False  # ``<kind>:<n>`` with n >= 1
    rules: tuple = ()  # (n, rule at parameter n) where that is not ``rule``
    vertices: Optional[str] = None  # regular expression, when the stages grow

    def at(self, param) -> "FamilySpec":
        rule = dict(self.rules).get(param, self.rule)
        return self if rule == self.rule else replace(self, rule=rule)


# kind -> FamilySpec(carrier, builder, description, acyclic, finite arrows,
# finite paths, semiperfect, rule, semiperfect reason, recovery reason), with
# the kinds of each carrier in the order the README lists them.
FAMILIES = {
    "loop": FamilySpec("quiver", lambda level, param: (["v"], [("x", "v", "v")]), "one vertex with one loop",
                       False, True, False, False, "b", "all powers of the loop start and end at the vertex",
                       "the loop is an oriented cycle"),
    "line2": FamilySpec("quiver", _line2, "two-sided infinite line quiver", True, True, True, False, "c",
                        "infinitely many paths start (and end) at every vertex",
                        "acyclic with at most one arrow between any two vertices", vertices=r"v(0|-?[1-9][0-9]*)"),
    "line1": FamilySpec("quiver", _line1, "left-bounded infinite line quiver", True, True, True, False, "c",
                        "infinitely many paths start at the first vertex",
                        "acyclic with at most one arrow between any two vertices", vertices=r"v(0|[1-9][0-9]*)"),
    "cycle": FamilySpec("quiver", _cycle, "oriented cycle of length {}", False, True, False, False, None,
                        "winding paths of every length start at each vertex", "the quiver is an oriented cycle",
                        parametrized=True, rules=((1, "b"),)),  # the 1-cycle is the one-loop quiver
    "multiarrow": FamilySpec("quiver", lambda level, param: (["a", "b"], [(f"x{i}", "a", "b") for i in range(level + 1)]),
                             "two vertices with countably many parallel arrows", True, False, False, False, None,
                             "infinitely many arrows start at the source vertex",
                             "infinitely many arrows between the two vertices"),
    "star51": FamilySpec("quiver", _star(parallel=True), "star with n parallel arrows into and out of branch n",
                         True, True, False, False, "d", "infinitely many paths start at the hub vertex",
                         "acyclic with finitely many arrows between any two vertices", vertices=r"a|c|b[1-9][0-9]*"),
    "star56": FamilySpec("quiver", _star(parallel=False), "star with single arrows through infinitely many branches",
                         True, True, False, False, None, "infinitely many paths start at the hub vertex",
                         "acyclic with finitely many arrows between any two vertices", vertices=r"a|c|b[1-9][0-9]*"),
    "natchain": FamilySpec("poset", _natchain, "the chain on the natural numbers", True, True, True, False, "c",
                           "infinitely many elements lie above every point of the chain", vertices=r"n(0|[1-9][0-9]*)"),
    "natantichain": FamilySpec("poset", lambda level, param: ([f"n{i}" for i in range(level + 1)], []),
                               "the antichain on the natural numbers", True, True, True, True, "c",
                               "each element of the antichain is comparable only to itself", vertices=r"n(0|[1-9][0-9]*)"),
}


def family_kinds(carrier: str) -> tuple:
    return tuple(kind for kind, spec in FAMILIES.items() if spec.carrier == carrier)


# Truncations are cached, unbounded, so paths built on the same stage by
# different callers live on the identical quiver object (Path equality
# needs it).
_TRUNCATION_CACHE: dict = {}


@dataclass(frozen=True)
class Family:
    """One of the built-in infinite quivers or posets of ``FAMILIES``.

    Structural predicates are answered from the table's closed-form facts;
    truncations exist only for witness generation.
    """

    kind: str
    param: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.facts.parametrized:
            if not self.param or self.param < 1:
                raise ValueError(f"{self.kind} family needs a length parameter >= 1")
        elif self.param is not None:
            raise ValueError(f"unexpected parameter for family {self.kind!r}")

    @property
    def facts(self) -> FamilySpec:
        return FAMILIES[self.kind].at(self.param)

    def describe(self) -> str:
        return self.facts.description.format(self.param)

    def truncate(self, level: int):
        """Materialize the finite stage at ``level``: a ``Quiver``, or a
        ``Poset`` for a poset family.  Cached per (family, level)."""
        if level < 0:
            raise ValueError("truncation level must be nonnegative")
        key = (self, level)
        if key not in _TRUNCATION_CACHE:
            if self.facts.carrier == "poset":
                from .incidence import Poset as carrier_class  # incidence imports this module
            else:
                carrier_class = Quiver
            points, links = self.facts.build(level, self.param)
            _TRUNCATION_CACHE[key] = carrier_class(points, links, name=f"{self.kind}[{level}]")
        return _TRUNCATION_CACHE[key]

    def has_vertex(self, name: str) -> bool:
        """Whether some truncation has the vertex ``name``; no stage past 0
        is built."""
        pattern = self.facts.vertices
        return bool(re.fullmatch(pattern, name)) if pattern else name in self.facts.build(0, self.param)[0]

    def __str__(self):
        return f"family:{self.kind}" if self.param is None else f"family:{self.kind}:{self.param}"


# ``bench/spans.py`` wraps ``QuiverFamily.truncate`` by this name.
QuiverFamily = Family


def family_from_token(token: str, carrier: Optional[str] = None) -> Family:
    """Parse a family token of the carrier (by default the kind's own, else
    quiver): a kind of ``FAMILIES``, written ``<kind>:<n>`` when parametrized
    (``cycle:<n>``).  Poset families take no parameter, and an unknown poset
    token is named whole."""
    kind, *params = token.split(":")
    spec = FAMILIES.get(kind)
    carrier = carrier or (spec.carrier if spec else "quiver")
    if carrier == "poset":
        if params or spec is None or spec.carrier != carrier:
            raise ValueError(f"unknown poset family {token!r}")
    elif spec is not None and spec.parametrized:
        try:
            (length,) = map(int, params)  # exactly one integer
        except ValueError:
            raise ValueError(f"{kind} family needs a length: {kind}:<n>") from None
        return Family(kind, length)
    elif params:
        raise ValueError(f"unexpected parameter for family {kind!r}")
    elif spec is None or spec.carrier != carrier:
        raise ValueError(f"unknown family kind {kind!r}")
    return Family(kind)
