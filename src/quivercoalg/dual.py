"""The dual algebra of a path coalgebra: convolution, the coordinate
embedding of the quiver algebra, hit actions, rational-part certificates,
and the reflexivity verdicts.

Functionals are either finitely supported (a sparse vector over paths) or
given by a closed-form rule: a kind of the ``RULES`` table and a parameter.
Rules are the only infinite-support functionals admitted.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from .coalgebra import CoalgElement
from .linalg import SparseVector
from .quiver import Family, Path, Quiver, Verdict, enumerate_paths, is_acyclic
from .scalars import QQ, ParseError


@dataclass(frozen=True)
class Rule:
    """Closed-form functional: a kind of ``RULES`` and its parameter."""

    kind: str
    param: object = None


def _has_prefix(prefix: Path, path: Path, field):
    n = prefix.length
    holds = path.length >= n and path.prefix(n) == prefix and path.suffix_from(n).source == prefix.target
    return field.one if holds else field.zero


def _winding_multiple(cycle: tuple, path: Path, field):
    # One tuple comparison with the cycle rotated to the path's start and repeated:
    # arrows compare by identity, and the rule reads paths of its cycle's quiver.
    s, starts = len(cycle), [a.source for a in cycle]
    if path.length % s or path.source not in starts:
        return field.zero
    n = starts.index(path.source)
    return field.one if path.arrows == (cycle[n:] + cycle[:n]) * (path.length // s) else field.zero


def _read_vertex(text: str, carrier, field):
    if not (carrier.has_vertex(text) if isinstance(carrier, Family) else text in carrier.vertices):
        raise ParseError(f"unknown vertex {text!r}")
    return text


# One row per rule kind.  ``spelling`` follows ``rule:`` in a description,
# ``{}`` standing for the parameter.  ``argument`` says what a ``rule:``
# argument must give (None: no argument is needed), and ``read(text,
# carrier, field)`` turns that text into the parameter (None: no text can
# name one).  ``value(param, path, field)`` is the value on a path.
RuleKind = namedtuple("RuleKind", "spelling argument read value")

RULES = {
    # Value one on every path.
    "gamma": RuleKind("gamma", None, lambda text, carrier, field: None, lambda _, path, field: field.one),
    # On the one-loop quiver, the n-th power goes to lambda^n.
    "eval": RuleKind("eval({})", "a scalar", lambda text, carrier, field: field.parse(text),
                     lambda lam, path, field: field.one * lam ** path.length),
    # Indicator of the paths with the given source.
    "starts_at": RuleKind("starts-at({})", "a vertex", _read_vertex,
                          lambda v, path, field: field.one if path.source == v else field.zero),
    # Indicator of the paths extending a fixed path (rational-part certificates).
    "has_prefix": RuleKind("has-prefix({})", None, None, _has_prefix),
    # Indicator of the paths that start on a cycle, given by its arrows in
    # order, and follow it, with length a multiple of its length.
    "winding_multiple": RuleKind("winding-multiple", None, None, _winding_multiple),
}


def _is_poset(carrier) -> bool:
    """Whether the carrier is a poset or a poset family (the carriers are
    quivers, posets and the families of either)."""
    return carrier.facts.carrier == "poset" if isinstance(carrier, Family) else not isinstance(carrier, Quiver)


class Functional:
    """Linear functional on a path coalgebra, finite-support or rule-based."""

    __slots__ = ("carrier", "support", "rule", "field")

    def __init__(self, carrier, support: Optional[SparseVector] = None, rule: Optional[Rule] = None, field=QQ):
        if (support is None) == (rule is None):
            raise ValueError("exactly one of support/rule must be given")
        if rule is not None and rule.kind not in RULES:
            raise ValueError(f"unknown rule kind {rule.kind!r}")
        # Every rule but gamma reads a path's arrows, which an interval has not.
        if rule is not None and rule.kind != "gamma" and _is_poset(carrier):
            raise ValueError(f"rule:{RULES[rule.kind].spelling.format(rule.param)} reads paths; {carrier} is a poset")
        self.carrier = carrier
        self.support = support
        self.rule = rule
        self.field = field

    @staticmethod
    def zero(carrier, field=QQ) -> "Functional":
        return Functional(carrier, support=SparseVector(), field=field)

    @staticmethod
    def dual_of_path(path: Path, field=QQ) -> "Functional":
        return Functional(path.quiver, support=SparseVector({path: field.one}), field=field)

    @staticmethod
    def from_rule(carrier, kind: str, param=None, field=QQ) -> "Functional":
        return Functional(carrier, rule=Rule(kind, param), field=field)

    @property
    def finite_support(self) -> bool:
        return self.support is not None

    def __call__(self, path: Path):
        if self.support is not None:
            return self.support.coeff(path)
        return RULES[self.rule.kind].value(self.rule.param, path, self.field)

    def restrict(self, paths) -> SparseVector:
        """Values on a concrete path list, as a finite-support vector."""
        return SparseVector({p: self(p) for p in paths})

    def describe(self) -> str:
        if self.support is not None:
            if self.support.is_zero():
                return "dual{}"
            body = ", ".join(f"[{p}]:{c}" for p, c in self.support.sorted_items())
            return "dual{" + body + "}"
        return "rule:" + RULES[self.rule.kind].spelling.format(self.rule.param)

    def __repr__(self):
        return f"Functional({self.describe()})"


def convolve(f: Functional, g: Functional, paths) -> Functional:
    """(f·g)(p) = sum of f(q)g(r) over decompositions p = qr, on the given
    path window.  A finite-support factor vanishes off the lengths of its
    support paths, so only the splits at those lengths are tried."""
    f_lengths, g_lengths = (None if h.support is None else {q.length for q in h.support.labels()} for h in (f, g))
    values = {}
    for p in paths:
        n = p.length
        total = 0
        for i in range(n + 1):
            if (f_lengths is None or i in f_lengths) and (g_lengths is None or n - i in g_lengths):
                total = total + f(p.prefix(i)) * g(p.suffix_from(i))
        if total:
            values[p] = total
    return Functional(f.carrier, support=SparseVector(values), field=f.field)


def psi_embed(element: CoalgElement, field=QQ) -> Functional:
    """Coordinate embedding of the quiver algebra into the dual: the path p
    goes to the functional picking the coefficient of p."""
    return Functional(element.carrier, support=SparseVector(dict(element.combo.items())), field=field)


class CertificateWindow:
    """Basis labels closed under splitting, as the rational-part certificates
    read them: in order, the position of each (the index of its dual-basis
    functional δ_q), and per right factor r the (p, q) with p = q·r."""

    __slots__ = ("carrier", "labels", "position", "by_right")

    def __init__(self, carrier, labels):
        self.carrier, self.labels = carrier, labels
        self.position = {p: i for i, p in enumerate(labels)}
        self.by_right = {}
        for p in labels:
            for q, r in carrier.splits(p):
                self.by_right.setdefault(r, []).append((p, q))

    def restrict(self, f: Functional) -> SparseVector:
        """f on the window: a support through its window labels, a rule at every label."""
        if f.support is not None:
            return SparseVector({p: c for p, c in f.support.items() if p in self.position})
        return f.restrict(self.labels)


@dataclass
class RationalCertificate:
    """Finite families (c_i) and (c_i*) witnessing d*·f = Σ d*(c_i)·c_i*."""

    elements: list  # CoalgElement
    functionals: list  # Functional

    def verify(self, f: Functional, window: CertificateWindow) -> bool:
        """Exact check of the defining identity at every functional δ_q of
        the window's dual basis, both sides evaluated on the window:
        (δ_q·f)(p) = δ_q(q)·f(r) over the splits p = qr, read off
        ``_by_prefix``, and δ_q(c_i) = δ_q(q)·c_i(q), read off an index of
        the element labels.  δ_q has its one term at q, so only the window
        labels on either index are visited; both sides are 0 at every other
        δ_q.  Each member c_i* is read on the window once."""
        by_prefix, by_label, one = _by_prefix(f, window), {}, f.field.one
        for i, c in enumerate(self.elements):
            for label, coeff in c.combo.items():
                by_label.setdefault(label, []).append((i, one * coeff))
        members = [window.restrict(c_star) for c_star in self.functionals]
        for q in by_prefix.keys() | by_label.keys():
            if q not in window.position:
                continue
            left = SparseVector((p, one * value) for p, value in by_prefix.get(q, {}).items())
            weights = by_label.get(q, ())
            if left != SparseVector((p, value * weight) for i, weight in weights for p, value in members[i].items()):
                return False
        return True

    @property
    def infinite_support(self) -> bool:
        """Whether some member functional is a rule with infinite support."""
        return any(not c_star.finite_support for c_star in self.functionals)


def is_rational_left(f: Functional, target, max_len: Optional[int] = None) -> Verdict:
    """Decide left-rationality of a functional, with a verified certificate.

    With the translates f_q(qr) = f(r), d*·f = Σ_q d*(q)·f_q, so the basis
    labels q with f_q nonzero and their translates certify f when there are
    finitely many.  That holds for every functional on a finite acyclic
    quiver and on a finite poset, where qr is an interval split through a
    point and the window is every interval.  On the line families it holds
    for a finite-support functional, on the truncation its support lives
    on, and for the starts-at rule, whose translates are has-prefix(q) for
    the paths q ending at its vertex.  On the poset families it holds for a
    finite-support functional, on the truncation at ``max_len`` when that
    holds the support (else unknown).  On the loop only the zero functional
    is rational; other families are unknown.  A yes carries its
    ``RationalCertificate``, verified once against the dual basis of its
    ``CertificateWindow``, which a finite carrier keeps.  A support label
    outside a finite carrier's basis raises ``ValueError``.
    """
    if isinstance(target, Quiver) and not is_acyclic(target):
        raise ValueError("finite cyclic quivers are handled through their family kind")
    if f.support is not None and f.support.is_zero():
        return Verdict("yes", RationalCertificate([], []), "zero functional")
    if isinstance(target, Family):
        return _rational_on_family(f, target, max_len if max_len is not None else 10)
    if f.support is not None and (foreign := [label for label in f.support.labels() if not target.owns(label)]):
        raise ValueError(f"functional label {foreign[0]} is not a basis label of {target!r}")
    if target._window is None:
        target._window = CertificateWindow(target, target.basis())
    kind = "path" if isinstance(target, Quiver) else "incidence"
    return _certified(f, target._window, f"finite-dimensional {kind} coalgebra")


def _by_prefix(f: Functional, window: CertificateWindow) -> dict:
    """q -> {p: f(r)} over the window's splits p = qr with f(r) nonzero,
    read off the window's index at each window label r with f(r) nonzero."""
    by_prefix: dict = {}
    for r, value in window.restrict(f).items():
        for p, q in window.by_right[r]:
            by_prefix.setdefault(q, {})[p] = value
    return by_prefix


def _window_translates(f: Functional, window: CertificateWindow) -> list:
    """(q, f_q) for each window label q with f_q nonzero on the window, in
    window order, where f_q(p) = f(r) for each split p = qr."""
    by_prefix = _by_prefix(f, window)
    return [(q, Functional(window.carrier, support=SparseVector(by_prefix[q]), field=f.field))
            for q in sorted(by_prefix, key=window.position.__getitem__)]


def _certified(f: Functional, window: CertificateWindow, why: str, translates=None) -> Verdict:
    """The certificate c_i = q, c_i* = f_q of the translates, by default
    those read off the window, verified against the window's dual basis."""
    translates = _window_translates(f, window) if translates is None else translates
    cert = RationalCertificate([CoalgElement.unit(window.carrier, q, f.field) for q, _ in translates],
                               [f_q for _, f_q in translates])
    if not cert.verify(f, window):
        raise AssertionError("certificate failed to verify; bug")
    return Verdict("yes", cert, why)


def _rational_on_family(f: Functional, family: Family, window: int) -> Verdict:
    # Each call builds its window: a truncation is a shared stage of ``_TRUNCATION_CACHE``.
    if not family.facts.acyclic:
        return Verdict("no", explanation="every nonzero functional has an infinite-dimensional hit orbit here")
    if not family.facts.finite_paths:
        return Verdict("unknown", explanation=f"no rule for family {family.kind}")
    if f.finite_support and family.facts.carrier == "poset":
        # A truncation is a down-set, so it holds the intervals the translates read.
        poset = family.truncate(window)
        if all(poset.owns(label) for label in f.support.labels()):
            return _certified(f, CertificateWindow(poset, poset.basis()), "finitely many points lie below each support interval")
        return Verdict("unknown", explanation=f"the support leaves the truncation at window {window}")
    if f.finite_support:
        # Certify on the acyclic truncation the support paths live on.
        quiver = next(iter(f.support.labels())).quiver
        paths = enumerate_paths(quiver, window).paths
        return _certified(f, CertificateWindow(quiver, paths), "finitely many paths end with each support path")
    if f.rule.kind == "starts_at":
        # f_q = has-prefix(q) for the paths q ending at the vertex, else zero.
        quiver = family.truncate(window)
        paths = enumerate_paths(quiver, window).paths
        translates = [
            (q, Functional.from_rule(quiver, "has_prefix", q, f.field)) for q in paths if q.target == f.rule.param
        ]
        return _certified(f, CertificateWindow(quiver, paths),
                          "certified through the finitely many paths ending at the vertex", translates)
    return Verdict("unknown", explanation=f"no rule for {f.describe()}")


def gamma_membership(target) -> Verdict:
    """The all-ones functional lies in the image of the coordinate embedding
    iff the path set is finite, in which case its support, the witness, is
    everything."""
    if isinstance(target, Family):
        return Verdict("no", explanation=f"{target.describe()}: infinitely many paths")
    quiver: Quiver = target
    if is_acyclic(quiver):
        return Verdict("yes", quiver.basis(), "finite path set")
    return Verdict("no", explanation="a cycle makes the path set infinite")


def reflexivity_verdict(target) -> Verdict:
    """Quiver algebras are always proper; reflexivity holds exactly for the
    finite-dimensional ones, i.e. finite quivers with no oriented cycles."""
    if isinstance(target, Family):
        if not target.facts.acyclic:
            why = "oriented cycle: the algebra is infinite dimensional"
        elif not target.facts.finite_arrows:
            why = "infinitely many arrows: the algebra is infinite dimensional"
        else:
            why = "infinitely many vertices: the algebra is infinite dimensional"
        return Verdict("no", explanation=why)
    quiver: Quiver = target
    if is_acyclic(quiver):
        return Verdict("yes", explanation="finite acyclic quiver: the algebra is finite dimensional")
    return Verdict("no", explanation="oriented cycle: the algebra is infinite dimensional")
