"""The dual algebra of a path coalgebra: convolution, the coordinate
embedding of the quiver algebra, hit actions, rational-part certificates,
and the reflexivity verdicts.

Functionals are either finitely supported (a sparse vector over paths) or
given by a named closed-form rule on an infinite family; rules are the only
infinite-support functionals admitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coalgebra import CoalgElement
from .linalg import SparseVector
from .quiver import Family, Path, Quiver, Verdict, enumerate_paths, is_acyclic
from .scalars import QQ


@dataclass(frozen=True)
class Rule:
    """Closed-form functional on an infinite family.

    ``gamma``: value one on every path.
    ``eval``: on the one-loop quiver, send the n-th power to lambda^n.
    ``starts_at``: indicator of all paths with the given source.
    ``has_prefix``: indicator of all paths extending a fixed path on the
    right (used for the rational-part certificates).
    ``predicate``: indicator of a described infinite path set; the parameter
    is a (name, callable) pair.
    """

    kind: str
    param: object = None


class Functional:
    """Linear functional on a path coalgebra, finite-support or rule-based."""

    __slots__ = ("carrier", "support", "rule", "field")

    def __init__(self, carrier, support: Optional[SparseVector] = None, rule: Optional[Rule] = None, field=QQ):
        if (support is None) == (rule is None):
            raise ValueError("exactly one of support/rule must be given")
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
        kind = self.rule.kind
        if kind == "gamma":
            return self.field.one
        if kind == "eval":
            lam = self.rule.param
            value = self.field.one
            for _ in range(path.length):
                value = value * lam
            return value
        if kind == "starts_at":
            return self.field.one if path.source == self.rule.param else self.field.zero
        if kind == "has_prefix":
            prefix: Path = self.rule.param
            n = prefix.length
            if path.length >= n and path.prefix(n) == prefix and path.suffix_from(n).source == prefix.target:
                return self.field.one
            return self.field.zero
        if kind == "predicate":
            _, holds = self.rule.param
            return self.field.one if holds(path) else self.field.zero
        raise ValueError(f"unknown rule kind {kind!r}")

    def evaluate_element(self, element: CoalgElement):
        total = self.field.zero
        for path, coeff in element.combo.items():
            total = total + self(path) * coeff
        return total

    def restrict(self, paths) -> SparseVector:
        """Values on a concrete path list, as a finite-support vector."""
        return SparseVector({p: self(p) for p in paths})

    def describe(self) -> str:
        if self.support is not None:
            if self.support.is_zero():
                return "dual{}"
            body = ", ".join(f"[{p}]:{c}" for p, c in self.support.sorted_items())
            return "dual{" + body + "}"
        if self.rule.kind == "eval":
            return f"rule:eval({self.rule.param})"
        if self.rule.kind == "starts_at":
            return f"rule:starts-at({self.rule.param})"
        if self.rule.kind == "has_prefix":
            return f"rule:has-prefix({self.rule.param})"
        if self.rule.kind == "predicate":
            return f"rule:{self.rule.param[0]}"
        return f"rule:{self.rule.kind}"

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


def hit_action(c_star: Functional, f: Functional, side: str, paths) -> Functional:
    """Left/right hit of the dual algebra on itself, realized by convolution
    order: the left hit of c* on f is f·c*, the right hit is c*·f."""
    if side == "left":
        return convolve(f, c_star, paths)
    if side == "right":
        return convolve(c_star, f, paths)
    raise ValueError("side must be 'left' or 'right'")


@dataclass
class RationalCertificate:
    """Finite families (c_i) and (c_i*) witnessing d*·f = Σ d*(c_i)·c_i*."""

    elements: list  # CoalgElement
    functionals: list  # Functional

    def verify(self, f: Functional, duals, paths) -> bool:
        """Exact check of the defining identity against the given d* family,
        with both sides evaluated on the given path window."""
        for d_star in duals:
            left = convolve(d_star, f, paths)
            right = SparseVector(
                (p, value * weight)
                for c, c_star in zip(self.elements, self.functionals)
                if (weight := d_star.evaluate_element(c))
                for p, value in c_star.restrict(paths).items()
            )
            if left.support != right:
                return False
        return True

    @property
    def infinite_support(self) -> bool:
        """Whether some member functional is a rule with infinite support."""
        return any(not c_star.finite_support for c_star in self.functionals)


def is_rational_left(f: Functional, target, max_len: Optional[int] = None, field=QQ) -> Verdict:
    """Decide left-rationality of a functional, with a verified certificate.

    Finite acyclic quivers: every functional is rational; the certificate
    takes c_i = the path basis and c_i* = p_i*·f (convolution), minimized to
    the nonzero terms.  On the line families, a finite-support functional is
    certified through the finitely many paths ending with each support path,
    and the starts-at rule through the finitely many paths ending at its
    vertex; the latter certificate has infinite-support members.  On the
    loop, only the zero functional is rational.  A yes carries its
    ``RationalCertificate`` as the witness; other families are unknown.
    """
    if isinstance(target, Family):
        return _rational_on_family(f, target, max_len if max_len is not None else 10, field)
    quiver: Quiver = target
    if not is_acyclic(quiver):
        raise ValueError("finite cyclic quivers are handled through their family kind")
    enum = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1))
    if f.support is not None and f.support.is_zero():
        return Verdict("yes", RationalCertificate([], []), "zero functional")
    cert = _convolution_certificate(f, enum.paths, field)
    return Verdict("yes", cert, "finite-dimensional path coalgebra")


def _convolution_certificate(f: Functional, paths, field) -> RationalCertificate:
    """c_i = the window's path basis and c_i* = p_i*·f, minimized to the
    nonzero terms, verified against every dual basis functional."""
    elements = []
    functionals = []
    for p in paths:
        product = convolve(Functional.dual_of_path(p, field), f, paths)
        if not product.support.is_zero():
            elements.append(CoalgElement.from_path(p, field))
            functionals.append(product)
    cert = RationalCertificate(elements, functionals)
    duals = [Functional.dual_of_path(p, field) for p in paths]
    if not cert.verify(f, duals, paths):
        raise AssertionError("certificate failed to verify; bug")
    return cert


def _rational_on_family(f: Functional, family: Family, window: int, field) -> Verdict:
    if f.support is not None and f.support.is_zero():
        return Verdict("yes", RationalCertificate([], []), "zero functional")
    if not family.facts.acyclic:
        return Verdict("no", explanation="every nonzero functional has an infinite-dimensional hit orbit here")
    if not family.facts.finite_paths:
        return Verdict("unknown", explanation=f"no rule for family {family.kind}")
    if f.finite_support:
        # Certify on the acyclic truncation the support paths live on.
        quiver = next(iter(f.support.labels())).quiver
        cert = _convolution_certificate(f, enumerate_paths(quiver, window).paths, field)
        return Verdict("yes", cert, "finitely many paths end with each support path")
    if f.rule.kind == "starts_at":
        quiver = family.truncate(window)
        enum = enumerate_paths(quiver, window)
        vertex = f.rule.param
        enders = [p for p in enum.paths if p.target == vertex]
        elements = [CoalgElement.from_path(r, field) for r in enders]
        functionals = [
            Functional.from_rule(quiver, "has_prefix", r, field) for r in enders
        ]
        cert = RationalCertificate(elements, functionals)
        duals = [Functional.dual_of_path(p, field) for p in enum.paths]
        if not cert.verify(f, duals, enum.paths):
            raise AssertionError("certificate failed to verify; bug")
        return Verdict("yes", cert, "certified through the finitely many paths ending at the vertex")
    return Verdict("unknown", explanation=f"no rule for {f.describe()}")


def gamma_membership(target) -> Verdict:
    """The all-ones functional lies in the image of the coordinate embedding
    iff the path set is finite, in which case its support, the witness, is
    everything."""
    if isinstance(target, Family):
        return Verdict("no", explanation=f"{target.describe()}: infinitely many paths")
    quiver: Quiver = target
    if is_acyclic(quiver):
        enum = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1))
        return Verdict("yes", list(enum.paths), "finite path set")
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
