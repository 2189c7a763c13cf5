"""Finite duals of algebras with enough idempotents.

A ``StructuredAlgebra`` is a finite-dimensional algebra given by structure
constants together with a complete system of orthogonal idempotents drawn
from its basis.  Its dual carries a verified coalgebra structure obtained
by transposing the multiplication; the counit sums values on the
idempotents.

The module also hosts the coordinate embedding of a path coalgebra into
the dual of its quiver algebra, with explicit cofinite monomial-ideal
witnesses, and the recovery check that decides when that embedding is onto.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .algebra import subpath_closure, winding_paths
from .coalgebra import CoalgElement, _closed_span, check_coalgebra, integer_rows, subcoalgebra_span
from .dual import Functional
from .linalg import SparseVector, kernel_of_map, reducer, rref
from .quiver import (
    Family, Path, PathEnumeration, Quiver, Verdict, check_recovery_condition, compose_paths, enumerate_paths,
    find_simple_cycle, horizon_verdict, is_acyclic,
)
from .scalars import QQ, FieldError


class StructuredAlgebra:
    """Finite-dimensional algebra by structure constants.

    ``mult`` maps basis-label pairs to sparse vectors over the basis; absent
    pairs multiply to zero.  Construction verifies associativity on all
    basis triples, orthogonality of the idempotents, and that their sum acts
    as a two-sided identity (completeness of the system).
    """

    def __init__(self, basis, mult: dict, idempotents, field=QQ, name: str = "", validate=True):
        self.basis = tuple(basis)
        self.mult = {pair: vec for pair, vec in mult.items() if not vec.is_zero()}
        self.idempotents = tuple(idempotents)
        self.field = field
        self.name = name
        self._dual = None
        basis_set = set(self.basis)
        if len(basis_set) != len(self.basis):
            raise ValueError("duplicate basis labels")
        for e in self.idempotents:
            if e not in basis_set:
                raise ValueError(f"idempotent {e!r} is not a basis label")
        for (a, b), vec in self.mult.items():
            if a not in basis_set or b not in basis_set:
                raise ValueError("structure constant outside the basis")
            for label in vec.labels():
                if label not in basis_set:
                    raise ValueError("product leaves the basis span")
        if validate:
            self._validate()

    def basis_product(self, a, b) -> SparseVector:
        return self.mult.get((a, b), SparseVector())

    def dual(self) -> "DualCoalgebra":
        """The transposed table A*, built once per algebra and shared by
        every reader; ``dual_coalgebra`` builds and validates a fresh one."""
        if self._dual is None:
            self._dual = DualCoalgebra(self, validate=False)
        return self._dual

    def product(self, x: SparseVector, y: SparseVector) -> SparseVector:
        if not (x.entries and y.entries):
            return SparseVector()
        mult = self.mult
        return SparseVector(
            (label, c * (ca * cb))
            for a, ca in x.items()
            for b, cb in y.items()
            if (a, b) in mult
            for label, c in mult[a, b].items()
        )

    def _validate(self):
        one, tables = self.field.one, self.dual().integer_tables  # a scalar of another field raises here
        for e in self.idempotents:
            for f in self.idempotents:
                expected = SparseVector({e: one}) if e == f else SparseVector()
                if self.basis_product(e, f) != expected:
                    raise ValueError(f"idempotents {e!r},{f!r} are not orthogonal idempotents")
        # Associativity of A is coassociativity of the transposed table A*,
        # and completeness of the idempotents is its two counit laws.
        if check_coalgebra(self.basis, *tables, self.field) is not None:
            raise ValueError(self._first_violation())

    def _first_violation(self) -> str:
        """The failure a full scan of the identities meets first, in field
        arithmetic: completeness on every basis element, then (ab)c = a(bc)
        on every triple where ab or bc is nonzero."""
        one = self.field.one
        units = {b: SparseVector({b: one}) for b in self.basis}
        unit = SparseVector({e: one for e in self.idempotents})
        for vec in units.values():
            if self.product(unit, vec) != vec or self.product(vec, unit) != vec:
                return "idempotent system is not complete"
        for a in self.basis:
            for b in self.basis:
                ab = self.basis_product(a, b)
                for c in self.basis:
                    if (ab.entries or (b, c) in self.mult) and (
                        self.product(ab, units[c]) != self.product(units[a], self.basis_product(b, c))
                    ):
                        return f"multiplication not associative at ({a},{b},{c})"
        raise AssertionError("the law kernel and the scan disagree; bug")

    def __repr__(self):
        return f"StructuredAlgebra({self.name or len(self.basis)})"


def structured_algebra(carrier, field=QQ, name: str = "") -> StructuredAlgebra:
    """The algebra of a finite carrier as structure constants: the basis
    labels multiply by ``carrier.compose``, and the grouplike labels are the
    complete system of orthogonal idempotents.  A quiver gives its quiver
    algebra (it must be acyclic), a poset its incidence algebra."""
    basis, compose, one = carrier.basis(), carrier.compose, field.one
    mult = {(a, b): SparseVector({ab: one}) for a in basis for b in basis if (ab := compose(a, b)) is not None}
    return StructuredAlgebra(basis, mult, carrier.grouplikes(), field, name)


class DualCoalgebra:
    """Coalgebra structure on the dual of a StructuredAlgebra.

    The comultiplication table transposes multiplication: the dual basis
    vector of b splits as the sum of x* ⊗ y* weighted by the coefficient of
    b in xy.  The counit evaluates at the sum of the idempotents.  It keeps
    the algebra's basis and field, not the algebra, which caches its dual:
    a reference back would leave each algebra to the cycle collector.
    """

    def __init__(self, algebra: StructuredAlgebra, validate=True):
        self.basis, self.field = algebra.basis, algebra.field
        terms = {b: [] for b in algebra.basis}
        for pair, vec in algebra.mult.items():
            for b, coeff in vec.items():
                terms[b].append((pair, coeff))
        self.delta_table = {b: SparseVector(bterms) for b, bterms in terms.items()}
        one, zero = algebra.field.one, algebra.field.zero
        self.counit_table = {b: one if b in algebra.idempotents else zero for b in algebra.basis}
        # Δ and ε as the law kernel's ``IntegerRows``, converted once; the
        # comultiplication and counit of functionals read the field tables.
        self.integer_tables = integer_rows(self.delta_table, self.counit_table, self.field)
        if validate:
            self._validate()

    def comultiply(self, functional: SparseVector) -> SparseVector:
        delta = self.delta_table
        return SparseVector((pair, c * coeff) for b, coeff in functional.items() for pair, c in delta[b].items())

    def counit(self, functional: SparseVector):
        return sum((self.counit_table[b] * coeff for b, coeff in functional.items()), self.field.zero)

    def _validate(self):
        if failure := check_coalgebra(self.basis, *self.integer_tables, self.field):
            law, b = failure
            raise ValueError(f"dual comultiplication not coassociative at {b!r}" if law == "coassociativity"
                             else f"counit law fails at {b!r}")


def dual_coalgebra(algebra: StructuredAlgebra) -> DualCoalgebra:
    return DualCoalgebra(algebra)


@dataclass
class FiniteDualElement:
    """A functional on the quiver algebra with a cofinite-ideal witness."""

    functional: SparseVector  # over path labels
    witness_complement: list  # subpath-closed path set E
    witness_ideal_basis: list  # paths spanning the witness ideal (window)
    window: int
    exhaustive: bool


def theta_embed(element: CoalgElement, max_len: Optional[int] = None) -> FiniteDualElement:
    """Coordinate functional of a path-coalgebra element, with the monomial
    witness ideal spanned by all paths that are not subpaths of its support."""
    quiver = element.carrier
    if max_len is None:
        if not is_acyclic(quiver):
            raise ValueError("cyclic quiver: supply max_len for a truncated witness")
        max_len = max(0, len(quiver.vertices) - 1)
    enum = enumerate_paths(quiver, max_len)
    complement = subpath_closure(element.combo.labels())
    complement_set = set(complement)
    ideal_basis = [p for p in enum.paths if p not in complement_set]
    return FiniteDualElement(
        functional=SparseVector(dict(element.combo.items())),
        witness_complement=complement,
        witness_ideal_basis=ideal_basis,
        window=max_len,
        exhaustive=enum.exhaustive,
    )


# ---------------------------------------------------------------------------
# Membership in the finite dual / in the image of the coordinate embedding.
# ---------------------------------------------------------------------------


def maximal_ideal_in_kernel(algebra: StructuredAlgebra, functional: SparseVector) -> list[SparseVector]:
    """Largest two-sided ideal inside the kernel of a functional: the
    annihilator of the subcoalgebra of A* that the functional generates.

    D, the closure of f under the tensor components of the dual
    comultiplication, is spanned by f and its translates a ↦ f(ay) and
    a ↦ f(xa), so D = A⇀f↼A, and the result is I = D^⊥.  I is an ideal
    inside ker f because D holds f and is closed under translates.  Every
    ideal J inside ker f lies in I, because g(J) = 0 for every translate g
    of f.  The closure's fixpoint is the certificate.
    """
    basis = set(algebra.basis)
    for label, value in functional.items():
        if label not in basis:
            raise ValueError(f"functional label {label!r} is not a basis label of {algebra!r}")
        if not algebra.field.contains(value):
            raise FieldError(f"functional value {value!r} at label {label!r} is not in {algebra.field!r}")
    span = subcoalgebra_span([functional], algebra.dual().comultiply, algebra.field)
    # The map a ↦ (g(a))_g, one column per basis label, read off in one pass.
    columns = {b: SparseVector() for b in algebra.basis}
    for i, g in enumerate(span):
        for b, c in g.items():
            columns[b].entries[i] = c
    return kernel_of_map(algebra.basis, columns.__getitem__, algebra.field)


def is_in_finite_dual(f, target, window: int = 12) -> Verdict:
    """Membership in the finite dual, with an explicit witness ideal.

    Finite-dimensional structured algebras: always yes; the witness is the
    maximal two-sided ideal inside the kernel, the annihilator of the
    subcoalgebra generated by f.  The loop family with an evaluation rule:
    yes, witnessed by the principal ideal generated by
    (arrow - lambda * vertex), checked on the window.
    """
    if isinstance(target, StructuredAlgebra):
        if not isinstance(f, SparseVector):
            raise ValueError("functionals on a structured algebra are sparse vectors")
        witness = maximal_ideal_in_kernel(target, f)
        codim = len(target.basis) - len(witness)
        return Verdict(
            "yes",
            witness={"ideal_basis": witness, "codimension": codim},
            explanation="finite-dimensional algebra: every functional is representative",
        )
    # Rule (b)'s family is the one-loop quiver, whose dual is k[[x]].
    if isinstance(target, Family) and target.facts.rule == "b":
        if not isinstance(f, Functional) or f.finite_support or f.rule.kind != "eval":
            raise ValueError("only evaluation rules are supported on the loop family")
        lam = f.rule.param
        quiver = target.truncate(window)
        v, x = _loop_power(quiver, 0), _loop_power(quiver, 1)
        field = f.field
        generator = CoalgElement.from_path(x, field) - CoalgElement.from_path(v, field).scale(lam)
        for n in range(window):
            if f(_loop_power(quiver, n + 1)) - lam * f(_loop_power(quiver, n)):
                raise AssertionError("evaluation functional does not kill the witness ideal")
        return Verdict(
            "yes",
            witness={"generator": generator, "window": window},
            explanation="kernel contains the cofinite ideal generated by (x - lambda*v)",
        )
    raise ValueError("unsupported membership query")


def _loop_power(quiver: Quiver, n: int) -> Path:
    """x^n on the one-loop quiver of rule (b), whatever its labels."""
    (arrow,) = quiver.arrows
    return Path(quiver, None, (arrow,) * n) if n else quiver.vertex_path(arrow.source)


def is_in_theta_image(f: Functional, target, codim_bound: int = 10, window: Optional[int] = None) -> Verdict:
    """Is the functional a coordinate functional, i.e. does its kernel
    contain a two-sided cofinite monomial ideal?

    A monomial ideal lies inside the kernel iff its complement contains the
    support, so the minimal candidate complement, the witness, is the
    subpath closure of the support.  A finite support is a proof; a rule is
    read on a window and judged by the horizon rule.
    """
    if isinstance(target, Family) and target.facts.rule != "b":
        raise ValueError("family membership is implemented for the loop only")
    because = "kernel contains the monomial ideal avoiding the support subpaths"
    if f.finite_support:
        return Verdict("yes", subpath_closure(f.support.labels()), because)
    if isinstance(target, Family):
        quiver = target.truncate(window or (codim_bound + 2))
        horizon = codim_bound + 1
        support = [p for n in range(horizon + 1) if f(p := _loop_power(quiver, n))]
        # The closure is always a candidate; the horizon decides.
        return horizon_verdict(
            True,
            False,
            subpath_closure(support),
            horizon,
            "finite support within the window",
            f"every power ideal (x^k), k <= {codim_bound}, misses the kernel: "
            "the functional is nonzero on arbitrarily long powers",
        )
    quiver: Quiver = target
    enum = PathEnumeration(quiver.basis(), True) if window is None else enumerate_paths(quiver, window)
    complement = subpath_closure([p for p in enum.paths if f(p)])
    fits = len(complement) <= codim_bound
    # An exhaustive enumeration sees the whole (finite) support, so its
    # closure is a witness whatever its size.
    why = "reaches the window horizon" if fits else "exceeds the codimension bound"
    return horizon_verdict(
        fits or enum.exhaustive, enum.exhaustive, complement, window, because, f"support subpath-closure {why}"
    )


def theta_recovery_check(target, codim_bound: int = 10, window: int = 12, field=QQ) -> Verdict:
    """Decides whether the coordinate embedding recovers the path coalgebra.

    Acyclic finite quivers: yes, with the dimension count.  Cyclic quivers
    (or the loop/cycle families): a bounded no; the witness is the
    winding-path indicator, which lies in the finite dual (its kernel
    contains the explicit cofinite counterexample ideal) yet no cofinite
    monomial ideal fits inside its kernel up to the bound.
    """
    if isinstance(target, Family):
        if not target.facts.acyclic:
            quiver = target.truncate(window)
            return _cyclic_recovery_report(quiver, codim_bound, window, field)
        verdict = check_recovery_condition(target)
        return replace(verdict, data={"recovered": bool(verdict), "explanation": verdict.explanation})
    quiver: Quiver = target
    if is_acyclic(quiver):
        paths = quiver.basis()
        dim = len(paths)
        # Coordinate functionals of distinct paths are independent; the
        # enumeration lists each path once, and this guards it.
        if len(set(paths)) != dim:
            raise AssertionError("coordinate functionals are not independent; bug")
        why = "acyclic: dimensions match and the embedding is injective"
        return Verdict("yes", explanation=why, data={"recovered": True, "explanation": why, "dimension": dim})
    return _cyclic_recovery_report(quiver, codim_bound, window, field)


def endpoint_buckets(paths):
    """The positions in ``paths`` of the paths that start at each vertex,
    and of those that end at each vertex, each list increasing."""
    starts, ends = {}, {}
    for i, p in enumerate(paths):
        starts.setdefault(p.source, []).append(i)
        ends.setdefault(p.target, []).append(i)
    return starts, ends


def _cyclic_recovery_report(quiver: Quiver, codim_bound: int, window: int, field) -> Verdict:
    """The verdict on a quiver with a simple cycle of length s: the winding
    indicator lies in the finite dual, and its support closure exceeds the
    bound.  The indicator is Σ_v e_v·M1_p·e_v, one coefficient functional
    of M1 = ``cycle_module`` per cycle vertex v, so its kernel holds
    Ann(M1), a two-sided ideal of codimension s^2.  M1 has dimension one
    per cycle vertex; the s^2-dimensional cycle-quotient module is s copies
    of it and has the same annihilator."""
    from .representation import annihilator_basis, cycle_module  # representation imports this module

    cycle = find_simple_cycle(quiver)
    s = len(cycle)
    effective_window = max(window, (codim_bound + 2) * s)
    # The winding indicator; on the one-loop quiver, evaluation at one.
    loop = len(quiver.arrows) == len(quiver.vertices) == 1
    witness = Functional.from_rule(quiver, *(("eval", field.one) if loop else ("winding_multiple", tuple(cycle))), field)
    codimension = len(annihilator_basis(cycle_module(quiver, field), field))
    # M1_p is the same on the winding paths of one class (start, length mod
    # s) and zero off them: the witness is read once per path of W, the
    # winding paths of the window, and compared with its class.
    table = winding_paths(quiver, cycle, effective_window)
    values = {key: witness(p) for key, p in table.items()}
    if any(value != values[n, k % s] for (n, k), value in values.items()):
        raise AssertionError("witness does not vanish on the counterexample ideal")
    # A partial re-check: the witness must vanish on the monomial generators
    # and on each one-arrow exit of W, not on every path off W.  That it does
    # follows from the ``winding_multiple`` rule, which accepts only paths
    # that start on the cycle and follow it; the tests scan every path off W.
    # An arrow a off W meets the paths of W that end at s(a) or start at
    # t(a); its products with the others are zero.
    winding, on_cycle = list(table.values()), {a.source for a in cycle}
    off = ([quiver.vertex_path(v) for v in quiver.vertices if v not in on_cycle]
           + [Path(quiver, None, (a,)) for a in quiver.arrows if a not in cycle])
    starts, ends = endpoint_buckets(winding)
    exits = [compose_paths(*pair) for a in off if a.length
             for pair in [(winding[i], a) for i in ends.get(a.source, ())]
             + [(a, winding[i]) for i in starts.get(a.target, ())]
             if pair[0].length + pair[1].length <= effective_window]
    if any(witness(p) for p in off + exits):
        raise AssertionError("witness does not vanish off the cycle")
    # A support path of length L has L + 1 distinct prefixes, all in the
    # support's subpath closure.
    if max((k for (_, k), value in values.items() if value), default=-1) + 1 <= codim_bound:
        raise AssertionError("witness support closure unexpectedly small")
    why = ("cycle found: the winding indicator lies in the finite dual "
           f"(kernel contains a cofinite ideal of codimension {codimension}) "
           "but admits no cofinite monomial ideal up to the bound")
    return Verdict("no_up_to_bound", witness, why, {
        "recovered": False,
        "explanation": why,
        "witness": witness.describe(),
        "witness_monomial_verdict": "no_up_to_bound",
    })


# ---------------------------------------------------------------------------
# Tensor products of structured algebras (ideal bookkeeping for tests).
# ---------------------------------------------------------------------------


def tensor_structured(a: StructuredAlgebra, b: StructuredAlgebra) -> StructuredAlgebra:
    basis = [(x, y) for x in a.basis for y in b.basis]
    mult = {}
    for (x1, x2) in basis:
        for (y1, y2) in basis:
            left = a.basis_product(x1, y1)
            right = b.basis_product(x2, y2)
            if left.is_zero() or right.is_zero():
                continue
            acc = {}
            for lx, cx in left.items():
                for ly, cy in right.items():
                    acc[(lx, ly)] = cx * cy
            mult[((x1, x2), (y1, y2))] = SparseVector(acc)
    idempotents = [(e, f) for e in a.idempotents for f in b.idempotents]
    return StructuredAlgebra(basis, mult, idempotents, a.field, name=f"{a.name}(x){b.name}", validate=False)


def two_sided_ideal_closure(algebra: StructuredAlgebra, seeds) -> list[SparseVector]:
    """Span of the two-sided ideal generated by the seed vectors: each round
    multiplies only the rows new to the span by every basis unit on both
    sides."""
    units = [SparseVector({b: algebra.field.one}) for b in algebra.basis]

    def products(vec):
        for unit in units:
            yield algebra.product(unit, vec)
            yield algebra.product(vec, unit)

    return _closed_span(list(seeds), products, algebra.field)


def tensor_slice_ideals(a: StructuredAlgebra, b: StructuredAlgebra, h_basis) -> tuple:
    """The ideals I = {x : x⊗B ⊆ H} and J = {y : A⊗y ⊆ H} of a tensor ideal."""
    reduce = reducer(rref(list(h_basis), a.field))
    one = a.field.one

    def residual_i(x_label):
        acc = {}
        for j, y in enumerate(b.basis):
            vec = SparseVector({(x_label, y): one})
            residue = reduce(vec)
            for lab, c in residue.items():
                acc[(j, lab)] = c
        return SparseVector(acc)

    def residual_j(y_label):
        acc = {}
        for i, x in enumerate(a.basis):
            vec = SparseVector({(x, y_label): one})
            residue = reduce(vec)
            for lab, c in residue.items():
                acc[(i, lab)] = c
        return SparseVector(acc)

    ideal_i = kernel_of_map(list(a.basis), residual_i, a.field)
    ideal_j = kernel_of_map(list(b.basis), residual_j, b.field)
    return ideal_i, ideal_j
