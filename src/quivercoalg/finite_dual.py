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

from dataclasses import dataclass
from typing import Optional

from .algebra import subpath_closure
from .coalgebra import CoalgElement, check_coalgebra
from .dual import Functional
from .linalg import (
    SparseVector,
    _integers,
    _modulus,
    _nonzero,
    kernel_of_map,
    rank,
    reducer,
    rref,
)
from .quiver import Family, Path, Quiver, Verdict, check_recovery_condition, enumerate_paths, horizon_verdict, is_acyclic
from .scalars import QQ


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
        one = self.field.one
        for e in self.idempotents:
            for f in self.idempotents:
                expected = SparseVector({e: one}) if e == f else SparseVector()
                if self.basis_product(e, f) != expected:
                    raise ValueError(f"idempotents {e!r},{f!r} are not orthogonal idempotents")
        # The structure constants as integers over one scale M, so every
        # product of two basis elements is table[a, b] / M and both sides of
        # each identity below carry the same scale.
        entries = {(pair, label): c for pair, vec in self.mult.items() for label, c in vec.items()}
        p = _modulus(entries.values(), self.field)
        scale, ints = _integers(entries, p)
        table: dict = {}
        for (pair, label), c in ints.items():
            table.setdefault(pair, {})[label] = c
        empty: dict = {}
        units = dict.fromkeys(self.idempotents)
        for b in self.basis:
            for pairs in ([(e, b) for e in units], [(b, e) for e in units]):
                sums = {b: -scale}
                for pair in pairs:
                    for label, c in table.get(pair, empty).items():
                        sums[label] = sums.get(label, 0) + c
                if _nonzero(sums, p):
                    raise ValueError("idempotent system is not complete")
        # a(bc) vanishes unless bc is a stored product, and (ab)c unless lc is
        # for some label l of ab; only those triples are checked, in the order
        # of a full scan.
        right_factors = {b: [c for c in self.basis if (b, c) in self.mult] for b in self.basis}
        position = {b: i for i, b in enumerate(self.basis)}
        for a in self.basis:
            for b in self.basis:
                ab = table.get((a, b), empty)
                factors = right_factors[b]
                if (a, b) in self.mult:
                    factors = set(factors).union(*(right_factors[label] for label in self.mult[a, b].labels()))
                    factors = sorted(factors, key=position.__getitem__)
                for c in factors:
                    sums = {}
                    for label, x in ab.items():
                        for k, y in table.get((label, c), empty).items():
                            sums[k] = sums.get(k, 0) + x * y
                    for label, x in table.get((b, c), empty).items():
                        for k, y in table.get((a, label), empty).items():
                            sums[k] = sums.get(k, 0) - x * y
                    if _nonzero(sums, p):
                        raise ValueError(f"multiplication not associative at ({a},{b},{c})")

    def __repr__(self):
        return f"StructuredAlgebra({self.name or len(self.basis)})"


def structured_from_quiver(quiver: Quiver, field=QQ) -> StructuredAlgebra:
    """The quiver algebra of a finite acyclic quiver as structure constants."""
    if not is_acyclic(quiver):
        raise ValueError("only acyclic quivers give finite-dimensional quiver algebras")
    enum = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1))
    mult = {}
    path_set = set(enum.paths)
    from .quiver import compose_paths

    for p in enum.paths:
        for q in enum.paths:
            pq = compose_paths(p, q)
            if pq is not None:
                if pq not in path_set:
                    raise AssertionError("exhaustive enumeration is not closed; bug")
                mult[(p, q)] = SparseVector({pq: field.one})
    idempotents = [quiver.vertex_path(v) for v in quiver.vertices]
    return StructuredAlgebra(
        enum.paths, mult, idempotents, field, name=f"K[{quiver.name or 'quiver'}]", validate=False
    )


class DualCoalgebra:
    """Coalgebra structure on the dual of a StructuredAlgebra.

    The comultiplication table transposes multiplication: the dual basis
    vector of b splits as the sum of x* ⊗ y* weighted by the coefficient of
    b in xy.  The counit evaluates at the sum of the idempotents.
    """

    def __init__(self, algebra: StructuredAlgebra, validate=True):
        self.algebra = algebra
        terms = {b: [] for b in algebra.basis}
        for pair, vec in algebra.mult.items():
            for b, coeff in vec.items():
                terms[b].append((pair, coeff))
        self.delta_table = {b: SparseVector(bterms) for b, bterms in terms.items()}
        self.counit_table = {
            b: (algebra.field.one if b in algebra.idempotents else algebra.field.zero)
            for b in algebra.basis
        }
        if validate:
            self._validate()

    def comultiply(self, functional: SparseVector) -> SparseVector:
        return SparseVector(
            (pair, c * coeff)
            for b, coeff in functional.items()
            for pair, c in self.delta_table[b].items()
        )

    def counit(self, functional: SparseVector):
        total = self.algebra.field.zero
        for b, coeff in functional.items():
            total = total + self.counit_table[b] * coeff
        return total

    def _validate(self):
        failure = check_coalgebra(
            self.algebra.basis, self.delta_table.__getitem__, self.counit_table.__getitem__
        )
        if failure is None:
            return
        law, b = failure
        if law == "coassociativity":
            raise ValueError(f"dual comultiplication not coassociative at {b!r}")
        raise ValueError(f"counit law fails at {b!r}")


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
    """Largest two-sided ideal contained in the kernel of a functional.

    Iteratively shrinks the kernel: at each stage keep the vectors whose
    products with every basis element stay in the current stage.
    """
    one = algebra.field.one
    units = [SparseVector({b: one}) for b in algebra.basis]

    def kernel_of_functional():
        return kernel_of_map(
            list(algebra.basis),
            lambda b: SparseVector({"val": functional.coeff(b)}),
            algebra.field,
        )

    current = kernel_of_functional()
    while True:
        stage = list(current)
        reduce = reducer(stage)

        def image_of(idx):
            vec = stage[idx]
            acc = {}
            for slot, unit in enumerate(units):
                left = algebra.product(unit, vec)
                right = algebra.product(vec, unit)
                for tag, product in (("l", left), ("r", right)):
                    residue = reduce(product)
                    for lab, c in residue.items():
                        acc[(tag, slot, lab)] = c
            return SparseVector(acc)

        combos = kernel_of_map(range(len(stage)), image_of, algebra.field)
        refined = rref(
            [
                SparseVector(
                    (label, c * coeff) for idx, coeff in combo.items() for label, c in stage[idx].items()
                )
                for combo in combos
            ]
        )
        if refined == current:
            return refined
        current = refined


def is_in_finite_dual(f, target, codim_bound: int = 10, window: int = 12) -> Verdict:
    """Membership in the finite dual, with an explicit witness ideal.

    Finite-dimensional structured algebras: always yes; the witness is the
    maximal two-sided ideal inside the kernel.  The loop family with an
    evaluation rule: yes, witnessed by the principal ideal generated by
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
        v = quiver.vertex_path("v")
        x = quiver.arrow_path("x")
        field = f.field
        generator = CoalgElement.from_path(x, field) - CoalgElement.from_path(v, field).scale(lam)
        failures = []
        for n in range(window):
            power_next = _loop_power(quiver, n + 1)
            power = _loop_power(quiver, n)
            value = f(power_next) - lam * f(power)
            if value:
                failures.append(n)
        if failures:
            raise AssertionError("evaluation functional does not kill the witness ideal")
        return Verdict(
            "yes",
            witness={"generator": generator, "window": window},
            explanation="kernel contains the cofinite ideal generated by (x - lambda*v)",
        )
    raise ValueError("unsupported membership query")


def _loop_power(quiver: Quiver, n: int) -> Path:
    if n == 0:
        return quiver.vertex_path("v")
    arrow = quiver.arrow_by_label["x"]
    return Path(quiver, None, (arrow,) * n)


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
    if window is None:
        if not is_acyclic(quiver):
            raise ValueError("cyclic quiver: supply a window")
        window = max(0, len(quiver.vertices) - 1)
    enum = enumerate_paths(quiver, window)
    complement = subpath_closure([p for p in enum.paths if f(p)])
    fits = len(complement) <= codim_bound
    # An exhaustive enumeration sees the whole (finite) support, so its
    # closure is a witness whatever its size.
    why = "reaches the window horizon" if fits else "exceeds the codimension bound"
    return horizon_verdict(
        fits or enum.exhaustive, enum.exhaustive, complement, window, because, f"support subpath-closure {why}"
    )


@dataclass
class RecoveryReport:
    recovered: bool
    dimension: Optional[int] = None
    witness: Optional[Functional] = None
    witness_verdict: Optional[Verdict] = None
    explanation: str = ""

    def __bool__(self):
        return self.recovered


def winding_multiple_indicator(quiver: Quiver, cycle_arrows, field=QQ) -> Functional:
    """Indicator of the winding paths whose length is a multiple of the
    cycle length; vanishes off the cycle.  For the one-loop quiver this is
    the evaluation at one."""
    s = len(cycle_arrows)
    if s == 1 and len(quiver.arrows) == 1 and len(quiver.vertices) == 1:
        return Functional.from_rule(quiver, "eval", field.one, field)
    cycle_ids = [a.ident for a in cycle_arrows]
    start_of = {a.source: n for n, a in enumerate(cycle_arrows)}

    def holds(path: Path) -> bool:
        if path.length % s != 0:
            return False
        if path.length == 0:
            return path.vertex in start_of
        n = start_of.get(path.source)
        if n is None:
            return False
        for offset, arrow in enumerate(path.arrows):
            if arrow.ident != cycle_ids[(n + offset) % s]:
                return False
        return True

    return Functional.from_rule(quiver, "predicate", ("winding-multiple", holds), field)


def theta_recovery_check(target, codim_bound: int = 10, window: int = 12, field=QQ) -> RecoveryReport:
    """Decides whether the coordinate embedding recovers the path coalgebra.

    Acyclic finite quivers: yes, with the dimension count.  Cyclic quivers
    (or the loop/cycle families): no; the witness is the winding-path
    indicator, which lies in the finite dual (its kernel contains the
    explicit cofinite counterexample ideal) yet no cofinite monomial ideal
    fits inside its kernel up to the bound.
    """
    if isinstance(target, Family):
        if not target.facts.acyclic:
            quiver = target.truncate(window)
            return _cyclic_recovery_report(quiver, codim_bound, window, field)
        verdict = check_recovery_condition(target)
        return RecoveryReport(bool(verdict), explanation=verdict.explanation)
    quiver: Quiver = target
    if is_acyclic(quiver):
        enum = enumerate_paths(quiver, max(0, len(quiver.vertices) - 1))
        dim = len(enum.paths)
        vectors = [SparseVector.unit(p) for p in enum.paths]
        if rank(vectors) != dim:
            raise AssertionError("coordinate functionals are not independent; bug")
        return RecoveryReport(True, dimension=dim, explanation="acyclic: dimensions match and the embedding is injective")
    return _cyclic_recovery_report(quiver, codim_bound, window, field)


def _cyclic_recovery_report(quiver: Quiver, codim_bound: int, window: int, field) -> RecoveryReport:
    from .algebra import build_cycle_counterexample
    from .quiver import find_simple_cycle

    cycle = find_simple_cycle(quiver)
    s = len(cycle)
    effective_window = max(window, (codim_bound + 2) * s)
    witness = winding_multiple_indicator(quiver, cycle, field)
    counterexample = build_cycle_counterexample(quiver, effective_window, field)
    for element in counterexample.difference_generators:
        if witness.evaluate_element(element):
            raise AssertionError("witness does not vanish on the counterexample ideal")
    for p in counterexample.monomial_part:
        if witness(p):
            raise AssertionError("witness does not vanish off the cycle")
    enum = enumerate_paths(quiver, effective_window)
    support = [p for p in enum.paths if witness(p)]
    complement = subpath_closure(support)
    if len(complement) <= codim_bound:
        raise AssertionError("witness support closure unexpectedly small")
    verdict = Verdict(
        "no_up_to_bound",
        explanation="the winding indicator has unbounded support along the cycle",
    )
    return RecoveryReport(
        False,
        witness=witness,
        witness_verdict=verdict,
        explanation=(
            "cycle found: the winding indicator lies in the finite dual "
            f"(kernel contains a cofinite ideal of codimension {counterexample.codimension}) "
            "but admits no cofinite monomial ideal up to the bound"
        ),
    )


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
    """Span of the two-sided ideal generated by the seed vectors."""
    one = algebra.field.one
    current = rref(list(seeds))
    while True:
        extended = list(current)
        for vec in current:
            for b in algebra.basis:
                basis_vec = SparseVector({b: one})
                extended.append(algebra.product(basis_vec, vec))
                extended.append(algebra.product(vec, basis_vec))
        refined = rref(extended)
        if len(refined) == len(current):
            return refined
        current = refined


def tensor_slice_ideals(a: StructuredAlgebra, b: StructuredAlgebra, h_basis) -> tuple:
    """The ideals I = {x : x⊗B ⊆ H} and J = {y : A⊗y ⊆ H} of a tensor ideal."""
    reduce = reducer(rref(list(h_basis)))
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
