"""Named verification suites: each check runs one acceptance property end
to end, exactly, and reports what it verified.

All randomness is seeded; reports are deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cache
from math import comb

from . import corpus
from .algebra import (
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    bialgebra_check,
    contains_cofinite_monomial_ideal,
    multiply,
)
from .coalgebra import (
    CoalgElement,
    basis_tables,
    check_coalgebra,
    check_morphism,
    linear_extension,
    subcoalgebra_closure,
)
from .dual import Functional, gamma_membership, is_rational_left, psi_embed, reflexivity_verdict
from .finite_dual import is_in_theta_image, theta_recovery_check
from .incidence import (
    hasse_quiver,
    incidence_dual_recovery_check,
    incidence_semiperfect_check,
    phi_image_check,
)
from .linalg import SparseVector, det2, mat_mul, solve_membership
from .quiver import (
    Family,
    Quiver,
    check_recovery_clause_equivalence,
    check_recovery_condition,
    check_semiperfect_condition,
    disjoint_union,
    enumerate_paths,
    is_acyclic,
)
from .products import (
    LatticeWalk,
    TensorProduct,
    alpha_table,
    decompose_product_path,
    factor_perp_element,
    lattice_walks,
    product_quiver,
    saturate_subcoalgebra,
    star_perp_factorization,
    star_truncation_basis,
    walk_path,
)
from .representation import (
    PathAction,
    comodule_from_module,
    cycle_quotient_module,
    is_locally_nilpotent,
    module_from_comodule,
)
from .finite_dual import dual_coalgebra
from .scalars import QQ


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = dc_field(default_factory=dict)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {body}"


def check_coalgebra_axioms(seed: int = 0) -> CheckReport:
    """Coassociativity and both counit laws, for path coalgebras on seeded
    random quivers and for incidence coalgebras on seeded random posets.
    The laws are checked on the support of each random element, which by
    linearity covers the element itself."""
    rng = random.Random(seed)
    quiver_cases = 0
    for _ in range(100):
        quiver = corpus.random_quiver(rng, 6, 10)
        delta, eps = basis_tables(quiver)
        delta = cache(delta)
        for _ in range(3):
            element = corpus.random_element(rng, quiver, 5)
            failure = check_coalgebra(element.combo.labels(), delta, eps)
            if failure is not None:
                law = "coassociativity" if failure[0] == "coassociativity" else "counit law"
                return CheckReport("coalgebra-axioms", False, {"failure": f"{law} on {quiver}"})
            quiver_cases += 1
    poset_cases = 0
    for _ in range(100):
        poset = corpus.random_poset(rng, 8)
        intervals = poset.intervals()
        combo = SparseVector(
            (rng.choice(intervals), corpus.random_scalar(rng)) for _ in range(rng.randint(1, 3))
        )
        failure = check_coalgebra(combo.labels(), *basis_tables(poset))
        if failure is not None:
            law = "coassociativity" if failure[0] == "coassociativity" else "counit law"
            return CheckReport("coalgebra-axioms", False, {"failure": f"incidence {law} on {poset}"})
        poset_cases += 1
    return CheckReport(
        "coalgebra-axioms", True, {"quiver_elements": quiver_cases, "posets": poset_cases}
    )


def check_bialgebra_criterion() -> CheckReport:
    """Exhaustive agreement of the compatibility test with the structural
    criterion over all quivers with at most 3 vertices and 3 arrows."""
    total = 0
    compatible_count = 0
    for quiver in corpus.enumerate_small_quivers(3, 3):
        total += 1
        if bialgebra_check(quiver):  # raises on any disagreement
            compatible_count += 1
    return CheckReport(
        "bialgebra-criterion", True, {"quivers": total, "compatible": compatible_count}
    )


def check_theta_image(seed: int = 0) -> CheckReport:
    """On random acyclic quivers, finite-support functionals are exactly the
    coordinate functionals: verdicts come with subpath-closed complements
    and the reconstruction identity is verified on every path."""
    from .algebra import is_subpath_closed

    rng = random.Random(seed)
    quivers = 0
    functionals = 0
    for _ in range(50):
        quiver = corpus.random_acyclic_quiver(rng, 5, 6)
        paths = quiver.basis()
        candidates = [psi_embed(corpus.random_element(rng, quiver, 4))]
        candidates.append(Functional.dual_of_path(rng.choice(paths)))
        for f in candidates:
            verdict = is_in_theta_image(f, quiver)
            if not verdict:
                return CheckReport("theta-image", False, {"failure": f"finite support rejected on {quiver}"})
            complement = verdict.witness
            if not is_subpath_closed(complement):
                return CheckReport("theta-image", False, {"failure": "complement not subpath-closed"})
            comp_set = set(complement)
            # The witness monomial ideal is spanned by the paths outside the
            # complement; the functional must vanish on every one of them.
            for p in paths:
                if p not in comp_set and f(p):
                    return CheckReport("theta-image", False, {"failure": "functional nonzero on the witness ideal"})
            functionals += 1
        quivers += 1
    return CheckReport("theta-image", True, {"quivers": quivers, "functionals": functionals})


def check_recovery_clauses() -> CheckReport:
    """The shared value of the two path-finiteness clauses on all small
    quivers (up to 4 vertices, 3 arrows)."""
    total = 0
    for quiver in corpus.enumerate_small_quivers(4, 3):
        check_recovery_clause_equivalence(quiver)
        total += 1
    return CheckReport("recovery-clauses", True, {"quivers": total})


def check_theta_recovery() -> CheckReport:
    """The coordinate embedding is onto exactly for acyclic finite quivers;
    cyclic ones get the winding-indicator witness with a bounded no-verdict."""
    acyclic_checked = 0
    for quiver in corpus.acyclic_corpus():
        report = theta_recovery_check(quiver)
        if not report or report.data["dimension"] != len(quiver.basis()):
            return CheckReport("theta-recovery", False, {"failure": f"acyclic case {quiver.name}"})
        acyclic_checked += 1
    cyclic_targets = [Family("loop"), Family("cycle", 2), Family("cycle", 3)]
    cyclic_targets += [corpus.named_quiver(n) for n in ("two_loops", "loop_with_tail")]
    cyclic_checked = 0
    loop_witness = None
    for target in cyclic_targets:
        report = theta_recovery_check(target, codim_bound=10)
        if report:
            return CheckReport("theta-recovery", False, {"failure": f"cyclic case {target}"})
        if report.data["witness_monomial_verdict"] != "no_up_to_bound":
            return CheckReport("theta-recovery", False, {"failure": "witness verdict not bounded-no"})
        if target == Family("loop"):
            loop_witness = report.witness.describe()
        cyclic_checked += 1
    return CheckReport(
        "theta-recovery",
        True,
        {"acyclic": acyclic_checked, "cyclic": cyclic_checked, "loop_witness": loop_witness},
    )


def check_counterexample_ideals() -> CheckReport:
    """The explicit cofinite ideals without cofinite monomial subideals:
    winding differences on cycles (observed codimension s^2, verified
    product identities) and arrow differences on the parallel bundle."""
    details = {}
    for s in (1, 2, 3):
        quiver = Family("cycle", s).truncate(0)
        ce = build_cycle_counterexample(quiver, 4 * s)
        if ce.codimension != s * s:
            return CheckReport(
                "counterexample-ideals", False, {"failure": f"codimension {ce.codimension} != {s*s}"}
            )
        verdict = contains_cofinite_monomial_ideal(ce.ideal_generators(), quiver, 4 * s, 10)
        if verdict.status != "no_up_to_bound":
            return CheckReport("counterexample-ideals", False, {"failure": f"monomial verdict {verdict.status}"})
        gens = ce.ideal_generators()
        probe = quiver.vertex_path(quiver.vertices[0])
        if solve_membership(SparseVector.unit(probe), gens) is not None:
            return CheckReport("counterexample-ideals", False, {"failure": "winding path fell into the ideal"})
        details[f"cycle{s}_identities"] = ce.identities_checked
    ma = build_multiarrow_counterexample(Family("multiarrow"), 5)
    if ma.codimension != 3:
        return CheckReport("counterexample-ideals", False, {"failure": f"multiarrow codim {ma.codimension}"})
    details["multiarrow_identities"] = ma.identities_checked
    return CheckReport("counterexample-ideals", True, details)


def check_rational_part() -> CheckReport:
    """Rational-part recovery: on finite acyclic quivers every dual-basis
    functional gets a verified certificate and the coordinate embedding
    fills the whole dual; on the bounded line family the starts-at witness
    gets the infinite-support certificate, verified through the window."""
    duals_certified = 0
    for name in ("point", "single_arrow", "line3", "line4", "diamond", "parallel_pair", "star_out", "branching"):
        quiver = corpus.named_quiver(name)
        paths = quiver.basis()
        for p in paths:
            verdict = is_rational_left(Functional.dual_of_path(p), quiver)
            if verdict.status != "yes" or verdict.witness.infinite_support:
                return CheckReport("rational-part", False, {"failure": f"{p} on {name}"})
            duals_certified += 1
        # Dual-basis functionals of distinct paths are independent; the
        # enumeration lists each path once, and this guards it.
        if len(set(paths)) != len(paths):
            return CheckReport("rational-part", False, {"failure": f"dimension mismatch on {name}"})
    family = Family("line1")
    witness = Functional.from_rule(family, "starts_at", "v3")
    verdict = is_rational_left(witness, family, 10)
    if verdict.status != "yes" or not verdict.witness.infinite_support:
        return CheckReport("rational-part", False, {"failure": f"line family verdict {verdict.status}"})
    return CheckReport(
        "rational-part",
        True,
        {"duals_certified": duals_certified, "line_certificate_members": len(verdict.witness.elements)},
    )


def check_unique_path_embedding() -> CheckReport:
    """Exhaustively over all posets with at most five elements: the
    interval-to-paths map is an injective coalgebra morphism, surjective
    exactly when the Hasse quiver has unique paths."""
    from .incidence import phi_table

    posets = corpus.enumerate_posets_up_to_iso(5)
    agreements = 0
    for poset in posets:
        quiver = hasse_quiver(poset)
        phi_of = phi_table(poset)
        phi = {interval: phi_of(interval) for interval in poset.intervals()}
        delta, eps = basis_tables(poset)
        hasse_delta, hasse_eps = basis_tables(quiver)
        failure = check_morphism(phi, phi.__getitem__, delta, hasse_delta, eps, hasse_eps)
        if failure is not None:
            if failure[0] == "comultiplication":
                return CheckReport("unique-path-embedding", False, {"failure": f"not a coalgebra morphism on {poset}"})
            return CheckReport("unique-path-embedding", False, {"failure": f"counit mismatch on {poset}"})
        image = phi_image_check(poset)
        if not image.data["injective"]:
            return CheckReport("unique-path-embedding", False, {"failure": f"not injective on {poset}"})
        if not image:
            return CheckReport("unique-path-embedding", False, {"failure": f"surjectivity mismatch on {poset}"})
        agreements += 1
    return CheckReport("unique-path-embedding", True, {"posets": agreements})


def check_incidence_recovery() -> CheckReport:
    """The incidence coalgebra is the finite dual of the finite-support
    incidence algebra, on every corpus poset."""
    dims = []
    for poset in corpus.poset_corpus():
        report = incidence_dual_recovery_check(poset)
        if not report:
            return CheckReport("incidence-recovery", False, {"failure": f"{poset.name}: {report.explanation}"})
        dims.append(report.data["dimension"])
    return CheckReport("incidence-recovery", True, {"posets": len(dims), "total_dimension": sum(dims)})


def check_incidence_rational_part() -> CheckReport:
    """Semiperfectness certificates on finite chains and the diamond, and
    the two infinite poset families with opposite verdicts."""
    certified = 0
    for name in ("chain1", "chain2", "chain3", "chain4", "chain5", "diamond"):
        poset = corpus.named_poset(name)
        report = incidence_semiperfect_check(poset)
        if not report:
            return CheckReport("incidence-rational-part", False, {"failure": name})
        certified += len(report.witness)
    chain = incidence_semiperfect_check(Family("natchain"))
    antichain = incidence_semiperfect_check(Family("natantichain"))
    if chain or not antichain:
        return CheckReport("incidence-rational-part", False, {"failure": "family verdicts"})
    return CheckReport("incidence-rational-part", True, {"certificates": certified})


def check_walk_embedding(seed: int = 0) -> CheckReport:
    """Lattice-walk counts, the shuffle embedding as an exact coalgebra
    morphism, its injectivity via staircase functionals, and the
    interleaving/decomposition round trip."""
    for n in range(7):
        for k in range(7):
            if len(lattice_walks(n, k)) != comb(n + k, k):
                return CheckReport("walk-embedding", False, {"failure": f"count at ({n},{k})"})
    rng = random.Random(seed)
    morphism_cases = 0
    injectivity_cases = 0
    for _ in range(100):
        left = corpus.random_quiver(rng, 4, 5)
        right = corpus.random_quiver(rng, 4, 5)
        product = product_quiver(left, right)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            pair = (corpus.random_path(rng, left, 3), corpus.random_path(rng, right, 3))
            coeff = corpus.random_scalar(rng)
            terms.setdefault(pair, coeff or QQ.one)
        tensor = SparseVector(terms)
        support = list(terms)
        alpha = cache(alpha_table(product))  # the walks and rows of this product, each built once
        embedded = linear_extension(alpha, tensor)
        tensor_delta, tensor_eps = basis_tables(TensorProduct(left, right))
        product_delta, product_eps = basis_tables(product)
        failure = check_morphism(support, alpha, tensor_delta, product_delta, tensor_eps, product_eps)
        if failure is not None:
            return CheckReport("walk-embedding", False, {"failure": f"{failure[0]} does not commute"})
        morphism_cases += 1
        # Staircase functionals recover each tensor coefficient.
        for (p, q) in support:
            staircase = LatticeWalk(("R",) * p.length + ("U",) * q.length)
            target = walk_path(p, q, staircase, product)
            if embedded.coeff(target) != tensor.coeff((p, q)):
                return CheckReport("walk-embedding", False, {"failure": "staircase functional mismatch"})
            injectivity_cases += 1
    roundtrips = 0
    for left_name, right_name in (("single_arrow", "single_arrow"), ("line3", "line3")):
        left = corpus.named_quiver(left_name)
        right = Quiver([v + "'" for v in corpus.named_quiver(right_name).vertices],
                       [(a.label + "'", a.source + "'", a.target + "'") for a in corpus.named_quiver(right_name).arrows],
                       name=right_name + "'")
        product = product_quiver(left, right)
        for gamma in product.basis():
            p, q, walk = decompose_product_path(gamma)
            if walk_path(p, q, walk, product) != gamma:
                return CheckReport("walk-embedding", False, {"failure": "round trip broke"})
            roundtrips += 1
        right_paths = right.basis()
        for p in left.basis():
            for q in right_paths:
                for walk in lattice_walks(p.length, q.length):
                    gamma = walk_path(p, q, walk, product)
                    if decompose_product_path(gamma) != (p, q, walk):
                        return CheckReport("walk-embedding", False, {"failure": "inverse round trip broke"})
                    roundtrips += 1
    return CheckReport(
        "walk-embedding",
        True,
        {"morphism_cases": morphism_cases, "staircase_checks": injectivity_cases, "roundtrips": roundtrips},
    )


def check_perp_factorization(seed: int = 0) -> CheckReport:
    """Constructive perp factorization on seeded acyclic instances: grow a
    random subcoalgebra, saturate it, and split a random functional
    vanishing on the result into two convolution products, exactly."""
    rng = random.Random(seed)
    instances = 0
    paths_checked = 0
    while instances < 25:
        quiver = corpus.random_acyclic_quiver(rng, 5, 6)
        element = corpus.random_element(rng, quiver, 3)
        if element.is_zero():
            continue
        closure = subcoalgebra_closure([element])
        saturation = saturate_subcoalgebra(closure, quiver)
        paths = quiver.basis()
        outside = [p for p in paths if not saturation.contains_path(p)]
        values = {p: corpus.random_scalar(rng) for p in outside}
        eta = Functional(quiver, support=SparseVector(values))
        # The window of the longest path holds every path.
        witness = factor_perp_element(eta, saturation, paths[-1].length)
        instances += 1
        paths_checked += witness.checked_paths
    return CheckReport("perp-factorization", True, {"instances": instances, "paths_checked": paths_checked})


def check_star_factorization(seed: int = 0) -> CheckReport:
    """Rank-1 splittings on the single-arrow star: for protected stages 1
    and 2, ten random functionals each; the displayed 2x2 matrix equation
    and the global convolution identity are verified exactly."""
    rng = random.Random(seed)
    runs = 0
    for n in (1, 2):
        truncation = 6
        quiver = Family("star56").truncate(truncation)
        protected = set(star_truncation_basis(quiver, n))
        all_paths = star_truncation_basis(quiver, truncation)
        for _ in range(10):
            values = {p: corpus.random_scalar(rng) for p in all_paths if p not in protected}
            eta = Functional(quiver, support=SparseVector(values))
            witness = star_perp_factorization(n, truncation, eta)
            for k in range(n + 1, truncation + 1):
                b = quiver.vertex_path(f"b{k}")
                x = quiver.arrow_path(f"x{k}")
                y = quiver.arrow_path(f"y{k}")
                xy = quiver.path_from_labels([f"x{k}", f"y{k}"])
                matrix = ((eta(b), eta(y)), (eta(x), eta(xy)))
                for g, h in witness.pairs():
                    summand = ((g(b) * h(b), g(b) * h(y)), (g(x) * h(b), g(x) * h(y)))
                    if det2(summand):
                        return CheckReport("star-factorization", False, {"failure": "summand rank exceeds one"})
                total = tuple(
                    tuple(
                        witness.f1(p1) * witness.g1(p2) + witness.f2(p1) * witness.g2(p2)
                        for p2 in (b, y)
                    )
                    for p1 in (b, x)
                )
                expected = ((matrix[0][0], matrix[0][1]), (matrix[1][0], matrix[1][1]))
                if any(total[i][j] - expected[i][j] for i in range(2) for j in range(2)):
                    return CheckReport("star-factorization", False, {"failure": f"matrix equation at k={k}"})
            runs += 1
    return CheckReport("star-factorization", True, {"runs": runs})


def check_cycle_quotient() -> CheckReport:
    """The cycle-quotient modules: dimension n^2, failure of local
    nilpotence with agreeing annihilator verdicts, and no cofinite monomial
    ideal inside the defining relations."""
    details = {}
    for n in (1, 2, 3):
        rep = cycle_quotient_module(n)
        if rep.total_dimension() != n * n:
            return CheckReport("cycle-quotient", False, {"failure": f"dimension at n={n}"})
        nil = is_locally_nilpotent(rep)
        if nil:
            return CheckReport("cycle-quotient", False, {"failure": f"unexpected nilpotence at n={n}"})
        path, vector = nil.witness
        image = (vector,)
        for a in path.arrows:
            image = mat_mul(image, rep.maps[a.label])
        if not any(image[0]):
            return CheckReport("cycle-quotient", False, {"failure": f"witness path {path} kills its vector at n={n}"})
        total, action = rep.total_dimension(), PathAction(rep)
        if any(action.monomial_check(tuple(QQ.one if j == i else QQ.zero for j in range(total))).status != "no"
               for i in range(total)):
            return CheckReport("cycle-quotient", False, {"failure": f"annihilator verdicts disagree at n={n}"})
        if n == 1:
            if rep.maps["x0"] != ((QQ.one,),):
                return CheckReport("cycle-quotient", False, {"failure": "loop action is not the identity"})
        quiver = rep.quiver
        window = 3 * n if n > 1 else 6
        enum = enumerate_paths(quiver, window)
        # Defining relations: every full turn equals the local unit at its
        # base vertex.  (Subtracting the global unit instead would make the
        # ideal improper for n >= 2.)
        relation_gens = []
        full_turns = [p for p in enum.paths if p.length == n]
        shorts = [p for p in enum.paths if p.length + n <= window]
        for turn in full_turns:
            generator = CoalgElement.from_path(turn) - CoalgElement.from_path(
                quiver.vertex_path(turn.source)
            )
            for r in shorts:
                left = multiply(CoalgElement.from_path(r), generator)
                if left.is_zero():
                    continue
                for s in shorts:
                    if r.length + n + s.length > window:
                        continue
                    product = multiply(left, CoalgElement.from_path(s))
                    if not product.is_zero():
                        relation_gens.append(product.combo)
        verdict = contains_cofinite_monomial_ideal(relation_gens, quiver, window, 10)
        if verdict.status != "no_up_to_bound":
            return CheckReport("cycle-quotient", False, {"failure": f"relations ideal verdict {verdict.status}"})
        details[f"n{n}_dim"] = rep.total_dimension()
    return CheckReport("cycle-quotient", True, details)


def check_dual_coalgebra_axioms(seed: int = 0) -> CheckReport:
    """Dual coalgebras of random structured algebras satisfy the coalgebra
    axioms, and module -> comodule -> module is the identity."""
    rng = random.Random(seed)
    algebras = 0
    roundtrips = 0
    for _ in range(50):
        algebra = corpus.random_structured_algebra(rng)
        dual_coalgebra(algebra)  # validates coassociativity + counit laws
        algebras += 1
    for _ in range(50):
        algebra = corpus.random_structured_algebra(rng)
        module = corpus.random_left_module(rng, algebra)
        coaction = comodule_from_module(module)  # the coaction the module's check passed
        back = module_from_comodule(coaction)
        for b in algebra.basis:
            if back.action[b] != module.action[b]:
                return CheckReport("dual-coalgebra-axioms", False, {"failure": "round trip changed the action"})
        roundtrips += 1
    return CheckReport("dual-coalgebra-axioms", True, {"algebras": algebras, "module_roundtrips": roundtrips})


def check_reflexivity_closure() -> CheckReport:
    """Reflexivity matches finite-acyclicity on the corpus; the all-ones
    functional is a coordinate functional exactly for finite path sets; the
    structural conditions pass to products and disjoint unions."""
    for quiver in corpus.finite_corpus():
        expected = is_acyclic(quiver)
        verdict = reflexivity_verdict(quiver)
        if bool(verdict) != expected:
            return CheckReport("reflexivity-closure", False, {"failure": f"reflexivity on {quiver.name}"})
        gamma = gamma_membership(quiver)
        if bool(gamma) != expected:
            return CheckReport("reflexivity-closure", False, {"failure": f"gamma on {quiver.name}"})
        if gamma:
            if sorted(gamma.witness, key=lambda p: p.sort_key) != quiver.basis():
                return CheckReport("reflexivity-closure", False, {"failure": f"gamma support on {quiver.name}"})
    for family_kind in ("line2", "line1", "loop", "multiarrow", "star51", "star56"):
        family = Family(family_kind)
        if reflexivity_verdict(family):
            return CheckReport("reflexivity-closure", False, {"failure": f"family {family_kind}"})
        if gamma_membership(family):
            return CheckReport("reflexivity-closure", False, {"failure": f"gamma on family {family_kind}"})
    pairs_checked = 0
    window = 4
    # Per quiver: the recovery and semiperfect verdicts and the window's path count.
    facts = [
        (quiver, bool(check_recovery_condition(quiver)), bool(check_semiperfect_condition(quiver)),
         len(enumerate_paths(quiver, window).paths))
        for quiver in corpus.finite_corpus()
    ]
    for left, left_recovers, left_sp, left_count in facts:
        for right, right_recovers, right_sp, right_count in facts:
            product = product_quiver(left, right)
            both = left_recovers and right_recovers
            if bool(check_recovery_condition(product)) != both:
                return CheckReport("reflexivity-closure", False, {"failure": "product recovery closure"})
            both_sp = left_sp and right_sp
            if bool(check_semiperfect_condition(product)) != both_sp:
                return CheckReport("reflexivity-closure", False, {"failure": "product semiperfect closure"})
            union = disjoint_union(left, right)
            if bool(check_recovery_condition(union)) != both:
                return CheckReport("reflexivity-closure", False, {"failure": "union recovery"})
            if bool(check_semiperfect_condition(union)) != both_sp:
                return CheckReport("reflexivity-closure", False, {"failure": "union semiperfect"})
            if len(enumerate_paths(union, window).paths) != left_count + right_count:
                return CheckReport("reflexivity-closure", False, {"failure": "union path count"})
            pairs_checked += 1
    return CheckReport("reflexivity-closure", True, {"pairs": pairs_checked})


SUITES = {
    "thm33": (check_theta_image, check_theta_recovery, check_counterexample_ideals),
    "thm36": (check_rational_part,),
    "prop41": (check_unique_path_embedding,),
    "thm42": (check_incidence_recovery,),
    "thm43": (check_incidence_rational_part,),
    "lemma58": (check_walk_embedding,),
    "prop53": (check_perp_factorization,),
    "ex35": (check_cycle_quotient,),
    "ex56": (check_star_factorization,),
    "bialgebra": (check_bialgebra_criterion,),
    "prop32": (check_recovery_clauses,),
    "thm57": (check_reflexivity_closure,),
}

ALL_CHECKS = (
    check_coalgebra_axioms,
    check_bialgebra_criterion,
    check_theta_image,
    check_recovery_clauses,
    check_theta_recovery,
    check_counterexample_ideals,
    check_rational_part,
    check_unique_path_embedding,
    check_incidence_recovery,
    check_incidence_rational_part,
    check_walk_embedding,
    check_perp_factorization,
    check_star_factorization,
    check_cycle_quotient,
    check_dual_coalgebra_axioms,
    check_reflexivity_closure,
)


def run_suite(name: str, seed: int = 0) -> list[CheckReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    reports = []
    for check in SUITES[name]:
        try:
            reports.append(check(seed) if "seed" in check.__code__.co_varnames else check())
        except AssertionError as exc:
            reports.append(CheckReport(check.__name__, False, {"error": str(exc)}))
    return reports
