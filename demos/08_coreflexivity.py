"""Coreflexivity: when a coalgebra is recovered from its dual algebra.

The engine reduces coreflexivity to the grouplike coradical whenever every
finite-dimensional subcoalgebra sits inside a finite-dimensional one whose
perp ideal is idempotent.  Two constructive mechanisms back this up:

* saturation + induction on path length splits any functional that kills
  the saturated subcoalgebra into two convolution products (quivers with
  finitely many paths between any two vertices);
* on the single-arrow star, the same splitting reduces per branch to
  writing a 2x2 matrix as a sum of two rank-one matrices.

Run:  python demos/08_coreflexivity.py
"""

import random
from fractions import Fraction

from quivercoalg import (
    CoalgElement,
    Family,
    Functional,
    Quiver,
    TensorProduct,
    coreflexivity_verdict,
    enumerate_paths,
    factor_perp_element,
    saturate_subcoalgebra,
    star_perp_factorization,
    subcoalgebra_closure,
)
from quivercoalg.linalg import SparseVector
from quivercoalg.products import star_truncation_basis

line = Quiver(["a", "b", "c", "d"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "d")], name="line4")

seed = CoalgElement.from_path(line.path_from_labels(["x", "y"]))
saturation = saturate_subcoalgebra(subcoalgebra_closure([seed]), line)
print("saturating the subcoalgebra generated by [x.y]:")
print("  seed vertices:", saturation.seed_vertices)
print("  saturated vertex set:", saturation.vertex_set)
print("  subcoalgebra dimension:", len(saturation.basis))

rng = random.Random(0)
window = enumerate_paths(line, 3).paths
eta = Functional(line, support=SparseVector({
    p: Fraction(rng.randint(-4, 4)) for p in window if not saturation.contains_path(p)
}))
witness = factor_perp_element(eta, saturation, 3)
print("\na random functional vanishing on the saturation splits exactly:")
print(f"  eta = f1*g1 + f2*g2 verified on all {witness.checked_paths} paths")

print("\nper-branch rank-one splitting on the single-arrow star:")
quiver = Family("star56").truncate(5)
protected = set(star_truncation_basis(quiver, 1))
values = {p: Fraction(rng.randint(-3, 3)) for p in star_truncation_basis(quiver, 5) if p not in protected}
eta_star = Functional(quiver, support=SparseVector(values))
star_witness = star_perp_factorization(1, 5, eta_star)
print(f"  identity verified on {star_witness.checked_paths} basis paths")

print("\nverdicts from the rule engine (unknown is a legitimate answer):")
for target, name in (
    (line, "finite acyclic quiver"),
    (Family("loop"), "one loop"),
    (Family("line2"), "two-sided infinite line"),
    (Family("star51"), "growing parallel bundles"),
    (Family("star56"), "single-arrow star"),
    (TensorProduct(line, Family("line1")), "tensor of two tame coalgebras"),
):
    verdict = coreflexivity_verdict(target)
    print(f"  {name:28s} -> {verdict.status}")
    for step in verdict.witness[:1]:
        print(f"      {step}")
