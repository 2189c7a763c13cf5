"""Recovering the path coalgebra from the quiver algebra as a finite dual.

The coordinate embedding sends a path to the functional picking its
coefficient; its image consists of the functionals whose kernel contains a
cofinite monomial ideal.  The embedding is onto exactly when the quiver
has no oriented cycles and finitely many arrows between any two vertices.
On a cycle, an explicit cofinite ideal spanned by winding differences
contains no cofinite monomial ideal, and the winding indicator functional
witnesses the failure.

Run:  python demos/03_finite_dual_recovery.py
"""

from quivercoalg import (
    CoalgElement,
    Quiver,
    QuiverFamily,
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    contains_cofinite_monomial_ideal,
    theta_embed,
    theta_recovery_check,
)

line = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")], name="line")
embedded = theta_embed(CoalgElement.from_path(line.path_from_labels(["x", "y"])))
print("coordinate functional of [x.y] vanishes on the monomial ideal whose")
print("complement is the subpath set:", [str(p) for p in embedded.witness_complement])

print("\nacyclic case: the embedding is onto;",
      f"dimension = {theta_recovery_check(line).dimension}")

loop = QuiverFamily("loop")
report = theta_recovery_check(loop, codim_bound=10)
print("\nloop case: recovered =", report.recovered)
print("  witness functional:", report.witness.describe())
print("  monomial-ideal verdict for its kernel:", report.witness_verdict.status)

print("\nthe cofinite ideal of winding differences on a 2-cycle:")
cycle2 = QuiverFamily("cycle", 2).truncate(0)
ce = build_cycle_counterexample(cycle2, 8)
print(f"  generator identities verified: {ce.identities_checked}")
print(f"  observed codimension at the window: {ce.codimension}")
verdict = contains_cofinite_monomial_ideal(ce.ideal_generators(), cycle2, 8, 10)
print(f"  contains a cofinite monomial ideal? {verdict.status}")

print("\ninfinitely many parallel arrows defeat recovery the same way:")
ma = build_multiarrow_counterexample(QuiverFamily("multiarrow"), 5)
print(f"  difference span has codimension {ma.codimension} in the stage span;")
print(f"  {ma.identities_checked} generator identities verified; no single arrow")
print("  lies in the span of the differences.")
