"""The quiver algebra inside the dual of the path coalgebra.

The coordinate embedding is multiplicative for the convolution product.
Its image is the rational part of the dual exactly when every vertex meets
only finitely many paths on each side; rationality of a functional is
always certified by finite families (c_i), (c_i*) with
d* f = sum d*(c_i) c_i*, and the certificate is re-verified on the whole
dual basis.

Run:  python demos/04_rational_part.py
"""

from quivercoalg import (
    CoalgElement,
    Functional,
    Quiver,
    QuiverFamily,
    convolve,
    enumerate_paths,
    gamma_membership,
    is_rational_left,
    psi_embed,
    reflexivity_verdict,
)

line = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")], name="line")
window = enumerate_paths(line, 2).paths

x_star = psi_embed(CoalgElement.from_path(line.arrow_path("x")))
y_star = psi_embed(CoalgElement.from_path(line.arrow_path("y")))
print("convolution follows concatenation:  x* . y* =", convolve(x_star, y_star, window).describe())

verdict = is_rational_left(Functional.dual_of_path(line.arrow_path("x")), line)
print("\nx* is rational with a certificate of", len(verdict.witness.elements), "members")

print("\non the one-sided infinite line, the indicator of all paths leaving a")
print("vertex is rational with infinite support; its certificate runs through")
print("the finitely many paths arriving there:")
fam = QuiverFamily("line1")
f = Functional.from_rule(fam, "starts_at", "v3")
verdict = is_rational_left(f, fam, 10)
print("  status:", verdict.status)
print("  members:", len(verdict.witness.elements), "| rule kinds:",
      sorted({c.rule.kind for c in verdict.witness.functionals}))

print("\non the loop only the zero functional is rational:")
print("  gamma:", is_rational_left(Functional.from_rule(QuiverFamily('loop'), 'gamma'), QuiverFamily("loop")).status)

print("\nthe all-ones functional is a coordinate functional iff the path set")
print("is finite:")
print("  line:", bool(gamma_membership(line)), "| loop:", bool(gamma_membership(QuiverFamily("loop"))))

print("\nreflexivity of the quiver algebra = finite dimensionality:")
for target, name in ((line, "line"), (QuiverFamily("loop"), "loop"), (QuiverFamily("line2"), "two-sided line")):
    verdict = reflexivity_verdict(target)
    print(f"  {name:15s} {verdict.status:22s} ({verdict.explanation})")
