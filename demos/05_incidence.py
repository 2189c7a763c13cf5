"""Incidence coalgebras of locally finite posets and their finite-support
incidence algebras.

Every interval e_{x,y} comultiplies through the points between x and y.
The interval-to-paths map into the Hasse quiver's path coalgebra is an
injective coalgebra morphism, onto exactly when paths between points are
unique.  The incidence coalgebra is always the finite dual of the
finite-support incidence algebra, and semiperfectness reduces to the
finiteness of down-sets and up-sets.

Run:  python demos/05_incidence.py
"""

from quivercoalg import (
    CoalgElement,
    Family,
    Poset,
    comultiply,
    hasse_quiver,
    incidence_dual_recovery_check,
    incidence_semiperfect_check,
    multiply,
    phi_embed,
)

diamond = Poset(["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")], name="diamond")

print("diamond poset:", len(diamond.intervals()), "intervals,",
      len(diamond.covers()), "covers")

long = CoalgElement.unit(diamond, ("0", "1"))
print("\ndelta(e_{0,1}) has", len(comultiply(long).entries),
      "terms (one per point between 0 and 1)")

print("\nthe Hasse quiver has one arrow per cover:")
print(" ", ", ".join(a.label for a in hasse_quiver(diamond).arrows))

print("\nthe long interval maps to the sum of BOTH branch paths:")
print("  phi(e_{0,1}) =", phi_embed(long))
print("  (two paths between 0 and 1, so the map is not onto here)")

print("\nconvolution in the incidence algebra works like matrix units:")
exx = CoalgElement.unit(diamond, ("0", "0"))
exy = CoalgElement.unit(diamond, ("0", "1"))
print("  E_{0,0} . E_{0,1} =", dict(multiply(exx, exy).combo.items()))

report = incidence_dual_recovery_check(diamond)
print("\nfinite dual recovery:", report.isomorphism, "| dimension:", report.dimension)

print("\nsemiperfectness with certificates:")
chain = incidence_semiperfect_check(diamond)
print("  diamond:", bool(chain), f"({len(chain.witness)} certificates verified)")
print("  chain on the naturals:   ", bool(incidence_semiperfect_check(Family("natchain"))))
print("  antichain on the naturals:", bool(incidence_semiperfect_check(Family("natantichain"))))
