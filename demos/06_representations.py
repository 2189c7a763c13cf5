"""Quiver representations, local nilpotence, and comodules.

A finite-dimensional right module over the quiver algebra is the same
thing as a representation (spaces at vertices, matrices on arrows).  The
comodules of the path coalgebra are the locally nilpotent representations:
on an acyclic quiver everything qualifies, but the cycle-quotient module,
where a full turn acts as the identity, never does.

Run:  python demos/06_representations.py
"""

from fractions import Fraction

from quivercoalg import (
    Quiver,
    Representation,
    annihilator_monomial_check,
    comodule_from_module,
    cycle_quotient_module,
    is_locally_nilpotent,
    module_from_comodule,
)
from quivercoalg.finite_dual import structured_algebra
from quivercoalg.representation import regular_left_module

line = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")], name="line")
rep = Representation(
    line,
    {"a": 1, "b": 2, "c": 1},
    {
        "x": ((Fraction(1), Fraction(2)),),
        "y": ((Fraction(1),), (Fraction(0),)),
    },
)
verdict = is_locally_nilpotent(rep)
print("acyclic representation is locally nilpotent:", bool(verdict),
      f"(actions vanish from length {verdict.data['vanishing_level']})")

loop = Quiver(["v"], [("x", "v", "v")], name="loop")
scalar_one = Representation(loop, {"v": 1}, {"x": ((Fraction(1),),)})
verdict = is_locally_nilpotent(scalar_one)
print("\nloop acting by 1 is NOT locally nilpotent:",
      f"witness path {verdict.data['witness_path']} keeps a vector alive")

print("\ncycle-quotient modules (full turn == local unit):")
for n in (1, 2, 3):
    rep_n = cycle_quotient_module(n)
    nil = is_locally_nilpotent(rep_n)
    vector = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(rep_n.total_dimension()))
    ann = annihilator_monomial_check(rep_n, vector)
    print(f"  n={n}: dimension {rep_n.total_dimension()}, locally nilpotent: {bool(nil)},"
          f" annihilator search: {ann.status}")

print("\nmodule -> comodule -> module over the dual coalgebra:")
algebra = structured_algebra(Quiver(["u", "v"], [("x", "u", "v")]))
regular = regular_left_module(algebra)
coaction = comodule_from_module(regular)  # the coaction the module's check passed
recovered = module_from_comodule(coaction)
print("  actions recovered exactly:",
      all(recovered.action[b] == regular.action[b] for b in algebra.basis))
