"""When do the concatenation product and the path comultiplication fit
together?  Exactly when the quiver has no paths of length two and no
multiple edges; every failure is certified by an explicit arrow pair with
delta(xy) != delta(x)delta(y).

Run:  python demos/02_bialgebra_compatibility.py
"""

from quivercoalg import Quiver, bialgebra_check

CASES = [
    ("single arrow", Quiver(["u", "v"], [("x", "u", "v")])),
    ("two isolated arrows", Quiver(["a", "b", "c", "d"], [("x", "a", "b"), ("y", "c", "d")])),
    ("line of length two", Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])),
    ("parallel pair", Quiver(["u", "v"], [("x", "u", "v"), ("y", "u", "v")])),
    ("loop", Quiver(["v"], [("x", "v", "v")])),
]

for name, quiver in CASES:
    report = bialgebra_check(quiver)
    if report:
        print(f"{name:22s} compatible      (checked {report.data['pairs_checked']} pairs)")
    else:
        x, y = report.witness
        print(f"{name:22s} NOT compatible  witness pair ([{x}], [{y}])")

print()
print("the witness pairs are exactly the composable arrow pairs (paths of")
print("length two) and the distinct parallel pairs (multiple edges); the")
print("inequality delta(xy) != delta(x)delta(y) is verified exactly for")
print("each of them, and grouplike multiplicativity for all vertex pairs.")
