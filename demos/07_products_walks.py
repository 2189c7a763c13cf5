"""Product quivers and the lattice-walk shuffle embedding.

A path in a product quiver is exactly an interleaving of a path from each
factor along a monotone lattice walk; there are binomial(n+k, k) of them.
The map sending a tensor p (x) q to the sum of all interleavings is an
injective coalgebra morphism.

Run:  python demos/07_products_walks.py
"""

from fractions import Fraction
from math import comb

from quivercoalg import (
    Quiver,
    alpha_embed,
    decompose_product_path,
    enumerate_paths,
    lattice_walks,
    product_quiver,
    walk_path,
)
from quivercoalg.linalg import SparseVector

left = Quiver(["a0", "a1"], [("x", "a0", "a1")], name="arrow")
right = Quiver(["b0", "b1"], [("y", "b0", "b1")], name="arrow'")
square = product_quiver(left, right)
print("arrow x arrow = a square:", len(square.vertices), "vertices,",
      len(square.arrows), "arrows")

print("\nwalk counts are binomial coefficients:")
for n, k in ((2, 1), (2, 2), (3, 3)):
    print(f"  walks({n},{k}) = {len(lattice_walks(n, k))} = C({n+k},{k}) = {comb(n+k, k)}")

x = left.arrow_path("x")
y = right.arrow_path("y")
tensor = SparseVector({(x, y): Fraction(1)})
image = alpha_embed(tensor, square)
print("\nthe tensor x (x) y embeds as the sum of its two interleavings:")
print("  alpha(x (x) y) =", image)

print("\nevery product path decomposes uniquely (walk shown as steps):")
for gamma in enumerate_paths(square, 2).paths:
    if gamma.length == 2:
        p, q, walk = decompose_product_path(gamma)
        assert walk_path(p, q, walk, square) == gamma
        print(f"  {str(gamma):18s} = interleave([{p}], [{q}]) along {''.join(walk.steps)}")
