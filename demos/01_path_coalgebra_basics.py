"""Tour of the path coalgebra: paths, comultiplication, counit,
generated subcoalgebras, wedges, and injective-hull spans.

Run:  python demos/01_path_coalgebra_basics.py
"""

from fractions import Fraction

from quivercoalg import (
    CoalgElement,
    Quiver,
    comultiply,
    counit,
    enumerate_paths,
    grouplike_coradical,
    hull_span,
    subcoalgebra_closure,
    wedge,
)

# A three-vertex line a --x--> b --y--> c.
line = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")], name="line")

enum = enumerate_paths(line, 2)
print("paths of the line quiver:", ", ".join(str(p) for p in enum.paths))
print("enumeration is exhaustive:", enum.exhaustive)

xy = CoalgElement.from_path(line.path_from_labels(["x", "y"]))
print("\ncomultiplication splits a path into all prefix/suffix pairs:")
print("  delta([x.y]) =", " + ".join(f"{c}*[{p}]⊗[{q}]" for (p, q), c in comultiply(xy).sorted_items()))

mixed = CoalgElement.from_path(line.vertex_path("a")).scale(Fraction(2)) - xy.scale(Fraction(3))
print("counit picks out the length-zero part:  eps(2[a] - 3[x.y]) =", counit(mixed))

print("\nthe subcoalgebra generated by [x.y] needs all subpaths:")
closure = subcoalgebra_closure([xy])
for element in closure:
    print("  basis:", element)

print("\nfor two parallel arrows the sum x+y generates a 3-dimensional")
print("subcoalgebra: the arrows never get separated.")
parallel = Quiver(["u", "v"], [("x", "u", "v"), ("y", "u", "v")])
s = CoalgElement.from_path(parallel.arrow_path("x")) + CoalgElement.from_path(parallel.arrow_path("y"))
for element in subcoalgebra_closure([s]):
    print("  basis:", element)

print("\nwedge of two vertex lines along the only arrow:")
ka = [CoalgElement.from_path(line.vertex_path("a"))]
kb = [CoalgElement.from_path(line.vertex_path("b"))]
result = wedge(ka, kb, line, 2)
print("  Ka ^ Kb =", ", ".join(str(e) for e in result.basis), "| exact:", result.exact)

print("\ninjective hull spans (right = paths out, left = paths in):")
print("  at a, right:", [str(p) for p in hull_span("a", "right", line)])
print("  at c, left: ", [str(p) for p in hull_span("c", "left", line)])

print("\ncoradical = the grouplike span of the vertices:",
      [str(p) for p in grouplike_coradical(line)])
