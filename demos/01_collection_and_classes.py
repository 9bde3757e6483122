"""Power-commutator arithmetic: collection, conjugacy, fingerprints.

Every group in the shipped catalog is a finite 2-group presented so that
x_i^2 and [x_i, x_j] are words in strictly later generators.  Normal forms
are bit vectors, products are computed by collection, and for class-<=2
groups everything collapses to XOR formulas.
"""

from twogroups import conjugacy_classes, fingerprint, shipped_catalog
from twogroups.pcgroup import central_quotient

cat = shipped_catalog()

print("=== the shipped catalog ===")
for name, g in sorted(cat.items(), key=lambda kv: (kv[1].order, kv[0])):
    print(f"  {name:12s} order {g.order:6d}  ngens {g.n:2d}  fast-path {g.is_fast}")

print()
print("=== collection in the order-256 cover ===")
g = cat["SG256_8177"]
comm = g.collect([(1, -1), (2, -1), (1, 1), (2, 1)])
print("  [x1, x2]     =", g.element_str(comm))
print("  x2 * x2      =", g.element_str(g.collect([(2, 1), (2, 1)])))
print("  x1^-1        =", g.element_str(g.inv(g.generators[0])))

print()
print("=== conjugacy classes of Q8 ===")
q8 = cat["Q8"]
for cls in conjugacy_classes(q8):
    members = ", ".join(q8.element_str(x) for x in cls.elements)
    print(f"  class of {q8.element_str(cls.rep):8s} size {cls.size}  "
          f"centralizer {cls.centralizer_order}  {{{members}}}")

print()
print("=== fingerprints separate D8 from Q8 ===")
for name in ["D8", "Q8"]:
    fp = fingerprint(cat[name])
    print(f"  {name}: class sizes {fp.class_sizes}, order profile {fp.order_profile}")

print()
print("=== quotient of the cover is the order-128 group ===")
q = central_quotient(g, g.element_from_indices([7, 8])).target
print(f"  {q.name} is a pc group of order {q.order} on {q.n} generators;",
      "fingerprint matches SG128_1377:",
      fingerprint(q) == fingerprint(cat["SG128_1377"]))
