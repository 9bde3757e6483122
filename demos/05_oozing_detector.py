"""The lambda_4 detector and compatible-pair certification end to end.

lambda_4 vanishes for abelian groups, vanishes provably for the order-256
example whose beta-s image dies under delta, and is nonzero for the group
of order 2^14 -- with a machine-checkable certificate.  The compatible
pair (SG128_1376, X1*X2+X1*X3) certifies a nonzero kappa-type invariant
through seven verifiable conditions.
"""

import json

from twogroups import (
    adapted_decomposition,
    compatible_pair_check,
    conjecture62_scan,
    delta_map,
    lambda4_detect,
    lhs_data_for,
    shipped_catalog,
)
from twogroups.ktheory import central_extension_from_hom
from twogroups.pcgroup import homomorphism

cat = shipped_catalog()

print("=== delta and the adapted decomposition for G16384 ===")
g = cat["G16384"]
dm = delta_map(g)
print(f"  delta rank {dm.rank}; kernel dimension {len(dm.kernel_basis)}")
dec = adapted_decomposition(g, dm)
print(f"  adapted orders {dec.orders}, k = {dec.k}, first factors "
      f"{[g.element_str(x) for x in dec.factor_gens[:dec.k]]}")

print()
print("=== lambda_4 verdicts ===")
for name in ["C2xC4", "SG256_9039", "G16384"]:
    report = lambda4_detect(cat[name])
    print(f"  {name:12s} {report.verdict:9s}  ({'; '.join(report.reasons)})")
report = lambda4_detect(cat["G16384"])
print("  certificate for G16384:")
print(json.dumps(report.certificate, indent=4)[:400], "...")

print()
print("=== compatible-pair certification ===")
pi, pit = cat["SG128_1376"], cat["SG256_8129"]
alpha = homomorphism(pit, pi, [pi.generators[i] for i in range(7)] + [pi.generators[4]])
ext = central_extension_from_hom(pit, alpha)
data = lhs_data_for(pi)
report = compatible_pair_check(pi, ext, data.poly("X1*X2+X1*X3"), data.poly("X3*X4"))
print(f"  verdict: {report.verdict}")
for c in report.conditions:
    print(f"    {c.name:32s} {c.status}")

print()
print("  the same pair with z = X1*X4 (e14 is a commuting wedge):")
report_bad = compatible_pair_check(pi, ext, data.poly("X1*X2+X1*X3"), data.poly("X1*X4"))
print(f"  verdict: {report_bad.verdict}")

print()
print("=== cyclic-quotient parity scan (no homological filters) ===")
for s in conjecture62_scan(cat["C8"]):
    print(f"  C8: |N|={s.n_order} |T|={s.t_order} |W|={s.w_order} "
          f"quotient C{s.cyclic_order}: {s.class_count} classes ({s.parity})")
