"""Schur covers by the tails method, SK1 of 2-adic group rings, and the
central-extension criteria with the quotient search.

SK1(Z2^G) = (K ∩ [SC,SC]) / <commutators of SC lying in K> for a cover
SC ->> G; the extension criteria certify nonvanishing for quotients.
"""

from twogroups import (
    central_extension,
    schur_cover,
    search_central_extensions,
    shipped_catalog,
    sk1,
    thm41_check,
    thm42_check,
)

cat = shipped_catalog()

print("=== covers and H_2 ===")
for name in ["C2xC2", "C2xC2xC2", "D8", "Q8", "SG128_1376", "SG128_1377"]:
    cover = schur_cover(cat[name])
    print(f"  {name:12s} |cover| = {cover.cover.order:5d}  "
          f"H2 = {cover.h2_invariants}")

print()
print("=== SK1 values ===")
for name in ["C2xC4", "C2xC2xC2", "SG128_1376", "SG128_1377"]:
    data = sk1(cat[name])
    print(f"  {name:12s} SK1 invariants {data.invariants}  "
          f"(|stem| = {data.stem_order}, |wedges| = {data.wedge_order})")

print()
print("=== extension criteria for the two catalog towers ===")
for cover_name, sigma in [("SG256_8177", [7, 8]), ("SG256_8129", [5, 8])]:
    ext = central_extension(cat[cover_name], sigma)
    r41 = thm41_check(ext)
    r42 = thm42_check(ext)
    word = "*".join(f"x{i}" for i in sigma)
    print(f"  ({cover_name}, <{word}>): sigma not a commutator: {r41.holds};  "
          f"conjugate-to-inverse lifting: {r42.holds}")

print()
print("=== quotient search over central order-2 subgroups ===")
for cover_name in ["SG256_8177", "SG256_8129"]:
    entries = search_central_extensions(cat[cover_name])
    for e in entries:
        print(f"  {cover_name}: sigma = {e.sigma_word} -> quotient of order "
              f"{e.extension.quotient.order}, lifting condition {e.thm42_holds}")
