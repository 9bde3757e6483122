"""Benchmark inputs: the seeded R(k,m) ladder, relabelled copies and the
frozen class-3 covers.

R(k,m) is a class-2 group on k top generators and m central generators of
order two.  The squares of the top generators and their commutators are
seeded random subsets of the central generators, so the presentation is
always consistent.  The class-2 ladder of run seed s uses the generator
seed 100k + m + 1000s; s = 0 gives the seeds of the ROADMAP baseline.
The SK_1 ladder keeps the baseline seeds and applies a change of basis
seeded by s instead, because the size of a Schur cover, and with it the
cost of sk1, changes several-fold between isomorphism types.

The class-3 covers measured by `generic_covers` are stored in covers.cat,
in the catalog format.  `python3 perfbench/groups.py` rebuilds them with
`schur_cover` and fails unless every stored group has the fingerprint of
its rebuilt copy; `--write` rewrites the file from the rebuilt copies.
"""

from __future__ import annotations

import os
import random
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COVERS_PATH = os.path.join(HERE, "covers.cat")


def import_program():
    """Import twogroups from this checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import twogroups
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import twogroups from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(twogroups.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"perfbench: twogroups imported from {where}, not {SRC}")
    return twogroups


def ladder_seed(k: int, m: int, run_seed: int) -> int:
    return 100 * k + m + 1000 * run_seed


def rkm(k: int, m: int, seed: int):
    """The random class-2 group R(k,m) for one generator seed."""
    from twogroups.pcgroup import PcGroup

    rng = random.Random(seed)
    n = k + m
    powers = [rng.getrandbits(m) << k if i < k else 0 for i in range(n)]
    comms = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i + 1, k):
            comms[i][j] = rng.getrandbits(m) << k
    return PcGroup(f"R{k}_{m}_s{seed}", n, powers, comms, validate=True)


def sk1_ladder(ks_ms, run_seed: int) -> List:
    rng = random.Random(run_seed)
    out = []
    for k, m in ks_ms:
        g = rkm(k, m, ladder_seed(k, m, 0))
        out.append(relabel(g, rng, f"{g.name}_b{run_seed}"))
    return out


def fresh(group):
    """A new PcGroup from the presentation, with empty memo tables.

    Validation is skipped because it fills the collector's tables; the
    presentation was validated when the benchmark built it.
    """
    from twogroups.pcgroup import PcGroup

    return PcGroup(group.name, group.n, group.powers, group.comms, validate=False)


def central_block(group) -> int:
    """First 0-based index c such that x_{c+1}..x_n carry no relations of
    their own and hold every relation value; n when there is none."""
    support = 0
    for p in group.powers:
        support |= p
    for row in group.comms:
        for w in row:
            support |= w
    c = group.n
    while c > 0:
        j = c - 1
        if group.powers[j] or any(group.comms[i][j] for i in range(j)) or any(group.comms[j]):
            break
        c -= 1
    if support >> c << c != support:
        return group.n
    return c


def relabel(group, rng: random.Random, name: str = ""):
    """An isomorphic copy: a seeded invertible change of basis of the
    central block, applied to every relation value."""
    from twogroups.linalg import gf2_rank
    from twogroups.pcgroup import PcGroup

    c = central_block(group)
    m = group.n - c
    if m < 2:
        raise ValueError(f"{group.name} has no central block to relabel")
    while True:
        cols = [rng.getrandbits(m) for _ in range(m)]
        if gf2_rank(cols) == m:
            break

    def image(word: int) -> int:
        out = word & ((1 << c) - 1)
        block = word >> c
        j = 0
        while block:
            if block & 1:
                out ^= cols[j] << c
            block >>= 1
            j += 1
        return out

    powers = [image(p) for p in group.powers]
    comms = [[image(w) for w in row] for row in group.comms]
    return PcGroup(name or group.name + "_relabelled", group.n, powers, comms, validate=True)


# Stored covers: (catalog name, source).  A source is a shipped group name
# or an R(k,m) generator triple (k, m, seed).  All are on the generic
# collector path (class 3).
COVER_SOURCES: List[Tuple[str, object]] = [
    ("Cover_R2_3_s1203", (2, 3, 1203)),    # 2^9
    ("Cover_R3_3_s303", (3, 3, 303)),      # 2^10
    ("Cover_SG128_1376", "SG128_1376"),    # 2^11, the ROADMAP baseline input
    ("Cover_R3_4_s304", (3, 4, 304)),      # 2^12
]


def cover_source_group(source):
    from twogroups.catalog import shipped_catalog

    if isinstance(source, str):
        return shipped_catalog()[source]
    return rkm(*source)


def rebuild_covers() -> List:
    from twogroups.homology import schur_cover
    from twogroups.pcgroup import PcGroup

    out = []
    for name, source in COVER_SOURCES:
        cover = schur_cover(cover_source_group(source)).cover
        out.append(PcGroup(name, cover.n, cover.powers, cover.comms, validate=True))
    return out


def load_covers() -> Dict[str, object]:
    from twogroups.catalog import parse_catalog

    with open(COVERS_PATH, encoding="utf-8") as fh:
        groups = parse_catalog(fh.read())
    return {g.name: g for g in groups}


def compare_covers(stored: Dict[str, object], rebuilt: List) -> List[str]:
    """Names whose stored copy is missing or differs in fingerprint."""
    from twogroups.catalog import fingerprint

    bad = []
    for g in rebuilt:
        s = stored.get(g.name)
        if s is None or s.is_fast or fingerprint(s) != fingerprint(g):
            bad.append(g.name)
    return bad


def main(argv: List[str]) -> int:
    import_program()
    from twogroups.catalog import serialize_catalog

    rebuilt = rebuild_covers()
    if "--write" in argv:
        header = (
            "# Class-3 Schur covers measured by the generic_covers workload.\n"
            "# Written by: python3 perfbench/groups.py --write\n"
            "# Checked by: python3 perfbench/groups.py\n\n"
        )
        with open(COVERS_PATH, "w", encoding="utf-8") as fh:
            fh.write(header + serialize_catalog(rebuilt))
    bad = compare_covers(load_covers(), rebuilt)
    for g in rebuilt:
        print(f"{g.name}: order 2^{g.n}, {'MISMATCH' if g.name in bad else 'fingerprint ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
