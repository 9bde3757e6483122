"""The packed Smith normal form against the list-based elimination it
replaced, kept here as the oracle.

`linalg.smith_normal_form` packs each row of A into one int and applies a
row or column operation as one integer operation; the oracle does the same
elimination entry by entry.  Both take the first row, then the first
column, holding an entry of least 2-adic valuation, so (diag, V, Vinv) must
agree exactly: V gives the cover's kernel coordinates, so any other choice
would change every cover presentation.
"""

import random
from pathlib import Path

from conftest import RKM_LARGER, rkm
from twogroups.catalog import parse_catalog
from twogroups.linalg import Gf2Span, smith_normal_form
from twogroups.pcgroup import tails_rows

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"


def list_smith_normal_form(matrix, modulus):
    """The list-of-lists elimination: same pivots, same transforms."""
    mask = modulus - 1
    a = [[x & mask for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    vinv = [[int(i == j) for j in range(cols)] for i in range(cols)]
    diag = [0] * cols
    for k in range(min(rows, cols)):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = a[i][j]
                if x and (best is None or x & -x < best[0]):
                    best = (x & -x, i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        pivot, i, j = best
        a[i], a[k] = a[k], a[i]
        if j != k:
            for row in a:
                row[j], row[k] = row[k], row[j]
            for row in v:
                row[j], row[k] = row[k], row[j]
            vinv[j], vinv[k] = vinv[k], vinv[j]
        shift = pivot.bit_length() - 1
        unit = pow(a[k][k] >> shift, -1, modulus)
        top = a[k] = [x * unit & mask for x in a[k]]
        for i in range(k + 1, rows):
            q = a[i][k] >> shift
            if q:
                a[i] = [(x - q * y) & mask for x, y in zip(a[i], top)]
        for j in range(k + 1, cols):
            q = top[j] >> shift
            if q:
                top[j] = 0
                for row in v:
                    row[j] = (row[j] - q * row[k]) & mask
                vinv[k] = [(x + q * y) & mask for x, y in zip(vinv[k], vinv[j])]
        diag[k] = pivot
    return diag, v, vinv


def assert_smith_certificate(a, modulus, diag, v, vinv):
    """V Vinv = I, and U A V = D for some U invertible mod modulus: column
    j of A V is d_j u_j (0 where d_j = 0), and the u_j are independent mod
    2, so they extend to an invertible U^-1."""
    cols = len(diag)
    prod = [[sum(v[i][t] * vinv[t][j] for t in range(cols)) % modulus for j in range(cols)]
            for i in range(cols)]
    assert prod == [[int(i == j) for j in range(cols)] for i in range(cols)]
    av = [[sum(x * v[t][j] for t, x in enumerate(row)) % modulus for j in range(cols)]
          for row in a]
    units = Gf2Span()
    for j, d in enumerate(diag):
        column = [row[j] for row in av]
        if d == 0:
            assert not any(column), j
            continue
        assert all(x % d == 0 for x in column), j
        assert units.add(sum((x // d & 1) << i for i, x in enumerate(column))), j
    assert diag == sorted(diag, key=lambda d: d or modulus)


def random_entry(rng, kind, bits):
    """Small, even, wide (negative or past the modulus) or 2-power entries."""
    modulus = 1 << bits
    if kind == 0:
        return rng.randrange(-3, 4)
    if kind == 1:
        return rng.choice([0, 0, 2, -2, 4, 8]) * rng.randrange(1, 4)
    if kind == 2:
        return rng.randrange(-2 * modulus, 2 * modulus)
    return rng.choice([0, 1 << rng.randrange(bits + 2), modulus + 1])


def random_matrix(rng, rows, cols, bits):
    kind = rng.randrange(4)
    a = [[random_entry(rng, kind, bits) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        a[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        a[rng.randrange(rows)] = [2 * rng.randrange(-4, 5) for _ in range(cols)]
    return a


def test_packed_smith_matches_the_list_elimination_on_random_matrices():
    rng = random.Random(2023)
    shapes = [(1, k) for k in range(1, 7)] + [(k, 1) for k in range(1, 7)]
    shapes += [(9, 4), (12, 3), (7, 7), (5, 8), (3, 3)]
    for bits in [1, 2, 3, 5, 8, 13, 21, 32, 47, 63, 64]:
        for rows, cols in shapes:
            for _ in range(4):
                a = random_matrix(rng, rows, cols, bits)
                got = smith_normal_form(a, 1 << bits)
                assert got == list_smith_normal_form(a, 1 << bits), (a, bits)
                assert_smith_certificate(a, 1 << bits, *got)
    assert smith_normal_form([], 8) == list_smith_normal_form([], 8) == ([], [], [])


def test_packed_smith_matches_the_list_elimination_on_tails_matrices(cat, small_family):
    groups = small_family + [rkm(*a) for a in RKM_LARGER] + [cat["G16384"]]
    groups += parse_catalog(COVERS_CAT.read_text())
    checked = 0
    for g in groups:
        rows = tails_rows(g)
        if not rows:
            continue
        modulus = 2 * g.order
        got = smith_normal_form(rows, modulus)
        assert got == list_smith_normal_form(rows, modulus), g.name
        if g.n <= 10:
            assert_smith_certificate(rows, modulus, *got)
        checked += 1
    assert checked >= 25
