import itertools
import math
import random

import pytest

from twogroups.linalg import (
    Gf2Span,
    gf2_kernel,
    gf2_rank,
    gf2_rref,
    smith_normal_form,
)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def leibniz_det(m):
    """Determinant as the signed sum over permutations: no elimination."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i + 1, len(m)))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def determinantal_invariants(a):
    """Invariant factors d_k = D_k / D_{k-1} over Z, D_k the gcd of the
    k x k minors; 0 once the minors vanish."""
    rows, cols = len(a), len(a[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                dk = math.gcd(dk, leibniz_det([[a[r][c] for c in cs] for r in rs]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out + [0] * (cols - len(out))


def two_part_mod(d, modulus):
    """The 2-part of d as a Smith entry mod modulus: 0 if d == 0 or if the
    2-part is divisible by modulus."""
    if d == 0:
        return 0
    part = d & -d
    return 0 if part % modulus == 0 else part


def test_smith_diag_divisibility_and_transforms():
    rng = random.Random(11)
    for trial in range(150):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        modulus = 1 << rng.choice([1, 3, 6, 12])
        diag, v, vinv = smith_normal_form(a, modulus)
        expected = [two_part_mod(d, modulus) for d in determinantal_invariants(a)]
        assert diag == expected, (a, modulus)
        ident = [[x % modulus for x in row] for row in mat_mul(v, vinv)]
        assert ident == [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
        # column j of A*V is U^-1 times column j of D, so d_j divides it
        av = mat_mul(a, v)
        for j, d in enumerate(diag):
            assert all(row[j] % (d or modulus) == 0 for row in av), (a, modulus, j)


def test_smith_known_values():
    diag, _, _ = smith_normal_form([[2, 0], [0, 4]], 16)
    assert diag == [2, 4]
    # over Z the Smith form is [2, 6]; the odd factor 3 is a unit 2-adically
    diag, _, _ = smith_normal_form([[2, 4], [4, 2]], 16)
    assert diag == [2, 2]
    diag, _, _ = smith_normal_form([[1, 0, 0]], 16)
    assert diag == [1, 0, 0]
    # a 2-part at or above the modulus reads as 0
    diag, _, _ = smith_normal_form([[3, 0], [0, 16]], 16)
    assert diag == [1, 0]
    with pytest.raises(ValueError):
        smith_normal_form([[1]], 12)


def test_smith_cokernel_generators():
    # Z^2 / <2e1, 4e2> = Z/2 + Z/4, generated by the rows of Vinv
    diag, v, vinv = smith_normal_form([[2, 0], [0, 4]], 8)
    assert diag == [2, 4]
    assert vinv == [[1, 0], [0, 1]]
    # Z^2 / <e1 + e2> = Z: the relation becomes the first coordinate, and
    # the free second coordinate is the class of e2
    diag, v, vinv = smith_normal_form([[1, 1]], 8)
    assert diag == [1, 0]
    assert [x % 8 for x in mat_mul([[1, 1]], v)[0]] == [1, 0]
    assert [x % 8 for x in mat_mul([[0, 1]], v)[0]][1] == 1


def test_gf2_span_solve_and_reduce():
    span = Gf2Span()
    assert span.add(0b011)
    assert span.add(0b110)
    assert not span.add(0b101)  # dependent
    combo = span.solve(0b101)
    assert combo == 0b011  # first two inserted vectors
    assert span.reduce(0b101) == 0
    assert span.reduce(0b100) != 0
    assert gf2_rank([0b011, 0b110, 0b101]) == 2


def test_gf2_rref():
    rng = random.Random(7)
    for _ in range(100):
        rows = [rng.getrandbits(8) for _ in range(rng.randrange(0, 7))]
        reduced = gf2_rref(rows)
        pivots = [row & -row for row in reduced]
        assert pivots == sorted(set(pivots)) and 0 not in pivots
        for row in reduced:
            assert all(row & p == (p if p == row & -row else 0) for p in pivots)
        span = Gf2Span(rows)
        assert len(reduced) == span.rank
        assert all(span.contains(row) for row in reduced)
    assert gf2_rref([0b110, 0b011, 0b101]) == [0b101, 0b110]


def test_gf2_kernel_orthogonality():
    rng = random.Random(5)
    for _ in range(50):
        ncols = rng.randrange(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 6))]
        kernel = gf2_kernel(rows, ncols)
        for k in kernel:
            for r in rows:
                assert (r & k).bit_count() % 2 == 0
        assert gf2_rank(rows) + len(kernel) == ncols
