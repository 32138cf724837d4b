"""The row-reduction kernel and charpoly against independent implementations."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from gammasums.cyclotomic import CyclotomicRing, solve_linear_system
from gammasums.fields import build_tower
from gammasums.matrices import (
    EXACT,
    all_matrices,
    charpoly,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    row_reduce,
)


def _low_rank(rng, m, n, modulus=None):
    """A random m x n integer matrix of rank at most a random k <= min(m, n)."""
    k = rng.randint(1, min(m, n))
    lo, hi = (0, modulus - 1) if modulus else (-3, 3)
    b = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(m)]
    c = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
    return [[v % modulus for v in row] for row in rows] if modulus else rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_row_reduce_matches_sympy_over_prime_fields(p):
    # level 1 of a tower over F_p encodes a residue mod p as itself
    lv = build_tower(p, 1, 1).level(1)
    field = sympy.GF(p)
    rng = random.Random(p)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = _low_rank(rng, m, n, p) if rng.random() < 0.5 else [
            [rng.randrange(p) for _ in range(n)] for _ in range(m)
        ]
        got, pivots = row_reduce(lv, rows, n)
        want, want_pivots = DomainMatrix(
            [[field(v) for v in row] for row in rows], (m, n), field
        ).rref()
        assert got == [[int(v) % p for v in row] for row in want.to_list()]
        assert tuple(pivots) == tuple(want_pivots)
        assert mat_rank(lv, rows) == len(want_pivots)


def test_rank_over_q_matches_sympy():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _low_rank(rng, m, n)
        want = sympy.Matrix(rows).rank()
        assert mat_rank(EXACT, rows) == want


def test_inverse_over_q_matches_sympy():
    rng = random.Random(11)
    done = 0
    while done < 20:
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(rows).det() == 0:
            with pytest.raises(ValueError):
                mat_inv(EXACT, rows)
            continue
        want = sympy.Matrix(rows).inv()
        got = mat_inv(EXACT, rows)
        assert [[sympy.Rational(v.numerator, v.denominator) for v in row]
                for row in got] == want.tolist()
        done += 1


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (5, 1), (7, 1)])
def test_inverse_times_matrix_is_identity(p, f):
    lv = build_tower(p, f, 1).level(1)
    rng = random.Random(p * 10 + f)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randrange(lv.size) for _ in range(n)) for _ in range(n))
        try:
            inv = mat_inv(lv, a)
        except ValueError:
            assert mat_rank(lv, a) < n
            continue
        assert mat_mul(lv, inv, a) == mat_identity(n)
        assert mat_mul(lv, a, inv) == mat_identity(n)
        done += 1


def test_solve_rank_deficient_sets_free_variables_to_zero():
    ring = CyclotomicRing(12)
    z = ring.zeta_power(1)
    one, zero = ring.one, ring.zero
    r1 = [one, one * 2, z]
    r2 = [zero, zero, one]
    r3 = [a * 2 + b for a, b in zip(r1, r2)]  # rank 2, column 1 free
    x = [ring.from_int(3), ring.from_int(5), z * z]
    rhs = [sum((c * v for c, v in zip(row, x)), zero) for row in (r1, r2, r3)]
    solution, rank, consistent = solve_linear_system([r1, r2, r3], rhs)
    assert (rank, consistent) == (2, True)
    # the column-1 part of x moves into the pivot variable: 3 + 2 * 5
    assert solution == [ring.from_int(13), zero, z * z]


# level 1 of a tower over F_q, for q = 2, 3, 5, 7 (residues) and 4, 9
LEVELS = {
    (p, f): build_tower(p, f, 1).level(1)
    for p, f in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]
}


def _matrix(data, size):
    n = data.draw(st.integers(0, 5))
    entry = st.integers(0, size - 1)
    return tuple(
        tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(n)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
def test_charpoly_is_sympy_charpoly_mod_p(data, p):
    rows = _matrix(data, p)
    n = len(rows)
    want = sympy.Matrix(n, n, [c for row in rows for c in row]).charpoly()
    assert charpoly(LEVELS[p, 1], rows) == tuple(
        int(c) % p for c in want.all_coeffs()[1:]
    )


def _det(lv, rows):
    """Cofactor expansion along the first row."""
    if not rows:
        return 1
    total = 0
    for j, c in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = lv.mul(c, _det(lv, minor))
        total = lv.sub(total, term) if j % 2 else lv.add(total, term)
    return total


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pf=st.sampled_from([(2, 2), (3, 2)]))
def test_charpoly_evaluates_to_det_over_extension_fields(data, pf):
    # F_4 and F_9: c(t) = det(tI - x) at every t of the field
    lv = LEVELS[pf]
    rows = _matrix(data, lv.size)
    coeffs = charpoly(lv, rows)
    for t in lv.elements():
        value = 1
        for c in coeffs:
            value = lv.add(lv.mul(value, t), c)
        shifted = [
            [lv.sub(t if i == j else 0, c) for j, c in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        assert value == _det(lv, shifted)


def test_all_matrices_is_row_major_lexicographic():
    lv = LEVELS[2, 1]
    mats = list(all_matrices(lv, 2, 3))
    assert len(mats) == 2**6
    assert mats == sorted(mats)
    assert mats[1] == ((0, 0, 0), (0, 0, 1))
    assert mats[-1] == ((1, 1, 1), (1, 1, 1))
    assert list(all_matrices(lv, 3, 0)) == [((), (), ())]
