"""The row-reduction kernel against sympy, an independent implementation."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from gammasums.cyclotomic import CyclotomicRing, solve_linear_system
from gammasums.fields import build_tower
from gammasums.matrices import (
    EXACT,
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
