"""The elimination kernels and charpoly against independent implementations."""

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from gammasums.cyclotomic import CyclotomicRing, solve_linear_system
from gammasums.fields import build_tower
from gammasums.matrices import (
    all_matrices,
    charpoly,
    echelon,
    invertible_matrices,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_vec,
    reduce_against,
)
from gammasums.torus import RATIONALS


def _low_rank(rng, m, n, modulus=None):
    """A random m x n integer matrix of rank at most a random k <= min(m, n)."""
    k = rng.randint(1, min(m, n))
    lo, hi = (0, modulus - 1) if modulus else (-3, 3)
    b = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(m)]
    c = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
    return [[v % modulus for v in row] for row in rows] if modulus else rows


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_matches_sympy_over_prime_fields(p):
    # level 1 of a tower over F_p encodes a residue mod p as itself
    lv = build_tower(p, 1, 1).level(1)
    field = sympy.GF(p)
    rng = random.Random(p)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = _low_rank(rng, m, n, p) if rng.random() < 0.5 else [
            [rng.randrange(p) for _ in range(n)] for _ in range(m)
        ]
        want, want_pivots = DomainMatrix(
            [[field(v) for v in row] for row in rows], (m, n), field
        ).rref()
        want = [[int(v) % p for v in row] for row in want.to_list()]
        assert echelon(lv, rows) == want[: len(want_pivots)]
        assert mat_rank(lv, rows) == len(want_pivots)


def test_rank_over_q_matches_sympy():
    # the solve validate_weight_system reads a weight matrix's rank from
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _low_rank(rng, m, n)
        want = sympy.Matrix(rows).rank()
        _, rank, _ = solve_linear_system(
            [[RATIONALS.from_int(v) for v in row] for row in rows],
            [RATIONALS.zero] * m,
        )
        assert rank == want


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
    # the same columns with a right-hand side in Q(zeta_60)
    big = CyclotomicRing(60)
    x = [big.zeta_power(7), ring.from_int(5), z * z]
    rhs = [big.sum(c * v for c, v in zip(row, x)) for row in (r1, r2, r3)]
    embedded = [[big.embed(c) for c in row] for row in (r1, r2, r3)]
    mixed = solve_linear_system([r1, r2, r3], rhs)
    assert mixed == solve_linear_system(embedded, rhs)
    assert mixed == ([x[0] + 10, big.zero, z * z], 2, True)


# level 1 of a tower over F_q, for q = 2, 3, 5, 7 (residues) and 4, 9
LEVELS = {
    (p, f): build_tower(p, f, 1).level(1)
    for p, f in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]
}


# F_4, F_8, F_9 and F_25 as level 1, and F_16 as level 2 of the tower over F_4
EXTENSION_LEVELS = [
    build_tower(2, 2, 1).level(1),
    build_tower(2, 3, 1).level(1),
    build_tower(3, 2, 1).level(1),
    build_tower(5, 2, 1).level(1),
    build_tower(2, 2, 2).level(2),
]


def _entries(lv):
    """Field elements, often 0, 1, -1 or the units of the two largest logs:
    their products index the last entries of the doubled exp and Zech tables."""
    corners = [0, 1, lv.p - 1, lv.exp[-1], lv.exp[-2 % len(lv.exp)]]
    return st.sampled_from(corners) | st.integers(0, lv.size - 1)


def _rows(data, lv, n, k):
    entry = _entries(lv)
    return tuple(
        tuple(data.draw(st.lists(entry, min_size=k, max_size=k))) for _ in range(n)
    )


# The kernels as they were written before they read the log tables, one
# Level.add / Level.mul call per entry.
def ref_mat_vec(lv, a, v):
    out = []
    for row in a:
        acc = 0
        for c, x in zip(row, v):
            acc = lv.add(acc, lv.mul(c, x))
        out.append(acc)
    return tuple(out)


def ref_mat_mul(lv, a, b):
    return tuple(ref_mat_vec(lv, tuple(zip(*b)), row) for row in a)


def ref_reduce_against(lv, basis, v):
    for row in basis:
        f = v[row.index(1)]
        v = [lv.sub(a, lv.mul(f, b)) for a, b in zip(v, row)]
    lead = next((c for c in v if c), None)
    if lead is None:
        return False
    lead = lv.inv(lead)
    basis.append([lv.mul(lead, c) for c in v])
    return True


def _gf(rows, p, shape):
    field = sympy.GF(p)
    return DomainMatrix([[field(c) for c in row] for row in rows], shape, field)


def _residues(dm, p):
    return tuple(tuple(int(c) % p for c in row) for row in dm.to_list())


def _assert_echelon(basis):
    pivots = []
    for row in basis:
        pivot = next(j for j, c in enumerate(row) if c)
        assert row[pivot] == 1 and all(row[j] == 0 for j in pivots)
        pivots.append(pivot)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
def test_kernels_match_sympy_over_prime_fields(data, p):
    lv = LEVELS[p, 1]
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = _rows(data, lv, n, k), _rows(data, lv, k, m)
    v = _rows(data, lv, 1, k)
    assert mat_mul(lv, a, b) == _residues(_gf(a, p, (n, k)) * _gf(b, p, (k, m)), p)
    column = _residues(_gf(a, p, (n, k)) * _gf(v, p, (1, k)).transpose(), p)
    assert mat_vec(lv, a, v[0]) == tuple(c for (c,) in column)
    # span membership: a vector extends the basis exactly when it raises the
    # rank of the vectors taken so far; the basis spans what they span
    basis, taken = [], []
    for w in _rows(data, lv, data.draw(st.integers(1, 6)), k):
        rank = len(taken) and _gf(taken, p, (len(taken), k)).rank()
        grew = _gf(taken + [w], p, (len(taken) + 1, k)).rank() > rank
        assert reduce_against(lv, basis, w) == grew
        if grew:
            taken.append(w)
    _assert_echelon(basis)
    if taken:
        assert _residues(_gf(basis, p, (len(basis), k)).rref()[0], p) == _residues(
            _gf(taken, p, (len(taken), k)).rref()[0], p
        )


@settings(max_examples=80, deadline=None)
@given(data=st.data(), lv=st.sampled_from(EXTENSION_LEVELS))
def test_kernels_match_the_level_op_reference(data, lv):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = _rows(data, lv, n, k), _rows(data, lv, k, m)
    (v,) = _rows(data, lv, 1, k)
    assert mat_vec(lv, a, v) == ref_mat_vec(lv, a, v)
    assert mat_mul(lv, a, b) == ref_mat_mul(lv, a, b)
    basis, ref_basis = [], []
    for w in _rows(data, lv, data.draw(st.integers(1, 6)), k):
        assert reduce_against(lv, basis, w) == ref_reduce_against(lv, ref_basis, w)
        assert basis == ref_basis
    _assert_echelon(basis)


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
@given(data=st.data(), lv=st.sampled_from(EXTENSION_LEVELS))
def test_charpoly_evaluates_to_det_over_extension_fields(data, lv):
    # c(t) = det(tI - x) at every t of the field
    n = data.draw(st.integers(0, 5))
    rows = _rows(data, lv, n, n)
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


@pytest.mark.parametrize("n,p,f", [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 3, 1)])
def test_invertible_matrices_is_all_matrices_without_the_singular_ones(n, p, f):
    lv = build_tower(p, f, 1).level(1)
    q = lv.size
    want = [rows for rows in all_matrices(lv, n, n) if charpoly(lv, rows)[-1]]
    got = list(invertible_matrices(lv, n))
    assert got == want
    assert len(got) == math.prod(q**n - q**i for i in range(n))
