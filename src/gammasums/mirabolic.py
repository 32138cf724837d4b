"""Mirabolic geometry of GL(n): strata, companion normalization, coset sums.

The stratum of an invertible matrix x is the dimension m of the span of
e_1, x e_1, x^2 e_1, ...; the stratification is preserved by left translation
under the first-row unipotent group U_Q and by conjugation under the
stabilizer Q_1 of e_1.  Every stratum-m point is Q_1-conjugate to a block
matrix whose top-left m x m block is the companion matrix of its
characteristic-polynomial factor, and the off-diagonal block is uniquely a
sum v_1 + v_{m-1} x_E - x_F v_{m-1} with v_1 concentrated in the first row
and v_{m-1} vanishing in the last row; the solver below walks that triangular
structure from the bottom row upward.

The one coset map is left_translate, the rows of u x for u in U_Q; a
translate differs from x in row 0 alone.  The coset kernels take a whole
coset at once: coset_rows0 forms every row 0 from one transposition of x,
coset_charpolys reads the translates' characteristic polynomials off one
Berkowitz prefix of rows 1..n-1 (row0_charpolys), and
coset_strata runs the translates' Krylov spans from e_1 as one trie, where
translates whose Krylov vectors agree so far share each product and
reduction.  On a normalized stratum-m point those polynomials follow a
closed formula in (a, v) alone, coset_charpoly.

An orbit census is one pass per n: orbit_census takes one charpoly of each
invertible matrix and splits every fiber into Q_1-orbits, census_prediction
counts every fiber's chart orbits from the factor pairs (a_t, c'), with
GL(k) and its fibers built once per k, both from invertible_matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, NotNormalized, SolverSingular
from .matrices import (
    all_matrices,
    char_coeffs_to_poly,
    charpoly,
    echelon,
    invertible_matrices,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_vec,
    pol_mul,
    poly_to_char_coeffs,
    reduce_against,
    row0_charpolys,
)


@dataclass(frozen=True)
class GroupPoint:
    """An invertible n x n matrix over F_q with cached characteristic data."""

    tower: object
    n: int
    rows: tuple
    char: tuple  # (a_1, ..., a_n)

    def level(self):
        return self.tower.level(1)

    def det(self):
        d = self.char[-1]
        return self.level().neg(d) if self.n % 2 else d


def group_point(tower, rows) -> GroupPoint:
    rows = tuple(tuple(r) for r in rows)
    point = GroupPoint(tower, len(rows), rows, charpoly(tower.level(1), rows))
    if point.det() == 0:
        raise ValueError("matrix is singular")
    return point


def stratum_index(x: GroupPoint) -> int:
    """Dimension of the span of e_1 under powers of x."""
    return len(krylov(x.level(), x.rows, []))


def krylov(level, rows, basis):
    """e_1, x e_1, ... while each lies outside the span of those before it;
    their number is the stratum of x, given by its rows.

    basis, an echelon basis as reduce_against keeps it, is extended by them.
    """
    n = len(rows)
    out = []
    v = (1,) + (0,) * (n - 1)
    while reduce_against(level, basis, v):
        out.append(v)
        if len(out) == n:
            break
        v = mat_vec(level, rows, v)
    return out


def companion_matrix(level, a):
    """Companion matrix with characteristic coefficients a = (a_1, ..., a_m)."""
    m = len(a)
    rows = [[0] * m for _ in range(m)]
    for i in range(1, m):
        rows[i][i - 1] = 1
    for i in range(m):
        rows[i][m - 1] = level.neg(a[m - 1 - i])
    return tuple(tuple(r) for r in rows)


def is_companion(block):
    m = len(block)
    for i in range(m):
        for j in range(m - 1):
            want = 1 if i == j + 1 else 0
            if block[i][j] != want:
                return False
    return True


def normalize_stratum(x: GroupPoint):
    """Conjugate x into block form with a companion top-left block.

    Returns (h, y) where h fixes e_1 and y = h^(-1) x h has the shape
    [[companion, *], [0, x_E]] with the companion block of size equal to the
    stratum of x.
    """
    lv = x.level()
    n = x.n
    basis = []
    cols = krylov(lv, x.rows, basis)
    m = len(cols)
    for e in mat_identity(n):
        if len(cols) == n:
            break
        if reduce_against(lv, basis, e):
            cols.append(e)
    h = tuple(zip(*cols))
    y = mat_mul(lv, mat_inv(lv, h), mat_mul(lv, x.rows, h))
    return h, group_point(x.tower, y), m


@dataclass(frozen=True)
class StratumData:
    """Coordinates of a normalized stratum point.

    Reassembly multiplies [I v1; 0 I][I vm1; 0 I][diag(companion, x_E)]
    [I -vm1; 0 I] and must reproduce the normalized matrix exactly.
    """

    m: int
    a: tuple  # (a_1, ..., a_m)
    x_e: tuple
    v1: tuple  # first-row block, shape 1 x (n-m)
    vm1: tuple  # shape m x (n-m), last row zero

    def reassemble(self, tower):
        lv = tower.level(1)
        n = self.m + len(self.x_e)
        m = self.m
        comp = companion_matrix(lv, self.a)

        def unip(block):
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(m):
                for j in range(n - m):
                    rows[i][m + j] = block[i][j]
            return tuple(tuple(r) for r in rows)

        v1_full = tuple(
            tuple(self.v1[0][j] if i == 0 else 0 for j in range(n - m))
            for i in range(m)
        )
        mid = [[0] * n for _ in range(n)]
        for i in range(m):
            for j in range(m):
                mid[i][j] = comp[i][j]
        for i in range(n - m):
            for j in range(n - m):
                mid[m + i][m + j] = self.x_e[i][j]
        mid = tuple(tuple(r) for r in mid)
        neg_vm1 = tuple(tuple(lv.neg(c) for c in row) for row in self.vm1)
        out = mat_mul(lv, unip(v1_full), mat_mul(lv, unip(self.vm1), mid))
        out = mat_mul(lv, out, unip(neg_vm1))
        return out


def normalized_blocks(x: GroupPoint, m):
    """(x_F, y, x_E) of a point normalized at stratum m; NotNormalized unless
    its lower-left block is zero and x_F is a companion matrix."""
    rows = x.rows
    x_f = tuple(row[:m] for row in rows[:m])
    if any(any(row[:m]) for row in rows[m:]):
        raise NotNormalized("lower-left block is not zero")
    if not is_companion(x_f):
        raise NotNormalized("top-left block is not a companion matrix")
    return x_f, tuple(row[m:] for row in rows[:m]), tuple(row[m:] for row in rows[m:])


def bernstein_coords(x: GroupPoint, m=None) -> StratumData:
    """Unique (a, x_E, v_1, v_{m-1}) coordinates of a normalized point.

    Solves y = v_1 + v_{m-1} x_E - x_F v_{m-1} row by row from the bottom:
    row m gives -v[m-1], each higher row i gives v[i-1] = v[i] x_E - y[i],
    and row 1 then determines v_1.  The filtration structure makes every step
    forced, so the solution exists and is unique for every x_E.  The
    coordinates are reassembled and must reproduce x, else SolverSingular.
    """
    if m is None:
        m = stratum_index(x)
    lv = x.level()
    x_f, y, x_e = normalized_blocks(x, m)
    k = x.n - m
    if k == 0:
        data = StratumData(m=m, a=charpoly(lv, x_f), x_e=(), v1=((),), vm1=())
    else:
        vm1 = [[0] * k for _ in range(m)]
        if m >= 2:
            vm1[m - 2] = [lv.neg(c) for c in y[m - 1]]
            for i in range(m - 1, 1, -1):
                vm1[i - 2] = [
                    lv.sub(acc, yc)
                    for acc, yc in zip(mat_mul(lv, (vm1[i - 1],), x_e)[0], y[i - 1])
                ]
        # the block product puts v1 to the left of diag(x_F, x_E), so the first
        # row reads y[0] = (v1 + vm1[0]) x_E and v1 = y[0] x_E^(-1) - vm1[0]
        xe_inv = mat_inv(lv, x_e)
        v1 = [lv.sub(c, v) for c, v in zip(mat_mul(lv, (y[0],), xe_inv)[0], vm1[0])]
        data = StratumData(
            m=m,
            a=charpoly(lv, x_f),
            x_e=x_e,
            v1=(tuple(v1),),
            vm1=tuple(tuple(r) for r in vm1),
        )
    if data.reassemble(x.tower) != x.rows:
        raise SolverSingular("coordinate solve failed to reproduce the point")
    return data


def lemma_translation_map(lv, x_f, x_e, v1_row, vm1):
    """The translation (v_1, v_{m-1}) -> v_1 + v_{m-1} x_E - x_F v_{m-1}.

    v1_row is the first row of a Hom(E, F_1) element, vm1 a full m x k block
    with zero last row.  Used by the brute-force simple-transitivity check.
    """
    m = len(x_f)
    k = len(v1_row)
    out = [[0] * k for _ in range(m)]
    for j in range(k):
        out[0][j] = v1_row[j]
    for i in range(m):
        row_vx = mat_mul(lv, (vm1[i],), x_e)[0] if k else ()
        for j in range(k):
            acc = lv.add(out[i][j], row_vx[j])
            for t in range(m):
                if x_f[i][t] and vm1[t][j]:
                    acc = lv.sub(acc, lv.mul(x_f[i][t], vm1[t][j]))
            out[i][j] = acc
    return tuple(tuple(r) for r in out)


# -- left U_Q cosets and characteristic polynomials ---------------------------


def left_translate(level, rows, v):
    """Rows of u x, u the unipotent with first row (1, v): row 0 becomes (1, v) x."""
    return (mat_vec(level, tuple(zip(*rows)), (1,) + tuple(v)),) + tuple(rows[1:])


def coset_rows0(level, rows, vs):
    """Row 0 of left_translate(level, rows, v) for each v in vs, from one
    transposition of x."""
    cols = tuple(zip(*rows))
    return [mat_vec(level, cols, (1,) + tuple(v)) for v in vs]


def coset_charpolys(level, rows, vs):
    """charpoly(level, left_translate(level, rows, v)) for each v in vs; the
    translates share every Berkowitz step but the last (row0_charpolys)."""
    return row0_charpolys(level, rows, coset_rows0(level, rows, vs))


def coset_strata(level, rows, vs):
    """The stratum of each translate left_translate(level, rows, v), v in vs.

    The translates' Krylov runs from e_1 go together, as a trie.  Write a
    run's k-th vector w as (alpha_k, t_k).  The translates share rows 1..n-1
    of x, so t_{k+1} = x_tail w depends on w alone, and since e_1 heads every
    basis, so does the reduction of (alpha_{k+1}, t_{k+1}) against the run's
    basis.  Only alpha_{k+1} = (1, v) x w depends on the translate.  A node holds the
    vector w its translates agree on so far and the basis of their runs: it
    takes one product x w and one reduction, and each translate follows the
    child its alpha_{k+1} picks.
    """
    n = len(rows)
    heads = [(1,) + tuple(v) for v in vs]
    strata = [0] * len(heads)
    e_1 = (1,) + (0,) * (n - 1)
    stack = [(e_1, [list(e_1)], range(len(heads)))]
    while stack:
        w, basis, members = stack.pop()
        if len(basis) < n:
            xw = mat_vec(level, rows, w)
            child_basis = list(basis)
            if reduce_against(level, child_basis, xw):
                children = {}
                alphas = mat_vec(level, [heads[i] for i in members], xw)
                for i, alpha in zip(members, alphas):
                    children.setdefault(alpha, []).append(i)
                stack.extend(
                    ((alpha,) + xw[1:], child_basis, kids)
                    for alpha, kids in children.items()
                )
                continue
        for i in members:
            strata[i] = len(basis)
    return strata


def coset_charpoly(level, a, v):
    """The closed shift formula b = c(u_L x_F), x normalized with c(x_F) = a.

    u has first row (1, -v) and u_L is its leading m x m block, m = len(a);
    b_r = a_r + sum_{i<r} a_i v_{r-i} + v_r for r < m and b_m = a_m.
    """
    b = list(a)
    for r in range(1, len(a)):
        acc = a[r - 1]
        for i in range(1, r):
            acc = level.add(acc, level.mul(a[i - 1], v[r - i - 1]))
        b[r - 1] = level.add(acc, v[r - 1])
    return tuple(b)


def coset_rank(x: GroupPoint) -> int:
    """Rank of the linear map v -> c(ux) - c(x) on the U_Q row space."""
    lv = x.level()
    rows = tuple(
        tuple(map(lv.sub, c_ux, x.char))
        for c_ux in coset_charpolys(lv, x.rows, mat_identity(x.n - 1))
    )
    return mat_rank(lv, rows)


# -- orbit census -------------------------------------------------------------


def census_in_reach(n, q):
    """Whether the census enumerates GL(n, F_q) at desk scale: n <= 3 with
    q <= 3, or n = 2 with q <= 7."""
    return (n <= 3 and q <= 3) or (n == 2 and q <= 7)


def q1_elements(tower, n):
    """All elements [[1, r], [0, B]] of the stabilizer of e_1 in GL(n, F_q),
    B in GL(n - 1, F_q), each with its inverse."""
    lv = tower.level(1)
    out = []
    for b in invertible_matrices(lv, n - 1):
        for r in itertools.product(lv.elements(), repeat=n - 1):
            mat = ((1,) + r,) + tuple((0,) + row for row in b)
            out.append((mat, mat_inv(lv, mat)))
    return out


def orbit_census(tower, n):
    """Partition of every charpoly fiber of GL(n, F_q) into Q_1-conjugation
    orbits, from one pass over GL(n, F_q).

    Returns {a: {stratum: sorted orbit sizes}} for every characteristic
    vector a with unit constant term.
    """
    q = tower.q
    if not census_in_reach(n, q):
        raise CapExceeded(f"census enumeration not supported for n={n}, q={q}")
    lv = tower.level(1)
    fibers = {}
    for rows in invertible_matrices(lv, n):
        fibers.setdefault(charpoly(lv, rows), set()).add(rows)
    group = q1_elements(tower, n)
    census = {}
    for a, pool in fibers.items():
        orbits = []
        while pool:
            seed = min(pool)
            orbit = {mat_mul(lv, g, mat_mul(lv, seed, ginv)) for g, ginv in group}
            pool -= orbit
            orbits.append((len(krylov(lv, seed, [])), len(orbit)))
        by_stratum = census[a] = {}
        for m, size in sorted(orbits):
            by_stratum.setdefault(m, []).append(size)
    return census


def chart_orbit_count(lv, x_f, fiber, gl, translations):
    """Orbit count on the stratum chart of one factorization c = a_t * c'.

    Pairs (x', y) with x' in fiber, the x' in GL(k) with c(x') = c', and y an
    m x k block, under the unipotent-times-Levi chart group: g in gl, given
    with its inverse, conjugates x' and multiplies y on the right by g^(-1);
    the unipotent part translates y by x_F v - v x' for v in translations,
    with x_F the companion matrix of a_t.  Without the translations the count
    would be wrong whenever a_t and c' are coprime.
    """
    shifts = [(v, mat_mul(lv, x_f, v)) for v in translations]
    pool = {(x, y) for x in fiber for y in translations}
    count = 0
    while pool:
        seed_x, seed_y = min(pool)
        orbit = set()
        for g, ginv in gl:
            new_x = mat_mul(lv, g, mat_mul(lv, seed_x, ginv))
            yg = mat_mul(lv, seed_y, ginv)
            for v, x_f_v in shifts:
                new_y = tuple(
                    tuple(lv.sub(lv.add(c, s), t) for c, s, t in zip(*rows))
                    for rows in zip(yg, x_f_v, mat_mul(lv, v, new_x))
                )
                orbit.add((new_x, new_y))
        pool -= orbit
        count += 1
    return count


def _unit_constant_vectors(lv, d):
    """Every characteristic vector of degree d with unit constant term."""
    return [
        tuple(lead) + (const,)
        for lead in itertools.product(lv.elements(), repeat=d - 1)
        for const in lv.units()
    ]


def census_prediction(tower, n):
    """Orbit counts predicted by the stratification recursion, for every
    characteristic vector a of GL(n, F_q) with unit constant term.

    Stratum m of the fiber of a is matched to the factorizations a = a_t * c'
    with a_t of degree m and c' a charpoly fiber of GL(k), k = n - m; each
    pair adds its orbit count on the block chart (companion piece, smaller
    group element, off-diagonal block), a different enumeration from the
    full-size conjugation census.  Returns {a: {stratum: count}}.
    """
    lv = tower.level(1)
    # at k = 0 the chart is the companion matrix of a alone: one orbit
    prediction = {a: {n: 1} for a in _unit_constant_vectors(lv, n)}
    for m in range(1, n):
        k = n - m
        gl, fibers = [], {}
        for rows in invertible_matrices(lv, k):
            gl.append((rows, mat_inv(lv, rows)))
            fibers.setdefault(charpoly(lv, rows), []).append(rows)
        translations = list(all_matrices(lv, m, k))
        for a_t in _unit_constant_vectors(lv, m):
            x_f = companion_matrix(lv, a_t)
            for c_low, fiber in fibers.items():
                a = poly_to_char_coeffs(
                    pol_mul(lv, char_coeffs_to_poly(a_t), char_coeffs_to_poly(c_low))
                )
                count = chart_orbit_count(lv, x_f, fiber, gl, translations)
                prediction[a][m] = prediction[a].get(m, 0) + count
    return prediction


# -- maximal parabolic rank classification -----------------------------------


def parabolic_rank_classify(x: GroupPoint, split):
    """Rank of the lower-left block and a Levi conjugation to pivot form.

    The pivot form puts 1's on the antidiagonal of the top-right r x r corner
    of the lower-left block (so rank one means a single 1 in the corner) and
    zeros elsewhere.  Returns (rank, (g1, g2), representative GroupPoint);
    the point lies in the parabolic exactly when the rank is zero.
    """
    n1, n2 = split
    lv = x.level()
    n = x.n
    if n1 + n2 != n:
        raise ValueError("split does not match the matrix size")
    if not n2:
        return 0, (mat_identity(n1), ()), x
    c_block = tuple(tuple(x.rows[n1 + i][j] for j in range(n1)) for i in range(n2))
    a_mat, b_mat, r = _field_smith(lv, c_block)
    # a_mat * C * b_mat has identity in the leading r x r corner; permute
    # the columns so the pivots land on the antidiagonal of the top-right
    # r x r corner (rank one: a single 1 in the upper-right entry)
    col_perm = [[0] * n1 for _ in range(n1)]
    used = set()
    for i in range(r):
        col_perm[i][n1 - r + i] = 1
        used.add(n1 - r + i)
    free = [j for j in range(n1) if j not in used]
    for i, j in zip(range(r, n1), free):
        col_perm[i][j] = 1
    col_perm = tuple(tuple(rw) for rw in col_perm)
    b_full = mat_mul(lv, b_mat, col_perm)
    g2 = a_mat
    g1 = mat_inv(lv, b_full)
    big = [[0] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            big[i][j] = g1[i][j]
    for i in range(n2):
        for j in range(n2):
            big[n1 + i][n1 + j] = g2[i][j]
    big = tuple(tuple(rw) for rw in big)
    rep = mat_mul(lv, big, mat_mul(lv, x.rows, mat_inv(lv, big)))
    return r, (g1, g2), group_point(x.tower, rep)


def _field_smith(lv, c):
    """Invertible (A, B) with A C B = [[I_r, 0], [0, 0]]; returns (A, B, r).

    [C | I] has full row rank, so its echelon form is A [C | I] with A
    invertible, and R = A C is in reduced echelon form.  B's first r columns
    are the unit vectors at R's pivot columns; each other column j is e_j
    minus R's column j spread over those pivot columns, so R B keeps only
    the identity block.
    """
    n_cols = len(c[0])
    rows = echelon(lv, [tuple(r) + e for r, e in zip(c, mat_identity(len(c)))])
    pivots = [p for p in (row.index(1) for row in rows) if p < n_cols]
    units = mat_identity(n_cols)
    cols = [units[p] for p in pivots]
    for j in range(n_cols):
        if j not in pivots:
            col = list(units[j])
            for row, p in zip(rows, pivots):
                col[p] = lv.neg(row[j])
            cols.append(col)
    a = tuple(tuple(row[n_cols:]) for row in rows)
    return a, tuple(zip(*cols)), len(pivots)
