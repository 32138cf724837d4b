"""Dense linear algebra over a tower level, and polynomials over any field.

Matrices are tuples of row tuples of field elements.  Two kinds of kernel:

- Level-only and table-driven: mat_vec, mat_mul, charpoly and
  reduce_against (spans built one vector at a time) run over a tower Level
  alone.  They read its dlog, exp and Zech tables inline, with no Level
  method call per entry: mat_vec keeps each partial sum as a discrete log,
  and mat_mul and charpoly do their products through mat_vec.
  reduce_against is the one elimination over F_q: echelon (the reduced row
  echelon form), mat_inv (echelon of [a | I]) and mat_rank go through it.
- Field-generic: pol_mul and pol_divmod take any field with add, sub, mul
  and inv: a tower level (encoded elements), prime_field(p) (residues mod p,
  for building a tower's levels) or EXACT (int and Fraction values, for
  cyclotomic polynomials and inverses in Q(zeta_N)).  Linear systems over
  Q(zeta_N), Q included, go to cyclotomic.solve_linear_system.

all_matrices enumerates every n x k matrix over a level, and
invertible_matrices every point of GL(n, F_q), for the exhaustive sweeps.
charpoly runs Berkowitz's division-free recursion in O(n^4) field operations,
one step per block, and in two block orders:

- charpoly: the leading blocks, a[:k][:k] for k = 1..n, so row k is read
  first by step k;
- row0_charpolys: the same steps on the index-reversed matrix, whose leading
  blocks are a's trailing blocks, so row 0 is read by the last step alone.
  Matrices that differ in row 0 only, such as the left U_Q translates of
  the mirabolic module, share the prefix (every step but the last, and the
  last step's Krylov list) and cost one step each.

Characteristic polynomials are returned as the coefficient vector
(a_1, ..., a_n) of t^n + a_1 t^(n-1) + ... + a_n, matching the
companion-matrix convention used throughout the mirabolic module.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from types import SimpleNamespace


def all_matrices(level, n, k):
    """Every n x k matrix over level, in row-major lexicographic order."""
    for entries in itertools.product(level.elements(), repeat=n * k):
        yield tuple(entries[i * k:(i + 1) * k] for i in range(n))


def invertible_matrices(level, n):
    """Every invertible n x n matrix over level, in the order of all_matrices:
    each row is taken only outside the span of the rows above it."""
    candidates = list(itertools.product(level.elements(), repeat=n))
    basis = []

    def extend(rows):
        if len(rows) == n:
            yield rows
            return
        for row in candidates:
            if reduce_against(level, basis, row):
                yield from extend(rows + (row,))
                basis.pop()

    return extend(())


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(level, a, b):
    """a b over level, one mat_vec per row of a."""
    cols = tuple(zip(*b))
    return tuple(mat_vec(level, cols, row) for row in a)


def mat_vec(level, a, v):
    """a v over level, summed in discrete logs; only the first len(v)
    entries of each row of a are read.

    A term c x has log dlog[c] + dlog[x], below twice the group order; the
    partial sum's log s is kept reduced, and x^s + x^t = x^(s + Z(t - s)) with
    Z the level's Zech logarithm (-1 where the sum is 0).
    """
    dlog, zech, exp, order = level.dlog, level.zech, level.exp, level.size - 1
    terms = [(j, dlog[x]) for j, x in enumerate(v) if x]
    out = []
    for row in a:
        s = -1  # log of the partial sum; -1 while it is 0
        for j, t in terms:
            c = row[j]
            if c:
                t += dlog[c]
                if s >= 0:
                    z = zech[t - s]
                    if z < 0:
                        s = -1
                        continue
                    t = s + z
                s = t if t < order else t - order
        out.append(exp[s] if s >= 0 else 0)
    return tuple(out)


def reduce_against(level, basis, v):
    """Extend an echelon basis by v; False, leaving it as is, if v is in its span.

    Each row of basis has a 1 at its pivot, its first nonzero entry, and a 0
    at the pivots of the rows before it.
    A v outside the span is reduced against the rows and appended, scaled to
    a 1 at its pivot, so a span built one vector at a time keeps that form.
    The subtractions v - f row run on level's log tables, as in mat_vec.
    """
    dlog, zech, exp2, order = level.dlog, level.zech, level.exp2, level.size - 1
    log_neg_one = level.log_neg_one
    for row in basis:
        f = v[row.index(1)]
        if f:
            g = dlog[f] + log_neg_one  # a log of -f, reduced below
            if g >= order:
                g -= order
            out = []
            for a, b in zip(v, row):
                if b:
                    t = g + dlog[b]
                    if a:
                        i = dlog[a]
                        z = zech[t - i]
                        a = exp2[i + z] if z >= 0 else 0
                    else:
                        a = exp2[t]
                out.append(a)
            v = out
    for lead in v:
        if lead:
            break
    else:
        return False
    inv = -dlog[lead] % order  # the log of 1 / lead
    basis.append([exp2[dlog[c] + inv] if c else 0 for c in v])
    return True


# Q for pol_mul and pol_divmod, on int and Fraction values.
EXACT = SimpleNamespace(
    add=operator.add, sub=operator.sub, mul=operator.mul,
    inv=lambda x: Fraction(1) / x,
)


def prime_field(p):
    """F_p for pol_mul and pol_divmod, on the residues 0, ..., p - 1."""
    return SimpleNamespace(
        add=lambda a, b: (a + b) % p,
        sub=lambda a, b: (a - b) % p,
        mul=lambda a, b: a * b % p,
        inv=lambda a: pow(a, -1, p),
    )


def echelon(level, rows):
    """The reduced row echelon form of rows over level, its nonzero rows as
    lists in pivot order.

    reduce_against builds an echelon basis of the rows.  A basis row is 0 at
    the pivots of the rows before it, so reducing it against the rows after
    it, latest row first, clears its entries at their pivots and leaves its
    own pivot alone.
    """
    basis = []
    for row in rows:
        reduce_against(level, basis, row)
    for k in range(len(basis) - 2, -1, -1):
        later = basis[k + 1:]
        reduce_against(level, later, basis[k])
        basis[k] = later[-1]
    basis.sort(key=lambda row: row.index(1))
    return basis


def mat_inv(level, a):
    """The inverse, the right half of echelon([a | I]); raises ValueError on
    singular input."""
    n = len(a)
    rows = echelon(level, [tuple(r) + e for r, e in zip(a, mat_identity(n))])
    if rows and rows[-1].index(1) >= n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def mat_rank(level, a):
    """The number of rows of a that reduce_against appends to a basis."""
    basis = []
    return sum(reduce_against(level, basis, row) for row in a)


def charpoly(level, a):
    """(a_1, ..., a_n) with det(tI - a) = t^n + a_1 t^(n-1) + ... + a_n.

    Berkowitz's division-free recursion (S. J. Berkowitz, IPL 18, 1984) on
    the leading blocks of a, one _berkowitz_step per block.
    """
    return _berkowitz(level, a)[1:]


def row0_charpolys(level, a, rows0):
    """charpoly of a with its row 0 replaced by each row of rows0.

    charpoly's steps run on the index-reversed matrix b[i][j] =
    a[n-1-i][n-1-j], a conjugate of a.  Its leading blocks are a's trailing
    blocks, so every step but the last, and the last step's Krylov list,
    read rows 1..n-1 of a alone: they run once, and each row of rows0 costs
    the last step.
    """
    rev = tuple(row[::-1] for row in a[:0:-1])
    poly = _berkowitz(level, rev)
    krylov = _block_krylov(level, rev)
    return [_berkowitz_step(level, poly, krylov, row[::-1])[1:] for row in rows0]


def _berkowitz(level, rows):
    """The characteristic vector, leading 1 included, of the leading
    len(rows) x len(rows) block of rows."""
    if not rows:
        return (1,)
    # the 1 x 1 block (r) has the vector (1, -r)
    r = rows[0][0]
    poly = (1, level.exp2[level.dlog[r] + level.log_neg_one] if r else 0)
    for k in range(1, len(rows)):
        poly = _berkowitz_step(level, poly, _block_krylov(level, rows[:k]), rows[k])
    return poly


def _block_krylov(level, rows):
    """C, A C, ..., A^(k-1) C for k = len(rows), with A the leading k x k
    block of rows and C their column k.

    The rows run past column k, but mat_vec reads only the first len(v) = k
    entries of each.
    """
    k = len(rows)
    krylov = [tuple(r[k] for r in rows)] if k else []
    while len(krylov) < k:
        krylov.append(mat_vec(level, rows, krylov[-1]))
    return krylov


def _berkowitz_step(level, poly, krylov, row):
    """The characteristic vector of a (k+1) x (k+1) block from poly, that of
    its leading k x k block A, with k = len(krylov).

    Write the block as [[A, C], [R, r_k]] with R = row[:k] and r_k = row[k],
    and krylov = C, A C, ..., A^(k-1) C.  The larger vector is T poly, where
    T is the (k+2) x (k+1) lower-triangular Toeplitz matrix with first column
    (1, -r_k, -R C, -R A C, ..., -R A^(k-1) C).  That product is one mat_vec,
    on rows of T sliced from the reversed column.
    """
    dlog, exp2, log_neg_one = level.dlog, level.exp2, level.log_neg_one
    k = len(krylov)
    col = (1,) + tuple(
        exp2[dlog[c] + log_neg_one] if c else 0
        for c in (row[k],) + mat_vec(level, krylov, row[:k])
    )
    # row j of T is (col_j, col_(j-1), ..., col_(j-k)), zero past col_0
    rev = col[::-1] + (0,) * k
    toeplitz = [rev[k + 1 - j:2 * k + 2 - j] for j in range(k + 2)]
    return mat_vec(level, toeplitz, poly)


def char_coeffs_to_poly(coeffs):
    """Monic polynomial, low degree first, from an (a_1, ..., a_n) vector."""
    n = len(coeffs)
    return tuple(coeffs[n - 1 - k] for k in range(n)) + (1,)


def poly_to_char_coeffs(poly):
    n = len(poly) - 1
    return tuple(poly[n - 1 - i] for i in range(n))


# -- polynomials over a field (low degree first) ------------------------------


def pol_mul(level, a, b):
    add, mul = level.add, level.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return tuple(out)


def pol_divmod(level, a, b):
    a = list(a)
    db = len(b) - 1
    while db >= 0 and b[db] == 0:
        db -= 1
    if db < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    inv_lead = level.inv(b[db])
    if len(a) - 1 < db:
        return (0,), tuple(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = level.mul(a[k + db], inv_lead)
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] = level.sub(a[k + i], level.mul(c, b[i]))
    rem = a[:db] if db else [0]
    return tuple(q), tuple(rem if any(rem) else [0])

