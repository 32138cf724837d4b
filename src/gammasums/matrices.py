"""Dense linear algebra over a tower level, Q or Q(zeta_N).

Matrices are tuples of row tuples of field elements.  Gaussian elimination
lives in row_reduce, with reduce_against for spans built one vector at a
time; polynomial products and divisions live in pol_mul and pol_divmod.  These
kernels take any field with add, sub, mul and inv: a tower level (encoded
elements), prime_field(p) (residues mod p, for building a tower's levels) or
EXACT (int, Fraction and CycNum values, for cyclotomic polynomials and
inverses in Q(zeta_N)).  The matrix helpers mat_mul, mat_vec and charpoly work
over a tower level, and all_matrices enumerates every n x k matrix over one,
for the exhaustive sweeps.

charpoly runs Berkowitz's division-free recursion on the leading blocks, with
mat_vec and pol_mul for its products, in O(n^4) field operations.
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


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(level, a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    add, mul = level.add, level.mul
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = 0
            for t in range(k):
                if ai[t] and b[t][j]:
                    acc = add(acc, mul(ai[t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(level, a, v):
    add, mul = level.add, level.mul
    out = []
    for row in a:
        acc = 0
        for c, x in zip(row, v):
            if c and x:
                acc = add(acc, mul(c, x))
        out.append(acc)
    return tuple(out)


def row_reduce(field, rows, ncols):
    """Reduced row echelon form of rows over field, and its pivot columns.

    field supplies sub, mul and inv on its elements, whose zero is falsy: a
    tower Level, or EXACT for int, Fraction and CycNum values.  Pivots are
    sought in the first ncols columns only; columns beyond them (an augmented
    block) are carried along.  Returns (rows, pivots) with the rows as lists, the
    pivot rows first in pivot order.
    """
    rows = [list(r) for r in rows]
    sub, mul, inv = field.sub, field.mul, field.inv
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        for r in range(rank, len(rows)):
            if rows[r][col]:
                break
        else:
            continue
        lead = inv(rows[r][col])
        prow = [mul(lead, c) if c else c for c in rows[r]]
        rows[r] = rows[rank]
        rows[rank] = prow
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                rows[i] = [sub(a, mul(f, b)) if b else a for a, b in zip(row, prow)]
        pivots.append(col)
    return rows, pivots


def reduce_against(field, basis, v):
    """Extend an echelon basis by v; False, leaving it as is, if v is in its span.

    Each row of basis has a 1 at its pivot, its first nonzero entry, and a 0
    at the pivots of the rows before it, as the pivot rows of row_reduce do.
    A v outside the span is reduced against the rows and appended, scaled to
    a 1 at its pivot, so a span built one vector at a time keeps that form.
    """
    sub, mul = field.sub, field.mul
    for row in basis:
        f = v[row.index(1)]
        if f:
            v = [sub(a, mul(f, b)) if b else a for a, b in zip(v, row)]
    lead = next((c for c in v if c), None)
    if lead is None:
        return False
    lead = field.inv(lead)
    basis.append([mul(lead, c) if c else c for c in v])
    return True


# Q and Q(zeta_N) for the kernels, on int, Fraction and CycNum values.
EXACT = SimpleNamespace(
    add=operator.add, sub=operator.sub, mul=operator.mul,
    inv=lambda x: Fraction(1) / x,
)


def prime_field(p):
    """F_p for the kernels, on the residues 0, ..., p - 1."""
    return SimpleNamespace(
        add=lambda a, b: (a + b) % p,
        sub=lambda a, b: (a - b) % p,
        mul=lambda a, b: a * b % p,
        inv=lambda a: pow(a, -1, p),
    )


def mat_inv(level, a):
    """Gauss-Jordan inverse; raises ValueError on singular input."""
    n = len(a)
    rows, pivots = row_reduce(
        level, [list(r) + list(e) for r, e in zip(a, mat_identity(n))], n
    )
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def mat_rank(level, a):
    return len(row_reduce(level, a, len(a[0]))[1]) if a else 0


def charpoly(level, a):
    """(a_1, ..., a_n) with det(tI - a) = t^n + a_1 t^(n-1) + ... + a_n.

    Berkowitz's division-free recursion (S. J. Berkowitz, IPL 18, 1984).
    Write the leading (k+1) x (k+1) block as [[A, C], [R, a_kk]] with A the
    leading k x k block.  The characteristic vector of the larger block,
    leading 1 included, is T times that of A, where T is the (k+2) x (k+1)
    lower-triangular Toeplitz matrix with first column
    (1, -a_kk, -R C, -R A C, ..., -R A^(k-1) C).  That product is the
    convolution of the column with the vector, cut to its first k+2 terms.
    """
    poly = (1,)
    for k, row in enumerate(a):
        block = tuple(r[:k] for r in a[:k])
        krylov = [tuple(r[k] for r in a[:k])] if k else []
        while len(krylov) < k:
            krylov.append(mat_vec(level, block, krylov[-1]))
        col = (1, level.neg(row[k])) + tuple(
            level.neg(c) for c in mat_vec(level, krylov, row[:k])
        )
        poly = pol_mul(level, col, poly)[:k + 2]
    return poly[1:]


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

