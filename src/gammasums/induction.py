"""Flag-variety induction traces and the gamma trace on the regular locus.

For a regular-semisimple element the induced trace can be computed two ways:
summing the torus trace over stable full flags, or summing over orderings of
the eigenvalue multiset that are fixed by a Weyl twist of Frobenius.  Those
orderings form the Steinberg fiber in the twisted torus.  Each twist's
points and normalized traces are collected once in TorusTraces, grouped by
twisted_charpoly and summed per fiber (TorusTraces.fiber_sums), and the
gamma trace is one table, built on first use, of the Weyl averages of those
fiber sums.  Like the torus traces it is built from, every value lies in
Q(zeta_p), the tower's psi_ring, and so do the flag, coset, det-fiber and
Levi sums formed from it.  It depends on the element only through its
characteristic polynomial, is defined exactly on the regular locus (cyclic
elements, which includes everything with squarefree characteristic
polynomial), and refuses to return values anywhere else.  An element is
regular when I, x, ..., x^(n-1) are linearly independent; that rank is found
with the reduce_against kernel.
"""

from __future__ import annotations

import itertools

from .errors import CapExceeded, NotComputableLocus, NotTopStratum
from .matrices import (
    echelon,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_vec,
    pol_divmod,
    reduce_against,
)
from .mirabolic import (
    GroupPoint,
    coset_charpolys,
    coset_strata,
    group_point,
    stratum_index,
)
from .torus import perm_sign

# Largest n whose full flags are enumerated; validate_config refuses above it.
FLAG_N_MAX = 3

# -- subspaces and flags ------------------------------------------------------


def enumerate_lines(tower, n):
    """Lines of F_q^n as their vectors with first nonzero entry 1, which
    come first in product order since 1 encodes the smallest unit."""
    lv = tower.level(1)
    return [
        (v,)
        for v in itertools.product(lv.elements(), repeat=n)
        if next((c for c in v if c), None) == 1
    ]


def full_flags(tower, n):
    """All full flags of F_q^n as tuples of echelon bases (n <= FLAG_N_MAX)."""
    if n > FLAG_N_MAX:
        raise CapExceeded(f"flag enumeration is limited to n <= {FLAG_N_MAX}")
    lv = tower.level(1)
    lines = enumerate_lines(tower, n)
    if n <= 2:
        return [(basis,) for basis in lines]
    flags = []
    for line in lines:
        seen = set()
        for v in itertools.product(lv.elements(), repeat=n):
            rows = echelon(lv, [line[0], v])
            if len(rows) < 2:
                continue
            plane = tuple(tuple(r) for r in rows)
            if plane not in seen:
                seen.add(plane)
                flags.append((line, plane))
    return flags


def flag_fixed_points(g: GroupPoint, flags):
    """The g-stable flags among flags, the full flags of F_q^n.

    A flag is stable when each of its subspaces is; each subspace is tested
    once, however many flags hold it.
    """
    lv = g.level()
    stable = {}

    def is_stable(basis):
        if basis not in stable:
            span = list(basis)
            stable[basis] = not any(
                reduce_against(lv, span, mat_vec(lv, g.rows, b)) for b in basis
            )
        return stable[basis]

    return [f for f in flags if all(map(is_stable, f))]


def flag_grading(g: GroupPoint, flag):
    """Scalars by which g acts on the successive flag quotients.

    One vector from each flag step outside the step below gives a basis F in
    which g is upper triangular; the scalars are the diagonal of F^(-1) g F.
    """
    lv = g.level()
    span = []
    cols = [
        next(b for b in basis if reduce_against(lv, span, b))
        for basis in list(flag) + [mat_identity(g.n)]
    ]
    f_inv = mat_inv(lv, tuple(zip(*cols)))
    return tuple(
        mat_vec(lv, (row,), mat_vec(lv, g.rows, c))[0]
        for row, c in zip(f_inv, cols)
    )


def induced_trace(traces, g: GroupPoint, flags):
    """Flag-sum trace of the induced object at g, flags the full flags of
    F_q^n as full_flags builds them.

    The degree shift is d = n^2 - n, which is even for every n, so the global
    sign is +1; it is written out anyway to keep the normalization visible.
    """
    sign = (-1) ** (g.n * g.n - g.n)
    total = g.tower.psi_ring.sum(
        traces.hyper_trace(flag_grading(g, flag))
        for flag in flag_fixed_points(g, flags)
    )
    return total * sign


# -- factoring ----------------------------------------------------------------


def factor_monic(tower, poly_low):
    """Irreducible factors (with multiplicity) of a monic polynomial over F_q."""
    lv = tower.level(1)
    factors = []
    rem = tuple(poly_low)
    deg = len(rem) - 1
    e = 1
    while len(rem) > 1:
        found = False
        for tail in itertools.product(lv.elements(), repeat=e):
            cand = tuple(tail) + (1,)
            quot, r = pol_divmod(lv, rem, cand)
            if not any(r):
                mult = 1
                rem = quot
                while True:
                    quot, r = pol_divmod(lv, rem, cand)
                    if any(r):
                        break
                    mult += 1
                    rem = quot
                factors.append((cand, mult))
                found = True
                break
        if not found:
            e += 1
            if e > deg:
                raise ArithmeticError("factorization ran past the degree")
    return factors


# -- the gamma trace on the regular locus -------------------------------------


def minimal_polynomial_degree(x: GroupPoint) -> int:
    """Degree of the minimal polynomial: the rank of I, x, ..., x^(n-1).

    The powers are flattened and added to an echelon basis one at a time; the
    first power in the span of those before it ends the search.
    """
    lv = x.level()
    basis = []
    power = mat_identity(x.n)
    while reduce_against(lv, basis, [c for row in power for c in row]):
        if len(basis) == x.n:
            break
        power = mat_mul(lv, power, x.rows)
    return len(basis)


def is_regular(x: GroupPoint) -> bool:
    return minimal_polynomial_degree(x) == x.n


class GammaTrace:
    """The gamma trace function on the regular locus of GL(n).

    Values are computed per characteristic vector as the Weyl average of the
    sums of the normalized twisted traces over its Steinberg fibers
    (TorusTraces.fiber_sums), scaled by the global constant
    kappa = (-1)^(n^2-n) = +1.  The whole table of values is built on the
    first value asked for; a vector in no fiber (wrong length, or zero
    constant term) raises ValueError.  weyl_sign=False switches to the
    untwisted descent (the mutation control): each twist's sums are
    multiplied by sign_W(w), which takes that sign back off the normalized
    traces; everything else is shared.
    """

    def __init__(self, traces, weyl_sign=True):
        self.traces = traces
        self.tower = traces.tower
        self.ws = traces.ws
        self.weyl_sign = weyl_sign
        self._table = None
        if len(self.ws.shape) != 1:
            raise ValueError("the gamma trace needs a single-factor shape")
        self.n = self.ws.shape[0]

    def value_for_charpoly(self, char_coeffs) -> object:
        if self._table is None:
            self._table = self._build_table()
        key = tuple(char_coeffs)
        if key not in self._table:
            raise ValueError(f"no twisted torus point has characteristic vector {key}")
        return self._table[key]

    def _build_table(self):
        """{characteristic vector: value}, one accumulator per vector."""
        ring = self.tower.psi_ring
        weyl = self.ws.weyl()
        kappa = (-1) ** (self.n * self.n - self.n)
        accs = {}
        for w in weyl:
            c = kappa if self.weyl_sign else kappa * perm_sign(w)
            for char, total in self.traces.fiber_sums(w).items():
                if char not in accs:
                    accs[char] = ring.accumulator()
                accs[char].add_shifted(total, 0, c)
        return {char: acc.value(len(weyl)) for char, acc in accs.items()}

    def phi_regular(self, x: GroupPoint):
        if not is_regular(x):
            raise NotComputableLocus(
                "gamma trace requested off the regular locus"
            )
        return self.value_for_charpoly(x.char)

    def coset_vanishing_top(self, x: GroupPoint):
        """Sum of the gamma trace over the left U_Q coset of a top-stratum point.

        Returns (coset_sum, det_fiber_sum): the direct sum over U_Q
        translates, and the same number recomputed as a sum over
        characteristic vectors with the same determinant coefficient.  Both
        must be exactly zero.
        """
        tower = self.tower
        lv = tower.level(1)
        n = self.n
        if stratum_index(x) != n:
            raise NotTopStratum("coset vanishing needs a top-stratum point")
        vs = list(itertools.product(lv.elements(), repeat=n - 1))
        if any(m != n for m in coset_strata(lv, x.rows, vs)):
            raise NotTopStratum("left translation left the top stratum")
        # e_1 is cyclic for every translate, so each one is regular and its
        # gamma trace is read off its characteristic vector
        chars = coset_charpolys(lv, x.rows, vs)
        coset = tower.psi_ring.sum(map(self.value_for_charpoly, chars))
        det_fiber = tower.psi_ring.sum(
            self.value_for_charpoly(tuple(lead) + (x.char[-1],))
            for lead in itertools.product(lv.elements(), repeat=n - 1)
        )
        if len(set(chars)) != tower.q ** (n - 1):
            raise NotTopStratum("coset does not biject onto the det fiber")
        return coset, det_fiber


def levi_restriction_sum(gamma: GammaTrace, t_coords):
    """Sum of the gamma trace over upper-triangular translates of a torus point.

    For a diagonal point with distinct entries every translate is regular, and
    the sum must be a fixed unit times the torus trace at the point.
    """
    tower = gamma.tower
    lv = tower.level(1)
    n = gamma.n
    if len(set(t_coords)) != n:
        raise NotComputableLocus("the torus point must have distinct entries")
    diag = tuple(
        tuple(t_coords[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    positions = [(i, j) for i in range(n) for j in range(n) if i < j]
    translates = []
    for vals in itertools.product(lv.elements(), repeat=len(positions)):
        u_mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(positions, vals):
            u_mat[i][j] = v
        translates.append(group_point(tower, mat_mul(lv, u_mat, diag)))
    return tower.psi_ring.sum(gamma.phi_regular(ut) for ut in translates)
