"""Conjugacy classes and the character table of GL(2, F_q); the exact oracle.

The table is built from the classical four families (one-dimensional twists
of det, their Steinberg companions, principal series, cuspidal) and verified
by exact row orthogonality in build_gl2_table; the table is square, so its
columns are then orthogonal too.  Every value lies in the table's ring
Q(zeta_M), M = q^2 - 1, and is held as group-ring terms ((exponent mod M,
integer), ...), read off the eigenvalues' discrete logs; the orthogonality
sums are collected in Z[Z/M], where conjugation negates an exponent, over the
classes where both rows are nonzero, and each is reduced modulo Phi_M once.
The oracle reads the terms as well: a non-generic column, the expansion of
one character with gamma 1, is a value of the table's ring, and a generic
column or a phi value, a sum of gamma values times character values, is one
ZetaSum of the tower's Q(zeta_N), its gamma values shifted by the terms'
exponents times N/M.  The oracle expands the gamma trace over irreducible
characters, read at g itself (the pairing chi_r(g)): the generic
coefficients come from the torus Mellin transform (identity twist for
principal-series parameters, the long twist for cuspidal parameters), the
non-generic ones are solved for exactly, and the overdetermined system must
close on every regular class.  It keeps the system it solved; the
family-scale calibration solves it with the scales free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CyclotomicRing, solve_linear_system
from .errors import CapExceeded, SystemInconsistent, TableNotOrthogonal
from .mirabolic import group_point
from .torus import TorusCharacter

# Largest q whose table is built; gl2-main and oracle are refused above it.
TABLE_Q_MAX = 16

# -- conjugacy classes ---------------------------------------------------------


@dataclass(frozen=True)
class Gl2Class:
    """One conjugacy class, keyed by characteristic vector and centrality."""

    key: tuple  # (a1, a2, is_central)
    kind: str  # "central" | "nonss" | "split" | "nonsplit"
    size: int
    logs: tuple  # discrete logs (e1, e2) of the eigenvalues in F_(q^2)^x


def gl2_order(q):
    return (q * q - 1) * (q * q - q)


def gl2_classes(tower):
    q = tower.q
    lv = tower.level(1)
    l2 = tower.level(2)
    out = []
    for a in lv.units():
        # a unit of F_q embeds in F_(q^2) with its log times q + 1
        e = (q + 1) * lv.dlog[a]
        ch = (lv.neg(lv.add(a, a)), lv.mul(a, a))
        out.append(Gl2Class((*ch, True), "central", 1, (e, e)))
        out.append(Gl2Class((*ch, False), "nonss", q * q - 1, (e, e)))
    units = list(lv.units())
    for i, a in enumerate(units):
        for b in units[i + 1 :]:
            ch = (lv.neg(lv.add(a, b)), lv.mul(a, b))
            logs = ((q + 1) * lv.dlog[a], (q + 1) * lv.dlog[b])
            out.append(Gl2Class((*ch, False), "split", q * q + q, logs))
    seen = set()
    for alpha in l2.units():
        if l2.dlog[alpha] % ((l2.size - 1) // (q - 1)) == 0:
            continue  # alpha rational
        pair = tuple(sorted((alpha, l2.frobenius(alpha))))
        if pair in seen:
            continue
        seen.add(pair)
        ch = (lv.neg(tower.trace(alpha, 2)), tower.norm(alpha, 2))
        logs = tuple(l2.dlog[x] for x in pair)
        out.append(Gl2Class((*ch, False), "nonsplit", q * q - q, logs))
    assert sum(c.size for c in out) == gl2_order(q)
    return out


def class_of(tower, x_rows):
    """Class key of a matrix: characteristic vector plus centrality."""
    pt = group_point(tower, x_rows)
    central = (
        x_rows[0][1] == 0
        and x_rows[1][0] == 0
        and x_rows[0][0] == x_rows[1][1]
    )
    return (pt.char[0], pt.char[1], central)


# -- irreducible characters ----------------------------------------------------


@dataclass(frozen=True)
class Gl2Irrep:
    """One irreducible character, in the standard four-family parametrization.

    family "onedim" and "steinberg" carry one unit-group exponent; "principal"
    an unordered pair of distinct exponents; "cuspidal" a level-two exponent
    with trivial Frobenius pairing removed, up to exponent -> q * exponent.
    """

    family: str
    params: tuple
    dim: int


def gl2_irreps(tower):
    q = tower.q
    out = []
    for j in range(q - 1):
        out.append(Gl2Irrep("onedim", (j,), 1))
        out.append(Gl2Irrep("steinberg", (j,), q))
    for j1 in range(q - 1):
        for j2 in range(j1 + 1, q - 1):
            out.append(Gl2Irrep("principal", (j1, j2), q + 1))
    size2 = q * q - 1
    seen = set()
    for k in range(size2):
        if (k * q) % size2 == k % size2:
            continue  # restricted from level 1
        rep = min(k % size2, (k * q) % size2)
        if rep in seen:
            continue
        seen.add(rep)
        out.append(Gl2Irrep("cuspidal", (rep,), q - 1))
    assert sum(r.dim * r.dim for r in out) == gl2_order(q)
    return out


def character_value(tower, irrep: Gl2Irrep, cls: Gl2Class):
    """The character value as group-ring terms ((e, m), ...): sum of m * zeta_M^e.

    Exponents lie in range(M), M = q^2 - 1; the empty tuple is zero.  A
    character of exponent j, of F_q^x or F_(q^2)^x, takes zeta_M^(j e) at an
    eigenvalue of log e, so a twist of det takes zeta_M^(j (e1 + e2)).
    """
    q, n = tower.q, tower.q * tower.q - 1
    e1, e2 = cls.logs
    kind, fam = cls.kind, irrep.family
    if fam in ("onedim", "steinberg"):
        (j,) = irrep.params
        det = j * (e1 + e2) % n
        if fam == "onedim":
            return ((det, 1),)
        m = {"central": q, "nonss": 0, "split": 1, "nonsplit": -1}[kind]
        return ((det, m),) if m else ()
    if fam == "principal":
        j1, j2 = irrep.params
        if kind == "split":
            return (((j1 * e1 + j2 * e2) % n, 1), ((j1 * e2 + j2 * e1) % n, 1))
        m = {"central": q + 1, "nonss": 1, "nonsplit": 0}[kind]
        return (((j1 + j2) * e1 % n, m),) if m else ()
    if fam == "cuspidal":
        (k,) = irrep.params
        if kind == "nonsplit":
            return ((k * e1 % n, -1), (k * e2 % n, -1))
        m = {"central": q - 1, "nonss": -1, "split": 0}[kind]
        return ((k * e1 % n, m),) if m else ()
    raise ValueError(f"unknown family {fam}")


class Gl2Table:
    """Full character table with exact orthogonality verification.

    ring is Q(zeta_M), M = q^2 - 1, which holds every character value, and
    terms maps (irrep, class key) to the group-ring terms of character_value.
    """

    def __init__(self, tower):
        if tower.q > TABLE_Q_MAX:
            raise CapExceeded(
                f"table construction is limited to q <= {TABLE_Q_MAX}"
            )
        if tower.max_level < 2:
            raise ValueError("the table needs level 2 in the tower")
        self.tower = tower
        self.ring = CyclotomicRing(tower.q * tower.q - 1)
        self.classes = gl2_classes(tower)
        self.irreps = gl2_irreps(tower)
        self.terms = {
            (irrep, cls.key): character_value(tower, irrep, cls)
            for irrep in self.irreps
            for cls in self.classes
        }

    def verify_orthogonality(self):
        """Exact row orthogonality of a square table, read from the terms.

        Row orthogonality is X D X* = |G| I, with D the diagonal of class
        sizes.  For a square X over the field Q(zeta_M) this makes D X* / |G|
        a two-sided inverse of X, so X* X = |G| D^-1, which is column
        orthogonality; a table with more or fewer irreps than classes fails.

        Each sum of |c| * chi(c) * conj(chi'(c)), less its integer target, is
        collected in Z[Z/M] over the classes where both rows are nonzero: the
        terms (e1, m1) and (e2, m2) contribute m1 * m2 at exponent e1 - e2.
        A sum that is not already zero there is reduced to Q(zeta_M) once and
        must be zero.
        """
        if len(self.irreps) != len(self.classes):
            raise TableNotOrthogonal(
                f"table is not square: {len(self.irreps)} irreps, "
                f"{len(self.classes)} classes"
            )
        ring = self.ring
        order = gl2_order(self.tower.q)
        # rows are grouped by support, the classes where they are nonzero;
        # per row: its support's index, its terms and its terms times |c|
        supports, rows = {}, []
        for r in self.irreps:
            row = [self.terms[(r, c.key)] for c in self.classes]
            support = tuple(k for k, t in enumerate(row) if t)
            weighted = [
                [(e, m * c.size) for e, m in t] for t, c in zip(row, self.classes)
            ]
            rows.append((supports.setdefault(support, len(supports)), row, weighted))
        shared = {  # (support, support) -> the classes in both
            (s1, s2): sorted(set(support1).intersection(support2))
            for support1, s1 in supports.items()
            for support2, s2 in supports.items()
        }
        for i, (s1, _, weighted) in enumerate(rows):
            for j in range(i, len(rows)):
                s2, row2, _ = rows[j]
                coeffs = [0] * ring.conductor
                if i == j:
                    coeffs[0] = -order
                for k in shared[(s1, s2)]:
                    t2 = row2[k]
                    for e1, w1 in weighted[k]:
                        for e2, m2 in t2:
                            # e1 - e2 lies in (-M, M), and a negative index
                            # counts from the end of the list, so it folds mod M
                            coeffs[e1 - e2] += w1 * m2
                if any(coeffs) and any(ring._reduce(coeffs)):
                    raise TableNotOrthogonal(
                        f"row orthogonality fails for {self.irreps[i]} vs "
                        f"{self.irreps[j]}"
                    )
        return True


def build_gl2_table(tower) -> Gl2Table:
    table = Gl2Table(tower)
    table.verify_orthogonality()
    return table


# -- the Mellin oracle ---------------------------------------------------------


# The oracle reads chi_r at g itself, chi_r(g); reports name this pairing.
PAIRING = "direct"


@dataclass
class OracleResult:
    """Solved class function, solve diagnostics and the system solved.

    generic, rows and rhs are the regular-class system as _regular_system
    built it, scale columns and original right-hand side included, so that
    calibrate_generic_units solves the same system with the scales free.
    """

    values: dict  # class key -> CycNum, every class
    gammas: dict  # irrep -> CycNum
    rank: int
    unknown_count: int
    generic: dict  # family -> {irrep: raw Mellin value}
    rows: list
    rhs: list


# Each generic family enters the expansion as its raw torus Mellin transforms
# times one scale per family.  The scale is q * sign_W(w) for the twist w of
# the parametrizing torus (identity for principal series, the long element for
# cuspidal): calibrate_generic_units solves for the scales, and the
# regular-class system pins exactly these values wherever it has full rank
# (q in {3, 4, 5, 7, 9, 11, 13, 16}, standard weights).
GENERIC_SIGNS = {"principal": 1, "cuspidal": -1}


def _raw_mellin(traces, irrep: Gl2Irrep):
    """Torus Mellin transform at the character parametrizing a generic irrep."""
    w = (0, 1) if irrep.family == "principal" else (1, 0)
    return traces.mellin_gamma(w, TorusCharacter(w, irrep.params))


def _expand(ring, table, gammas, key, den=1):
    """sum_r dim(r) gammas[r] chi_r(key) / den in ring, a Q(zeta_N) with M
    dividing N, summed in Z[Z/N]: zeta_M^e is zeta_N^(e N/M)."""
    spread = ring.conductor // table.ring.conductor
    acc = ring.accumulator()
    for r, g in gammas.items():
        for e, m in table.terms[(r, key)]:
            acc.add_shifted(g, e * spread, m * r.dim)
    return acc.value(den)


def _regular_system(traces, gamma_calc, table):
    """The equations sum_r dim(r) gamma_r chi_r(g) = |G| phi(g), g regular.

    Returns (generic, unknown, rows, rhs).  generic maps each generic family
    present (principal first) to {irrep: raw Mellin value}.  A row has one
    column per family in generic, the coefficient of the family scale, in
    the tower's ring, then one column per non-generic irrep in unknown, in
    the table's ring; rhs is in the tower's ring.
    """
    ring, small = table.tower.ring, table.ring
    order = gl2_order(table.tower.q)
    generic = {}
    for r in table.irreps:
        if r.family in GENERIC_SIGNS:
            generic.setdefault(r.family, {})[r] = _raw_mellin(traces, r)
    unknown = [r for r in table.irreps if r.family not in GENERIC_SIGNS]
    rows, rhs = [], []
    for cls in table.classes:
        if cls.kind == "central":
            continue
        row = [_expand(ring, table, raw, cls.key) for raw in generic.values()]
        row += [_expand(small, table, {r: small.one}, cls.key) for r in unknown]
        rows.append(row)
        phi = gamma_calc.value_for_charpoly(cls.key[:2])
        rhs.append(ring.embed(phi) * order)
    return generic, unknown, rows, rhs


def _solve(rows, rhs, what):
    """Exact solution of the system, which must satisfy every equation."""
    solution, rank, consistent = solve_linear_system(rows, rhs)
    if not consistent:
        raise SystemInconsistent(f"{what}: residual nonzero")
    return solution, rank


def calibrate_generic_units(oracle: OracleResult):
    """Re-derive the family scales (u_principal, u_cuspidal) from scratch.

    Solves the oracle's regular-class system exactly with one scale per
    generic family and every non-generic gamma as unknowns.  Returns
    (u_principal, u_cuspidal, rank, unknown_count); when the rank is full the
    scales are forced and must equal (q, -q).  q = 2 has no principal series
    and the scale slot is returned as None.

    The scale columns, dense in the tower's ring, are pivoted last, so every
    pivot before them is inverted in the table's small ring.  At full rank
    the solution is unique; below it, the system is solved again scales
    first, whose free variables (set to zero) are the ones reported.
    """
    what = "family-scale calibration"
    k, n = len(oracle.generic), len(oracle.rows[0])
    scales_last = [row[k:] + row[:k] for row in oracle.rows]
    solution, rank = _solve(scales_last, oracle.rhs, what)
    if rank == n:
        solution = solution[-k:]
    else:
        solution, rank = _solve(oracle.rows, oracle.rhs, what)
    scales = dict(zip(oracle.generic, solution))
    return scales.get("principal"), scales["cuspidal"], rank, n


def oracle_phi(traces, gamma_calc, table) -> OracleResult:
    """Solve the exact class-function expansion of the gamma trace.

    traces is the torus trace calculator of the weight system, gamma_calc the
    GammaTrace used for the right-hand side on regular classes, table the
    verified character table.  The generic gammas are their raw Mellin values
    times the family scales q * sign; the non-generic ones are solved for,
    and a system that does not close raises SystemInconsistent.  The result
    carries values on every class, including central ones.
    """
    tower = table.tower
    generic, unknown, rows, rhs = _regular_system(traces, gamma_calc, table)
    scales = [GENERIC_SIGNS[fam] * tower.q for fam in generic]
    k = len(scales)
    fixed = [
        b - tower.ring.sum(c * u for c, u in zip(row, scales))
        for row, b in zip(rows, rhs)
    ]
    solution, rank = _solve([row[k:] for row in rows], fixed, "oracle system")
    gammas = {}
    for raw, scale in zip(generic.values(), scales):
        gammas.update((r, g * scale) for r, g in raw.items())
    gammas.update(zip(unknown, solution))
    order = gl2_order(tower.q)
    values = {
        c.key: _expand(tower.ring, table, gammas, c.key, order) for c in table.classes
    }
    return OracleResult(
        values=values,
        gammas=gammas,
        rank=rank,
        unknown_count=len(unknown),
        generic=generic,
        rows=rows,
        rhs=rhs,
    )
