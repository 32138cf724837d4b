"""Weight systems on split tori and their exponential-sum trace functions.

A weight system records the multiset of integer weight vectors of a torus
representation together with the block structure of repeated weights and the
Weyl group of the ambient product of general linear groups.  The trace
operations all reduce to exact character sums:

  * hyper_trace       signed psi-sum over the fiber of the monomial map: the
                      identity twist's bucket of the point at level 1, from
                      the same walk as the twisted sums
  * twisted sums      fixed points of (slot permutation) o Frobenius on the
                      covering coordinates, with the Weyl descent
                      normalization sign_r(xi) * sign_W(w) on top of the raw
                      fixed-point sum; the fixed points of each xi o F are
                      walked once and bucketed by their image, and each
                      point reads its bucket
  * fiber_sums        each twist's collected points and normalized traces,
                      grouped by twisted_charpoly (the characteristic vector
                      of a twisted point) into Steinberg fibers and summed
                      per fiber; the gamma trace is read from these sums
  * mellin_gamma      character-sum transform over a twisted torus, which
                      factorizes into Gauss sums along permutation orbits;
                      each twist's points and their normalized traces are
                      collected once, and each Gauss sum is computed once
  * kummer            convolution of the trace against a rational character;
                      the split-torus points and the index of every quotient
                      x / s are built once per instance, the traces and the
                      character's exponents are read on each call; each
                      point's sum is compared with the first point's in
                      Z[Z/N], so a character costs one reduction unless the
                      sums differ
  * sigma_fiber_sum   the sign-averaged determinant-fiber sum that must
                      vanish whenever a factor has rank at least two, read
                      from the same per-twist collection as mellin_gamma

The psi-side values (hyper_trace, the twisted sums, fiber_sums and
sigma_fiber_sum) are sums of psi alone and live in the tower's psi_ring,
Q(zeta_p); mellin_gamma and kummer meet characters, so they collect those
values in the tower's ring, Q(zeta_N), each coordinate moved to its place
there by ZetaSum.add_shifted.  Every sum of values is formed in the group
ring and reduced once (CyclotomicRing.sum or an accumulator).

Coordinate convention: a Weyl element w acts by (w.t)_{w(i)} = t_i, and a
twisted point satisfies t_{w(i)} = t_i^q, so each w-cycle is determined by
one unit in the extension of degree equal to the cycle length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .cyclotomic import CycNum, CyclotomicRing, solve_linear_system
from .errors import (
    InvalidTwistedPoint,
    NotConstant,
    NotSigmaPositive,
    NotSurjective,
    NotWStable,
    TowerTooShallow,
)
from .fields import FieldTower, MultCharacter, gauss_sum, psi_sum
from .matrices import pol_mul, poly_to_char_coeffs

# Q as Q(zeta_2), for the rank of a weight matrix; built once, at import
RATIONALS = CyclotomicRing(2)

# -- permutations (tuples mapping position i to image perm[i]) --------------


def perm_identity(d):
    return tuple(range(d))


def perm_compose(a, b):
    """The permutation applying b first, then a."""
    return tuple(a[b[i]] for i in range(len(b)))


def perm_sign(w):
    return (-1) ** (len(w) - len(perm_cycles(w)))


@lru_cache(maxsize=None)
def perm_cycles(w):
    """Cycles of the tuple w, each starting at its smallest element."""
    seen = [False] * len(w)
    cycles = []
    for i in range(len(w)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = w[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def weyl_elements(shape):
    """All elements of prod S_{n_i} as permutations of the d coordinates."""
    blocks = []
    start = 0
    for n in shape:
        blocks.append(tuple(range(start, start + n)))
        start += n
    out = []
    per_block = [list(itertools.permutations(b)) for b in blocks]
    for combo in itertools.product(*per_block):
        w = [0] * start
        for block, image in zip(blocks, combo):
            for src, dst in zip(block, image):
                w[src] = dst
        out.append(tuple(w))
    return out


def largest_weyl_order(shape):
    """The largest order of an element of prod S_{n_i}, without listing them.

    An element's order is the lcm of its cycle lengths, so it is read off one
    partition of n_i per factor (the cycle type there): for each factor, the
    lcms of the part sizes of its partitions, then the lcms of one choice per
    factor.  For a single factor this is Landau's function.
    """
    orders = {1}
    for n in shape:
        # reach[m]: part-size lcms of the partitions of m into the parts seen
        reach = [{1}] + [set() for _ in range(n)]
        for part in range(1, n + 1):
            for m in range(part, n + 1):
                reach[m] |= {lcm(o, part) for o in reach[m - part]}
        orders = {lcm(a, b) for a in orders for b in reach[n]}
    return max(orders)


def weyl_block_elements(shape, j):
    """Elements of the factor S_{n_j}, acting trivially elsewhere."""
    d = sum(shape)
    start = sum(shape[:j])
    block = tuple(range(start, start + shape[j]))
    out = []
    for image in itertools.permutations(block):
        w = list(range(d))
        for src, dst in zip(block, image):
            w[src] = dst
        out.append(tuple(w))
    return out


# -- weight systems ----------------------------------------------------------


class WeightSystem:
    """Validated multiset of weights for a product of general linear groups."""

    def __init__(self, shape, weight_list, name=None):
        self.shape = tuple(shape)
        self.d = sum(self.shape)
        self.name = name
        pairs = sorted((tuple(v), int(mult)) for v, mult in weight_list)
        self.weights = tuple(pairs)
        slots = []
        blocks = {}
        for vec, mult in self.weights:
            blocks[vec] = tuple(range(len(slots), len(slots) + mult))
            slots.extend([vec] * mult)
        self.slots = tuple(slots)
        self.blocks = blocks
        self.r = len(slots)
        self.factor_coords = []
        start = 0
        for n in self.shape:
            self.factor_coords.append(tuple(range(start, start + n)))
            start += n

    def weyl(self):
        return weyl_elements(self.shape)

    def weight_image(self, w, vec):
        """The weight w.vec with (w.vec)_{w(i)} = vec_i."""
        out = [0] * self.d
        for i, c in enumerate(vec):
            out[w[i]] = c
        return tuple(out)

    def multiplicity_blocks(self):
        """Slot blocks of the repeated-weight subgroup (one tuple per weight)."""
        return [self.blocks[vec] for vec, _ in self.weights]

    def sigma_block_elements(self):
        """All slot permutations preserving each weight block."""
        per_block = [
            list(itertools.permutations(block)) for block in self.multiplicity_blocks()
        ]
        out = []
        for combo in itertools.product(*per_block):
            xi = [0] * self.r
            for block, image in zip(self.multiplicity_blocks(), combo):
                for src, dst in zip(block, image):
                    xi[src] = dst
            out.append(tuple(xi))
        return out

    def __repr__(self):
        label = self.name or "weights"
        return f"WeightSystem(shape={self.shape}, {label}, r={self.r})"


def _named_weights(shape, rep):
    if len(shape) != 1:
        raise ValueError("named representations need a single-factor shape")
    n = shape[0]
    if rep == "std":
        return [(tuple(1 if j == i else 0 for j in range(n)), 1) for i in range(n)]
    if rep == "sym2":
        out = []
        for i in range(n):
            for j in range(i, n):
                vec = [0] * n
                vec[i] += 1
                vec[j] += 1
                out.append((tuple(vec), 1))
        return out
    if rep == "sym3" and n == 2:
        return [((3, 0), 1), ((2, 1), 1), ((1, 2), 1), ((0, 3), 1)]
    if rep.startswith("std*det^"):
        k = int(rep.split("^", 1)[1])
        return [
            (tuple((1 if j == i else 0) + k for j in range(n)), 1) for i in range(n)
        ]
    raise ValueError(f"unknown representation name {rep!r}")


def validate_weight_system(shape, rep) -> WeightSystem:
    """Expand, validate and freeze a weight system.

    rep is either a representation name ("std", "sym2", "sym3", "std*det^k")
    or an explicit list of (vector, multiplicity) pairs.
    """
    shape = tuple(int(n) for n in shape)
    if any(n < 1 for n in shape):
        raise ValueError("factor sizes must be positive")
    d = sum(shape)
    name = rep if isinstance(rep, str) else None
    if isinstance(rep, str):
        weight_list = _named_weights(shape, rep)
    else:
        weight_list = [(tuple(int(c) for c in v), int(mult)) for v, mult in rep]
    ws = WeightSystem(shape, weight_list, name=name)
    for vec, _ in ws.weights:
        if len(vec) != d:
            raise ValueError("weight vector length differs from torus rank")
        total = 0
        for coords in ws.factor_coords:
            s = sum(vec[i] for i in coords)
            if s < 0:
                raise NotSigmaPositive(
                    f"weight {vec} has negative sum on a factor block"
                )
            total += s
        if total <= 0:
            raise NotSigmaPositive(f"weight {vec} pairs non-positively with det")
    # stability under the adjacent transpositions of each factor, which
    # generate the Weyl group
    mult_map = dict(ws.weights)
    generators = []
    for coords in ws.factor_coords:
        for i, j in zip(coords, coords[1:]):
            w = list(range(d))
            w[i], w[j] = j, i
            generators.append(tuple(w))
    for w in generators:
        image = {}
        for vec, mult in ws.weights:
            img = ws.weight_image(w, vec)
            image[img] = image.get(img, 0) + mult
        if image != mult_map:
            raise NotWStable("weight multiset is not Weyl stable")
    _, rank, _ = solve_linear_system(
        [[RATIONALS.from_int(c) for c in slot] for slot in ws.slots],
        [RATIONALS.zero] * len(ws.slots),
    )
    if rank < d:
        raise NotSurjective(
            f"weight matrix has rank {rank} < {d}: the representation "
            "factors through det"
        )
    return ws


def weyl_lift(ws: WeightSystem, w):
    """Canonical lift of a Weyl element to a slot permutation, with sign data.

    The lift sends the slot block of each weight onto the block of its Weyl
    image, preserving order inside blocks.  Returns (xi, sign_r, sign_W), the
    signs of xi and of w.
    """
    xi = [None] * ws.r
    for vec, _ in ws.weights:
        src = ws.blocks[vec]
        dst = ws.blocks[ws.weight_image(w, vec)]
        for s, t in zip(src, dst):
            xi[s] = t
    xi = tuple(xi)
    return xi, perm_sign(xi), perm_sign(w)


# -- twisted torus points ----------------------------------------------------


@dataclass(frozen=True)
class TwistedTorusPoint:
    """A point of the w-twisted torus: values holds one unit per w-cycle, in
    perm_cycles(w) order, the unit of a cycle of length l in F_{q^l}; the
    full coordinate tuple is recovered by going around each cycle with
    Frobenius."""

    w: tuple
    values: tuple


def twisted_point(tower: FieldTower, w, assignments) -> TwistedTorusPoint:
    """Build and validate a twisted point from a {cycle rep: unit} mapping."""
    values = []
    for cyc in perm_cycles(w):
        rep = cyc[0]
        if rep not in assignments:
            raise InvalidTwistedPoint(f"missing value for cycle at {rep}")
        val = assignments[rep]
        if len(cyc) > tower.max_level:
            raise TowerTooShallow(
                f"cycle of length {len(cyc)} exceeds the tower bound"
            )
        if not (isinstance(val, int) and 0 < val < tower.level(len(cyc)).size):
            raise InvalidTwistedPoint(
                f"the value {val!r} at cycle {rep} is not a unit of F_(q^{len(cyc)})"
            )
        values.append(val)
    return TwistedTorusPoint(tuple(w), tuple(values))


def enumerate_twisted_points(tower, w):
    """All points of the w-twisted torus over F_q."""
    cycles = perm_cycles(w)
    for cyc in cycles:
        if len(cyc) > tower.max_level:
            raise TowerTooShallow(
                f"cycle of length {len(cyc)} exceeds the tower bound"
            )
    w = tuple(w)
    for combo in itertools.product(*(tower.level(len(c)).units() for c in cycles)):
        yield TwistedTorusPoint(w, combo)


def expand_twisted_point(tower, pt: TwistedTorusPoint, to_level):
    """Coordinates of the twisted point inside F_{q^to_level}."""
    coords = [0] * len(pt.w)
    lv = tower.level(to_level)
    for cyc, unit in zip(perm_cycles(pt.w), pt.values):
        ell = len(cyc)
        if to_level % ell:
            raise TowerTooShallow(
                f"cycle length {ell} does not divide working level {to_level}"
            )
        cur = tower.embed(unit, ell, to_level)
        for idx in cyc:
            coords[idx] = cur
            cur = lv.frobenius(cur)
    return tuple(coords)


def twisted_charpoly(tower, pt: TwistedTorusPoint):
    """Characteristic vector (a_1, ..., a_n) of the point's coordinates.

    A w-cycle of length l with unit b contributes prod_i (t - b^(q^i)), which
    is multiplied out at level l and has its coefficients in F_q; the cycle
    factors are then multiplied over F_q.  Working cycle by cycle keeps each
    product at its own level rather than at the lcm of the cycle lengths.
    """
    lv1 = tower.level(1)
    poly = (1,)
    for cyc, b in zip(perm_cycles(pt.w), pt.values):
        ell = len(cyc)
        lv = tower.level(ell)
        factor = (1,)
        for _ in range(ell):
            factor = pol_mul(lv, factor, (lv.neg(b), 1))
            b = lv.frobenius(b)
        poly = pol_mul(lv1, poly, tuple(tower.unembed(c, ell, 1) for c in factor))
    return poly_to_char_coeffs(poly)


def point_block_norm(tower, pt: TwistedTorusPoint, coords):
    """Product of the point's coordinates over a coordinate block, in F_q."""
    lv1 = tower.level(1)
    out = 1
    coord_set = set(coords)
    for cyc, unit in zip(perm_cycles(pt.w), pt.values):
        if cyc[0] in coord_set:
            out = lv1.mul(out, tower.norm(unit, len(cyc)))
    return out


# -- torus characters --------------------------------------------------------


@dataclass(frozen=True)
class TorusCharacter:
    """Character of a twisted torus: exponents holds one exponent e per
    w-cycle, in perm_cycles(w) order, and the factor of a cycle of length l
    is u -> zeta_{q^l-1}^(e * dlog u) on its unit u in F_{q^l}."""

    w: tuple
    exponents: tuple

    def exponent(self, tower, pt: TwistedTorusPoint) -> int:
        """Exponent k of zeta_N with value(tower, pt) = zeta_N^k."""
        if pt.w != self.w:
            raise ValueError("character and point live on different twists")
        total = 0
        for cyc, e, unit in zip(perm_cycles(self.w), self.exponents, pt.values):
            ell = len(cyc)
            total += tower.zeta_unit_exponent(ell, e * tower.level(ell).dlog[unit])
        return total


def trivial_character(tower, w) -> TorusCharacter:
    return TorusCharacter(tuple(w), (0,) * len(perm_cycles(w)))


def torus_characters(tower, w):
    """All characters of the w-twisted torus."""
    w = tuple(w)
    ranges = [range(tower.q ** len(c) - 1) for c in perm_cycles(w)]
    for combo in itertools.product(*ranges):
        yield TorusCharacter(w, combo)


def rational_character(tower, exponents) -> TorusCharacter:
    """Character of the untwisted torus from one exponent per coordinate."""
    return TorusCharacter(
        perm_identity(len(exponents)), tuple(e % (tower.q - 1) for e in exponents)
    )


# -- trace calculator --------------------------------------------------------


class TorusTraces:
    """Exact trace-function sums for one weight system over one tower.

    All methods are pure; results are memoized per instance.
    """

    def __init__(self, tower: FieldTower, ws: WeightSystem):
        self.tower = tower
        self.ws = ws
        self._hyper = {}
        self._local = {}
        self._buckets = {}
        self._lifts = {}
        self._twists = {}
        self._fiber_sums = {}
        self._gauss = {}
        self._quotients = None
        self._reference = {}
        self._mellin_unit = None

    # -- rational points ------------------------------------------------

    def hyper_trace(self, t) -> CycNum:
        """Signed psi-sum over the fiber of the monomial map above t in T(F_q).

        The fiber is the bucket of t in the walk of the identity twist's fixed
        points at level 1 (_fixed_point_buckets), so one walk serves every t.
        """
        t = tuple(t)
        if t in self._hyper:
            return self._hyper[t]
        if any(v == 0 for v in t):
            raise ValueError("torus points have unit coordinates")
        tower, r = self.tower, self.ws.r
        buckets = self._fixed_point_buckets(perm_identity(r), 1)
        dlog = tower.level(1).dlog
        total = psi_sum(tower, buckets.get(tuple(dlog[v] for v in t), {}), r)
        self._hyper[t] = total
        return total

    # -- twisted points ---------------------------------------------------

    def twisted_local_sum(self, xi, pt: TwistedTorusPoint) -> CycNum:
        """Raw fixed-point sum over {x : xi(F(x)) = x, p(x) = t}.

        One free unit per xi-cycle; the signed psi-sum of the coordinate sums
        of the matching fiber points.  This is the natural (un-normalized)
        twisted local term.  The fixed points of xi o F are walked once per
        working level (_fixed_point_buckets); pt reads its own bucket.
        """
        key = (tuple(xi), pt)
        if key in self._local:
            return self._local[key]
        tower = self.tower
        work = lcm(*(len(c) for c in perm_cycles(xi) + perm_cycles(pt.w)))
        if work > tower.max_level:
            raise TowerTooShallow(
                f"needs level {work}, tower bound is {tower.max_level}"
            )
        buckets = self._fixed_point_buckets(tuple(xi), work)
        dlog = tower.level(work).dlog
        target = tuple(dlog[v] for v in expand_twisted_point(tower, pt, work))
        total = psi_sum(tower, buckets.get(target, {}), self.ws.r)
        self._local[key] = total
        return total

    def _fixed_point_buckets(self, xi, work):
        """The fixed points x of xi o F, as {image dlog vector: {s: count}}.

        An xi-cycle c of length l holds one unit u of F_{q^l}, with u^(q^k)
        in its k-th slot, so it adds dlog(u) * sum_k q^k slot_k to the dlog
        vector of the image at level work, and the trace of u to the
        coordinate sum s in F_q.  The cycles are folded in one at a time,
        merging equal (partial image, partial sum) pairs.
        """
        key = (xi, work)
        if key in self._buckets:
            return self._buckets[key]
        tower, ws = self.tower, self.ws
        q, order, lv1 = tower.q, tower.level(work).size - 1, tower.level(1)
        partial = {((0,) * ws.d, 0): 1}
        for cyc in perm_cycles(xi):
            ell = len(cyc)
            lvl = tower.level(ell)
            step = order // (lvl.size - 1)
            slot_sum = [
                sum(ws.slots[s][j] * pow(q, k, order) for k, s in enumerate(cyc))
                * step
                for j in range(ws.d)
            ]
            terms = [
                (tuple(e * c % order for c in slot_sum), tower.trace(u, ell))
                for e, u in enumerate(lvl.units())
            ]
            merged = {}
            for (image, s), n in partial.items():
                for cyc_image, cyc_s in terms:
                    pair = (
                        tuple((a + b) % order for a, b in zip(image, cyc_image)),
                        lv1.add(s, cyc_s),
                    )
                    merged[pair] = merged.get(pair, 0) + n
            partial = merged
        buckets = {}
        for (image, s), n in partial.items():
            buckets.setdefault(image, {})[s] = n
        self._buckets[key] = buckets
        return buckets

    def _lift(self, w):
        """weyl_lift of w, computed once per twist."""
        w = tuple(w)
        if w not in self._lifts:
            self._lifts[w] = weyl_lift(self.ws, w)
        return self._lifts[w]

    def twisted_stalk_trace(self, pt: TwistedTorusPoint, xi=None) -> CycNum:
        """Descent-normalized twisted trace at a twisted torus point.

        With the default canonical lift this depends only on pt.w; an explicit
        alternative lift must differ from the canonical one by a block-
        preserving slot permutation, and the result is unchanged.
        """
        if xi is None:
            xi, sr, sw = self._lift(pt.w)
        else:
            for s in range(self.ws.r):
                want = self.ws.weight_image(pt.w, self.ws.slots[s])
                if self.ws.slots[xi[s]] != want:
                    raise ValueError("xi is not a lift of the point's twist")
            sr = perm_sign(xi)
            sw = perm_sign(pt.w)
        total = self.twisted_local_sum(xi, pt)
        return total if sr * sw == 1 else -total

    def _twist_traces(self, w):
        """The points of the w-twisted torus, each with its descent-normalized
        twisted trace, collected once per twist."""
        w = tuple(w)
        if w not in self._twists:
            self._twists[w] = [
                (pt, self.twisted_stalk_trace(pt))
                for pt in enumerate_twisted_points(self.tower, w)
            ]
        return self._twists[w]

    def fiber_sums(self, w):
        """{characteristic vector: sum of the normalized twisted traces over
        its Steinberg fiber in the w-twisted torus}, once per twist.

        A twisted point lies in the fiber of c when its coordinates are the
        roots of c with multiplicity, that is when its twisted_charpoly is c,
        so the twist's one collection of points and traces is grouped by
        twisted_charpoly; a vector without a w-twisted point has no key.
        """
        w = tuple(w)
        if w not in self._fiber_sums:
            fibers = {}
            for pt, trace in self._twist_traces(w):
                fibers.setdefault(twisted_charpoly(self.tower, pt), []).append(trace)
            self._fiber_sums[w] = {
                char: self.tower.psi_ring.sum(traces)
                for char, traces in fibers.items()
            }
        return self._fiber_sums[w]

    # -- Mellin transform --------------------------------------------------

    def mellin_gamma(self, w, theta: TorusCharacter) -> CycNum:
        """Sum of twisted traces against theta^(-1) over the w-twisted torus,
        read from the twist's one collection of points and traces."""
        tower = self.tower
        acc = tower.ring.accumulator()
        for pt, trace in self._twist_traces(w):
            acc.add_shifted(trace, -theta.exponent(tower, pt))
        return acc.value()

    def mellin_orbit_characters(self, w, theta: TorusCharacter):
        """The characters theta o (orbit cocharacter), one per lift cycle.

        For the canonical lift xi of w, the fixed points of xi o F are one
        unit alpha per xi-cycle; pushing alpha through the monomial map and
        theta gives a multiplicative character of F_{q^len}^x whose exponent
        is computed here by pure dlog bookkeeping.
        """
        tower, ws = self.tower, self.ws
        q = tower.q
        xi = self._lift(w)[0]
        out = []
        for cyc in perm_cycles(xi):
            ell = len(cyc)
            size = q**ell
            e_total = 0
            for wc, e in zip(perm_cycles(w), theta.exponents):
                m_c = 0
                for k, slot in enumerate(cyc):
                    c = ws.slots[slot][wc[0]]
                    if c:
                        m_c += c * pow(q, k, size - 1)
                e_total += e * m_c
            out.append(MultCharacter(tower, ell, e_total))
        return out

    def _gauss_product(self, prod, w, theta: TorusCharacter) -> CycNum:
        """prod times the Gauss sums of the conjugate orbit characters, each
        Gauss sum computed once per character."""
        for chi in self.mellin_orbit_characters(w, theta):
            conj = chi.conj()
            key = (conj.level, conj.exponent)
            if key not in self._gauss:
                self._gauss[key] = gauss_sum(conj)
            prod = prod * self._gauss[key]
        return prod

    def mellin_reference(self, w, theta: TorusCharacter) -> CycNum:
        """Product of Gauss sums along lift cycles, times the frozen unit."""
        key = (tuple(w), theta)
        if key not in self._reference:
            self._reference[key] = self._gauss_product(self.mellin_unit(), w, theta)
        return self._reference[key]

    def mellin_unit(self) -> CycNum:
        """Unit calibrated once from the identity twist and trivial character."""
        if self._mellin_unit is None:
            w = perm_identity(self.ws.d)
            theta = trivial_character(self.tower, w)
            raw = self._gauss_product(self.tower.ring.one, w, theta)
            self._mellin_unit = self.mellin_gamma(w, theta) / raw
        return self._mellin_unit

    # -- Kummer convolution -------------------------------------------------

    def kummer_convolution_scalar(self, chi: TorusCharacter) -> CycNum:
        """The constant (t_psi * chi)(x) / chi(x); raises NotConstant otherwise.

        Each point's sum is compared with the first point's in Z[Z/N], before
        reduction: equal lists over equal denominators are equal values, so
        only a sum whose list differs is reduced and compared exactly.  A
        clean run reduces once per character.
        """
        tower = self.tower
        points, coords, quotient = self._kummer_quotients()
        traces = [self.hyper_trace(t_coords) for t_coords in coords]
        exps = [chi.exponent(tower, pt) for pt in points]
        first = constant = None
        for x, x_exp in enumerate(exps):
            # sum of t(s) chi(x / s) chi(x)^(-1) over the points s
            acc = tower.ring.accumulator()
            for trace, x_over_s in zip(traces, quotient[x]):
                acc.add_shifted(trace, exps[x_over_s] - x_exp)
            if first is None:
                first, constant = acc, acc.value()
            elif (acc.den, acc.coeffs) != (first.den, first.coeffs) and (
                acc.value() != constant
            ):
                raise NotConstant(
                    "convolution against a character is not a character multiple"
                )
        return constant

    def _kummer_quotients(self):
        """The points of the split torus, their coordinates, and for each
        point x the index of x / s for every point s, built once."""
        if self._quotients is None:
            tower, d = self.tower, self.ws.d
            lv = tower.level(1)
            coords = list(itertools.product(lv.units(), repeat=d))
            points = [TwistedTorusPoint(perm_identity(d), t) for t in coords]
            index = {c: i for i, c in enumerate(coords)}
            quotient = [
                [
                    index[tuple(lv.mul(lv.inv(sc), xc) for sc, xc in zip(s, x))]
                    for s in coords
                ]
                for x in coords
            ]
            self._quotients = (points, coords, quotient)
        return self._quotients

    # -- determinant-fiber sign sum ------------------------------------------

    def sigma_fiber_sum(self, j, z) -> CycNum:
        """Average over the factor-j Weyl group of det-fiber twisted sums.

        Returns (1/|W_j|) * sum over w in W_j and twisted points with block-j
        determinant z of the normalized twisted trace, read from each twist's
        collection of points and traces.  Vanishes exactly when shape[j] >= 2.
        """
        ws, tower = self.ws, self.tower
        if ws.shape[j] < 2:
            raise ValueError("factor must have rank at least 2")
        if z == 0:
            raise ValueError("determinant value must be a unit")
        block = ws.factor_coords[j]
        elements = weyl_block_elements(ws.shape, j)
        return tower.psi_ring.sum(
            (
                trace
                for w in elements
                for pt, trace in self._twist_traces(w)
                if point_block_norm(tower, pt, block) == z
            ),
            len(elements),
        )
