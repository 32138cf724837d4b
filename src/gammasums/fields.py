"""Finite-field towers with compatible generators, dlog tables and character sums.

Level m of a tower over F_q (q = p^f) is F_{q^m} = F_p[x]/(h_m) where h_m is
the lexicographically smallest monic irreducible polynomial of degree f*m
(coefficients compared low degree first) that is primitive -- the class of x
generates the unit group -- and whose root powers are compatible with every
lower level: the (size_m-1)/(size_a-1) power of the root is a root of h_a
for each level a dividing m.  With that choice the dlog-based embedding
F_{q^a} -> F_{q^m} is a field homomorphism and generators are norm-compatible
by construction.

Elements are encoded as base-p integers (digit i is the coefficient of x^i),
so 0 and 1 encode the field's zero and one at every level.  Arithmetic is
table lookup on discrete logs: a product adds logs, and a sum uses the Zech
logarithm Z(k) = dlog(1 + x^k), since x^i + x^j = x^(i + Z(j - i)).  Negation
adds the log of -1, which is 0 when p = 2, so one code path serves every p.

The additive character psi = zeta_p^(absolute trace) takes its values in
Q(zeta_p), and so does every sum built from it alone (psi_sum, kloosterman):
the tower's psi_ring, of conductor p, holds them.  A multiplicative character
of level m takes values in Q(zeta_(q^m - 1)), and the tower's ring, of
conductor N = lcm(p, q-1, ..., q^M-1), holds every character of every level
together with psi; it is built on first use, since Phi_N grows with the
tower, and a psi-value enters it by CyclotomicRing.embed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .cyclotomic import CycNum, CyclotomicRing
from .errors import CapExceeded, LevelMissing, NotPrime
from .matrices import pol_divmod, pol_mul, prime_field

DEFAULT_CAP = 1 << 24


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomials over F_p (residue lists, low degree first) for construction


def _pol_pow_mod(fp, a, e, mod):
    """a^e modulo mod over the prime field fp, with no zeros above its degree."""
    out = (1,)
    while e:
        if e & 1:
            out = pol_divmod(fp, pol_mul(fp, out, a), mod)[1]
        a = pol_divmod(fp, pol_mul(fp, a, a), mod)[1]
        e >>= 1
    out = list(out)
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


class Level:
    """One extension F_{q^m} in a tower, with exp, dlog and Zech tables."""

    def __init__(self, tower, m, poly):
        self.tower = tower
        self.m = m
        self.p = tower.p
        self.deg = tower.f * m
        self.size = tower.q**m
        self.poly = tuple(poly)
        # powers of the root x; encoding of x is the integer p
        exp = [1]
        cur = (1,)
        for _ in range(self.size - 2):
            cur = pol_divmod(tower.prime_field, (0,) + cur, poly)[1]
            exp.append(self._encode(cur))
        self.exp = exp
        dlog = [-1] * self.size
        for k, v in enumerate(exp):
            dlog[v] = k
        self.dlog = dlog
        self.gen = exp[1] if self.size > 2 else 1
        # Zech logs (-1 where 1 + x^k = 0); 1 + v adds 1 to the x^0 digit of v
        p = self.p
        zech = [dlog[v + 1 if v % p < p - 1 else v + 1 - p] for v in exp]
        # exp and zech twice over: every log sum or difference the ops form
        # indexes them directly, without reduction mod size - 1
        self.exp2 = exp + exp
        self.zech = zech + zech
        self.log_neg_one = dlog[p - 1]

    def _encode(self, coeffs):
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + c
        return e

    def elements(self):
        return range(self.size)

    def units(self):
        return self.exp

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        dlog = self.dlog
        i = dlog[a]
        z = self.zech[dlog[b] - i]
        return self.exp2[i + z] if z >= 0 else 0

    def neg(self, a):
        return self.exp2[self.dlog[a] + self.log_neg_one] if a else 0

    def sub(self, a, b):
        if not b:
            return a
        dlog = self.dlog
        j = dlog[b] + self.log_neg_one  # a log of -b
        if not a:
            return self.exp2[j]
        i = dlog[a]
        z = self.zech[j - i]
        return self.exp2[i + z] if z >= 0 else 0

    def mul(self, a, b):
        if not a or not b:
            return 0
        dlog = self.dlog
        return self.exp2[dlog[a] + dlog[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp[-self.dlog[a]]

    def power(self, a, e):
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("zero to a non-positive power")
            return 0
        return self.exp[(self.dlog[a] * e) % (self.size - 1)]

    def frobenius(self, a, i=1):
        """a -> a^(q^i)."""
        return self.power(a, pow(self.tower.q, i, self.size - 1)) if a else 0

    def scalar(self, c):
        """Embed an integer c mod p as a field element."""
        return c % self.p


class FieldTower:
    """Extensions F_{q^m}, 1 <= m <= M, with compatible generators."""

    def __init__(self, p, f, levels, cap=DEFAULT_CAP):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if f < 1 or levels < 1:
            raise ValueError("degree and level bound must be positive")
        self.p = p
        self.f = f
        self.q = p**f
        self.max_level = levels
        self.prime_field = prime_field(p)
        total = sum(self.q**m for m in range(1, levels + 1))
        if total > cap:
            raise CapExceeded(
                f"tower would hold {total} elements, above the cap {cap}"
            )
        self.levels = {}
        for m in range(1, levels + 1):
            poly = self._find_poly(m)
            self.levels[m] = Level(self, m, poly)
        self.psi_ring = CyclotomicRing(p)

    @cached_property
    def ring(self) -> CyclotomicRing:
        """Q(zeta_N), N = lcm(p, q - 1, ..., q^M - 1), built on first use."""
        return CyclotomicRing(lcm(self.p, *(self.q**m - 1 for m in self.levels)))

    # -- construction -----------------------------------------------------

    def _find_poly(self, m):
        """The first compatible h of degree f*m whose root x has order
        size - 1: x^(size - 1) = 1 and x^((size - 1)/l) != 1 for every prime
        l dividing size - 1.  A unit of order p^deg - 1 in F_p[x]/(h) leaves
        no room for zero divisors, so h is irreducible and primitive."""
        p, deg, fp = self.p, self.f * m, self.prime_field
        size = self.q**m
        order_primes = prime_factors(size - 1)
        x = (0, 1)
        for tail in itertools.product(range(p), repeat=deg):
            if tail[0] == 0:
                continue
            poly = tail + (1,)
            if _pol_pow_mod(fp, x, size - 1, poly) != [1] or any(
                _pol_pow_mod(fp, x, (size - 1) // ell, poly) == [1]
                for ell in order_primes
            ):
                continue
            if not self._compatible(poly, m):
                continue
            return poly
        raise ArithmeticError(f"no compatible primitive polynomial at level {m}")

    def _compatible(self, poly, m):
        """Whether x^((size_m - 1)/(size_a - 1)) mod poly is a root of h_a for
        every lower level a dividing m."""
        fp = self.prime_field
        size = self.q**m
        for a in range(1, m):
            if m % a:
                continue
            lower = self.levels[a]
            r = _pol_pow_mod(fp, (0, 1), (size - 1) // (lower.size - 1), poly)
            # Horner evaluation of h_a at r, modulo poly
            acc = (0,)
            for c in reversed(lower.poly):
                acc = pol_divmod(fp, pol_mul(fp, acc, r), poly)[1]
                acc = (fp.add(acc[0], c),) + acc[1:]
            if any(acc):
                return False
        return True

    # -- level access and maps ---------------------------------------------

    def level(self, m) -> Level:
        if m not in self.levels:
            raise LevelMissing(f"level {m} not in tower (bound {self.max_level})")
        return self.levels[m]

    def embed(self, x, a, b):
        """Embed x from F_{q^a} into F_{q^b} (a must divide b)."""
        la, lb = self.level(a), self.level(b)
        if b % a:
            raise ValueError(f"no embedding from level {a} to level {b}")
        if x == 0:
            return 0
        step = (lb.size - 1) // (la.size - 1)
        return lb.exp[(la.dlog[x] * step) % (lb.size - 1)]

    def unembed(self, x, b, a):
        """Section of embed; raises ValueError when x is not in the subfield."""
        la, lb = self.level(a), self.level(b)
        if b % a:
            raise ValueError(f"level {a} is not a subfield of level {b}")
        if x == 0:
            return 0
        step = (lb.size - 1) // (la.size - 1)
        k = lb.dlog[x]
        if k % step:
            raise ValueError("element does not lie in the requested subfield")
        return la.exp[(k // step) % (la.size - 1)]

    def trace(self, x, m, to=1):
        """Field trace from level m to level `to` (to must divide m)."""
        lm = self.level(m)
        if m % to:
            raise ValueError("trace target must be a sublevel")
        acc = 0
        cur = x
        for _ in range(m // to):
            acc = lm.add(acc, cur)
            cur = lm.frobenius(cur, to)
        return self.unembed(acc, m, to)

    def abs_trace(self, x, m) -> int:
        """Trace from F_{q^m} all the way to the prime field, as an int mod p."""
        lm = self.level(m)
        acc = 0
        cur = x
        for _ in range(self.f * m):
            acc = lm.add(acc, cur)
            cur = lm.power(cur, self.p) if cur else 0
        if acc >= self.p:
            raise ArithmeticError("absolute trace did not land in the prime field")
        return acc

    def norm(self, x, m, to=1):
        """Field norm from level m to level `to`."""
        lm = self.level(m)
        if m % to:
            raise ValueError("norm target must be a sublevel")
        if x == 0:
            return 0
        lt = self.level(to)
        step = (lm.size - 1) // (lt.size - 1)
        return self.unembed(lm.exp[(lm.dlog[x] * step) % (lm.size - 1)], m, to)

    # -- characters ---------------------------------------------------------

    def psi_exponent(self, x, m=1) -> int:
        """Exponent of zeta_N representing psi(x) = zeta_p^(absolute trace of x)."""
        return (self.ring.conductor // self.p) * self.abs_trace(x, m)

    def psi(self, x, m=1) -> CycNum:
        """Additive character zeta_p^(absolute trace of x), in psi_ring."""
        return self.psi_ring.zeta_power(self.abs_trace(x, m))

    def zeta_unit_exponent(self, m, k) -> int:
        """Exponent of zeta_N representing zeta_{q^m-1}^k."""
        n = self.ring.conductor
        size = self.q**m
        return (n // (size - 1)) * (k % (size - 1))


def tower_ring_degree(p, f, levels) -> int:
    """phi(N) for N = lcm(p, q - 1, ..., q^levels - 1), q = p^f: the degree of
    the ring of build_tower(p, f, levels), from the primes of p and of each
    q^m - 1, without building it."""
    sizes = [p ** (f * m) - 1 for m in range(1, levels + 1)]
    degree = lcm(p, *sizes)
    for ell in {p}.union(*map(prime_factors, sizes)):
        degree = degree // ell * (ell - 1)
    return degree


def build_tower(p, f, levels, cap=DEFAULT_CAP) -> FieldTower:
    """Construct the tower F_{q^m}, m <= levels, for q = p^f."""
    return FieldTower(p, f, levels, cap=cap)


@dataclass(frozen=True)
class MultCharacter:
    """Multiplicative character of F_{q^m}^x: x -> zeta_{q^m-1}^(j * dlog x)."""

    tower: FieldTower
    level: int
    exponent: int

    def __post_init__(self):
        size = self.tower.q**self.level
        object.__setattr__(self, "exponent", self.exponent % (size - 1))

    def value(self, x) -> CycNum:
        if x == 0:
            raise ZeroDivisionError("multiplicative character at zero")
        lv = self.tower.level(self.level)
        k = self.tower.zeta_unit_exponent(self.level, self.exponent * lv.dlog[x])
        return self.tower.ring.zeta_power(k)

    def is_trivial(self) -> bool:
        return self.exponent == 0

    def conj(self) -> "MultCharacter":
        return MultCharacter(self.tower, self.level, -self.exponent)

    def __mul__(self, other: "MultCharacter") -> "MultCharacter":
        if other.level != self.level:
            raise ValueError("characters live on different levels")
        return MultCharacter(self.tower, self.level, self.exponent + other.exponent)

    def lift(self, m) -> "MultCharacter":
        """Composition with the norm map from level m down to this level."""
        if m % self.level:
            raise ValueError("lift target must be a multiple of the level")
        size_lo = self.tower.q**self.level
        size_hi = self.tower.q**m
        step = (size_hi - 1) // (size_lo - 1)
        return MultCharacter(self.tower, m, self.exponent * step)


def all_characters(tower, level):
    size = tower.q**level
    return [MultCharacter(tower, level, j) for j in range(size - 1)]


def gauss_sum(chi: MultCharacter) -> CycNum:
    """Sum of chi(x) psi(x) over the units of chi's level."""
    tower, m = chi.tower, chi.level
    lv = tower.level(m)
    acc = tower.ring.accumulator()
    for x in lv.units():
        acc.add_term(
            tower.zeta_unit_exponent(m, chi.exponent * lv.dlog[x])
            + tower.psi_exponent(x, m)
        )
    return acc.value()


def psi_sum(tower, counts, arity) -> CycNum:
    """(-1)^arity * sum of c * psi(s) over the F_q points s with counts c,
    in Q(zeta_p)."""
    sign = -1 if arity % 2 else 1
    acc = tower.psi_ring.accumulator()
    for s, c in counts.items():
        acc.add_term(tower.abs_trace(s, 1), sign * c)
    return acc.value()


def kloosterman(tower, t, r) -> CycNum:
    """(-1)^r * sum of psi(x_1 + ... + x_r) over units with product t."""
    if r < 1:
        raise ValueError("arity must be at least 1")
    lv = tower.level(1)
    if t == 0:
        raise ZeroDivisionError("Kloosterman point must be a unit")
    counts = {}
    for xs in itertools.product(lv.units(), repeat=r - 1):
        prod = 1
        s = 0
        for x in xs:
            prod = lv.mul(prod, x)
            s = lv.add(s, x)
        last = lv.mul(t, lv.inv(prod))
        s = lv.add(s, last)
        counts[s] = counts.get(s, 0) + 1
    return psi_sum(tower, counts, r)
