"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A value is an integer coordinate vector over the power basis
1, z, ..., z^(phi(N)-1) with z = exp(2*pi*i/N), together with a single
positive denominator.  Vectors are kept reduced modulo the N-th cyclotomic
polynomial and normalized so that gcd of all numerators and the denominator
is 1, which makes representations canonical: a value is zero exactly when
every numerator is zero.  Ring operations, equality and conjugation are
exact; a complex embedding is provided for floating-point magnitude checks.

Every reduction into the power basis takes one path, CyclotomicRing._reduce:
a coefficient list indexed by powers of z is folded modulo x^N - 1, then
divided from the top down by a chain of sparse monic multiples of Phi_N that
ends at Phi_N, touching only their nonzero coefficients below the leading
term.  For N = 3720 the chain is x^1860 + 1, x^1240 - x^620 + 1,
Phi_30(x^124) and Phi_N (1, 2, 6 and 72 low terms), so most positions cost
one or two updates.  Products, conjugates, powers of zeta (zeta_power reduces
the one-term list x^k; there is no table of powers) and elements of the group
ring Z[Z/N] (CyclotomicRing.from_coeffs) all take that path.

A product's unreduced coefficients come from _convolve.  When the count of
nonzero pairs is small against the output length (a one-term operand, say),
it multiplies term by term over the nonzero entries.  Otherwise it packs
each vector into one integer, a coefficient per 8 * nbytes-bit digit offset
to be nonnegative, makes one big-integer product and unpacks the digits
(Kronecker substitution); the digit width is set from the largest
coefficient the product can have, so the result is exact.

A sum of roots of unity -- a character sum, a Gauss sum, a Mellin transform,
a sum of values times character values -- is collected in a ZetaSum
(CyclotomicRing.accumulator()): add_term(k, c) adds c * z^k, add_shifted(v,
k, c) adds c * z^k * v by moving v's coordinates up k places mod N, and
value() reduces modulo Phi_N once.  That replaces one product and one
reduction per term.  add_shifted reads v's support, the nonzero (index,
coordinate) pairs that a CycNum builds once with compress and caches, so a
psi-value with a few nonzero coordinates costs a few list updates, not
phi(N).  Conjugation likewise maps k to -k in the group ring.
Other polynomial arithmetic (building Phi_N, the Euclid steps of an inverse)
runs on the field-generic kernel matrices.pol_mul/pol_divmod over EXACT.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import compress, zip_longest
from math import gcd, lcm

from .matrices import EXACT, pol_divmod, pol_mul, row_reduce


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    Built from Phi_1 = x - 1 one prime factor p of n at a time, smallest
    first: Phi_pm(x) is Phi_m(x^p) when p divides m, else Phi_m(x^p) / Phi_m(x).
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    poly, m, p = (-1, 1), 1, 2
    while m < n:
        while (n // m) % p:
            p += 1
        spread = [0] * (p * (len(poly) - 1) + 1)
        spread[::p] = poly
        if m % p:
            spread, rem = pol_divmod(EXACT, spread, poly)
            if any(rem):
                raise ArithmeticError("nonzero remainder in exact polynomial division")
        poly, m = tuple(map(int, spread)), m * p
    return poly


def _convolve(a, b):
    """The coefficients of the product of the integer polynomials a and b.

    A sparse pair is multiplied term by term, over its nonzero entries.  A
    denser pair is packed into one integer each, with 8 * nbytes bits per
    coefficient, multiplied once and unpacked (Kronecker substitution).  No
    coefficient of the product exceeds max|a| * max|b| * min(len(a), len(b))
    in size, so it fits in its digit once offset by half the digit range.
    """
    size = len(a) + len(b) - 1
    nz_a = [(i, v) for i, v in enumerate(a) if v]
    nz_b = [(j, v) for j, v in enumerate(b) if v]
    # term by term is the faster path up to about this many pairs (measured
    # at degrees 96 to 960)
    if len(nz_a) * len(nz_b) <= 8 * size:
        out = [0] * size
        for i, x in nz_a:
            for j, y in nz_b:
                out[i + j] += x * y
        return out
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = bound.bit_length() // 8 + 1
    half = 1 << (8 * nbytes - 1)
    offset = half.to_bytes(nbytes, "little")

    def pack(vec):
        # sum(v_i 2^(8 nbytes i)), from the digits v_i + half
        digits = b"".join((v + half).to_bytes(nbytes, "little") for v in vec)
        return int.from_bytes(digits, "little") - int.from_bytes(
            offset * len(vec), "little"
        )

    packed = pack(a) * pack(b) + int.from_bytes(offset * size, "little")
    data = packed.to_bytes(size * nbytes, "little")
    return [
        int.from_bytes(data[k : k + nbytes], "little") - half
        for k in range(0, size * nbytes, nbytes)
    ]


class CyclotomicRing:
    """Q(zeta_N): reduction by the sparse Phi_N, and sums in the group ring Z[Z/N]."""

    def __init__(self, conductor: int):
        if conductor < 2:
            raise ValueError("conductor must be at least 2")
        self.conductor = conductor
        self.degree = len(cyclotomic_polynomial(conductor)) - 1
        # The moduli _reduce divides by in turn, as (degree, nonzero (i, c)
        # below the leading term): for the primes p_1 < ... < p_k of N and
        # M = p_1 ... p_j, Phi_M(x^(N/M)).  Each divides the one before, the
        # last is Phi_N, and the first ones are short (x^(N/2) + 1 for even N).
        self._moduli = []
        m, p, rest = 1, 2, conductor
        while rest > 1:
            if rest % p:
                p += 1
                continue
            while rest % p == 0:
                rest //= p
            m *= p
            spread, phi = conductor // m, cyclotomic_polynomial(m)
            low = tuple((spread * i, c) for i, c in enumerate(phi[:-1]) if c)
            self._moduli.append((spread * (len(phi) - 1), low))
        self.zero = CycNum(self, (0,) * self.degree, 1)
        self.one = self.from_int(1)

    def zeta_power(self, k: int) -> "CycNum":
        """zeta^k, reduced from the one-term list x^(k mod N)."""
        acc = [0] * (k % self.conductor + 1)
        acc[-1] = 1
        return CycNum(self, self._reduce(acc), 1)

    def accumulator(self) -> "ZetaSum":
        """An empty sum of roots of unity, to be reduced once by its value()."""
        return ZetaSum(self)

    def from_int(self, v: int) -> "CycNum":
        vec = [0] * self.degree
        vec[0] = v
        return CycNum(self, vec, 1)

    def from_fraction(self, fr: Fraction) -> "CycNum":
        vec = [0] * self.degree
        vec[0] = fr.numerator
        return CycNum(self, vec, fr.denominator)

    def from_coeffs(self, coeffs, den: int = 1) -> "CycNum":
        """Value sum(coeffs[k] * zeta^k) / den; coeffs may have any length."""
        return CycNum(self, self._reduce(list(coeffs)), den)

    def _reduce(self, acc):
        """Power-basis vector of sum(acc[k] * zeta^k), reducing the list acc in place.

        acc is folded modulo x^N - 1 when it is longer than N, then divided by
        each of the moduli in turn from the top down: each x^k at or above a
        modulus' degree D is replaced by -sum(c_i x^(k - D + i)) over its
        nonzero low terms c_i x^i.
        """
        n = self.conductor
        for k in range(n, len(acc)):
            acc[k % n] += acc[k]
        del acc[n:]
        for deg, low in self._moduli:
            for k in range(len(acc) - 1, deg - 1, -1):
                c = acc[k]
                if c:
                    base = k - deg
                    for i, m in low:
                        acc[base + i] -= c * m
            del acc[deg:]
        acc.extend([0] * (self.degree - len(acc)))
        return acc

    def __repr__(self):
        return f"CyclotomicRing({self.conductor})"


class ZetaSum:
    """A sum of integer multiples of roots of unity, collected in Z[Z/N].

    coeffs[k] is the coefficient of zeta^k over the common denominator den.
    Adding a term or a shifted value only adds to list entries, since
    multiplying by zeta^k moves index i to i + k mod N; value() reduces
    modulo Phi_N once.
    """

    __slots__ = ("ring", "coeffs", "den")

    def __init__(self, ring: CyclotomicRing):
        self.ring = ring
        self.coeffs = [0] * ring.conductor
        self.den = 1

    def add_term(self, k: int, c: int = 1):
        """Add c * zeta^k."""
        self.coeffs[k % self.ring.conductor] += c * self.den

    def add_shifted(self, value: "CycNum", k: int = 0, c: int = 1):
        """Add c * zeta^k * value by shifting value's nonzero coordinates by k.

        The coordinates are read from value's cached support, so a value with
        few nonzero coordinates costs that many list updates, not phi(N).
        """
        if self.den % value.den:
            scale = value.den // gcd(self.den, value.den)
            self.coeffs = [v * scale for v in self.coeffs]
            self.den *= scale
        c *= self.den // value.den
        coeffs = self.coeffs
        # coordinate i goes to i + k - N, in [-N, N): a negative index is
        # read from the end of the list, which folds it mod N
        shift = k % self.ring.conductor - self.ring.conductor
        for i, v in value._nonzero():
            coeffs[i + shift] += c * v

    def value(self, den: int = 1) -> "CycNum":
        """The sum divided by den, reduced into the power basis."""
        return CycNum(self.ring, self.ring._reduce(list(self.coeffs)), self.den * den)


class CycNum:
    """One exact element of a CyclotomicRing."""

    __slots__ = ("ring", "num", "den", "_support")

    def __init__(self, ring: CyclotomicRing, num, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = den
        for v in num:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            num = [v // g for v in num]
            den //= g
        self.ring = ring
        self.num = tuple(num)
        self.den = den
        self._support = None

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.den == b.den:
            return CycNum(a.ring, [x + y for x, y in zip(a.num, b.num)], a.den)
        return CycNum(
            a.ring,
            [x * b.den + y * a.den for x, y in zip(a.num, b.num)],
            a.den * b.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.ring, [-v for v in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycNum(self.ring, [v * other for v in self.num], self.den)
        if isinstance(other, Fraction):
            return CycNum(
                self.ring,
                [v * other.numerator for v in self.num],
                self.den * other.denominator,
            )
        if not isinstance(other, CycNum) or other.ring is not self.ring:
            return NotImplemented
        conv = _convolve(self.num, other.num)
        return CycNum(self.ring, self.ring._reduce(conv), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ring.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.ring is not self.ring:
                return NotImplemented
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Fraction):
            return self.ring.from_fraction(other)
        return NotImplemented

    def _nonzero(self) -> tuple:
        """The nonzero (index, coordinate) pairs of num, built once."""
        if self._support is None:
            num = self.num
            self._support = tuple(
                zip(compress(range(len(num)), num), compress(num, num))
            )
        return self._support

    # -- predicates and maps ---------------------------------------------

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.ring.conductor, self.num, self.den))

    def conjugate(self) -> "CycNum":
        """Image under zeta -> zeta^(-1) (complex conjugation)."""
        n = self.ring.conductor
        coeffs = [0] * n
        for k, c in enumerate(self.num):
            coeffs[(n - k) % n] = c
        return CycNum(self.ring, self.ring._reduce(coeffs), self.den)

    def complex_value(self) -> complex:
        n = self.ring.conductor
        total = 0j
        for k, c in enumerate(self.num):
            if c:
                total += c * cmath.exp(2j * cmath.pi * k / n)
        return total / self.den

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclid algorithm mod Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # Euclid on (Phi_N, num) over Q, keeping s1 with s1 * num = r1 mod Phi_N
        r0, r1 = cyclotomic_polynomial(self.ring.conductor), list(self.num)
        s0, s1 = [0], [1]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = pol_divmod(EXACT, r0, r1)
            r0, r1 = r1, list(rem)
            qs = pol_mul(EXACT, q, s1)
            s0, s1 = s1, [a - b for a, b in zip_longest(s0, qs, fillvalue=0)]
        # r1 is a nonzero constant since Phi_N is irreducible over Q, so the
        # inverse of num / den is den * s1 / r1
        inv = [Fraction(self.den * v) / r1[0] for v in s1]
        den = lcm(*(v.denominator for v in inv))
        return self.ring.from_coeffs(
            [v.numerator * (den // v.denominator) for v in inv], den
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.num):
            if c:
                terms.append(f"{c}*z^{k}" if k else f"{c}")
        body = " + ".join(terms) if terms else "0"
        if self.den != 1:
            body = f"({body})/{self.den}"
        return f"CycNum[{self.ring.conductor}]({body})"


def solve_linear_system(rows, rhs):
    """Exact Gaussian elimination over a cyclotomic field.

    rows is a list of equal-length CycNum lists, rhs a CycNum list.  Returns
    (solution, rank, consistent) where free variables are set to zero.  The
    caller is expected to re-substitute the solution into every equation when
    the system is overdetermined.
    """
    if not rows:
        return [], 0, True
    ncols = len(rows[0])
    reduced, pivots = row_reduce(
        EXACT, [list(r) + [b] for r, b in zip(rows, rhs)], ncols
    )
    solution = [rhs[0].ring.zero] * ncols
    for row, col in zip(reduced, pivots):
        solution[col] = row[-1]
    consistent = not any(row[-1] for row in reduced[len(pivots):])
    return solution, len(pivots), consistent
