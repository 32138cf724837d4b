"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A value is an integer coordinate vector over the power basis
1, z, ..., z^(phi(N)-1) with z = exp(2*pi*i/N), together with a single
positive denominator.  Vectors are kept reduced modulo the N-th cyclotomic
polynomial and normalized so that gcd of all numerators and the denominator
is 1, which makes representations canonical: a value is zero exactly when
every numerator is zero.  Ring operations, equality and conjugation are
exact; a complex embedding is provided for floating-point magnitude checks.

A reduction into the power basis takes one of two paths, by its input.

Coefficient lists indexed by powers of z go through CyclotomicRing._reduce:
the list is folded modulo x^N - 1, then divided from the top down by a chain
of sparse monic multiples of Phi_N that ends at Phi_N, touching only their
nonzero coefficients below the leading term.  For N = 3720 the chain is
x^1860 + 1, x^1240 - x^620 + 1, Phi_30(x^124) and Phi_N (1, 2, 6 and 72 low
terms), so most positions cost one or two updates.  Sums in the group ring
Z[Z/N] (ZetaSum.value, CyclotomicRing.from_coeffs), conjugates, powers of
zeta (zeta_power reduces the one-term list x^k; there is no table of powers)
and sparse products take this path: a product whose count of nonzero pairs
is at most 8 times its length multiplies term by term over the operands'
cached supports.  These lists are mostly zero, and the list chain skips
their zero entries, which is why they are not packed: the same chain run on
a packed list was slower, 24 against 9 microseconds for a one-term list at
N = 336 and 122 against 82 for a conjugate's 144 terms at N = 630.

A product of two dense values goes packed (CyclotomicRing._dense_product),
inside CPython's big-integer arithmetic: each operand becomes one integer, a
coordinate per signed digit (Kronecker substitution), the two are multiplied
once, the same chain of sparse moduli reduces the packed product with one
shift per modulus for all its high digits and one shifted subtraction per
low term, one Barrett step divides out Phi_N, and the phi(N) digits of the
remainder are unpacked once.  The digit width comes from a bound on every
coefficient of every step, proved once per ring by running the same steps on
a majorant (CyclotomicRing._dense_plan), so no digit can overflow.

A sum of roots of unity -- a character sum, a Gauss sum, a Mellin transform,
a sum of values times character values -- is collected in a ZetaSum
(CyclotomicRing.accumulator()): add_term(k, c) adds c * z^k, add_shifted(v,
k, c) adds c * z^k * v by moving v's coordinates up k places mod N, and
value() reduces modulo Phi_N once.  That replaces one product and one
reduction per term.  A plain sum of values goes the same way, through
CyclotomicRing.sum, one shifted add per value and one reduction, and so does
a sum of products with sparse factors, through CyclotomicRing.dot, one
shifted add per nonzero coordinate of such a factor.  add_shifted reads v's
support, the nonzero (index, coordinate) pairs that a CycNum builds once
with compress and caches, so a psi-value with a few nonzero coordinates
costs a few list updates, not phi(N).  Conjugation likewise maps k to -k in
the group ring.  Other polynomial arithmetic (building Phi_N, the Euclid
steps of an inverse) runs on the field-generic kernel
matrices.pol_mul/pol_divmod over EXACT.

Values of different rings meet by embedding: for M dividing N, zeta_M is
zeta_N^(N/M), so add_shifted moves a Q(zeta_M) value's coordinate i to
i * N/M, and CyclotomicRing.embed is the sum of that one value.  Arithmetic
and comparison between two rings embed the value of the smaller one; between
rings with neither conductor dividing the other they raise TypeError.
"""

from __future__ import annotations

import cmath
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import compress, zip_longest
from math import gcd, lcm

from .matrices import EXACT, pol_divmod, pol_mul


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


# array typecodes of the signed digit widths that pack and unpack at C speed;
# other widths, and every width on a big-endian host, join bytes instead
_TYPECODES = (
    {8 * array(code).itemsize: code for code in "hiq"}
    if sys.byteorder == "little"
    else {}
)


@lru_cache(maxsize=None)
def _sign_bits(width: int, count: int) -> int:
    """The top bit of each of count width-bit digits."""
    return ((1 << width * count) - 1) // ((1 << width) - 1) << width - 1


def _pack(vec, width: int) -> int:
    """sum(vec[i] * 2^(width * i)), for integers |vec[i]| < 2^(width - 1).

    The digits are written in two's complement and read back as one
    unsigned integer, in which a negative digit v stands as v + 2^width; its
    top bit is set, so one mask and shift of the sign bits takes those
    2^width back off.
    """
    code = _TYPECODES.get(width)
    if code:
        data = array(code, vec).tobytes()
    else:
        nbytes = width // 8
        data = b"".join(v.to_bytes(nbytes, "little", signed=True) for v in vec)
    raw = int.from_bytes(data, "little")
    return raw - ((raw & _sign_bits(width, len(vec))) << 1)


def _unpack(value: int, count: int, width: int) -> list:
    """The count digits of value = sum(d_i * 2^(width * i)), |d_i| < 2^(width - 1).

    Adding 2^(width - 1) to every digit makes each nonnegative with no carry
    between them; flipping those top bits back leaves each digit's two's
    complement.
    """
    signs = _sign_bits(width, count)
    data = ((value + signs) ^ signs).to_bytes(width // 8 * count, "little")
    code = _TYPECODES.get(width)
    if code:
        return array(code, data).tolist()
    nbytes = width // 8
    return [
        int.from_bytes(data[k : k + nbytes], "little", signed=True)
        for k in range(0, len(data), nbytes)
    ]


def _digit_width(bound: int) -> int:
    """The digit width for digits of size at most bound, with a sign bit: the
    first of 16, 32 and 64 bits, or else of the multiples of 8 bits."""
    bits = bound.bit_length() + 1
    return next(w for w in (16, 32, 64, -(-bits // 8) * 8) if bits <= w)


def _high(value: int, shift: int) -> int:
    """value's digits from bit shift up, when those below it are balanced:
    their sum lies in [-2^(shift - 1), 2^(shift - 1))."""
    return (value + (1 << shift >> 1)) >> shift


def _schoolbook(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class CyclotomicRing:
    """Q(zeta_N): reduction by the sparse Phi_N, and sums in the group ring Z[Z/N]."""

    def __init__(self, conductor: int):
        if conductor < 2:
            raise ValueError("conductor must be at least 2")
        self.conductor = conductor
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
        self.degree = self._moduli[-1][0]  # phi(N), the degree of Phi_N
        self.zero = CycNum(self, (0,) * self.degree, 1)
        self.one = self.from_int(1)
        self._plan = None

    def zeta_power(self, k: int) -> "CycNum":
        """zeta^k, reduced from the one-term list x^(k mod N)."""
        acc = [0] * (k % self.conductor + 1)
        acc[-1] = 1
        return CycNum(self, self._reduce(acc), 1)

    def accumulator(self) -> "ZetaSum":
        """An empty sum of roots of unity, to be reduced once by its value()."""
        return ZetaSum(self)

    def sum(self, values, den: int = 1) -> "CycNum":
        """sum(values) / den, collected in one ZetaSum and reduced once; the
        values may come from any ring whose conductor divides N."""
        acc = ZetaSum(self)
        for v in values:
            acc.add_shifted(v)
        return acc.value(den)

    def dot(self, xs, ys) -> "CycNum":
        """sum(x * y for x, y in zip(xs, ys)) in one ZetaSum, the values from
        rings whose conductors divide N.  A pair no denser than a sparse
        product (CycNum.__mul__) is not multiplied: the value with more
        nonzero coordinates is shifted by each coordinate i of the other, of
        Q(zeta_M), to i * N/M."""
        acc = ZetaSum(self)
        for x, y in zip(xs, ys):
            if len(x._nonzero()) > len(y._nonzero()):
                x, y = y, x
            if len(x._nonzero()) * len(y._nonzero()) > 8 * (2 * self.degree - 1):
                acc.add_shifted(x * y)
                continue
            if self.conductor % x.ring.conductor:
                raise TypeError(f"{x.ring} does not embed in {self}")
            if x.den > 1:
                y = y * Fraction(1, x.den)
            spread = self.conductor // x.ring.conductor
            for i, c in x._nonzero():
                acc.add_shifted(y, i * spread, c)
        return acc.value()

    def embed(self, value: "CycNum") -> "CycNum":
        """value, from Q(zeta_M) with M dividing N, as an element of this ring."""
        return self.sum((value,))

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

    def _dense_plan(self):
        """The steps of _dense_product and the ring's digit bound, built once.

        Returns (splits, k, height, mu, phi, packed).  splits are the
        (degree, low terms) of the sparse steps in order, one entry per split:
        x^N - 1, then every modulus but Phi_N, each as often as it takes to
        bring the product of two power-basis vectors under its degree.  k is
        the number of digits left above phi(N), which one Barrett step
        removes.  height bounds, for unit inputs, every coefficient that a
        split or the final unpacking reads: the same steps are run here on a
        majorant, bound[i] >= |coefficient i| / (max|a| * max|b|), with every
        coefficient of a modulus taken in absolute value.  mu and phi are the
        Barrett constants, and packed maps a digit width to the two of them
        packed.
        """
        d = self.degree
        bound = [min(i + 1, 2 * d - 1 - i) for i in range(2 * d - 1)]
        height, splits = d, []
        for deg, low in [(self.conductor, ((0, -1),))] + self._moduli[:-1]:
            while len(bound) > deg:
                # low is in increasing order of index
                high = bound[deg:]
                bound = bound[:deg] + [0] * (len(high) + low[-1][0] - deg)
                for i, c in low:
                    for j, h in enumerate(high):
                        bound[i + j] += abs(c) * h
                height = max(height, *bound)
                splits.append((deg, low))
        k = len(bound) - d
        phi = cyclotomic_polynomial(self.conductor)
        # x^(d + k - 1) = mu * Phi_N + (degree < d).  Reversing both sides,
        # mu reversed is 1 / Phi_N mod x^k, as Phi_N is palindromic
        inverse = [1]
        for j in range(1, k):
            inverse.append(-sum(phi[i] * inverse[j - i] for i in range(1, min(j, d) + 1)))
        mu = inverse[::-1]
        if k > 0:
            quotient = _schoolbook(bound[d:], [abs(c) for c in mu])
            reduced = _schoolbook(quotient[k - 1 :], [abs(c) for c in phi])
            height = max(
                height, *quotient, *(x + y for x, y in zip(bound, reduced)),
                *map(abs, mu), *map(abs, phi),
            )
        self._plan = (splits, k, height, mu, phi, {})
        return self._plan

    def _dense_product(self, a, b) -> list:
        """Power-basis vector of the product of the power-basis vectors a, b.

        Both are packed into one integer each, with width bits per signed
        coordinate (Kronecker substitution); their integer product packs the
        coefficients of the polynomial product.  The sparse steps of
        _dense_plan reduce it in place: each takes the digits at and above a
        modulus' degree D off in one balanced shift, high, and subtracts
        c * high shifted by i digits for each low term c x^i.  The k digits
        still above d = phi(N) are divided out in one Barrett step: the
        quotient by Phi_N is the top k digits of high * mu, for those k digits
        high and mu = x^(d + k - 1) div Phi_N, and subtracting the quotient
        times Phi_N leaves the remainder, exact in the integers.  Its d digits
        are unpacked once.

        Digit width: a shift or the unpacking reads digits correctly as long
        as each is below 2^(width - 1) in size.  Each coefficient at each step
        is at most max|a| * max|b| times the ring's height (_dense_plan),
        which bounds the same steps run on |coefficients|, so the digits are
        as wide as _digit_width takes for that bound.
        """
        splits, k, height, mu, phi, packed = self._plan or self._dense_plan()
        # an operand's size counts as at least 1, so that both operands fit
        width = _digit_width(max(1, *map(abs, a)) * max(1, *map(abs, b)) * height)
        value = _pack(a, width) * _pack(b, width)
        for deg, low in splits:
            high = _high(value, width * deg)
            value -= high << width * deg
            for i, c in low:
                value -= c * high << width * i
        if k > 0:
            if width not in packed:
                packed[width] = (_pack(mu, width), _pack(phi, width))
            mu_w, phi_w = packed[width]
            high = _high(value, width * self.degree)
            value -= _high(high * mu_w, width * (k - 1)) * phi_w
        return _unpack(value, self.degree, width)

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

        value may lie in Q(zeta_M) for any M dividing N: zeta_M is zeta_N^(N/M),
        so its coordinate i moves to i * N/M + k.  A value whose conductor
        does not divide N raises TypeError.  The coordinates are read from
        value's cached support, so a value with few nonzero coordinates costs
        that many list updates, not phi(N).
        """
        n, m = self.ring.conductor, value.ring.conductor
        if n % m:
            raise TypeError(f"Q(zeta_{m}) does not embed in Q(zeta_{n})")
        spread = n // m
        if self.den % value.den:
            scale = value.den // gcd(self.den, value.den)
            self.coeffs = [v * scale for v in self.coeffs]
            self.den *= scale
        c *= self.den // value.den
        coeffs = self.coeffs
        # coordinate i goes to i * spread + k - N, in [-N, N): a negative
        # index is read from the end of the list, which folds it mod N
        shift = k % n - n
        for i, v in value._nonzero():
            coeffs[i * spread + shift] += c * v

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
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
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
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # an int, like a Fraction, has a numerator and a denominator
        if isinstance(other, (int, Fraction)):
            top, bottom = other.numerator, other.denominator
            return CycNum(self.ring, [v * top for v in self.num], self.den * bottom)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._coerce(other)
        ring, d = a.ring, a.ring.degree
        # term by term up to 8 nonzero pairs per product coefficient: the
        # cutoff measured against a byte-packed dense product; the packed
        # product of _dense_product is faster down to about 1 (degrees 96 to
        # 960)
        if (d - a.num.count(0)) * (d - b.num.count(0)) > 8 * (2 * d - 1):
            num = ring._dense_product(a.num, b.num)
        else:
            num, theirs = [0] * (2 * d - 1), b._nonzero()
            for i, x in a._nonzero():
                for j, y in theirs:
                    num[i + j] += x * y
            num = ring._reduce(num)
        return CycNum(ring, num, a.den * b.den)

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
        """(self, other) in one ring, or NotImplemented for an operand that is
        not a number.  An int or Fraction joins self's ring; of two values in
        Q(zeta_M) inside Q(zeta_N), the one in Q(zeta_M) is embedded, and two
        rings with neither conductor dividing the other raise TypeError."""
        if isinstance(other, CycNum):
            mine, theirs = self.ring, other.ring
            if mine is theirs:
                return self, other
            if mine.conductor % theirs.conductor == 0:
                return self, mine.embed(other)
            if theirs.conductor % mine.conductor:
                raise TypeError(f"no embedding between {mine} and {theirs}")
            return theirs.embed(self), other
        if isinstance(other, (int, Fraction)):
            return self, self.ring.from_fraction(other)
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
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        return pair[0].num == pair[1].num and pair[0].den == pair[1].den

    def __hash__(self):
        # equal values in rings of different conductors have different
        # coordinates but the same denominator, and a rational value is
        # (c, 0, ..., 0) / den in every ring, so its hash is the Fraction's
        return hash(self.den if any(self.num[1:]) else Fraction(self.num[0], self.den))

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
        inverse = other.inverse() if isinstance(other, CycNum) else Fraction(1, other)
        return self * inverse

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
    """Exact elimination over a cyclotomic field, one equation at a time.

    rows is a list of equal-length CycNum lists and rhs a CycNum list, every
    entry in a subfield of the ring of rhs[0].  Each equation is reduced
    against the pivot rows found so far, and one that stays nonzero becomes
    a pivot row, until the rank equals the number of unknowns.  An equation
    whose coefficients repeat an earlier one's is not reduced: it cannot add
    a pivot.  The pivot columns are the ones independent of the columns
    before them, so they do not depend on the order of the equations, and
    free variables are set to zero.  Returns (solution, rank, consistent),
    where consistent means the solution satisfies every equation by
    substitution.
    """
    if not rows:
        return [], 0, True
    ncols = len(rows[0])
    # (column, row) in the order found; a pivot row is 1 at its column, its
    # first nonzero, and 0 at the columns of the pivots found before it
    pivots = []
    seen = set()  # the coefficients of each equation reduced so far
    for row, b in zip(rows, rhs):
        if len(pivots) == ncols:
            break
        key = tuple((x.ring.conductor, x.num, x.den) for x in row)
        if key in seen:
            continue
        seen.add(key)
        row = list(row) + [b]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [a - f * c if c else a for a, c in zip(row, prow)]
        col = next((j for j in range(ncols) if row[j]), None)
        if col is not None:
            lead = row[col].inverse()
            pivots.append((col, [lead * c if c else c for c in row]))
    ring = rhs[0].ring
    solution = [ring.zero] * ncols
    # latest pivot first: a pivot row is 0 at the columns of earlier pivots
    for col, prow in reversed(pivots):
        solution[col] = prow[-1] - ring.dot(prow[:ncols], solution)
    consistent = all(ring.dot(row, solution) == b for row, b in zip(rows, rhs))
    return solution, len(pivots), consistent
