import operator
import random
from fractions import Fraction
from itertools import compress
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasums import cyclotomic
from gammasums.cyclotomic import (
    CycNum,
    CyclotomicRing,
    _digit_width,
    _pack,
    _unpack,
    cyclotomic_polynomial,
    solve_linear_system,
)


KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_POLYS.items()))
def test_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


X = sympy.Symbol("x")


@pytest.mark.parametrize("n", list(range(1, 121)) + [336, 630, 1320, 1860, 3720])
def test_cyclotomic_polynomial_matches_sympy(n):
    want = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
    assert cyclotomic_polynomial(n) == tuple(int(c) for c in want)


def test_ring_degree_is_the_totient():
    # the degree is read off the last sparse modulus, Phi_rad(N)(x^(N/rad N))
    prime_powers = [2**10, 3**5, 5**4, 7**3, 11**2, 13**2]
    for n in list(range(2, 121)) + prime_powers + [162, 336, 630, 3720, 19530]:
        assert CyclotomicRing(n).degree == sympy.totient(n), n


RINGS = {n: CyclotomicRing(n) for n in (12, 30, 120, 336, 630, 1860)}


def zeta_sum(ring, coeffs, den, sign=1):
    """sum(coeffs[k] * zeta^(sign * k)) / den, added up from zeta_power rows."""
    vec = [0] * ring.degree
    for k, c in enumerate(coeffs):
        if c:
            for i, r in enumerate(ring.zeta_power(sign * k).num):
                vec[i] += c * r
    return CycNum(ring, vec, den)


def draw_vector(data, n, nonzero=64):
    """Coefficients of length up to 2n, at most `nonzero` of them nonzero, and
    a denominator that is 1 half the time."""
    length = data.draw(st.integers(0, 2 * n))
    coeffs = [0] * length
    if length:
        entries = st.dictionaries(
            st.integers(0, length - 1), st.integers(-9, 9), max_size=nonzero
        )
        for k, c in data.draw(entries).items():
            coeffs[k] = c
    den = data.draw(st.one_of(st.just(1), st.integers(2, 12)))
    return coeffs, den


@pytest.mark.parametrize("n", sorted(RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_from_coeffs_is_the_zeta_sum(n, data):
    ring = RINGS[n]
    coeffs, den = draw_vector(data, n)
    assert ring.from_coeffs(coeffs, den) == zeta_sum(ring, coeffs, den)


@pytest.mark.parametrize("n", sorted(RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_conjugate_maps_zeta_to_its_inverse(n, data):
    ring = RINGS[n]
    coeffs, den = draw_vector(data, n)
    conj = ring.from_coeffs(coeffs, den).conjugate()
    assert conj == zeta_sum(ring, coeffs, den, sign=-1)


def sympy_poly(value):
    """A CycNum's power-basis vector as a sympy polynomial over Q."""
    coeffs = [sympy.Rational(c, value.den) for c in value.num]
    return sympy.Poly(coeffs[::-1], X, domain=sympy.QQ)


def sympy_phi(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain=sympy.QQ)


def check_product(a, b):
    want = (sympy_poly(a) * sympy_poly(b)).rem(sympy_phi(a.ring.conductor))
    assert sympy_poly(a * b) == want


@pytest.mark.parametrize("n", [12, 30, 120, 630])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_is_the_sympy_remainder(n, data):
    ring = RINGS[n]
    check_product(
        ring.from_coeffs(*draw_vector(data, n)), ring.from_coeffs(*draw_vector(data, n))
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_product_is_the_sympy_remainder_at_3720(seed):
    """Degree 960: dense times dense, dense times a root of unity, with
    denominators.  One sympy remainder takes a few seconds, hence the few
    examples."""
    ring, rng = CyclotomicRing(3720), random.Random(seed)

    def dense(nonzero):
        coeffs = [0] * 7440
        for k in rng.sample(range(7440), nonzero):
            coeffs[k] = rng.randint(-9, 9)
        return ring.from_coeffs(coeffs, rng.choice((1, 7)))

    a = dense(64)
    b = ring.zeta_power(rng.randrange(3720)) if seed == 2 else dense(64)
    check_product(a, b)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sparse_vector(rng, length, nonzero, digits):
    """nonzero entries of either sign with up to `digits` decimal digits."""
    vec = [0] * length
    for i in rng.sample(range(length), nonzero):
        vec[i] = rng.choice((-1, 1)) * rng.randrange(1, 10**digits)
    return vec


# (length, nonzero entries) of each operand: all-zero and one-term operands,
# sparse against dense, a sweep across the sparse cutoff, unequal lengths
CONVOLVE_SHAPES = [
    ((96, nz_a), (96, nz_b))
    for nz_a in (0, 1, 2, 8, 16, 48, 96)
    for nz_b in (0, 1, 8, 15, 16, 17, 90, 95, 96)
] + [((96, 96), (5, 5)), ((3, 3), (200, 150)), ((1, 1), (50, 50)), ((480, 480), (479, 7))]
# rings whose degree is one of the shapes' lengths: 96 and 480
SHAPE_RINGS = {96: CyclotomicRing(336), 480: CyclotomicRing(1860)}


def packed_product(a, b):
    """schoolbook(a, b) by one product of packed integers, with digits as wide
    as max|a| * max|b| * min(len(a), len(b)), which bounds each coefficient,
    an operand's size counted as at least 1 so that both operands fit."""
    sizes = max(1, *map(abs, a)) * max(1, *map(abs, b))
    width = _digit_width(sizes * min(len(a), len(b)))
    return _unpack(_pack(a, width) * _pack(b, width), len(a) + len(b) - 1, width)


@pytest.mark.parametrize("digits", [1, 30])
def test_packed_product_is_the_schoolbook_product(digits):
    """Pack, one integer product and unpack give the schoolbook product at
    every shape; at a ring's degree, the CycNum product, which goes term by
    term or through the fused dense product by the count of nonzero pairs,
    is the schoolbook product reduced."""
    rng = random.Random(digits)
    for (len_a, nz_a), (len_b, nz_b) in CONVOLVE_SHAPES:
        a = sparse_vector(rng, len_a, nz_a, digits)
        b = sparse_vector(rng, len_b, nz_b, digits)
        assert packed_product(a, b) == schoolbook(a, b), (len_a, nz_a, len_b, nz_b)
        assert packed_product(tuple(b), tuple(a)) == schoolbook(b, a)
        ring = SHAPE_RINGS.get(len_a)
        if ring and len_b <= len_a:
            b += [0] * (len_a - len_b)
            want = ring._reduce(schoolbook(a, b))
            assert (CycNum(ring, a) * CycNum(ring, b)).num == tuple(want)
            assert (CycNum(ring, b) * CycNum(ring, a)).num == tuple(want)


def test_packed_product_reaches_its_coefficient_bound():
    """Constant vectors of +-(2^j - 1): the middle coefficient of the product
    is max|a| * max|b| * min(len(a), len(b)) itself, so a digit one bit too
    narrow for the bound shows; j runs across the 16-, 32- and 64-bit widths
    and the byte widths above them."""
    for length in (64, 96):
        for j in [*range(1, 40), *range(60, 71)]:
            m = (1 << j) - 1
            for sign in (1, -1):
                a, b = [m] * length, [sign * m] * length
                assert packed_product(a, b) == schoolbook(a, b), (length, j, sign)


# every conductor up to 120, and rings from the workloads and the oracle
DENSE_CONDUCTORS = [*range(2, 121), 312, 336, 630, 1320, 3720]
DENSE_RINGS = {}
# coefficient sizes: small, at the 16-, 32- and 64-bit digit edges, above 64 bits
COEFFICIENT_SIZES = ["small", 15, 31, 63, "wide"]


def draw_dense_pair(data, ring):
    """Two power-basis vectors with most coordinates nonzero, of either sign
    and of a drawn size, built from a drawn seed."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    sizes = [data.draw(st.sampled_from(COEFFICIENT_SIZES)) for _ in range(2)]

    def coefficient(size):
        if rng.random() < 0.1:
            return 0
        if size == "small":
            return rng.randint(-9, 9)
        if size == "wide":
            return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(65, 200))
        return rng.choice((-1, 1)) * ((1 << size) + rng.choice((-1, 0, 1)))

    return [[coefficient(size) for _ in range(ring.degree)] for size in sizes]


@pytest.mark.parametrize("n", DENSE_CONDUCTORS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_dense_product_is_the_reduced_schoolbook_product(n, data):
    if n not in DENSE_RINGS:
        DENSE_RINGS[n] = CyclotomicRing(n)
    ring = DENSE_RINGS[n]
    a, b = draw_dense_pair(data, ring)
    want = ring._reduce(schoolbook(a, b))
    assert ring._dense_product(a, b) == want
    dens = [data.draw(st.one_of(st.just(1), st.integers(2, 12))) for _ in range(2)]
    x, y = CycNum(ring, a, dens[0]), CycNum(ring, b, -dens[1])
    assert x * y == CycNum(ring, want, -dens[0] * dens[1])


@pytest.mark.parametrize("n", [30, 120, 336, 630])
def test_dense_product_reaches_the_ring_bound(n, monkeypatch):
    """Constant vectors of +-(2^j - 1).  The unreduced product's middle
    coefficient is max|a| * max|b| * phi(N), where the ring's majorant
    starts, and no coefficient before or after reduction is above
    max|a| * max|b| * height; j runs across every digit width, so each width
    holds the products that choose it."""
    ring = CyclotomicRing(n)
    d, height = ring.degree, ring._dense_plan()[2]
    ones = [1] * d
    unit = schoolbook(ones, ones)
    reduced = ring._reduce(list(unit))
    assert max(unit) == d and max(map(abs, reduced)) <= height
    widths = set()
    real_pack = cyclotomic._pack

    def pack(vec, width):
        widths.add(width)
        return real_pack(vec, width)

    monkeypatch.setattr(cyclotomic, "_pack", pack)
    for j in [*range(1, 40), *range(60, 71)]:
        m = (1 << j) - 1
        for sign in (1, -1):
            want = [sign * m * m * c for c in reduced]
            assert ring._dense_product([m] * d, [sign * m] * d) == want, (j, sign)
    assert {16, 32, 64} <= widths and max(widths) > 64


# Conductors up to 120 whose degree keeps one Euclid run in Q short.
INVERSE_CONDUCTORS = [n for n in range(2, 121) if len(cyclotomic_polynomial(n)) <= 41]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_is_the_sympy_inverse(data):
    n = data.draw(st.sampled_from(INVERSE_CONDUCTORS))
    ring = CyclotomicRing(n)
    a = ring.from_coeffs(*draw_vector(data, n, nonzero=8))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert sympy_poly(a.inverse()) == sympy_poly(a).invert(sympy_phi(n))


ACC_RINGS = {**RINGS, 3720: CyclotomicRing(3720)}


@pytest.mark.parametrize("n", sorted(ACC_RINGS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_accumulator_is_the_dense_sum(n, data):
    """add_term, add_shifted and value against products with zeta_power, for
    exponents below zero and above N and values with denominators."""
    ring = ACC_RINGS[n]
    exponent, coeff = st.integers(-3 * n, 3 * n), st.integers(-9, 9)
    acc, want = ring.accumulator(), ring.zero
    for _ in range(data.draw(st.integers(0, 8))):
        k, c = data.draw(exponent), data.draw(coeff)
        if data.draw(st.booleans()):
            acc.add_term(k, c)
            want = want + ring.zeta_power(k) * c
        else:
            value = ring.from_coeffs(*draw_vector(data, n, nonzero=8))
            acc.add_shifted(value, k, c)
            want = want + ring.zeta_power(k) * value * c
    den = data.draw(st.integers(1, 12))
    assert acc.value(den) == want * Fraction(1, den)


@pytest.mark.parametrize("n", sorted(ACC_RINGS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sum_is_the_fold_of_additions(n, data):
    """ring.sum(values, den) against CycNum additions one at a time, for
    values with denominators, no values at all, and a generator."""
    ring = ACC_RINGS[n]
    values = [
        ring.from_coeffs(*draw_vector(data, n, nonzero=8))
        for _ in range(data.draw(st.integers(0, 6)))
    ]
    den = data.draw(st.integers(1, 12))
    want = ring.zero
    for v in values:
        want = want + v
    assert ring.sum(values, den) == want * Fraction(1, den)
    assert ring.sum(v for v in values) == want


def add_shifted_by_scan(acc, value, k, c):
    """ZetaSum.add_shifted reading every coordinate of value with compress,
    as it did before the support was cached."""
    if acc.den % value.den:
        scale = value.den // gcd(acc.den, value.den)
        acc.coeffs = [v * scale for v in acc.coeffs]
        acc.den *= scale
    c *= acc.den // value.den
    num, n = value.num, acc.ring.conductor
    for i in compress(range(len(num)), num):
        acc.coeffs[(i + k) % n] += c * num[i]


@pytest.mark.parametrize("n", sorted(ACC_RINGS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_add_shifted_is_the_coordinate_scan(n, data):
    """The cached-support add_shifted leaves the same list and denominator as
    the scan, for denominators other than 1, any c and shifts outside [0, N)."""
    ring = ACC_RINGS[n]
    acc, scan = ring.accumulator(), ring.accumulator()
    for _ in range(data.draw(st.integers(1, 6))):
        value = ring.from_coeffs(*draw_vector(data, n, nonzero=8))
        k = data.draw(st.integers(-3 * n, 3 * n))
        c = data.draw(st.integers(-9, 9))
        acc.add_shifted(value, k, c)
        add_shifted_by_scan(scan, value, k, c)
        assert (acc.den, acc.coeffs) == (scan.den, scan.coeffs)
        # the support is built once, and a second use reads the same pairs
        support = value._nonzero()
        assert support == tuple((i, v) for i, v in enumerate(value.num) if v)
        assert value._nonzero() is support


# (M, N) with M dividing N: Q(zeta_M) inside Q(zeta_N)
EMBEDDINGS = [(2, 12), (3, 12), (5, 30), (15, 30), (8, 120), (5, 120), (7, 336),
              (12, 336), (5, 3720)]


def embedding_failures(big, a, b):
    """The ring laws that big.embed breaks at a and b, values of one smaller
    ring: sums, products, conjugates and the zero test."""
    e = big.embed
    laws = {
        "sum": e(a + b) == e(a) + e(b),
        "product": e(a * b) == e(a) * e(b),
        "conjugate": e(a.conjugate()) == e(a).conjugate(),
        "is_zero": e(a).is_zero() == a.is_zero() and e(a - a).is_zero(),
    }
    return [law for law, held in laws.items() if not held]


@pytest.mark.parametrize("m,n", EMBEDDINGS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_embedding_is_a_ring_map(m, n, data):
    small, big = CyclotomicRing(m), ACC_RINGS.get(n) or CyclotomicRing(n)
    a, b = (small.from_coeffs(*draw_vector(data, m)) for _ in range(2))
    assert not embedding_failures(big, a, b)
    # values meet across the two rings in either order, with equal hashes
    e = big.embed(a)
    assert e.ring is big and a == e and e == a and hash(a) == hash(e)
    assert a + big.one == big.one + a == e + 1 and a * b == e * big.embed(b)


def embedding_mismatches(m, n):
    """k with big.embed(zeta_M^k) != x^(k N/M) mod the sympy Phi_N."""
    small, big = CyclotomicRing(m), ACC_RINGS.get(n) or CyclotomicRing(n)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X)
    bad = []
    for k in range(m):
        want = sympy.Poly(X ** (k * n // m), X).rem(phi).all_coeffs()[::-1]
        got = big.embed(small.zeta_power(k)).num
        if got != tuple(want) + (0,) * (big.degree - len(want)):
            bad.append(k)
    return bad


@pytest.mark.parametrize("m,n", EMBEDDINGS)
def test_embedding_sends_zeta_m_to_the_sympy_power(m, n):
    assert not embedding_mismatches(m, n)


def test_embedding_with_scale_one_breaks_the_checks(monkeypatch):
    """Mutation control: coordinate i of a Q(zeta_M) value sent to i, not to
    i * N/M."""
    monkeypatch.setattr(
        CyclotomicRing, "embed", lambda self, v: self.from_coeffs(v.num, v.den)
    )
    small, big = CyclotomicRing(5), CyclotomicRing(30)
    a, b = small.zeta_power(3), small.zeta_power(2)
    assert embedding_failures(big, a, b) == ["product", "conjugate"]
    assert embedding_mismatches(5, 30) == [1, 2, 3, 4]


BINARY_OPS = (operator.eq, operator.ne, operator.add, operator.sub, operator.mul,
              operator.truediv)


def test_rings_without_an_embedding_refuse_to_meet():
    """Neither of Q(zeta_3) and Q(zeta_4) holds the other: every comparison
    and operation between their values raises, in either order."""
    a, b = CyclotomicRing(3).zeta_power(1), CyclotomicRing(4).zeta_power(1)
    for op in BINARY_OPS:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError, match="no embedding"):
                op(x, y)


def test_add_shifted_refuses_a_conductor_that_does_not_divide():
    ring = CyclotomicRing(12)
    for value in (CyclotomicRing(8).one, CyclotomicRing(24).zeta_power(1)):
        with pytest.raises(TypeError, match="does not embed"):
            ring.accumulator().add_shifted(value)
        with pytest.raises(TypeError, match="does not embed"):
            ring.sum([ring.one, value])
    acc = ring.accumulator()
    acc.add_shifted(CyclotomicRing(4).zeta_power(1), 1)  # zeta_12^3 * zeta_12
    assert acc.value() == ring.zeta_power(4)


@pytest.mark.parametrize("n", [2, 12, 630])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_values_hash_equal(n, data):
    """a == b implies hash(a) == hash(b): within a ring, against ints and
    Fractions, and (test_embedding_is_a_ring_map) across rings."""
    ring = ACC_RINGS.get(n) or CyclotomicRing(n)
    coeffs, den = draw_vector(data, n)
    a, b = ring.from_coeffs(coeffs, den), ring.from_coeffs(coeffs + [0, 0], den)
    assert a == b and hash(a) == hash(b)
    fr = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 12)))
    c = ring.from_fraction(fr)
    assert c == fr and hash(c) == hash(fr)
    assert ring.from_int(fr.numerator) == fr.numerator
    assert hash(ring.from_int(fr.numerator)) == hash(fr.numerator)


@pytest.mark.parametrize("n", [630, 3720])
def test_zeta_power_is_the_sympy_remainder(n):
    ring = ACC_RINGS[n]
    d = ring.degree
    ks = [0, 1, d - 1, d, n // 2, n - 1] + random.Random(n).sample(range(n), 6)
    phi = sympy.Poly(sympy.cyclotomic_poly(n, X), X)
    for k in ks:
        want = sympy.Poly(X**k, X).rem(phi).all_coeffs()[::-1]
        assert ring.zeta_power(k).num == tuple(want) + (0,) * (d - len(want)), k
        z = ring.zeta_power(k)
        assert ring.zeta_power(k - 2 * n) == ring.zeta_power(k + 3 * n) == z


@pytest.mark.parametrize("n", [12, 120, 630])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ring_laws(n, data):
    ring = RINGS[n]
    a, b, c = (ring.from_coeffs(*draw_vector(data, n)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a.conjugate().conjugate() == a


def test_zeta_powers_and_reduction():
    ring = CyclotomicRing(12)
    z = ring.zeta_power(1)
    assert z**12 == ring.one
    assert z**6 == -ring.one
    i = ring.zeta_power(3)
    assert i * i == ring.from_int(-1)
    # canonical zero
    assert (z**6 + ring.one).is_zero()


def test_ring_axioms_randomized():
    ring = CyclotomicRing(24)
    rng = random.Random(20240809)
    for _ in range(1000):
        a, b, c = (
            ring.from_coeffs(
                [rng.randrange(-5, 6) for _ in range(ring.degree)],
                rng.randrange(1, 5),
            )
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_conjugation_is_involutive_ring_map():
    ring = CyclotomicRing(20)
    rng = random.Random(7)
    for _ in range(100):
        a, b = (
            ring.from_coeffs(
                [rng.randrange(-4, 5) for _ in range(ring.degree)],
                rng.randrange(1, 4),
            )
            for _ in range(2)
        )
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_complex_embedding_agrees():
    ring = CyclotomicRing(15)
    rng = random.Random(9)
    for _ in range(50):
        a, b = (
            ring.from_coeffs(
                [rng.randrange(-3, 4) for _ in range(ring.degree)],
                rng.randrange(1, 4),
            )
            for _ in range(2)
        )
        lhs = (a * b).complex_value()
        rhs = a.complex_value() * b.complex_value()
        assert abs(lhs - rhs) < 1e-9


def test_inverse_and_division():
    ring = CyclotomicRing(24)
    rng = random.Random(3)
    for _ in range(30):
        a = ring.from_coeffs(
            [rng.randrange(-3, 4) for _ in range(ring.degree)], rng.randrange(1, 4)
        )
        if a.is_zero():
            continue
        assert a * a.inverse() == ring.one
        assert (a / a) == ring.one
    with pytest.raises(ZeroDivisionError):
        ring.zero.inverse()


def test_linear_solver_exact():
    ring = CyclotomicRing(12)
    z = ring.zeta_power(1)
    rows = [[ring.one, z], [z, ring.one], [ring.one + z, ring.one + z]]
    rhs = [ring.from_int(2), ring.zero, ring.from_int(2)]
    sol, rank, consistent = solve_linear_system(rows, rhs)
    assert consistent and rank == 2
    for row, b in zip(rows, rhs):
        acc = ring.zero
        for c, s in zip(row, sol):
            acc = acc + c * s
        assert acc == b
    # inconsistent variant
    rhs_bad = [ring.from_int(2), ring.zero, ring.from_int(3)]
    _, _, consistent = solve_linear_system(rows, rhs_bad)
    assert not consistent
    # columns in Q(zeta_12), right-hand side in Q(zeta_60): the rank is full
    # at the second equation, so the third is checked by substitution alone
    big = CyclotomicRing(60)
    w = big.zeta_power(7)
    embedded = [[big.embed(c) for c in row] for row in rows]
    for b3, want in ((w + 3, True), (w + 4, False)):
        rhs = [w, big.from_int(3), b3]
        mixed = solve_linear_system(rows, rhs)
        assert mixed == solve_linear_system(embedded, rhs)
        sol, rank, consistent = mixed
        assert (rank, consistent) == (2, want)
        assert all(x.ring is big for x in sol)


def test_linear_solver_skips_a_repeated_equation(monkeypatch):
    ring = CyclotomicRing(12)
    z = ring.zeta_power(1)
    r1, r2 = [ring.one, z, z * z], [z, ring.one, ring.zero]
    r3 = [a + b for a, b in zip(r1, r2)]  # rank 2, column 2 free
    rhs = [ring.from_int(2), z, ring.from_int(2) + z]
    want = solve_linear_system([r1, r2, r3], rhs)
    assert want[1:] == (2, True)
    # the pivot columns, and so the solution, do not depend on equation order
    assert solve_linear_system([r3, r2, r1], rhs[::-1]) == want
    # a repeat of r1 costs no elimination step, but substitution still checks it
    steps = []
    real = CycNum.__sub__
    monkeypatch.setattr(CycNum, "__sub__", lambda x, y: steps.append(x) or real(x, y))
    solve_linear_system([r1, r2, r3], rhs)
    once, steps[:] = len(steps), []
    assert solve_linear_system([r1, r1, r2, r3], [rhs[0]] + rhs) == want
    assert len(steps) == once
    bad = solve_linear_system([r1, r1, r2, r3], [rhs[0] + 1] + rhs)
    assert bad[1:] == (2, False)
