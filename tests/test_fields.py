from math import lcm

import pytest
from sympy import ZZ, factorint, totient
from sympy.polys.galoistools import (
    gf_add,
    gf_gcdex,
    gf_irreducible_p,
    gf_mul,
    gf_neg,
    gf_pow_mod,
    gf_rem,
    gf_sub,
)

from gammasums.errors import CapExceeded, LevelMissing, NotPrime
from gammasums.fields import (
    MultCharacter,
    all_characters,
    build_tower,
    gauss_sum,
    kloosterman,
    tower_ring_degree,
)


def test_f4_defining_relation():
    # F_4 with omega^2 = omega + 1
    t = build_tower(2, 2, 1)
    lv = t.level(1)
    assert lv.poly == (1, 1, 1)
    omega = lv.gen
    assert lv.mul(omega, omega) == lv.add(omega, 1)
    # Tr_{F4/F2}(omega) = omega + omega^2 = 1
    assert t.abs_trace(omega, 1) == 1


def test_f3_generator():
    t = build_tower(3, 1, 1)
    lv = t.level(1)
    assert lv.gen == 2
    assert lv.dlog[2] == 1
    assert lv.dlog[1] == 0


def test_f9_compatible_generator(tower_f3):
    l2 = tower_f3.level(2)
    g9 = l2.gen
    # norm compatibility: g9^((9-1)/(3-1)) = g9^4 = g3 = 2
    assert tower_f3.unembed(l2.power(g9, 4), 2, 1) == 2
    assert tower_f3.norm(g9, 2) == 2


def test_frobenius_is_qth_power(tower_f3):
    l2 = tower_f3.level(2)
    for x in l2.elements():
        cube = l2.mul(l2.mul(x, x), x) if x else 0
        assert (l2.frobenius(x) if x else 0) == cube


def test_embeddings_commute():
    t = build_tower(2, 1, 3)  # levels 1,2,3: divisor pairs (1,2),(1,3)
    for a in t.levels:
        for b in t.levels:
            if b % a or a == b:
                continue
            la = t.level(a)
            for x in la.elements():
                y = t.embed(x, a, b)
                assert t.unembed(y, b, a) == x


def test_trace_and_norm_transitive():
    t = build_tower(2, 2, 2)  # q = 4, levels F_4 and F_16
    l2 = t.level(2)
    for x in l2.elements():
        # absolute trace factors through the intermediate trace
        via = t.trace(x, 2, to=1)
        assert t.abs_trace(via, 1) == t.abs_trace(x, 2)
        if x:
            # norm transitivity down to the base, multiplicatively
            nx = t.norm(x, 2, to=1)
            assert t.level(1).power(nx, 1) == nx


def test_psi_additive_and_orthogonal(tower_f3):
    t = tower_f3
    lv = t.level(1)
    for x in lv.elements():
        for y in lv.elements():
            assert t.psi(lv.add(x, y)) == t.psi(x) * t.psi(y)
    total = t.ring.zero
    for x in lv.elements():
        total = total + t.psi(x)
    assert total.is_zero()
    assert t.psi(0) == t.ring.one
    # over F_3: psi(1) and psi(2) are the primitive cube roots
    n = t.ring.conductor
    assert t.psi(1) == t.ring.zeta_power(n // 3)
    assert t.psi(2) == t.ring.zeta_power(2 * (n // 3))


def test_gauss_sum_examples(tower_f3):
    t = tower_f3
    triv = MultCharacter(t, 1, 0)
    assert gauss_sum(triv) == t.ring.from_int(-1)
    quad = MultCharacter(t, 1, 1)
    g = gauss_sum(quad)
    n = t.ring.conductor
    z3 = t.ring.zeta_power(n // 3)
    assert g == z3 - z3 * z3
    assert g * g == t.ring.from_int(-3)


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1)])
def test_gauss_product_identity(p, f):
    t = build_tower(p, f, 2)
    for m in (1, 2):
        lv = t.level(m)
        size = t.q**m
        for chi in all_characters(t, m):
            if chi.is_trivial():
                continue
            prod = gauss_sum(chi) * gauss_sum(chi.conj())
            assert prod == chi.value(lv.neg(1)) * size
            assert abs(abs(gauss_sum(chi).complex_value()) - size**0.5) < 1e-9


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_hasse_davenport(p, f):
    t = build_tower(p, f, 3)
    for chi in all_characters(t, 1):
        if chi.is_trivial():
            continue
        g1 = gauss_sum(chi)
        for m in (2, 3):
            assert (-g1) ** m == -gauss_sum(chi.lift(m))


def test_kloosterman_examples(tower_f3):
    t = tower_f3
    for x in (1, 2):
        assert kloosterman(t, x, 1) == -t.psi(x)
    assert kloosterman(t, 1, 2) == t.ring.from_int(-1)
    assert kloosterman(t, 2, 2) == t.ring.from_int(2)


def test_build_tower_errors():
    with pytest.raises(NotPrime):
        build_tower(4, 1, 1)
    with pytest.raises(CapExceeded):
        build_tower(2, 1, 30, cap=1 << 10)
    t = build_tower(3, 1, 1)
    with pytest.raises(LevelMissing):
        t.level(2)


@pytest.mark.parametrize(
    "p,f,levels", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (3, 2, 2), (5, 1, 3), (7, 1, 2)]
)
def test_tower_ring_degree_is_the_built_ring_degree(p, f, levels):
    assert tower_ring_degree(p, f, levels) == build_tower(p, f, levels).ring.degree


@pytest.mark.parametrize(
    "p,f,levels,degree",
    # the measured points of harness.RING_DEGREE_CAP, and GL(7) mirabolic at q=2
    [(2, 1, 6, 4320), (5, 1, 4, 23040), (11, 1, 3, 34560), (3, 1, 6, 506880),
     (2, 1, 7, 544320)],
)
def test_tower_ring_degree_without_building(p, f, levels, degree):
    sizes = [p ** (f * m) - 1 for m in range(1, levels + 1)]
    assert tower_ring_degree(p, f, levels) == totient(lcm(p, *sizes)) == degree


def test_character_multiplicativity(tower_f5):
    t = tower_f5
    lv = t.level(1)
    chi = MultCharacter(t, 1, 1)
    for x in lv.units():
        for y in lv.units():
            assert chi.value(lv.mul(x, y)) == chi.value(x) * chi.value(y)
    assert MultCharacter(t, 1, 0).is_trivial()
    assert not chi.is_trivial()


@pytest.mark.parametrize(
    "p,f,levels", [(2, 1, 6), (2, 2, 3), (3, 1, 4), (3, 2, 2), (5, 1, 3), (7, 1, 2)]
)
def test_level_polynomials_irreducible_and_primitive_per_sympy(p, f, levels):
    tower = build_tower(p, f, levels)
    for m, lv in tower.levels.items():
        h = [c % p for c in reversed(lv.poly)]  # galoistools: high degree first
        assert len(h) - 1 == f * m and h[0] == 1
        assert gf_irreducible_p(h, p, ZZ)
        order = lv.size - 1
        x = [1, 0]
        assert gf_pow_mod(x, order, h, p, ZZ) == [1]
        for ell in factorint(order):
            assert gf_pow_mod(x, order // ell, h, p, ZZ) != [1]


# -- Level arithmetic against sympy's galoistools and the digit-wise sum ------

# (p, f): F_2, F_4, F_8, F_16, F_3, F_5, F_7, F_9, F_25, F_27, F_49
CROSS_CHECK_FIELDS = [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2),
    (3, 3), (7, 2),
]


def _digits(e, p):
    """Encoded element -> galoistools polynomial (high degree first)."""
    out = []
    while e:
        out.append(e % p)
        e //= p
    return out[::-1]


def _encode(poly, p):
    e = 0
    for c in poly:
        e = e * p + c
    return e


def _digitwise_add(p, a, b):
    out, mult = 0, 1
    while a or b:
        out += ((a % p + b % p) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def _digitwise_neg(p, a):
    out, mult = 0, 1
    while a:
        out += (-a % p) * mult
        a //= p
        mult *= p
    return out


def _arithmetic_mismatches(lv):
    """(op, a, b) for every Level result that disagrees with a reference."""
    p = lv.p
    h = [c % p for c in reversed(lv.poly)]

    def ref(poly):
        return _encode(gf_rem(poly, h, p, ZZ), p)

    for a in lv.elements():
        fa = _digits(a, p)
        if lv.neg(a) != ref(gf_neg(fa, p, ZZ)) or lv.neg(a) != _digitwise_neg(p, a):
            yield "neg", a, None
        if a and lv.inv(a) != _encode(gf_gcdex(fa, h, p, ZZ)[0], p):
            yield "inv", a, None
        for b in lv.elements():
            fb = _digits(b, p)
            s = lv.add(a, b)
            if s != ref(gf_add(fa, fb, p, ZZ)) or s != _digitwise_add(p, a, b):
                yield "add", a, b
            d = lv.sub(a, b)
            if d != ref(gf_sub(fa, fb, p, ZZ)) or d != _digitwise_add(
                p, a, _digitwise_neg(p, b)
            ):
                yield "sub", a, b
            if lv.mul(a, b) != ref(gf_mul(fa, fb, p, ZZ)):
                yield "mul", a, b


@pytest.mark.parametrize("p,f", CROSS_CHECK_FIELDS)
def test_level_arithmetic_matches_sympy_on_every_pair(p, f):
    lv = build_tower(p, f, 1).level(1)
    assert list(_arithmetic_mismatches(lv)) == []


@pytest.mark.parametrize("p,f", CROSS_CHECK_FIELDS)
def test_level_arithmetic_cross_check_catches_one_wrong_zech_entry(p, f):
    # mutation control: a fresh tower, so no shared fixture sees the damage
    lv = build_tower(p, f, 1).level(1)
    n = lv.size - 1
    k = n - 1
    lv.zech[k] = (lv.zech[k] + 1) % n if lv.zech[k] >= 0 else 0
    assert next(_arithmetic_mismatches(lv), None) is not None
