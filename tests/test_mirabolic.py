import itertools
import random

import pytest

from gammasums import harness, matrices, mirabolic
from gammasums.harness import run_suite
from gammasums.errors import CapExceeded, NotNormalized
from gammasums.fields import build_tower
from gammasums.matrices import charpoly, mat_identity, mat_inv, mat_mul, mat_rank
from gammasums.mirabolic import (
    bernstein_coords,
    companion_matrix,
    coset_charpoly,
    group_point,
    krylov,
    left_translate,
    lemma_translation_map,
    normalize_stratum,
    orbit_census,
    parabolic_rank_classify,
    q1_elements,
    stratum_index,
)


@pytest.fixture(scope="module")
def t3():
    return build_tower(3, 1, 1)


@pytest.fixture(scope="module")
def t2():
    return build_tower(2, 1, 1)


def u_q_matrix(n, v):
    """The unipotent with first row (1, v) and identity elsewhere."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j, c in enumerate(v):
        rows[0][j + 1] = c
    return tuple(tuple(r) for r in rows)


class NotCyclic(Exception):
    """e_1 is not a cyclic vector for the block."""


def companion_normalize(level, x_f):
    """Unique g with g e_1 = e_1 and g^(-1) x_f g in companion form.

    The columns of g are the cyclic basis e_1, x_f e_1, ...; raises NotCyclic
    when e_1 is not cyclic for x_f.
    """
    cols = krylov(level, x_f, [])
    if len(cols) < len(x_f):
        raise NotCyclic("e_1 is not a cyclic vector for the block")
    g = tuple(zip(*cols))
    comp = mat_mul(level, mat_inv(level, g), mat_mul(level, x_f, g))
    a = charpoly(level, x_f)
    if comp != companion_matrix(level, a):
        raise ArithmeticError("cyclic-basis conjugation is not companion")
    return g, a


def random_point(tower, n, rng):
    lv = tower.level(1)
    while True:
        rows = [[rng.randrange(lv.size) for _ in range(n)] for _ in range(n)]
        try:
            return group_point(tower, rows)
        except ValueError:
            continue


def test_stratum_examples(t3):
    assert stratum_index(group_point(t3, [[1, 0], [0, 1]])) == 1
    assert stratum_index(group_point(t3, [[0, 1], [1, 1]])) == 2
    assert stratum_index(group_point(t3, [[1, 0], [0, 2]])) == 1


def test_stratum_left_translation_invariance_exhaustive(t3):
    lv = t3.level(1)
    for entries in itertools.product(range(3), repeat=4):
        rows = ((entries[0], entries[1]), (entries[2], entries[3]))
        try:
            x = group_point(t3, rows)
        except ValueError:
            continue
        m = stratum_index(x)
        for v in itertools.product(range(3), repeat=1):
            ux = group_point(t3, mat_mul(lv, u_q_matrix(2, v), x.rows))
            assert stratum_index(ux) == m


def test_left_translate_is_the_u_q_product():
    tower = build_tower(2, 2, 1)
    lv = tower.level(1)
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            x = random_point(tower, n, rng)
            for v in itertools.product(lv.elements(), repeat=n - 1):
                u = u_q_matrix(n, v)
                assert left_translate(lv, x.rows, v) == mat_mul(lv, u, x.rows)


def test_companion_normalize_example():
    t5 = build_tower(5, 1, 1)
    lv = t5.level(1)
    x_f = ((1, 1), (1, 2))
    g, a = companion_normalize(lv, x_f)
    assert g == ((1, 1), (0, 1))
    assert a == (2, 1)  # t^2 - 3t + 1 over F_5
    conj = mat_mul(lv, mat_inv(lv, g), mat_mul(lv, x_f, g))
    assert conj == companion_matrix(lv, a)
    with pytest.raises(NotCyclic):
        companion_normalize(lv, mat_identity(2))


def test_companion_normalize_uniqueness_exhaustive(t3):
    # any element of the e_1 stabilizer conjugating to companion form equals
    # the cyclic-basis matrix
    lv = t3.level(1)
    x_f = ((0, 2), (1, 1))  # companion already, cyclic
    rng = random.Random(5)
    for _ in range(5):
        x = random_point(t3, 2, rng)
        if stratum_index(x) != 2:
            continue
        g0, a = companion_normalize(lv, x.rows)
        comp = companion_matrix(lv, a)
        found = []
        for g, ginv in q1_elements(t3, 2):
            if mat_mul(lv, ginv, mat_mul(lv, x.rows, g)) == comp:
                found.append(g)
        assert found == [g0]


def test_normalize_and_reassemble_roundtrip(t3):
    rng = random.Random(7)
    for _ in range(100):
        x = random_point(t3, 3, rng)
        h, y, m = normalize_stratum(x)
        assert tuple(r[0] for r in h) == (1, 0, 0)
        sd = bernstein_coords(y, m)
        assert sd.m == m == stratum_index(x)
        assert sd.reassemble(t3) == y.rows


def test_bernstein_rejects_unnormalized(t3):
    x = group_point(t3, [[1, 1], [1, 0]])
    with pytest.raises(NotNormalized):
        bernstein_coords(x, 2)


def test_translation_map_bijective_including_shared_eigenvalues(t3):
    # GL(3) layout, stratum 2: (v1, vm1) -> y is bijective for every
    # companion block and every scalar, shared eigenvalue or not
    lv = t3.level(1)
    for a1 in range(3):
        for a2 in (1, 2):
            x_f = companion_matrix(lv, (a1, a2))
            for xe in (1, 2):
                seen = set()
                for v1 in range(3):
                    for vm in range(3):
                        y = lemma_translation_map(
                            lv, x_f, ((xe,),), (v1,), ((vm,), (0,))
                        )
                        seen.add(y)
                assert len(seen) == 9


def test_coset_charpoly_shift_formula(t3):
    rng = random.Random(11)
    for _ in range(20):
        x = random_point(t3, 3, rng)
        h, y, m = normalize_stratum(x)
        assert harness.coset_failures(x, y, m) == ([], [])


def test_coset_failures_take_one_block_charpoly_per_prefix(t3, monkeypatch):
    # at a stratum-2 point of GL(4, F_3): the block translates differ in
    # v[:1] alone, 3 of them; the whole translates in all of v, 27; and
    # coset_rank takes n - 1 = 3 rows at each of y and x
    sizes = []
    real = mirabolic.row0_charpolys

    def counted(level, a, rows0):
        sizes.append(len(rows0))
        return real(level, a, rows0)

    x = point_in_stratum(t3, 4, 2, random.Random(4))
    _, y, m = normalize_stratum(x)
    monkeypatch.setattr(mirabolic, "row0_charpolys", counted)
    assert harness.coset_failures(x, y, m) == ([], [])
    assert m == 2 and sorted(sizes) == [3, 3, 3, 27]


def point_in_stratum(tower, n, m, rng):
    """A random point of stratum m: [[C, Y], [0, E]] with C a companion block
    of size m, conjugated by a random element of Q_1, which keeps strata."""
    lv = tower.level(1)
    while True:
        a = tuple(rng.randrange(lv.size) for _ in range(m - 1)) + (
            rng.choice(list(lv.units())),
        )
        comp = companion_matrix(lv, a)
        e = random_point(tower, n - m, rng).rows if m < n else ()
        y = tuple(
            tuple(comp[i]) + tuple(rng.randrange(lv.size) for _ in range(n - m))
            for i in range(m)
        ) + tuple((0,) * m + tuple(row) for row in e)
        h = random_point(tower, n, rng).rows
        h = tuple(((1 if i == 0 else 0),) + tuple(row[1:]) for i, row in enumerate(h))
        try:
            h_inv = mat_inv(lv, h)
        except ValueError:
            continue
        x = group_point(tower, mat_mul(lv, h, mat_mul(lv, y, h_inv)))
        assert stratum_index(x) == m
        return x


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_coset_kernels_match_the_per_translate_route(p, f):
    # every v, points of every stratum, and the m x m block translates that
    # coset-charpoly-formula reads at m < n
    tower = build_tower(p, f, 1)
    lv = tower.level(1)
    rng = random.Random(p * f)
    for n in range(1, 5):
        vs = list(itertools.product(lv.elements(), repeat=n - 1))
        for m in range(1, n + 1):
            for _ in range(2 if lv.size ** (n - 1) <= 125 else 1):
                x = point_in_stratum(tower, n, m, rng)
                translates = [left_translate(lv, x.rows, v) for v in vs]
                rows0 = mirabolic.coset_rows0(lv, x.rows, vs)
                assert rows0 == [ux[0] for ux in translates]
                assert mirabolic.coset_charpolys(lv, x.rows, vs) == [
                    charpoly(lv, ux) for ux in translates
                ]
                assert mirabolic.coset_strata(lv, x.rows, vs) == [
                    len(krylov(lv, ux, [])) for ux in translates
                ]
                _, y, _ = normalize_stratum(x)
                x_f = tuple(row[:m] for row in y.rows[:m])
                blocks = [v[: m - 1] for v in vs]
                assert mirabolic.coset_charpolys(lv, x_f, blocks) == [
                    charpoly(lv, left_translate(lv, x_f, v)) for v in blocks
                ]
                shifts = tuple(
                    tuple(map(lv.sub, charpoly(lv, left_translate(lv, x.rows, u)), x.char))
                    for u in mat_identity(n - 1)
                )
                assert mirabolic.coset_rank(x) == mat_rank(lv, shifts)


def test_krylov_makes_one_product_per_vector_after_the_first(t3, monkeypatch):
    # at stratum m < n the m-th product is read (it is in the span); at m = n
    # the loop stops before the product it would never read
    calls = []
    real = mirabolic.mat_vec

    def counted(level, a, v):
        calls.append(v)
        return real(level, a, v)

    monkeypatch.setattr(mirabolic, "mat_vec", counted)
    lv = t3.level(1)
    for rows, m in (
        (companion_matrix(lv, (1, 2, 1)), 3),
        (((1, 0, 0), (1, 2, 0), (0, 0, 1)), 2),
        (mat_identity(3), 1),
    ):
        calls.clear()
        assert len(krylov(lv, rows, [])) == m
        assert len(calls) == min(m, 2)


def _mirabolic_check(name):
    # left-translation-stability sweeps all of GL(3, F_2)
    (report,) = run_suite({"p": 2, "shape": [3], "suites": ["mirabolic"], "seed": 1})
    (check,) = [c for c in report.checks if c.name == name]
    return check.passed


def test_left_translation_stability_breaks_under_a_wrong_krylov(monkeypatch):
    # the translates' Krylov trie runs on x with row 1 += row 0; the points'
    # own runs, through krylov, do not
    real = harness.coset_strata

    def skewed(level, rows, vs):
        row1 = tuple(map(level.add, rows[1], rows[0]))
        return real(level, (rows[0], row1) + tuple(rows[2:]), vs)

    assert _mirabolic_check("left-translation-stability")
    monkeypatch.setattr(harness, "coset_strata", skewed)
    assert not _mirabolic_check("left-translation-stability")


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_coset_strata_takes_one_product_per_distinct_krylov_vector(p, f, monkeypatch):
    # the points of test_coset_kernels_match_the_per_translate_route; every
    # translate's stratum is m, so a trie that shares a node between
    # translates whose runs differ shows only in its count of products x w.
    # Only products by the watched matrix count: the trie's other mat_vec,
    # by the rows (1, v), forms each translate's next first entry
    products, watched = [], None
    real = mirabolic.mat_vec

    def counted(level, a, v):
        if a is watched:
            products.append(v)
        return real(level, a, v)

    monkeypatch.setattr(mirabolic, "mat_vec", counted)
    tower = build_tower(p, f, 1)
    lv = tower.level(1)
    rng = random.Random(p * f)
    for n in range(1, 5):
        vs = list(itertools.product(lv.elements(), repeat=n - 1))
        for m in range(1, n + 1):
            for _ in range(2 if lv.size ** (n - 1) <= 125 else 1):
                x = point_in_stratum(tower, n, m, rng)
                multiplied = set()
                for v in vs:
                    watched = left_translate(lv, x.rows, v)
                    krylov(lv, watched, [])
                    multiplied.update(products)
                    products.clear()
                watched = x.rows
                mirabolic.coset_strata(lv, x.rows, vs)
                assert len(products) == len(multiplied)
                products.clear()


def test_coset_charpoly_formula_breaks_under_a_wrong_formula(monkeypatch):
    real = harness.coset_charpoly

    def shifted(level, a, v):
        b = real(level, a, v)
        return (level.add(b[0], 1),) + b[1:]

    assert _mirabolic_check("coset-charpoly-formula")
    monkeypatch.setattr(harness, "coset_charpoly", shifted)
    assert not _mirabolic_check("coset-charpoly-formula")


def test_coset_charpoly_formula_breaks_under_a_wrong_shared_prefix(monkeypatch):
    # the shared prefix is the one Berkowitz run on rows that are longer than
    # they are many (the trailing rows, index-reversed); its constant term
    # is moved by 1, so every translate's charpoly is off
    real = matrices._berkowitz

    def perturbed(level, rows):
        poly = real(level, rows)
        if rows and len(rows[0]) > len(rows):
            poly = poly[:-1] + (level.add(poly[-1], 1),)
        return poly

    assert _mirabolic_check("coset-charpoly-formula")
    monkeypatch.setattr(matrices, "_berkowitz", perturbed)
    assert not _mirabolic_check("coset-charpoly-formula")


def test_coset_map_linearity_breaks_under_a_charpoly_not_affine_in_row_0(monkeypatch):
    # a_1 gains the product of the first two entries of row 0, which is
    # quadratic in v along a coset
    real = harness.charpoly

    def quadratic(level, a):
        c = real(level, a)
        if len(a) < 2:
            return c
        return (level.add(c[0], level.mul(a[0][0], a[0][1])),) + c[1:]

    assert _mirabolic_check("coset-map-linearity")
    monkeypatch.setattr(harness, "charpoly", quadratic)
    assert not _mirabolic_check("coset-map-linearity")


def test_coset_charpoly_m2_formula(t3):
    # b_1 = a_1 + v_1 and b_2 = a_2 in the stratum-2 layout
    lv = t3.level(1)
    a = charpoly(lv, ((0, 2), (1, 1)))
    for v1 in range(3):
        assert coset_charpoly(lv, a, (v1, 0)) == (lv.add(a[0], v1), a[1])
    assert coset_charpoly(lv, a, (0, 0)) == a


@pytest.mark.parametrize(
    "n,q,p,f",
    # criterion 8's grid, then the two points it does not run
    [(2, 2, 2, 1), (2, 3, 3, 1), (2, 4, 2, 2), (2, 5, 5, 1), (3, 2, 2, 1),
     (2, 7, 7, 1), (3, 3, 3, 1)],
)
def test_orbit_census_matches_recursion(n, q, p, f):
    assert harness.orbit_census_failures(build_tower(p, f, 1), n) == []


def test_census_n1_single_orbit(t3):
    # the 1 x 1 matrix (x) has characteristic vector (-x)
    assert orbit_census(t3, 1) == {(1,): {1: [1]}, (2,): {1: [1]}}


def test_census_cap():
    t7 = build_tower(7, 1, 1)
    with pytest.raises(CapExceeded):
        orbit_census(t7, 3)


def test_orbit_census_takes_one_charpoly_per_matrix(monkeypatch):
    calls = []
    real = mirabolic.charpoly

    def counted(level, a):
        calls.append(a)
        return real(level, a)

    monkeypatch.setattr(mirabolic, "charpoly", counted)
    census = orbit_census(build_tower(2, 1, 1), 3)
    assert len(census) == 4 and len(calls) <= 2**9


def test_orbit_census_takes_charpolys_of_invertible_matrices_only(monkeypatch):
    # |GL(3, F_2)| = 168 of the 512 matrices of size 3 over F_2
    tower = build_tower(2, 1, 1)
    calls = []
    real = mirabolic.charpoly

    def counted(level, a):
        calls.append(a)
        return real(level, a)

    monkeypatch.setattr(mirabolic, "charpoly", counted)
    orbit_census(tower, 3)
    assert len(calls) == 168
    assert all(real(tower.level(1), a)[-1] for a in calls)


def test_orbit_census_recursion_breaks_under_a_trivial_q1(monkeypatch):
    assert _mirabolic_check("orbit-census-recursion")
    monkeypatch.setattr(
        mirabolic, "q1_elements", lambda tower, n: [(mat_identity(n), mat_identity(n))]
    )
    assert not _mirabolic_check("orbit-census-recursion")


def test_orbit_census_recursion_breaks_under_one_extra_orbit(monkeypatch):
    real = harness.census_prediction

    def one_more(tower, n):
        prediction = real(tower, n)
        prediction[min(prediction)][n] += 1
        return prediction

    monkeypatch.setattr(harness, "census_prediction", one_more)
    assert not _mirabolic_check("orbit-census-recursion")


def test_parabolic_rank_classify(t3):
    # inside the parabolic: rank zero, identity conjugator
    xp = group_point(t3, [[1, 1], [0, 1]])
    r, (g1, g2), rep = parabolic_rank_classify(xp, (1, 1))
    assert r == 0 and rep.rows == xp.rows
    assert g1 == g2 == mat_identity(1)
    # generic: rank one, pivot in the corner
    xq = group_point(t3, [[0, 1], [1, 0]])
    r, _, rep = parabolic_rank_classify(xq, (1, 1))
    assert r == 1 and rep.rows[1][0] == 1
    rng = random.Random(13)
    for _ in range(30):
        x = random_point(t3, 3, rng)
        for split in ((1, 2), (2, 1)):
            r, _, rep = parabolic_rank_classify(x, split)
            r2, _, rep2 = parabolic_rank_classify(rep, split)
            assert (r2, rep2.rows) == (r, rep.rows)
            block = [row[: split[0]] for row in rep.rows[split[0] :]]
            if r == 1:
                assert block[0][split[0] - 1] == 1
    # the degenerate splits: an empty lower-left block, or none at all
    x = random_point(t3, 3, rng)
    r, (g1, g2), rep = parabolic_rank_classify(x, (0, 3))
    assert (r, g1, g2, rep.rows) == (0, (), mat_identity(3), x.rows)
    r, (g1, g2), rep = parabolic_rank_classify(x, (3, 0))
    assert (r, g1, g2, rep.rows) == (0, mat_identity(3), (), x.rows)


def test_charpoly_conjugation_invariance(t3):
    lv = t3.level(1)
    rng = random.Random(17)
    for _ in range(50):
        x = random_point(t3, 3, rng)
        g = random_point(t3, 3, rng)
        conj = mat_mul(lv, g.rows, mat_mul(lv, x.rows, mat_inv(lv, g.rows)))
        assert group_point(t3, conj).char == x.char
