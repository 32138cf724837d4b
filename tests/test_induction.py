import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from gammasums import induction
from gammasums.errors import NotComputableLocus, NotTopStratum
from gammasums.fields import build_tower
from gammasums.induction import (
    GammaTrace,
    enumerate_lines,
    factor_monic,
    flag_fixed_points,
    flag_grading,
    full_flags,
    induced_trace,
    is_regular,
    levi_restriction_sum,
    minimal_polynomial_degree,
)
from gammasums.matrices import (
    all_matrices,
    char_coeffs_to_poly,
    charpoly,
    echelon,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_vec,
    reduce_against,
)
from gammasums.mirabolic import GroupPoint, companion_matrix, group_point
from gammasums.torus import (
    TorusTraces,
    enumerate_twisted_points,
    expand_twisted_point,
    perm_cycles,
    twisted_charpoly,
    validate_weight_system,
    weyl_elements,
    weyl_lift,
)


@pytest.fixture(scope="module")
def std2(tower_f3):
    return TorusTraces(tower_f3, validate_weight_system([2], "std"))


@pytest.fixture(scope="module")
def gamma_std2(std2):
    return GammaTrace(std2)


def test_flag_counts(tower_f3):
    assert len(full_flags(tower_f3, 2)) == 4
    assert len(full_flags(tower_f3, 3)) == 52  # (q^2+q+1)(q+1)


def test_flag_fixed_point_examples(tower_f3):
    flags = full_flags(tower_f3, 2)
    central = group_point(tower_f3, [[2, 0], [0, 2]])
    assert len(flag_fixed_points(central, flags)) == 4
    split = group_point(tower_f3, [[1, 0], [0, 2]])
    fixed = flag_fixed_points(split, flags)
    assert len(fixed) == 2
    # the gradings are the two eigenvalue orderings
    grads = sorted(flag_grading(split, f) for f in fixed)
    assert grads == [(1, 2), (2, 1)]
    nonsplit = group_point(tower_f3, [[0, 1], [2, 0]])
    assert flag_fixed_points(nonsplit, flags) == []


def _per_flag_fixed_points(g, flags):
    """The flags each of whose subspaces g maps into itself, by a rank test
    per flag and subspace."""
    lv = g.level()
    return [
        f
        for f in flags
        if all(
            mat_rank(lv, basis + tuple(mat_vec(lv, g.rows, b) for b in basis))
            == len(basis)
            for basis in f
        )
    ]


@pytest.mark.parametrize(
    "p,f,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3)]
)
def test_flag_fixed_points_match_the_per_flag_route(p, f, n):
    tower = build_tower(p, f, 1)
    lv = tower.level(1)
    flags = full_flags(tower, n)
    rng = random.Random(29)
    points = [
        group_point(tower, rows)
        for rows in itertools.islice(all_matrices(lv, n, n), 0, None, 7)
        if charpoly(lv, rows)[-1]
    ]
    points = rng.sample(points, min(60, len(points))) + [
        group_point(tower, mat_identity(n)),
        group_point(tower, companion_matrix(lv, (0,) * (n - 1) + (1,))),
    ]
    for g in points:
        assert flag_fixed_points(g, flags) == _per_flag_fixed_points(g, flags)


def test_flag_fixed_points_test_each_subspace_once(tower_f3, monkeypatch):
    # at GL(3, F_3) the 52 flags hold 13 lines and 13 planes; the identity
    # fixes all of them, so each is tested in full: 13 + 2 * 13 products
    calls = []
    real = induction.mat_vec

    def counted(level, a, v):
        calls.append(v)
        return real(level, a, v)

    monkeypatch.setattr(induction, "mat_vec", counted)
    flags = full_flags(tower_f3, 3)
    assert len(flag_fixed_points(group_point(tower_f3, mat_identity(3)), flags)) == 52
    assert len(calls) == 13 + 2 * 13


def test_induced_trace_examples(tower_f3, std2):
    lv = tower_f3.level(1)
    flags = full_flags(tower_f3, 2)
    split = group_point(tower_f3, [[1, 0], [0, 2]])
    assert induced_trace(std2, split, flags) == tower_f3.psi(lv.add(1, 2)) * 2
    nonsplit = group_point(tower_f3, [[0, 1], [2, 0]])
    assert induced_trace(std2, nonsplit, flags).is_zero()


def test_factor_and_roots(tower_f3):
    # (t-1)(t-2) = t^2 + 2 over F_3
    fac = dict(factor_monic(tower_f3, (2, 0, 1)))
    assert fac == {(2, 1): 1, (1, 1): 1}


def steinberg_fibers(tower, w):
    """Reference grouping: the w-twisted points by twisted_charpoly, each
    fiber sorted by values."""
    fibers = {}
    for pt in enumerate_twisted_points(tower, w):
        fibers.setdefault(twisted_charpoly(tower, pt), []).append(pt)
    for points in fibers.values():
        points.sort(key=lambda p: p.values)
    return fibers


def test_steinberg_fiber_examples(tower_f3, std2):
    ident, swap = steinberg_fibers(tower_f3, (0, 1)), steinberg_fibers(tower_f3, (1, 0))
    # the fiber sums have the same keys
    assert set(std2.fiber_sums((0, 1))) == set(ident)
    assert set(std2.fiber_sums((1, 0))) == set(swap)
    # distinct rational roots: two orderings for the identity, none twisted
    assert len(ident.get((0, 2), [])) == 2
    assert swap.get((0, 2), []) == []
    # irreducible quadratic: the twist carries both orderings
    assert ident.get((0, 1), []) == []
    assert len(swap.get((0, 1), [])) == 2
    # repeated root: one point either way
    assert len(ident.get((1, 1), [])) == 1
    assert len(swap.get((1, 1), [])) == 1


FIBER_CASES = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3)]


@pytest.mark.parametrize("p,f,n", FIBER_CASES)
def test_steinberg_fibers_partition_the_twisted_torus(p, f, n):
    # the key of each point is also the charpoly of its diagonal matrix at
    # the level where every coordinate lives, brought down to F_q; fiber_sums
    # adds up the normalized traces of exactly those points
    tower = build_tower(p, f, n)
    traces = TorusTraces(tower, validate_weight_system([n], "std"))
    for w in weyl_elements([n]):
        fibers = steinberg_fibers(tower, w)
        sums = traces.fiber_sums(w)
        assert set(sums) == set(fibers)
        for key, pts in fibers.items():
            want = tower.ring.zero
            for pt in pts:
                want = want + traces.twisted_stalk_trace(pt)
            assert sums[key] == want
        grouped = sorted(pt.values for pts in fibers.values() for pt in pts)
        assert grouped == sorted(pt.values for pt in enumerate_twisted_points(tower, w))
        work = lcm(*(len(c) for c in perm_cycles(w)))
        lv = tower.level(work)
        for key, pts in fibers.items():
            assert [pt.values for pt in pts] == sorted(pt.values for pt in pts)
            for pt in pts:
                coords = expand_twisted_point(tower, pt, work)
                diag = tuple(
                    tuple(c if i == j else 0 for j, c in enumerate(coords))
                    for i in range(n)
                )
                direct = charpoly(lv, diag)
                assert key == tuple(tower.unembed(c, work, 1) for c in direct)


@pytest.mark.parametrize("p,f,n", FIBER_CASES + [(2, 1, 4)])
def test_steinberg_fibers_cover_every_unit_constant_vector(p, f, n):
    tower = build_tower(p, f, n)
    lv = tower.level(1)
    keys = set()
    for w in weyl_elements([n]):
        keys.update(steinberg_fibers(tower, w))
    assert keys == {
        c for c in itertools.product(lv.elements(), repeat=n) if c[-1]
    }


def test_value_refuses_vectors_in_no_fiber(gamma_std2):
    with pytest.raises(ValueError):
        gamma_std2.value_for_charpoly((1, 2, 1))
    with pytest.raises(ValueError):
        gamma_std2.value_for_charpoly((1, 0))


def reference_phi(traces, weyl_sign):
    """The gamma trace per characteristic vector, point by point: the fiber
    points of every twist, each with one twisted local sum times its descent
    sign and one addition in the tower's ring Q(zeta_N), then the Weyl
    average."""
    tower, ws = traces.tower, traces.ws
    n, weyl = ws.shape[0], ws.weyl()
    fibers = []
    for w in weyl:
        xi, sign_r, sign_w = weyl_lift(ws, w)
        fibers.append((xi, sign_r * (sign_w if weyl_sign else 1), steinberg_fibers(tower, w)))

    def phi(char):
        total = tower.ring.zero
        for xi, eps, fiber in fibers:
            for pt in fiber.get(char, []):
                local = tower.ring.embed(traces.twisted_local_sum(xi, pt))
                total = total + local * eps
        return total * Fraction((-1) ** (n * n - n), len(weyl))

    return phi


PHI_TABLE_CASES = [
    (3, 1, 2, "std"), (3, 1, 2, "sym2"), (3, 1, 2, "std*det^1"),
    (2, 2, 2, "std"), (2, 2, 2, "std*det^1"),
    (5, 1, 2, "std"), (5, 1, 2, "sym2"), (5, 1, 2, "std*det^1"),
    (3, 1, 3, "std"), (3, 1, 3, "sym2"), (2, 1, 3, "std"), (2, 1, 4, "std"),
]


@pytest.mark.parametrize("p,f,n,rep", PHI_TABLE_CASES)
def test_phi_table_matches_the_per_point_reference(p, f, n, rep):
    tower = build_tower(p, f, n)
    traces = TorusTraces(tower, validate_weight_system([n], rep))
    chars = [c for c in itertools.product(tower.level(1).elements(), repeat=n) if c[-1]]
    for weyl_sign in (True, False):
        gamma, want = GammaTrace(traces, weyl_sign), reference_phi(traces, weyl_sign)
        for char in chars:
            value = gamma.value_for_charpoly(char)
            assert value.ring is tower.psi_ring
            assert tower.ring.embed(value) == want(char), char


def test_gl5_std_table_needs_no_tower_ring(ring_conductors):
    """GL(5) std at q=3 needs tower level 6, whose ring Q(zeta_N), N =
    2,642,640, has degree 506,880; the gamma table lives in Q(zeta_3).  Every
    det-fiber sum vanishes, and under the untwisted descent both are nonzero."""
    tower = build_tower(3, 1, 6)
    traces = TorusTraces(tower, validate_weight_system([5], "std"))
    lv = tower.level(1)
    leads = list(itertools.product(lv.elements(), repeat=4))
    nonzero = {}
    for weyl_sign in (True, False):
        gamma = GammaTrace(traces, weyl_sign)
        nonzero[weyl_sign] = [
            det
            for det in lv.units()
            if not tower.psi_ring.sum(
                gamma.value_for_charpoly(lead + (det,)) for lead in leads
            ).is_zero()
        ]
    assert nonzero == {True: [], False: [1, 2]}
    assert ring_conductors == [3]


def _rref_lines(tower, n):
    """Lines of F_q^n by row reduction, the first vector of each one kept."""
    lv = tower.level(1)
    out = []
    seen = set()
    for v in itertools.product(lv.elements(), repeat=n):
        if not any(v):
            continue
        basis = (tuple(echelon(lv, [v])[0]),)
        if basis not in seen:
            seen.add(basis)
            out.append(basis)
    return out


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2)])
def test_enumerate_lines_matches_row_reduction(p, f):
    tower = build_tower(p, f, 1)
    for n in (1, 2, 3):
        assert enumerate_lines(tower, n) == _rref_lines(tower, n)


def test_phi_regular_examples(tower_f3, gamma_std2):
    lv = tower_f3.level(1)
    # split rss
    x = group_point(tower_f3, [[1, 0], [0, 2]])
    assert gamma_std2.phi_regular(x) == tower_f3.psi(lv.add(1, 2))
    # nonsplit rss
    x = group_point(tower_f3, [[0, 1], [2, 0]])
    assert gamma_std2.phi_regular(x) == tower_f3.psi(0)
    # regular non-semisimple with characteristic vector (t-1)^2
    x = group_point(tower_f3, [[1, 1], [0, 1]])
    assert gamma_std2.phi_regular(x) == tower_f3.psi(2)


def test_phi_refuses_non_regular(tower_f3, gamma_std2):
    with pytest.raises(NotComputableLocus):
        gamma_std2.phi_regular(group_point(tower_f3, [[2, 0], [0, 2]]))


def _any_point(tower, rows):
    """A GroupPoint without the invertibility check, singular rows included."""
    return GroupPoint(tower, len(rows), rows, charpoly(tower.level(1), rows))


def _largest_krylov_dimension(lv, rows):
    """max over v of dim span(v, x v, x^2 v, ...), the minimal polynomial degree.

    Some vector has the minimal polynomial as its annihilator, and no vector's
    annihilator has larger degree.
    """
    best = 0
    for (v,) in all_matrices(lv, 1, len(rows)):
        basis = []
        while reduce_against(lv, basis, v):
            v = mat_vec(lv, rows, v)
        best = max(best, len(basis))
    return best


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2)])
def test_minimal_polynomial_degree_is_the_largest_krylov_dimension(p, f):
    tower = build_tower(p, f, 1)
    lv = tower.level(1)
    for rows in all_matrices(lv, 2, 2):
        assert minimal_polynomial_degree(_any_point(tower, rows)) == (
            _largest_krylov_dimension(lv, rows)
        )
    if f == 1:
        rng = random.Random(p)
        for _ in range(150):
            rows = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
            assert minimal_polynomial_degree(_any_point(tower, rows)) == (
                _largest_krylov_dimension(lv, rows)
            )


def test_minimal_polynomial_degree_fixed_cases(tower_f3):
    def diag(*entries):
        n = len(entries)
        return tuple(
            tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
        )

    def jordan(n):
        return tuple(
            tuple(2 if i == j else int(j == i + 1) for j in range(n)) for i in range(n)
        )

    cases = [(diag(2, 2, 2), 1), (diag(1, 1, 2), 2)]
    cases += [(jordan(n), n) for n in (1, 2, 3, 4)]
    for rows, degree in cases:
        assert minimal_polynomial_degree(_any_point(tower_f3, rows)) == degree


def test_phi_equals_psi_trace_everywhere(tower_f3, gamma_std2):
    lv = tower_f3.level(1)
    for entries in itertools.product(range(3), repeat=4):
        rows = ((entries[0], entries[1]), (entries[2], entries[3]))
        try:
            x = group_point(tower_f3, rows)
        except ValueError:
            continue
        if is_regular(x):
            tr = lv.add(rows[0][0], rows[1][1])
            assert gamma_std2.phi_regular(x) == tower_f3.psi(tr)


def test_phi_conjugation_invariance(tower_f3, gamma_std2):
    lv = tower_f3.level(1)
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        rows = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        try:
            x = group_point(tower_f3, rows)
        except ValueError:
            continue
        if not is_regular(x):
            continue
        g_rows = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        try:
            g = group_point(tower_f3, g_rows)
        except ValueError:
            continue
        conj = group_point(
            tower_f3,
            mat_mul(lv, g.rows, mat_mul(lv, x.rows, mat_inv(lv, g.rows))),
        )
        assert gamma_std2.phi_regular(conj) == gamma_std2.phi_regular(x)
        checked += 1


def ordering_route(traces, x):
    """Sum of torus traces over the identity-twist orderings of x's roots,
    point by point."""
    tower = traces.tower
    total = tower.ring.zero
    for pt in steinberg_fibers(tower, tuple(range(x.n))).get(x.char, []):
        total = total + traces.hyper_trace(expand_twisted_point(tower, pt, 1))
    return total


def test_induction_consistency_exhaustive_gl2(tower_f3, std2):
    # flag route equals the identity-twist ordering route on rss classes
    tower = tower_f3
    flags = full_flags(tower, 2)
    for entries in itertools.product(range(3), repeat=4):
        rows = ((entries[0], entries[1]), (entries[2], entries[3]))
        try:
            x = group_point(tower, rows)
        except ValueError:
            continue
        fac = factor_monic(tower, char_coeffs_to_poly(x.char))
        if any(mult > 1 for _, mult in fac):
            continue
        assert induced_trace(std2, x, flags) == ordering_route(std2, x)


def test_induction_consistency_split_gl3_q5():
    # three distinct rational eigenvalues, so both routes are nonzero; over
    # F_2 and F_3 no regular semisimple point of GL(3) has them and both
    # routes vanish, whatever the sign between them
    tower = build_tower(5, 1, 3)
    std3 = TorusTraces(tower, validate_weight_system([3], "std"))
    flags = full_flags(tower, 3)
    for diag in itertools.combinations(range(1, 5), 3):
        rows = [[diag[0], 1, 2], [0, diag[1], 1], [0, 0, diag[2]]]
        x = group_point(tower, rows)
        flag_route = induced_trace(std3, x, flags)
        assert not flag_route.is_zero()
        assert flag_route == ordering_route(std3, x)


def test_coset_vanishing_top_gl2(tower_f3, gamma_std2):
    x = group_point(tower_f3, [[0, 1], [1, 0]])
    coset, det_fiber = gamma_std2.coset_vanishing_top(x)
    assert coset.is_zero() and det_fiber.is_zero()
    with pytest.raises(NotTopStratum):
        gamma_std2.coset_vanishing_top(group_point(tower_f3, [[1, 1], [0, 1]]))


def test_coset_vanishing_top_gl3():
    tower = build_tower(2, 1, 3)
    std3 = validate_weight_system([3], "std")
    gamma = GammaTrace(TorusTraces(tower, std3))
    lv = tower.level(1)
    # companion of the irreducible cubic t^3 + t + 1
    x = group_point(tower, companion_matrix(lv, (0, 1, 1)))
    coset, det_fiber = gamma.coset_vanishing_top(x)
    assert coset.is_zero() and det_fiber.is_zero()


def test_gl3_phi_is_minus_psi_trace():
    # the natural normalization puts the unit (-1)^n in front of psi(tr)
    tower = build_tower(3, 1, 3)
    std3 = validate_weight_system([3], "std")
    gamma = GammaTrace(TorusTraces(tower, std3))
    lv = tower.level(1)
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        try:
            x = group_point(tower, rows)
        except ValueError:
            continue
        if not is_regular(x):
            continue
        tr = lv.add(lv.add(rows[0][0], rows[1][1]), rows[2][2])
        assert gamma.phi_regular(x) == -tower.psi(tr)
        checked += 1


def test_mutation_breaks_gl2_vanishing(tower_f3, std2):
    gamma_mut = GammaTrace(std2, weyl_sign=False)
    x = group_point(tower_f3, [[0, 1], [1, 0]])
    coset, _ = gamma_mut.coset_vanishing_top(x)
    assert coset == tower_f3.ring.from_int(2)  # frozen from the closed form


def test_levi_restriction_unit(tower_f3, gamma_std2, std2):
    for a, b in [(1, 2), (2, 1)]:
        s = levi_restriction_sum(gamma_std2, (a, b))
        assert s == std2.hyper_trace((a, b)) * 3
    with pytest.raises(NotComputableLocus):
        levi_restriction_sum(gamma_std2, (1, 1))
