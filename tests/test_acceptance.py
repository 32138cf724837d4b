"""Acceptance gate: every criterion is exact (tolerance-free) except the
stated float magnitude bound, and each prints one pass line with its runtime,
which must stay inside the stated budget.

The criteria run the harness checks, the same functions the verify suites
run, on their own fixed grids, seeds and sample counts; a check returns its
failing inputs, so a criterion passes when every list it gets back is empty.
Criteria 10 and 11 run whole suites through run_suite.
"""

import random
import time

from gammasums import harness
from gammasums.fields import build_tower
from gammasums.induction import GammaTrace
from gammasums.matrices import invertible_matrices
from gammasums.mirabolic import group_point, normalize_stratum
from gammasums.torus import TorusTraces, validate_weight_system

TOWERS = {}


def tower(p, f, levels):
    key = (p, f, levels)
    if key not in TOWERS:
        TOWERS[key] = build_tower(p, f, levels)
    return TOWERS[key]


def report(criterion, started, budget_s, detail=""):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s / budget {budget_s}s) {detail}")
    assert elapsed < budget_s, f"{criterion} exceeded its {budget_s}s budget"


def test_criterion_01_gauss_identities():
    started = time.perf_counter()
    for q, p, f in [(3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (9, 3, 2)]:
        assert harness.gauss_failures(tower(p, f, 2)) == ([], []), q
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        assert harness.hasse_davenport_failures(tower(p, f, 3)) == [], q
    report(1, started, 10, "gauss products, magnitudes, norm lifts")


def test_criterion_02_hypergeometric_baseline():
    started = time.perf_counter()
    total = 0
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1)]:
        assert harness.kloosterman_failures(tower(p, f, 1), (1, 2, 3, 4)) == [], q
        total += 4 * (q - 1)
    report(2, started, 30, f"{total} points across arities 1..4")


def test_criterion_03_sign_character():
    started = time.perf_counter()
    systems = [([2], "std"), ([2], "sym2"), ([3], "std")]
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        t1 = tower(p, f, 1)
        rng = random.Random(1789)
        for shape, rep in systems:
            if rep == "sym2" and q % 2 == 0:
                continue
            traces = TorusTraces(t1, validate_weight_system(shape, rep))
            points = harness._sample_torus_points(t1, traces.ws.d, rng)
            assert harness.sign_action_failures(traces, points) == [], (q, shape, rep)
        # repeated-weight systems carry the actual sign content
        t3l = tower(p, f, 3)
        for r in (2, 3):
            traces = TorusTraces(t3l, validate_weight_system([1], [[(1,), r]]))
            points = [(x,) for x in t3l.level(1).units()]
            assert harness.sign_action_failures(traces, points) == [], (q, r)
    report(3, started, 60, "block-permutation sign action, q <= 5")


def test_criterion_04_kummer_convolution():
    started = time.perf_counter()
    systems = [([2], "std"), ([2], "sym2"), ([3], "std")]
    count = 0
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        t = tower(p, f, 1)
        for shape, rep in systems:
            if rep == "sym2" and q % 2 == 0:
                continue
            traces = TorusTraces(t, validate_weight_system(shape, rep))
            assert harness.kummer_failures(traces) == [], (q, shape, rep)
            count += (q - 1) ** traces.ws.d
    report(4, started, 120, f"{count} characters, constancy exact")


def test_criterion_05_mellin_factorization():
    started = time.perf_counter()
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        t = tower(p, f, 2)
        for rep in ("std", "sym2", "std*det^1"):
            if rep == "sym2" and q % 2 == 0:
                continue
            traces = TorusTraces(t, validate_weight_system([2], rep))
            assert harness.mellin_failures(traces) == [], (q, rep)
    report(5, started, 60, "every (twist, character) pair, one unit per system")


def test_criterion_06_coset_charpoly_and_rank():
    started = time.perf_counter()
    rng = random.Random(1789)
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2)]:
        t = tower(p, f, 1)
        for n in (2, 3, 4):
            for _ in range(500):
                x = harness._random_group_point(t, n, rng)
                _, y, m = normalize_stratum(x)
                assert harness.coset_failures(x, y, m) == ([], []), x.rows
    report(6, started, 60, "500 points per (n, q), n <= 4, q <= 4, exhaustive u")


def test_criterion_07_simple_transitivity():
    started = time.perf_counter()
    rng = random.Random(1789)
    for q, p, f in [(2, 2, 1), (3, 3, 1)]:
        t = tower(p, f, 1)
        # brute-force bijectivity on the stratum-2 layout of GL(3),
        # including the shared-eigenvalue cases
        assert harness.translation_map_failures(t) == [], q
        # solver round trip on random points
        for _ in range(100):
            _, y, m = normalize_stratum(harness._random_group_point(t, 3, rng))
            assert harness.roundtrip_failures(y, m) == [], q
    report(7, started, 60, "exhaustive bijectivity + solver round trips")


def test_criterion_08_orbit_census():
    started = time.perf_counter()
    tested = 0
    for n, q, p, f in [(2, 2, 2, 1), (2, 3, 3, 1), (2, 4, 2, 2), (2, 5, 5, 1), (3, 2, 2, 1)]:
        assert harness.orbit_census_failures(tower(p, f, 1), n) == [], (n, q)
        tested += q ** (n - 1) * (q - 1)
    report(8, started, 300, f"{tested} characteristic polynomials")


def test_criterion_09_induction_consistency():
    started = time.perf_counter()
    count = 0
    for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1)]:
        t = tower(p, f, 2)
        traces = TorusTraces(t, validate_weight_system([2], "std"))
        pool = (group_point(t, rows) for rows in invertible_matrices(t.level(1), 2))
        rss = [x for x in pool if harness._squarefree(t, x.char)]
        assert harness.flag_vs_ordering_failures(traces, rss) == [], q
        count += len(rss)
    for q, p, f in [(2, 2, 1), (3, 3, 1)]:
        t = tower(p, f, 3)
        traces = TorusTraces(t, validate_weight_system([3], "std"))
        rng = random.Random(1789)
        rss = []
        while len(rss) < 200:
            x = harness._random_group_point(t, 3, rng)
            if harness._squarefree(t, x.char):
                rss.append(x)
        assert harness.flag_vs_ordering_failures(traces, rss) == [], q
        count += len(rss)
    report(9, started, 120, f"{count} regular semisimple points, two routes")


def test_criterion_10_main_gl2_vanishing():
    started = time.perf_counter()
    swept = 0
    for rep in ("std", "sym2", "std*det^1"):
        for q, p, f in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1)]:
            if rep == "sym2" and q % 2 == 0:
                continue
            cfg = {
                "p": p,
                "f": f,
                "shape": [2],
                "rep": rep,
                "suites": ["gl2-main"],
                "caps": {"tower": 2},
            }
            reports = harness.run_suite(cfg)
            assert all(r.passed for r in reports), (rep, q, [
                (c.name, c.detail)
                for r in reports
                for c in r.checks
                if not c.passed
            ])
            for r in reports:
                for c in r.checks:
                    if c.name == "coset-vanishing-both-routes":
                        swept += int(c.detail.split()[0])
                    if c.name == "mutation-control-breaks":
                        assert c.passed
    report(10, started, 600, f"{swept} cosets, both routes, mutation control")


def test_criterion_11_main_gl3_top():
    started = time.perf_counter()
    for q, p, f in [(2, 2, 1), (3, 3, 1)]:
        cfg = {
            "p": p,
            "f": f,
            "shape": [3],
            "rep": "std",
            "suites": ["gl3-top"],
            "caps": {"tower": 3},
        }
        reports = harness.run_suite(cfg)
        assert all(r.passed for r in reports), (q, [
            (c.name, c.detail)
            for r in reports
            for c in r.checks
            if not c.passed
        ])
    # sign-averaged determinant fibers on rank-2 tori as well
    for q, p, f in [(2, 2, 1), (3, 3, 1), (5, 5, 1)]:
        t = tower(p, f, 2)
        for rep in ("std", "sym2"):
            if rep == "sym2" and q % 2 == 0:
                continue
            traces = TorusTraces(t, validate_weight_system([2], rep))
            assert harness.sigma_fiber_failures(traces) == [], (q, rep)
    report(11, started, 600, "GL(3) cosets q in {2,3} plus torus sign fibers")


def test_criterion_12_levi_restriction():
    started = time.perf_counter()
    for q, p, f in [(3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        t = tower(p, f, 2)
        for rep in ("std", "sym2", "std*det^1"):
            if rep == "sym2" and q % 2 == 0:
                continue
            # the unit q on every distinct-eigenvalue point; where the torus
            # trace vanishes on that whole locus (sym2 at q=3) the
            # restriction sum must vanish too
            gamma = GammaTrace(TorusTraces(t, validate_weight_system([2], rep)))
            assert harness.levi_restriction_failures(gamma) == [], (q, rep)
    report(12, started, 60, "unit q on every distinct-eigenvalue point")
