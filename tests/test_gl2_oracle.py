import sys

import pytest

from gammasums import gl2, harness
from gammasums.cyclotomic import CyclotomicRing, solve_linear_system
from gammasums.errors import (
    CapExceeded,
    SystemInconsistent,
    TableNotOrthogonal,
    VanishingFailed,
)
from gammasums.fields import build_tower, gauss_sum, MultCharacter
from gammasums.gl2 import (
    Gl2Table,
    build_gl2_table,
    calibrate_generic_units,
    class_of,
    gl2_classes,
    gl2_irreps,
    gl2_order,
    oracle_phi,
)
from gammasums.harness import CheckResult, Run, validate_config
from gammasums.induction import GammaTrace
from gammasums.matrices import invertible_matrices
from gammasums.mirabolic import left_translate
from gammasums.torus import TorusTraces, validate_weight_system


def test_class_census_q3(tower_f3):
    classes = gl2_classes(tower_f3)
    assert len(classes) == 8
    assert sum(c.size for c in classes) == gl2_order(3) == 48
    kinds = {}
    for c in classes:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds == {"central": 2, "nonss": 2, "split": 1, "nonsplit": 3}


def test_irrep_census_q3(tower_f3):
    irreps = gl2_irreps(tower_f3)
    assert len(irreps) == 8
    assert sum(r.dim**2 for r in irreps) == 48
    # dims: two one-dimensionals, two of dim q=3, one principal of dim q+1,
    # three cuspidals of dim q-1
    dims = sorted(r.dim for r in irreps)
    assert dims == [1, 1, 2, 2, 2, 3, 3, 4]


def entry(table, irrep, key):
    """A table entry as a CycNum of the table's ring Q(zeta_M), its group-ring
    terms reduced here through a coefficient list of Z[Z/M], without the
    table's accumulators."""
    ring = table.ring
    coeffs = [0] * ring.conductor
    for e, m in table.terms[(irrep, key)]:
        coeffs[e % ring.conductor] += m
    return ring.from_coeffs(coeffs)


def test_trivial_character_row(tower_f3):
    table = build_gl2_table(tower_f3)
    triv = next(
        r for r in table.irreps if r.family == "onedim" and r.params == (0,)
    )
    for cls in table.classes:
        assert entry(table, triv, cls.key) == table.ring.one
    steinberg = next(
        r for r in table.irreps if r.family == "steinberg" and r.params == (0,)
    )
    assert steinberg.dim == 3


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_orthogonality(p, f):
    tower = build_tower(p, f, 2)
    table = Gl2Table(tower)
    assert table.verify_orthogonality()


def test_table_never_builds_the_tower_ring():
    tower = build_tower(7, 1, 2)
    table = Gl2Table(tower)
    assert table.verify_orthogonality()
    assert table.ring.conductor == 48
    assert "ring" not in tower.__dict__


def dense_orthogonal(table):
    """Reference verdict: the sums taken on CycNum values, conjugated in the field."""
    ring = table.ring
    order = gl2_order(table.tower.q)
    for i, r1 in enumerate(table.irreps):
        for r2 in table.irreps[i:]:
            acc = ring.zero
            for cls in table.classes:
                acc = acc + (
                    entry(table, r1, cls.key)
                    * entry(table, r2, cls.key).conjugate()
                    * cls.size
                )
            if acc != ring.from_int(order if r1 is r2 else 0):
                return False
    for i, c1 in enumerate(table.classes):
        for c2 in table.classes[i:]:
            acc = ring.zero
            for r in table.irreps:
                value = entry(table, r, c1.key) * entry(table, r, c2.key).conjugate()
                acc = acc + value
            if acc != ring.from_int(order // c1.size if c1 is c2 else 0):
                return False
    return True


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2)])
def test_orthogonality_matches_dense_reference(monkeypatch, p, f, corrupt):
    real = gl2.character_value

    def corrupted(tower, irrep, cls):
        terms = real(tower, irrep, cls)
        if irrep.family == "cuspidal" and cls.kind == "nonss":
            return terms + ((0, 1),)
        return terms

    if corrupt:
        monkeypatch.setattr(gl2, "character_value", corrupted)
    table = Gl2Table(build_tower(p, f, 2))
    try:
        verdict = table.verify_orthogonality()
    except TableNotOrthogonal:
        verdict = False
    assert verdict == dense_orthogonal(table) == (not corrupt)


def test_table_cap():
    tower = build_tower(17, 1, 2)
    with pytest.raises(CapExceeded):
        build_gl2_table(tower)


def test_class_of(tower_f3):
    key = class_of(tower_f3, ((1, 1), (0, 1)))
    assert key == (1, 1, False)
    assert class_of(tower_f3, ((2, 0), (0, 2)))[2] is True


@pytest.mark.parametrize("rep", ["std", "sym2", "std*det^1"])
def test_oracle_matches_geometry_q3(tower_f3, rep):
    ws = validate_weight_system([2], rep)
    traces = TorusTraces(tower_f3, ws)
    gamma = GammaTrace(traces)
    result = oracle_phi(traces, gamma, build_gl2_table(tower_f3))
    assert result.rank == result.unknown_count
    for cls in gl2_classes(tower_f3):
        if cls.kind == "central":
            continue
        assert result.values[cls.key] == gamma.value_for_charpoly(
            (cls.key[0], cls.key[1])
        )


def test_oracle_std_is_psi_trace(tower_f3):
    ws = validate_weight_system([2], "std")
    traces = TorusTraces(tower_f3, ws)
    result = oracle_phi(traces, GammaTrace(traces), build_gl2_table(tower_f3))
    lv = tower_f3.level(1)
    for cls in gl2_classes(tower_f3):
        if cls.kind == "central":
            continue
        assert result.values[cls.key] == tower_f3.psi(lv.neg(cls.key[0]))


def test_oracle_q2():
    tower = build_tower(2, 1, 2)
    ws = validate_weight_system([2], "std")
    traces = TorusTraces(tower, ws)
    result = oracle_phi(traces, GammaTrace(traces), build_gl2_table(tower))
    # frozen values from the hand-solved rank-2 system: the cuspidal raw
    # transform is 2, scaled by -q; the two non-generic unknowns come out 2
    ring = tower.ring
    gammas = {r.family: g for r, g in result.gammas.items()}
    assert gammas["cuspidal"] == ring.from_int(-4)
    assert gammas["onedim"] == ring.from_int(2)
    assert gammas["steinberg"] == ring.from_int(2)


def test_calibration_pins_family_scales(tower_f3):
    ws = validate_weight_system([2], "std")
    traces = TorusTraces(tower_f3, ws)
    oracle = oracle_phi(traces, GammaTrace(traces), build_gl2_table(tower_f3))
    u_p, u_c, rank, n_unknowns = calibrate_generic_units(oracle)
    assert rank == n_unknowns
    assert u_p == tower_f3.ring.from_int(3)
    assert u_c == tower_f3.ring.from_int(-3)


def calibration_oracle(p, f, rep):
    tower = build_tower(p, f, 2)
    traces = TorusTraces(tower, validate_weight_system([2], rep))
    return tower, oracle_phi(traces, GammaTrace(traces), build_gl2_table(tower))


@pytest.mark.parametrize(
    "p,f,rep",
    [(3, 1, "std"), (5, 1, "std"), (7, 1, "std"), (7, 1, "sym2"), (3, 2, "std")],
)
def test_calibration_at_full_rank_is_the_scales_first_solution(p, f, rep):
    _, oracle = calibration_oracle(p, f, rep)
    u_p, u_c, rank, n_unknowns = calibrate_generic_units(oracle)
    solution, first_rank, consistent = solve_linear_system(oracle.rows, oracle.rhs)
    assert consistent and rank == first_rank == n_unknowns
    assert [u_p, u_c] == solution[:2]


# the configs whose calibration system is short of full rank, with the scales
# the scales-first solve reports there: its free variables are set to zero
SHORT_RANK = [
    ((2, 1, "std"), [None, -3], 2, 3),
    ((3, 1, "sym2"), [6, -4], 5, 6),
    ((2, 2, "std*det^1"), [3, -5], 7, 8),
]


@pytest.mark.parametrize("config,scales,rank,n_unknowns", SHORT_RANK)
def test_calibration_below_full_rank_reports_the_scales_first_scales(
    config, scales, rank, n_unknowns
):
    tower, oracle = calibration_oracle(*config)
    want = [None if s is None else tower.ring.from_int(s) for s in scales]
    u_p, u_c, got_rank, got_unknowns = calibrate_generic_units(oracle)
    assert ([u_p, u_c], got_rank, got_unknowns) == (want, rank, n_unknowns)
    # a scales-last solve alone frees other variables and reports other scales
    k = len(oracle.generic)
    last, last_rank, consistent = solve_linear_system(
        [row[k:] + row[:k] for row in oracle.rows], oracle.rhs
    )
    assert consistent and last_rank == rank
    assert last[-k:] != want[-k:]


@pytest.mark.parametrize("p", [3, 5])
def test_untwisted_descent_does_not_close(p):
    # the one pairing has no fallback: the mutation's system is refused
    tower = build_tower(p, 1, 2)
    traces = TorusTraces(tower, validate_weight_system([2], "std"))
    with pytest.raises(SystemInconsistent):
        oracle_phi(traces, GammaTrace(traces, weyl_sign=False), build_gl2_table(tower))


def test_principal_gamma_factors_into_gauss_sums(tower_f5):
    # gamma of a principal series = q * unit * g(conj chi_1) g(conj chi_2)
    ws = validate_weight_system([2], "std")
    traces = TorusTraces(tower_f5, ws)
    result = oracle_phi(traces, GammaTrace(traces), build_gl2_table(tower_f5))
    q = tower_f5.q
    for irrep, g_val in result.gammas.items():
        if irrep.family != "principal":
            continue
        j1, j2 = irrep.params
        prod = gauss_sum(MultCharacter(tower_f5, 1, -j1)) * gauss_sum(
            MultCharacter(tower_f5, 1, -j2)
        )
        assert g_val == prod * q


def reference_sweep_gl2(run):
    """The GL(2) coset sweep one translate at a time: each translate is
    classified and added to the three coset sums on its own.  A failure
    carries every failing coset and route mismatch."""
    checks = []
    tower, gamma, oracle = run.tower, run.gamma, run.oracle
    lv = tower.level(1)
    gamma_mut = GammaTrace(run.traces, weyl_sign=False)
    bad = []
    route_mismatch = []
    swept = broken = 0
    for rows in invertible_matrices(lv, 2):
        if harness.in_borel(rows):
            continue
        swept += 1
        geo = orc = mut = tower.ring.zero
        for v0 in lv.elements():
            key = class_of(tower, left_translate(lv, rows, (v0,)))
            geo_val = gamma.value_for_charpoly(key[:2])
            orc_val = oracle.values[key]
            if geo_val != orc_val:
                route_mismatch.append((rows, v0))
            geo = geo + geo_val
            orc = orc + orc_val
            mut = mut + gamma_mut.value_for_charpoly(key[:2])
        if not geo.is_zero() or not orc.is_zero():
            bad.append(rows)
        if not mut.is_zero():
            broken += 1
    checks.append(
        CheckResult(
            "coset-vanishing-both-routes",
            not bad and not route_mismatch,
            detail=f"{swept} cosets swept; failures={len(bad)}, "
            f"route mismatches={len(route_mismatch)}",
        )
    )
    checks.append(
        CheckResult(
            "mutation-control-breaks",
            broken > 0,
            detail=f"{broken} of {swept} cosets break under the untwisted descent",
        )
    )
    checks.append(
        CheckResult(
            "oracle-solve",
            True,
            value=gl2.PAIRING,
            detail=f"rank {oracle.rank}/{oracle.unknown_count}",
        )
    )
    if bad or route_mismatch:
        exc = VanishingFailed(
            f"vanishing failed on {len(bad)} cosets, first {bad[:2]}; "
            f"{len(route_mismatch)} route mismatches, first {route_mismatch[:2]}"
        )
        exc.checks = checks
        exc.failures = bad
        exc.route_mismatches = route_mismatch
        raise exc
    return checks


def gl2_run(p, f, rep):
    return Run(validate_config({"p": p, "f": f, "rep": rep, "suites": ["gl2-main"]}))


# q = 8 std and q = 9 sym2 are the two gl2-main golden configs above q = 7
@pytest.mark.parametrize(
    "p,f,rep",
    [
        (p, f, rep)
        for p, f in [(2, 1), (3, 1), (2, 2), (5, 1)]
        for rep in ["std", "sym2", "std*det^1"]
        if not (rep == "sym2" and p == 2)
    ]
    + [(2, 3, "std"), (3, 2, "sym2")],
)
def test_sweep_matches_the_per_translate_reference(p, f, rep):
    run = gl2_run(p, f, rep)
    checks = list(harness.vanishing_sweep_gl2(run))
    assert checks == reference_sweep_gl2(run)
    assert all(c.passed for c in checks)


def _corrupt_oracle(run, key):
    run.oracle.values[key] = run.oracle.values[key] + run.tower.ring.one


def _corrupt_gamma(run, key):
    real = run.gamma.value_for_charpoly

    def corrupted(char_coeffs):
        value = real(char_coeffs)
        return value + run.tower.ring.one if tuple(char_coeffs) == key[:2] else value

    run.gamma.value_for_charpoly = corrupted


@pytest.mark.parametrize("corrupt", [_corrupt_oracle, _corrupt_gamma])
@pytest.mark.parametrize("p", [3, 5])
def test_sweep_witnesses_match_the_reference_under_mutation(p, corrupt):
    run = gl2_run(p, 1, "sym2")
    key = next(c.key for c in run.table.classes if c.kind == "split")
    run.oracle  # solved before the corruption, from the true gamma values
    corrupt(run, key)
    checks = []  # those the sweep yields before it raises
    with pytest.raises(VanishingFailed) as new:
        for check in harness.vanishing_sweep_gl2(run):
            checks.append(check)
    with pytest.raises(VanishingFailed) as ref:
        reference_sweep_gl2(run)
    new, ref = new.value, ref.value
    assert ref.failures and ref.route_mismatches
    assert new.failures == ref.failures[: harness.WITNESS_CAP]
    assert new.route_mismatches == ref.route_mismatches[: harness.WITNESS_CAP]
    assert str(new) == str(ref)
    assert checks == ref.checks
    assert not checks[0].passed


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1)])
def test_sweep_classifies_each_matrix_once_and_sums_each_coset_once(
    monkeypatch, p, f
):
    run = gl2_run(p, f, "std")
    run.oracle  # built before counting
    q = run.tower.q
    lv = run.tower.level(1)
    multisets = {
        tuple(
            sorted(
                class_of(run.tower, left_translate(lv, rows, (v0,)))
                for v0 in lv.elements()
            )
        )
        for rows in invertible_matrices(lv, 2)
        if not harness.in_borel(rows)
    }
    counts = {"translates": 0, "sum": 0}
    real_charpolys, real_sum = harness.coset_charpolys, CyclotomicRing.sum

    def counted_charpolys(level, rows, vs):
        counts["translates"] += len(vs)
        return real_charpolys(level, rows, vs)

    def counted_sum(self, values, den=1):
        # only the sums the sweep makes itself, not those of the gamma
        # values it builds on first use
        if sys._getframe(1).f_code is harness.vanishing_sweep_gl2.__code__:
            counts["sum"] += 1
        return real_sum(self, values, den)

    monkeypatch.setattr(harness, "coset_charpolys", counted_charpolys)
    monkeypatch.setattr(CyclotomicRing, "sum", counted_sum)
    list(harness.vanishing_sweep_gl2(run))
    borel = (q - 1) ** 2 * q
    assert counts["translates"] == gl2_order(q) - borel
    assert 0 < counts["sum"] <= 3 * len(multisets)
