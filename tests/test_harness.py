import inspect
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammasums import gl2, harness
from gammasums.cli import main
from gammasums.cyclotomic import CycNum, CyclotomicRing
from gammasums.errors import CapExceeded, ConfigInvalid, VanishingFailed
from gammasums.fields import build_tower
from gammasums.harness import (
    SUITE_NAMES,
    SUITES,
    emit,
    run_suite,
    validate_config,
)
from gammasums.induction import GammaTrace, factor_monic, is_regular
from gammasums.matrices import char_coeffs_to_poly, invertible_matrices
from gammasums.mirabolic import (
    StratumData,
    companion_matrix,
    group_point,
    left_translate,
    stratum_index,
)
from gammasums.torus import TorusTraces, validate_weight_system


BASE_CFG = {
    "p": 3,
    "f": 1,
    "shape": [2],
    "rep": "std",
    "suites": ["arith"],
    "caps": {"tower": 2},
}


def test_validate_config_defaults():
    cfg = validate_config({"p": 3, "f": 1})
    assert cfg["shape"] == [2]
    assert cfg["caps"]["tower"] == 2
    assert cfg["seed"] == 1789


def test_default_tower_is_the_largest_weyl_order_for_twisted_suites():
    std_2_3 = [[[int(i == j) for j in range(5)], 1] for i in range(5)]
    assert validate_config({"p": 2, "shape": [5], "suites": ["torus"]})["caps"] == {
        "tower": 6, "enumeration": 1 << 24, "samples": 60
    }
    cfg = validate_config({"p": 2, "shape": [2, 3], "rep": std_2_3, "suites": ["torus"]})
    assert cfg["caps"]["tower"] == 6
    # unchanged where max(shape) already was the order, and for other suites
    for n in (1, 2, 3, 4):
        for suites in (["torus"], ["arith"], ["mirabolic"]):
            cfg = validate_config({"p": 2, "shape": [n], "suites": suites})
            assert cfg["caps"]["tower"] == max(2, n)
    assert validate_config({"p": 2, "shape": [5]})["caps"]["tower"] == 5


def test_validate_config_rejections():
    with pytest.raises(ConfigInvalid):
        validate_config({"suites": ["nonsense"]})
    with pytest.raises(ConfigInvalid):
        validate_config({"shape": [0]})
    with pytest.raises(ConfigInvalid):
        validate_config({"shape": [3], "suites": ["gl2-main"]})
    with pytest.raises(ConfigInvalid):
        validate_config({"p": 2, "f": 1, "rep": "sym2"})
    with pytest.raises(ConfigInvalid):
        validate_config({"bogus": 1})
    with pytest.raises(ConfigInvalid):
        run_suite(BASE_CFG, suites=["nope"])


def _std(d):
    return [[[int(i == j) for j in range(d)], 1] for i in range(d)]


# One config for each rule that a suite's record in harness.SUITES sets; the
# message names the suite that refused it.
PER_SUITE_REFUSALS = [
    # translates_max
    {"p": 3, "shape": [7], "suites": ["mirabolic"], "caps": {"tower": 1}},
    # twisted: level n must fit caps.enumeration
    {"p": 3, "shape": [16], "suites": ["induction"], "caps": {}},
    # min_tower
    {"p": 5, "suites": ["oracle"], "caps": {"tower": 1}},
    # shape
    {"shape": [3], "suites": ["gl2-main"], "caps": {}},
    {"shape": [2], "suites": ["gl3-top"], "caps": {}},
    # single_factor
    {"shape": [2, 1], "rep": _std(3), "suites": ["induction"], "caps": {}},
    # n_max
    {"shape": [4], "suites": ["induction"], "caps": {}},
    # twisted: caps.tower at least the largest Weyl order
    {"p": 2, "shape": [2, 3], "rep": _std(5), "suites": ["torus"], "caps": {"tower": 5}},
    # q_max
    {"f": 2, "shape": [3], "suites": ["gl3-top"], "caps": {}},
]


@pytest.mark.parametrize(
    "override",
    [
        {"seed": "x"},
        {"f": 0},
        {"caps": {"tower": 0}},
        {"rep": "foo"},
        {"p": True},
        {"p": 4},
        {"rep": [[[1, 1], 1]]},
        {"suites": ["oracle"], "caps": {"tower": 1}},
        {"suites": ["gl2-main"], "caps": {"tower": 1}},
        {"p": 17, "suites": ["gl2-main"]},
        {"p": 17, "suites": ["oracle"]},
        {"p": 5, "shape": [3], "suites": ["gl3-top"], "caps": {"tower": 3}},
        {"shape": [3], "suites": ["induction"], "caps": {"tower": 2}},
        {"shape": [3], "suites": ["gl3-top"], "caps": {"tower": 2}},
        {"shape": [2], "suites": ["torus"], "caps": {"tower": 1}},
        {"p": 2, "shape": [4], "suites": ["induction"], "caps": {"tower": 4}},
        {"p": 2, "shape": [5], "suites": ["torus"], "caps": {"tower": 5}},
        {"shape": 5},
        {"suites": 5},
        {"caps": 5},
        {"shape": "2"},
        {"suites": "arith"},
        {"caps": [["tower", 2]]},
        {"suites": ["mirabolic"], "caps": {"samples": 0}},
        {"suites": ["mirabolic"], "caps": {"samples": "x"}},
        {"caps": {"enumeration": 0}},
        {"caps": {"enumeration": "x"}},
        {"caps": {"enumeration": 1.5}},
        {"caps": {"tower": 2, "bogus": 1}},
        {"shape": [1, 1], "rep": [[[1, 0], 1], [[0, 1], 1]], "suites": ["mirabolic"]},
        {"shape": [1, 1], "rep": [[[1, 0], 1], [[0, 1], 1]], "suites": ["induction"]},
        {"p": 100000000000031},
        {"p": 2, "f": 10**18},
        {"p": 4099, "suites": ["arith"]},
        {"shape": [200], "suites": ["torus"]},
        {"p": 2, "shape": [60], "suites": ["mirabolic"]},
        {"p": 2, "shape": [60], "suites": ["mirabolic"], "caps": {"tower": 1}},
        {"p": 2, "shape": [10], "suites": ["mirabolic"], "caps": {"tower": 1}},
        {"p": 11, "shape": [4], "suites": ["mirabolic"], "caps": {"tower": 1}},
        # no caps.tower, so the default tower 7 and a ring of degree 544,320
        {"p": 2, "shape": [7], "suites": ["mirabolic"], "caps": {}},
        # refused by its top level, before 2^99 - 1 is factored
        {"p": 2, "caps": {"tower": 99, "enumeration": 1 << 100}},
    ]
    + PER_SUITE_REFUSALS,
)
def test_malformed_config_exits_2(tmp_path, capsys, override):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(BASE_CFG, **override)))
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if override in PER_SUITE_REFUSALS:
        (suite,) = override["suites"]
        assert err.startswith(f"config error: {suite} ")


@pytest.mark.parametrize("seed", [[], ["--seed", "7"]])
@pytest.mark.parametrize("raw", [[], [["p", 3]], 5, "x", None])
def test_non_object_config_exits_2(tmp_path, capsys, raw, seed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)] + seed) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


# The config fuzz: each key takes a plausible value or any JSON value.  p is
# drawn up to 10^15: q = p^f is held to caps.enumeration before p's trial
# division.  Shapes stay small: the largest Weyl order and the weight system
# grow with the shape before any cap applies.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
SMALL = st.integers(-1, 4)
EXPLICIT_REP = st.lists(
    st.tuples(st.lists(st.integers(-2, 2), max_size=4), SMALL).map(list), max_size=4
)
FUZZED_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "p": st.sampled_from([2, 3, 5, 7]) | st.integers(2, 10**15) | JSON_VALUES,
        "f": st.sampled_from([1, 2]) | JSON_VALUES,
        "shape": st.lists(SMALL, max_size=3) | JSON_VALUES,
        "rep": st.sampled_from(["std", "sym2", "std*det^1", "std*det^x"])
        | EXPLICIT_REP
        | JSON_VALUES,
        "suites": st.lists(st.sampled_from(SUITE_NAMES), max_size=3) | JSON_VALUES,
        "caps": st.dictionaries(
            st.sampled_from(["tower", "enumeration", "samples"]) | st.text(max_size=3),
            SMALL | JSON_VALUES,
            max_size=3,
        )
        | JSON_VALUES,
        "seed": st.integers() | JSON_VALUES,
    },
)


def test_q_above_the_enumeration_cap_is_refused_before_trial_division(monkeypatch):
    def no_trial_division(p):
        raise AssertionError("is_prime ran before the q bound")

    monkeypatch.setattr(harness, "is_prime", no_trial_division)
    for raw in ({"p": 100000000000031}, {"p": 2, "f": 10**18},
                {"p": 5, "caps": {"enumeration": 4}}):
        with pytest.raises(ConfigInvalid, match="caps.enumeration"):
            validate_config(raw)


def test_tower_above_the_enumeration_cap_is_refused():
    # q + q^2 + ... + q^tower against the cap, equality allowed
    assert validate_config({"p": 2, "caps": {"tower": 2, "enumeration": 6}})
    for raw in ({"p": 2, "caps": {"tower": 2, "enumeration": 5}},
                {"p": 4099, "suites": ["arith"]},
                {"p": 2, "caps": {"tower": 10**18}}):
        with pytest.raises(ConfigInvalid, match="tower.*caps.enumeration"):
            validate_config(raw)


def test_non_twisted_configs_skip_the_largest_weyl_order(monkeypatch):
    def refuse(shape):
        raise AssertionError("largest_weyl_order ran for a non-twisted config")

    monkeypatch.setattr(harness, "largest_weyl_order", refuse)
    # at [200], largest_weyl_order takes tens of seconds, for a value unused here
    assert validate_config({"shape": [200], "caps": {"tower": 1}})["caps"]["tower"] == 1
    for suites in (["arith"], ["mirabolic"], ["gl2-main", "oracle"]):
        assert validate_config(dict(BASE_CFG, suites=suites))["caps"]["tower"] == 2
    assert validate_config({"p": 2, "shape": [5]})["caps"]["tower"] == 5
    for suite in ("torus", "induction", "gl3-top"):
        with pytest.raises(AssertionError, match="non-twisted"):
            validate_config({"p": 2, "shape": [3], "suites": [suite]})


def test_twisted_level_above_the_enumeration_cap_is_refused_first(monkeypatch):
    def refuse(shape):
        raise AssertionError("largest_weyl_order ran before the level bound")

    monkeypatch.setattr(harness, "largest_weyl_order", refuse)
    for suite in ("torus", "induction", "gl3-top"):
        with pytest.raises(ConfigInvalid, match=f"{suite} needs tower level n = 200"):
            validate_config({"shape": [200], "suites": [suite]})
    # q^n against the cap, equality allowed
    with pytest.raises(ConfigInvalid, match="caps.enumeration = 7"):
        validate_config({"p": 2, "shape": [3], "suites": ["torus"],
                         "caps": {"enumeration": 7}})
    with pytest.raises(AssertionError, match="level bound"):
        validate_config({"p": 2, "shape": [3], "suites": ["torus"],
                         "caps": {"enumeration": 8}})


def test_gl3_top_failure_carries_every_failing_point():
    """The untwisted descent breaks the q = 2 std sweep; the exception carries
    each failing point with both sums, as a per-point loop finds them."""
    run = harness.Run(validate_config({"p": 2, "shape": [3], "suites": ["gl3-top"]}))
    run.__dict__["gamma"] = GammaTrace(run.traces, weyl_sign=False)
    tower = run.tower
    lv = tower.level(1)
    # the sweep's points: every companion matrix, then 100 random top-stratum
    # points drawn from the seed
    points = [
        group_point(tower, companion_matrix(lv, tuple(lead) + (const,)))
        for lead in itertools.product(lv.elements(), repeat=2)
        for const in lv.units()
    ]
    rng = random.Random(run.cfg["seed"])
    random_points = []
    while len(random_points) < 100:
        x = harness._random_group_point(tower, 3, rng)
        if stratum_index(x) == 3:
            random_points.append(x)
    want = []
    for x in points + random_points:
        coset, det_fiber = run.gamma.coset_vanishing_top(x)
        if not coset.is_zero() or coset != det_fiber:
            want.append(
                (x.rows, harness.serialize_value(coset), harness.serialize_value(det_fiber))
            )
    checks = []  # those the sweep yields before it raises
    with pytest.raises(VanishingFailed) as caught:
        for check in harness.vanishing_sweep_gl3_top(run):
            checks.append(check)
    exc = caught.value
    assert want and exc.failures == want[: harness.WITNESS_CAP]
    # the witnesses are values of Q(zeta_p)
    assert {w[1]["conductor"] for w in want} == {2}
    assert str(exc) == f"gl3 coset vanishing failed at {[w[0] for w in want[:3]]}"
    assert [c.passed for c in checks] == [False, True]


@pytest.mark.parametrize("p, n", [(3, 2), (2, 4), (3, 4)])
def test_top_stratum_sweep_reads_n_from_the_shape(p, n):
    """The gl3-top sweep at GL(n): q^(n-1)(q-1) companion points and 100
    random ones, all vanishing, and each broken by the untwisted descent."""
    run = harness.Run(validate_config({"p": p, "shape": [n], "suites": ["torus"]}))
    checks = list(harness.vanishing_sweep_gl3_top(run))
    assert [c.passed for c in checks] == [True, True]
    points = p ** (n - 1) * (p - 1) + 100
    assert checks[0].detail == f"{points} points tested (100 random), both routes"
    run.__dict__["gamma"] = GammaTrace(run.traces, weyl_sign=False)
    with pytest.raises(VanishingFailed) as caught:
        list(harness.vanishing_sweep_gl3_top(run))
    assert len(caught.value.failures) == points


@pytest.mark.parametrize("p, n", [(3, 2), (2, 4), (3, 4)])
def test_top_stratum_translates_are_regular(p, n, monkeypatch):
    """coset_vanishing_top reads the gamma trace of each U_Q translate off its
    characteristic vector, with no regularity check: every translate of the
    sweep's points is regular."""
    run = harness.Run(validate_config({"p": p, "shape": [n], "suites": ["torus"]}))
    points = []
    real = GammaTrace.coset_vanishing_top

    def recorded(self, x):
        points.append(x)
        return real(self, x)

    monkeypatch.setattr(GammaTrace, "coset_vanishing_top", recorded)
    list(harness.vanishing_sweep_gl3_top(run))
    assert len(points) == p ** (n - 1) * (p - 1) + 100
    lv = run.tower.level(1)
    vs = list(itertools.product(lv.elements(), repeat=n - 1))
    assert all(
        is_regular(group_point(run.tower, left_translate(lv, x.rows, v)))
        for x in points
        for v in vs
    )


@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_gl3_top_vanishing_breaks_under_the_untwisted_descent(rep, monkeypatch):
    cfg = {"p": 3, "shape": [3], "rep": rep, "suites": ["gl3-top"]}

    def vanishing(report):
        (check,) = [c for c in report.checks if c.name == "top-stratum-coset-vanishing"]
        return check.passed

    (report,) = run_suite(cfg)
    assert vanishing(report)
    monkeypatch.setattr(
        harness.Run,
        "gamma",
        property(lambda self: GammaTrace(self.traces, weyl_sign=False)),
    )
    (report,) = run_suite(cfg)
    assert not vanishing(report)


@pytest.mark.parametrize(
    "cfg",
    [
        {"p": 2, "shape": [3], "suites": ["mirabolic"]},
        {"p": 3, "shape": [3], "rep": "sym2", "suites": ["gl3-top"]},
    ],
)
def test_suites_without_characters_build_no_tower_ring(cfg, ring_conductors):
    """mirabolic evaluates no value and gl3-top only psi-values, so neither
    builds the tower's ring: the one ring built is psi's, of conductor p."""
    (report,) = run_suite(cfg)
    assert report.passed
    assert ring_conductors == [cfg["p"]]


def _ring_axioms_check():
    # the ring of conductor 630, degree 144: 200 triples of dense values
    cfg = {"p": 2, "f": 2, "shape": [3], "suites": ["arith"], "caps": {"tower": 3}}
    (report,) = run_suite(cfg)
    (check,) = [c for c in report.checks if c.name == "cyclotomic-ring-axioms"]
    return check.passed


def test_ring_axioms_break_under_a_wrong_dense_product(monkeypatch):
    real = CyclotomicRing._dense_product

    def off_by_one(self, a, b):
        num = real(self, a, b)
        num[0] += 1
        return num

    assert _ring_axioms_check()
    monkeypatch.setattr(CyclotomicRing, "_dense_product", off_by_one)
    assert not _ring_axioms_check()


def test_ring_axioms_break_under_a_wrong_conjugate(monkeypatch):
    real = CycNum.conjugate

    def one_coordinate_negated(self):
        value = real(self)
        num = list(value.num)
        num[0] = -num[0]
        return CycNum(value.ring, num, value.den)

    assert _ring_axioms_check()
    monkeypatch.setattr(CycNum, "conjugate", one_coordinate_negated)
    assert not _ring_axioms_check()


def test_flag_vs_ordering_breaks_under_a_wrong_hyper_trace(monkeypatch):
    # the flag route reads hyper_trace, the ordering route the identity
    # twist's fiber sums, so a wrong hyper_trace at (1, 2) breaks every rss
    # point with eigenvalues {1, 2}: |GL(2, F_3)| / |T| = 12 of them
    tower = build_tower(3, 1, 2)
    ws = validate_weight_system([2], "std")
    pool = [group_point(tower, rows) for rows in invertible_matrices(tower.level(1), 2)]
    rss = [x for x in pool if harness._squarefree(tower, x.char)]
    assert len(rss) == 30
    assert not harness.flag_vs_ordering_failures(TorusTraces(tower, ws), rss)
    real = TorusTraces.hyper_trace

    def off_by_one(self, t):
        value = real(self, t)
        return value + 1 if tuple(t) == (1, 2) else value

    monkeypatch.setattr(TorusTraces, "hyper_trace", off_by_one)
    assert len(harness.flag_vs_ordering_failures(TorusTraces(tower, ws), rss)) == 12


def test_normalization_roundtrip_breaks_under_a_wrong_reassembly(monkeypatch):
    # bernstein_coords checks its own reassembly, so a wrong one fails the
    # round-trip check while every other mirabolic check is still reported
    cfg = {"p": 2, "shape": [3], "suites": ["mirabolic"], "caps": {"tower": 1}}

    def verdicts():
        (report,) = run_suite(cfg)
        return {c.name: c.passed for c in report.checks}

    clean = verdicts()
    assert clean["normalization-roundtrip"] and all(clean.values())
    real = StratumData.reassemble

    def off_by_one(self, tower):
        rows = [list(row) for row in real(self, tower)]
        rows[0][0] = tower.level(1).add(rows[0][0], 1)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(StratumData, "reassemble", off_by_one)
    assert verdicts() == dict(clean, **{"normalization-roundtrip": False})


@settings(max_examples=300, deadline=None)
@given(raw=FUZZED_CONFIG)
def test_validate_config_refuses_only_with_config_invalid(raw):
    try:
        cfg = validate_config(raw)
    except ConfigInvalid as exc:
        assert "\n" not in str(exc)
        return
    assert set(cfg["caps"]) == {"tower", "enumeration", "samples"}
    assert all(harness._is_int(v) and v >= 1 for v in cfg["caps"].values())


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_squarefree_matches_factor_multiplicities(p, f):
    tower = build_tower(p, f, 1)
    lv = tower.level(1)
    for n in range(1, 5):
        for lead in itertools.product(lv.elements(), repeat=n - 1):
            for const in lv.units():
                a = tuple(lead) + (const,)
                fac = factor_monic(tower, char_coeffs_to_poly(a))
                assert harness._squarefree(tower, a) == all(m == 1 for _, m in fac), a


def test_gl2_suites_share_one_table_oracle_and_system(monkeypatch):
    calls = {"build_gl2_table": 0, "oracle_phi": 0, "_regular_system": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(harness, "build_gl2_table")
    counted(harness, "oracle_phi")
    counted(gl2, "_regular_system")
    cfg = dict(BASE_CFG, suites=["gl2-main", "oracle"])
    both = emit(run_suite(cfg))
    assert calls == {"build_gl2_table": 1, "oracle_phi": 1, "_regular_system": 1}
    single = run_suite(cfg, suites=["gl2-main"]) + run_suite(cfg, suites=["oracle"])
    assert emit(single) == both
    assert all(report.passed for report in single)


def test_a_second_torus_run_validates_no_fixed_weight_system(monkeypatch):
    # the crossed GL(1) systems and std-doubled are validated once per
    # process; a later run validates only the config's own system
    cfg = dict(BASE_CFG, suites=["torus"])
    first = emit(run_suite(cfg))
    calls = []
    real = harness.validate_weight_system

    def recorded(shape, rep):
        calls.append((list(shape), rep))
        return real(shape, rep)

    monkeypatch.setattr(harness, "validate_weight_system", recorded)
    assert emit(run_suite(cfg)) == first
    assert calls == [([2], "std")]


def _corrupt_table(monkeypatch):
    real = gl2.character_value

    def corrupted(tower, irrep, cls):
        terms = real(tower, irrep, cls)
        if irrep.family == "cuspidal" and cls.kind == "nonss":
            return terms + ((0, 1),)
        return terms

    monkeypatch.setattr(gl2, "character_value", corrupted)


def test_corrupted_table_is_a_failed_check(monkeypatch):
    _corrupt_table(monkeypatch)
    reports = run_suite(dict(BASE_CFG, suites=["oracle"]))
    check, error = reports[0].checks
    assert (check.name, check.passed) == ("character-table-orthogonality", False)
    assert check.detail.startswith("row orthogonality fails for ")
    assert (error.name, error.passed) == ("suite-error", False)
    assert error.detail == f"TableNotOrthogonal: {check.detail}"


def test_corrupted_table_is_a_failed_check_in_the_gl2_sweep(monkeypatch):
    _corrupt_table(monkeypatch)
    (report,) = run_suite(dict(BASE_CFG, suites=["gl2-main"]))
    check, error = report.checks
    assert (check.name, check.passed) == ("character-table-orthogonality", False)
    assert check.detail.startswith("row orthogonality fails for ")
    assert (error.name, error.passed) == ("suite-error", False)
    assert error.detail == f"TableNotOrthogonal: {check.detail}"


def test_inconsistent_oracle_system_is_a_failed_check(monkeypatch):
    real = gl2._regular_system

    def perturbed(traces, gamma_calc, table):
        generic, unknown, rows, rhs = real(traces, gamma_calc, table)
        return generic, unknown, rows, [rhs[0] + 1] + rhs[1:]

    monkeypatch.setattr(gl2, "_regular_system", perturbed)
    reports = run_suite(dict(BASE_CFG, suites=["gl2-main"]))
    check, error = reports[0].checks
    assert (check.name, check.passed) == ("oracle-solve", False)
    assert check.detail == "oracle system: residual nonzero"
    assert (error.name, error.passed) == ("suite-error", False)
    assert error.detail == f"SystemInconsistent: {check.detail}"


def test_inconsistent_oracle_system_keeps_the_table_check(monkeypatch):
    real = gl2._regular_system

    def perturbed(traces, gamma_calc, table):
        generic, unknown, rows, rhs = real(traces, gamma_calc, table)
        return generic, unknown, rows, [rhs[0] + 1] + rhs[1:]

    monkeypatch.setattr(gl2, "_regular_system", perturbed)
    reports = run_suite(dict(BASE_CFG, suites=["oracle"]))
    check, error = reports[0].checks
    assert (check.name, check.passed) == ("character-table-orthogonality", True)
    assert (error.name, error.passed) == ("suite-error", False)
    assert error.detail == "SystemInconsistent: oracle system: residual nonzero"


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise ArithmeticError("nonzero remainder in exact polynomial division")

    monkeypatch.setitem(
        harness.SUITES, "arith", harness.SUITES["arith"]._replace(checks=broken)
    )
    reports = run_suite(dict(BASE_CFG, suites=["arith", "torus"]))
    (check,) = reports[0].checks
    assert (check.name, check.passed) == ("internal-error", False)
    assert check.detail.startswith(
        "ArithmeticError: nonzero remainder in exact polynomial division"
        " (test_harness.py:"
    )
    assert check.detail.endswith(" in broken)")
    assert reports[1].passed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "[FAIL] arith\n"


def test_an_error_mid_suite_keeps_the_checks_yielded_before_it(monkeypatch):
    def refused(tower):
        raise CapExceeded("translation map sweep refused")

    monkeypatch.setattr(harness, "translation_map_failures", refused)
    (report,) = run_suite(
        {"p": 3, "shape": [3], "suites": ["mirabolic"], "caps": {"tower": 1}}
    )
    assert [(c.name, c.passed) for c in report.checks] == [
        ("left-translation-stability", True),
        ("normalization-roundtrip", True),
        ("coset-charpoly-formula", True),
        ("coset-map-rank", True),
        ("coset-map-linearity", True),
        ("suite-error", False),
    ]
    assert report.checks[-1].detail == "CapExceeded: translation map sweep refused"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_is_a_generator_function(name):
    assert inspect.isgeneratorfunction(SUITES[name].checks)


def test_run_suite_reports_pass():
    reports = run_suite(BASE_CFG)
    assert len(reports) == 1
    assert reports[0].suite == "arith"
    assert reports[0].passed
    names = [c.name for c in reports[0].checks]
    assert "gauss-product-identity" in names
    assert "hasse-davenport" in names


def test_arith_passes_at_q2():
    # F_2's generator is 1, so its dlog is 0, which is 1 modulo the unit order
    reports = run_suite(dict(BASE_CFG, p=2))
    assert [c.name for c in reports[0].checks if not c.passed] == []


def test_reports_byte_identical():
    out1 = emit(run_suite(BASE_CFG))
    out2 = emit(run_suite(BASE_CFG))
    assert out1 == out2
    payload = json.loads(out1)
    assert payload[0]["passed"] is True


def test_emit_csv():
    reports = run_suite(BASE_CFG)
    csv = emit(reports, fmt="csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "suite,check,passed,detail"
    assert all(line.startswith("arith,") for line in lines[1:])


def test_cli_lists_suites_and_explains_each(capsys):
    assert main(["list-suites"]) == 0
    assert capsys.readouterr().out == "".join(f"{s}\n" for s in SUITE_NAMES)
    for name in SUITE_NAMES:
        assert main(["explain", name]) == 0
        assert capsys.readouterr().out == SUITES[name].statement + "\n"


def test_cli_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    out_path = tmp_path / "report.json"
    code = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload[0]["suite"] == "arith"
    # identical second run, byte for byte
    out2 = tmp_path / "report2.json"
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out_path.read_text() == out2.read_text()


def test_cli_csv_and_listing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    out_path = tmp_path / "report.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("suite,check,passed")
    assert main(["list-suites"]) == 0
    captured = capsys.readouterr()
    assert "gl2-main" in captured.out
    assert main(["explain", "gl3-top"]) == 0
    captured = capsys.readouterr()
    assert "determinant" in captured.out


def test_cli_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"suites": ["nonsense"]}))
    assert main(["run", "--config", str(wrong)]) == 2


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE_CFG))
    out_path = tmp_path / "report.json"
    assert (
        main(
            ["run", "--config", str(cfg_path), "--out", str(out_path), "--seed", "7"]
        )
        == 0
    )
    payload = json.loads(out_path.read_text())
    assert payload[0]["seed"] == 7
