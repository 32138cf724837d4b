"""Verification suites, reports and the sweep drivers.

Each suite yields named exact checks over one configuration (p, f, shape,
representation), and run_suite appends each to the suite's report as it
comes, so a suite that raises keeps the checks it yielded before the error.
Reports are deterministic: given the same config they serialize
byte-for-byte (timings are opt-in precisely because they would break that),
seeds are fixed and recorded, and exact values are stored as cyclotomic
coefficient vectors.  run_suite hands its suites one Run, which builds the
tower, the torus traces, the gamma trace, the GL(2) table and the oracle on
first use, so suites that share a config share them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from .cyclotomic import CycNum
from .errors import (
    ConfigInvalid,
    GammasumsError,
    NotComputableLocus,
    SolverSingular,
    SystemInconsistent,
    TableNotOrthogonal,
    TowerTooShallow,
    VanishingFailed,
)
from .fields import (
    all_characters,
    build_tower,
    gauss_sum,
    is_prime,
    kloosterman,
    tower_ring_degree,
)
from .gl2 import (
    PAIRING,
    build_gl2_table,
    calibrate_generic_units,
    gl2_order,
    oracle_phi,
)
from .induction import (
    GammaTrace,
    FLAG_N_MAX,
    full_flags,
    induced_trace,
    levi_restriction_sum,
)
from .matrices import (
    char_coeffs_to_poly,
    charpoly,
    invertible_matrices,
    mat_inv,
    mat_mul,
    pol_divmod,
    pol_mul,
)
from .mirabolic import (
    bernstein_coords,
    census_in_reach,
    census_prediction,
    companion_matrix,
    coset_charpoly,
    coset_charpolys,
    coset_rank,
    coset_strata,
    group_point,
    krylov,
    left_translate,
    lemma_translation_map,
    normalize_stratum,
    normalized_blocks,
    orbit_census,
    parabolic_rank_classify,
    stratum_index,
)
from .torus import (
    TorusTraces,
    TwistedTorusPoint,
    enumerate_twisted_points,
    largest_weyl_order,
    perm_compose,
    perm_identity,
    perm_sign,
    rational_character,
    torus_characters,
    validate_weight_system,
    weyl_lift,
)

DEFAULT_SEED = 1789
DEFAULT_SUITES = ("arith",)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: object = None
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list = field(default_factory=list)
    seed: int = DEFAULT_SEED

    @property
    def passed(self):
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "value": serialize_value(c.value),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def serialize_value(v):
    if v is None:
        return None
    if isinstance(v, CycNum):
        return {"conductor": v.ring.conductor, "den": v.den, "num": list(v.num)}
    if isinstance(v, (int, str, bool)):
        return v
    if isinstance(v, (list, tuple)):
        return [serialize_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): serialize_value(x) for k, x in sorted(v.items())}
    return str(v)


def emit(reports, fmt="json"):
    """Canonical serialization of a report list (sorted keys, no timestamps)."""
    if fmt == "json":
        payload = [r.to_dict() for r in reports]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["suite,check,passed,detail"]
        for r in reports:
            for c in r.checks:
                detail = c.detail.replace(",", ";").replace("\n", " ")
                lines.append(f"{r.suite},{c.name},{int(c.passed)},{detail}")
        return "\n".join(lines) + "\n"
    raise ConfigInvalid(f"unknown output format {fmt!r}")


# -- configuration --------------------------------------------------------------


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# Largest degree phi(N) of the tower's ring, N = lcm(p, q^m - 1 : m <= tower).
# Building Phi_N grows with it: building the ring (2-vCPU x86-64, Python
# 3.11, two runs each) took 0.6 and 1.0 s at phi(N) = 23,040 (p=5, tower 4)
# and 16.8 and 18.1 s at 34,560 (p=11, tower 3); at 506,880 (p=3, tower 6)
# build_tower did not finish in 240 s.
RING_DEGREE_CAP = 23040


def _power_exceeds(base, exponent, cap):
    """base^exponent > cap.  For base >= 2 the product passes the cap within
    log2(cap) + 1 factors, so a huge exponent costs no more than that."""
    value = 1
    for _ in range(exponent):
        value *= base
        if value > cap:
            return True
    return False


def validate_config(raw, suites=None) -> dict:
    """The checked config with defaults filled in; suites, when given,
    replaces the config's suite list.  Also returns the validated weight
    system under "weights", so the suites do not validate it again.

    Each rule below reads the facts of every configured suite from SUITES
    in turn, so a config breaking several rules is refused for the first."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    if suites:
        raw = dict(raw, suites=list(suites))
    unknown_keys = set(raw) - {"p", "f", "shape", "rep", "suites", "caps", "seed"}
    if unknown_keys:
        raise ConfigInvalid(f"unknown config keys {sorted(unknown_keys)}")
    for key, kind, what in (
        ("shape", list, "a list"),
        ("suites", list, "a list"),
        ("caps", dict, "an object"),
    ):
        if not isinstance(raw.get(key, kind()), kind):
            raise ConfigInvalid(f"{key} must be {what}")
    cfg = {
        "p": raw.get("p", 3),
        "f": raw.get("f", 1),
        "shape": list(raw.get("shape", [2])),
        "rep": raw.get("rep", "std"),
        "suites": list(raw.get("suites", DEFAULT_SUITES)),
        "caps": dict(raw.get("caps", {})),
        "seed": raw.get("seed", DEFAULT_SEED),
    }
    if not (_is_int(cfg["p"]) and cfg["p"] >= 2):
        raise ConfigInvalid("p must be a prime integer")
    if not (_is_int(cfg["f"]) and cfg["f"] >= 1):
        raise ConfigInvalid("f must be a positive integer")
    if not _is_int(cfg["seed"]):
        raise ConfigInvalid("seed must be an integer")
    for s in cfg["suites"]:
        if s not in SUITE_NAMES:
            raise ConfigInvalid(f"unknown suite {s!r}")
    if not cfg["shape"] or any(not _is_int(n) or n < 1 for n in cfg["shape"]):
        raise ConfigInvalid("shape must be a list of positive integers")
    cfg["caps"].setdefault("enumeration", 1 << 24)
    cfg["caps"].setdefault("samples", 60)
    unknown_caps = set(cfg["caps"]) - {"tower", "enumeration", "samples"}
    if unknown_caps:
        raise ConfigInvalid(f"unknown caps keys {sorted(unknown_caps)}")
    for cap, value in cfg["caps"].items():
        if not (_is_int(value) and value >= 1):
            raise ConfigInvalid(f"caps.{cap} must be a positive integer")
    enumeration = cfg["caps"]["enumeration"]
    suites = [(s, SUITES[s]) for s in cfg["suites"]]
    # level 1 alone holds q elements; q is bounded before the trial division
    # of p
    if _power_exceeds(cfg["p"], cfg["f"], enumeration):
        raise ConfigInvalid(f"q = p^f is above caps.enumeration = {enumeration}")
    q = cfg["p"] ** cfg["f"]
    n = max(cfg["shape"])
    # checked before the tower and every enumeration
    for s, suite in suites:
        if suite.translates_max and _power_exceeds(q, n - 1, suite.translates_max):
            raise ConfigInvalid(
                f"{s} runs at q^(n-1) <= {suite.translates_max}, "
                f"and n = {n} is above it at q = {q}"
            )
    # a twisted point of w lives at the level of w's order, the lcm of its
    # cycle lengths, so the twisted suites need the largest Weyl order (read
    # off the shape only for them); the mirabolic suite needs level 1.  That
    # order is at least n = max(shape), so level n, with q^n elements, is
    # held to the cap first: the order's search grows with the shape
    twisted = [s for s, suite in suites if suite.twisted]
    if twisted and _power_exceeds(q, n, enumeration):
        raise ConfigInvalid(
            f"{twisted[0]} needs tower level n = {n}, whose q^n elements are "
            f"above caps.enumeration = {enumeration}"
        )
    level = largest_weyl_order(cfg["shape"]) if twisted else n
    tower = cfg["caps"].setdefault("tower", max(2, level))
    # the tower holds q + q^2 + ... + q^tower elements, and q - 1 times that
    # is q^(tower + 1) - q
    if _power_exceeds(q, tower + 1, enumeration * (q - 1) + q):
        raise ConfigInvalid(
            "the tower, q + q^2 + ... + q^tower, is above caps.enumeration = "
            f"{enumeration}"
        )
    if not is_prime(cfg["p"]):
        raise ConfigInvalid("p must be a prime integer")
    # q^tower - 1 divides N, and phi(n) >= sqrt(n / 2), so a large top level
    # is refused before any q^m - 1 is factored
    if (
        q**tower - 1 > 2 * RING_DEGREE_CAP**2
        or tower_ring_degree(cfg["p"], cfg["f"], tower) > RING_DEGREE_CAP
    ):
        raise ConfigInvalid(
            f"the tower's ring, of conductor lcm(p, q^m - 1 : m <= {tower}), has "
            f"degree above {RING_DEGREE_CAP}; lower caps.tower or q"
        )
    try:
        weights = validate_weight_system(cfg["shape"], cfg["rep"])
    except (TypeError, ValueError, GammasumsError) as exc:
        raise ConfigInvalid(f"invalid rep {cfg['rep']!r}: {exc}") from exc
    shape = tuple(cfg["shape"])
    # a suite's smallest tower is held at its own shape only: at another
    # shape it is refused for the shape
    for s, suite in suites:
        if suite.shape in (None, shape) and tower < suite.min_tower:
            raise ConfigInvalid(f"{s} needs caps.tower >= {suite.min_tower}")
    for s, suite in suites:
        if suite.shape not in (None, shape):
            raise ConfigInvalid(f"{s} needs shape {list(suite.shape)}")
    for s, suite in suites:
        if suite.single_factor and len(shape) != 1:
            raise ConfigInvalid(f"{s} suite needs a single-factor shape")
        if suite.n_max and n > suite.n_max:
            raise ConfigInvalid(f"{s} runs at n <= {suite.n_max}")
    for s, suite in suites:
        if suite.twisted and tower < level:
            raise ConfigInvalid(f"{s} needs caps.tower >= {level}")
        if suite.q_max and q > suite.q_max:
            raise ConfigInvalid(f"{s} runs at q <= {suite.q_max}")
    if cfg["rep"] == "sym2" and q % 2 == 0:
        raise ConfigInvalid("sym2 suites run at odd q")
    cfg["weights"] = weights
    return cfg


class Run:
    """One validated config and the objects its suites share.

    Each object is built on first use and kept, so suites of one run that
    share a config share the tower, the torus traces, the gamma trace, the
    GL(2) table and the oracle.  A build that raises is not kept: the next
    suite to ask builds it again and meets the same error.
    """

    def __init__(self, cfg):
        self.cfg = cfg

    @cached_property
    def tower(self):
        caps = self.cfg["caps"]
        return build_tower(
            self.cfg["p"], self.cfg["f"], caps["tower"], cap=caps["enumeration"]
        )

    @cached_property
    def traces(self):
        return TorusTraces(self.tower, self.cfg["weights"])

    @cached_property
    def gamma(self):
        return GammaTrace(self.traces)

    @cached_property
    def table(self):
        return build_gl2_table(self.tower)

    @cached_property
    def oracle(self):
        return oracle_phi(self.traces, self.gamma, self.table)


def _random_group_point(tower, n, rng):
    lv = tower.level(1)
    while True:
        rows = [[rng.randrange(lv.size) for _ in range(n)] for _ in range(n)]
        try:
            return group_point(tower, rows)
        except ValueError:
            continue


def _squarefree(tower, char_coeffs):
    """gcd(c, c') = 1 by Euclid, c the characteristic polynomial; False when
    c' = 0.  The last nonzero remainder is the gcd up to a unit; remainders
    may keep high zero coefficients, so it is a constant when nothing past
    its constant term is nonzero."""
    lv = tower.level(1)
    f = char_coeffs_to_poly(char_coeffs)
    g = tuple(lv.mul(lv.scalar(k), c) for k, c in enumerate(f))[1:]
    while any(g):
        f, g = g, pol_divmod(lv, f, g)[1]
    return not any(f[1:])


# -- suite: arith ----------------------------------------------------------------


def gauss_failures(tower):
    """Level-1 and level-2 characters failing g(chi) g(conj chi) = chi(-1) q^m
    (g = -1 if trivial), and those failing |g(chi)| = q^(m/2)."""
    product, magnitude = [], []
    for m in (1, 2):
        if m not in tower.levels:
            continue
        size = tower.q**m
        minus_one = tower.level(m).neg(1)
        for chi in all_characters(tower, m):
            g = gauss_sum(chi)
            if chi.is_trivial():
                if g != tower.ring.from_int(-1):
                    product.append((m, chi.exponent))
                continue
            if g * gauss_sum(chi.conj()) != chi.value(minus_one) * size:
                product.append((m, chi.exponent))
            if abs(abs(g.complex_value()) - size**0.5) > 1e-9:
                magnitude.append((m, chi.exponent))
    return product, magnitude


def hasse_davenport_failures(tower):
    """(chi, m) with (-g(chi))^m != -g(chi o N) for levels 2 and 3."""
    bad = []
    for chi in all_characters(tower, 1):
        if chi.is_trivial():
            continue
        g1 = gauss_sum(chi)
        for m in tower.levels:
            if 1 < m <= 3 and (-g1) ** m != -gauss_sum(chi.lift(m)):
                bad.append((chi.exponent, m))
    return bad


def suite_arith(run):
    tower = run.tower
    ring = tower.ring
    lv1 = tower.level(1)
    yield CheckResult(
        "dlog-normalization",
        lv1.dlog[lv1.gen] == 1 % (lv1.size - 1) and lv1.dlog[1] == 0,
    )
    ok = True
    for a in tower.levels:
        for b in tower.levels:
            if b % a or a == b:
                continue
            la, lb = tower.level(a), tower.level(b)
            if tower.embed(la.gen, a, b) != lb.power(
                lb.gen, (lb.size - 1) // (la.size - 1)
            ):
                ok = False
            for c in tower.levels:
                if c % b or c == b:
                    continue
                for x in la.elements():
                    via = tower.embed(tower.embed(x, a, b), b, c)
                    if via != tower.embed(x, a, c):
                        ok = False
    yield CheckResult("embedding-compatibility", ok)
    ok = all(
        tower.psi_ring.sum(tower.psi(x, m) for x in tower.level(m).elements()).is_zero()
        for m in tower.levels
    )
    yield CheckResult("psi-orthogonality", ok)
    product_bad, magnitude_bad = gauss_failures(tower)
    yield CheckResult("gauss-product-identity", not product_bad)
    yield CheckResult("gauss-magnitude", not magnitude_bad)
    yield CheckResult("hasse-davenport", not hasse_davenport_failures(tower))
    rng = random.Random(run.cfg["seed"])
    ok = True
    triples = 200 if ring.degree <= 200 else 25
    for _ in range(triples):
        a, b, c = (
            ring.from_coeffs(
                rng.choices(range(-3, 4), k=ring.degree),
                rng.randrange(1, 4),
            )
            for _ in range(3)
        )
        if (a + b) + c != a + (b + c) or a * (b + c) != a * b + a * c:
            ok = False
        if a.conjugate().conjugate() != a:
            ok = False
    yield CheckResult("cyclotomic-ring-axioms", ok, detail=f"{triples} triples")
    yield CheckResult(
        "kloosterman-arity-one", kloosterman(tower, 1, 1) == -tower.psi(1)
    )


# -- suite: torus ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _fixed_weight_system(shape, rep):
    """validate_weight_system once per process, for the systems the torus
    suite fixes in code; shape and rep are tuples, the cache keys."""
    return validate_weight_system(shape, rep)


def kloosterman_failures(tower, arities):
    """(r, t) where the arity-r hypergeometric trace at t differs from Kl_r(t)."""
    bad = []
    for r in arities:
        traces = TorusTraces(tower, _fixed_weight_system((1,), (((1,), r),)))
        for t in tower.level(1).units():
            if traces.hyper_trace((t,)) != kloosterman(tower, t, r):
                bad.append((r, t))
    return bad


def _sample_torus_points(tower, d, rng):
    """Twenty points of the rank-d split torus, in shuffled order."""
    pts = list(itertools.product(tower.level(1).units(), repeat=d))
    rng.shuffle(pts)
    return pts[:20]


def sign_action_failures(traces, points):
    """(t, xi) where xi does not act on the local sum at t by its sign."""
    ws = traces.ws
    bad = []
    for t in points:
        pt = TwistedTorusPoint(perm_identity(ws.d), t)
        base = traces.hyper_trace(t)
        for xi in ws.sigma_block_elements():
            want = base if perm_sign(xi) == 1 else -base
            if traces.twisted_local_sum(xi, pt) != want:
                bad.append((t, xi))
    return bad


def mellin_failures(traces):
    """(w, theta): the Mellin transform is not the frozen unit times Gauss sums."""
    return [
        (w, theta)
        for w in traces.ws.weyl()
        for theta in torus_characters(traces.tower, w)
        if traces.mellin_gamma(w, theta) != traces.mellin_reference(w, theta)
    ]


def kummer_failures(traces):
    """Rational characters chi whose Kummer convolution is not a multiple of
    chi, or is chi times a constant other than the Mellin reference at chi."""
    bad = []
    for exps in itertools.product(range(traces.tower.q - 1), repeat=traces.ws.d):
        chi = rational_character(traces.tower, exps)
        try:
            scalar = traces.kummer_convolution_scalar(chi)
        except GammasumsError:
            bad.append(exps)
            continue
        if scalar != traces.mellin_reference(chi.w, chi):
            bad.append(exps)
    return bad


def sigma_fiber_failures(traces):
    """(j, z) where the factor-j (rank >= 2) fiber sum over det z is nonzero."""
    return [
        (j, z)
        for j, n in enumerate(traces.ws.shape)
        if n >= 2
        for z in traces.tower.level(1).units()
        if not traces.sigma_fiber_sum(j, z).is_zero()
    ]


def _aux_multiplicity_systems(cfg):
    """Weight systems with repeated weights, where the sign tests have content.

    Crossed one-dimensional systems need tower levels up to their arity, so
    only arities within the configured bound are included.
    """
    bound = cfg["caps"]["tower"]
    out = [
        (f"gm-crossed-{r}", _fixed_weight_system((1,), (((1,), r),)))
        for r in (2, 3)
        if r <= bound
    ]
    if cfg["shape"] == [2] and bound >= 2:
        out.append(
            ("std-doubled", _fixed_weight_system((2,), (((1, 0), 2), ((0, 1), 2))))
        )
    return out


def suite_torus(run):
    cfg = run.cfg
    tower, traces = run.tower, run.traces
    ws = traces.ws
    lv1 = tower.level(1)
    rng = random.Random(cfg["seed"])
    units = list(lv1.units())
    d = ws.d
    yield CheckResult(
        "hyper-equals-kloosterman", not kloosterman_failures(tower, (1, 2, 3))
    )
    # untwisted consistency
    ok = True
    for t in itertools.product(units, repeat=d):
        pt = TwistedTorusPoint(perm_identity(d), t)
        if traces.twisted_stalk_trace(pt) != traces.hyper_trace(t):
            ok = False
    yield CheckResult("identity-twist-consistency", ok)
    # sign action of block permutations (content needs repeated weights)
    ok = True
    aux = [TorusTraces(tower, aux_ws) for _, aux_ws in _aux_multiplicity_systems(cfg)]
    for aux_tr in [traces] + aux:
        if sign_action_failures(aux_tr, _sample_torus_points(tower, aux_tr.ws.d, rng)):
            ok = False
    yield CheckResult(
        "block-permutation-sign-action",
        ok,
        detail="multiplicity-free blocks are vacuous; the crossed systems"
        " carry the content",
    )
    # lift independence of the normalized twisted trace; lifts whose cycle
    # structure outruns the tower are skipped (their fibers need deeper
    # extensions), which still leaves at least two lifts per twist
    ok = True
    lift_counts = []
    for aux_tr in aux:
        aux_ws = aux_tr.ws
        sig = aux_ws.sigma_block_elements()
        for w in aux_ws.weyl():
            xi0 = weyl_lift(aux_ws, w)[0]
            lifts = [perm_compose(xi0, tau) for tau in sig]
            pts = list(enumerate_twisted_points(tower, w))
            rng.shuffle(pts)
            tested = set()
            for pt in pts[:4]:
                ref = aux_tr.twisted_stalk_trace(pt)
                for xi in lifts:
                    try:
                        got = aux_tr.twisted_stalk_trace(pt, xi=xi)
                    except TowerTooShallow:
                        continue
                    tested.add(xi)
                    if got != ref:
                        ok = False
            lift_counts.append(len(tested))
    yield CheckResult(
        "lift-independence",
        ok and all(c >= 2 for c in lift_counts),
        detail=f"lifts tested per twist: {sorted(set(lift_counts))}",
    )
    # Mellin factorization for every twist and character
    unit = traces.mellin_unit()
    yield CheckResult(
        "mellin-factorization",
        not mellin_failures(traces),
        value=unit,
        detail="unit frozen from the identity twist, trivial character",
    )
    yield CheckResult("kummer-convolution-constant", not kummer_failures(traces))
    ran = any(n >= 2 for n in ws.shape)
    yield CheckResult(
        "sigma-fiber-vanishing",
        not sigma_fiber_failures(traces),
        detail="" if ran else "no factor of rank >= 2",
    )


# -- suite: mirabolic --------------------------------------------------------------


def roundtrip_failures(y, m):
    """[y] unless the block coordinates of normalized y reassemble to y, which
    bernstein_coords checks, raising SolverSingular on a mismatch."""
    try:
        bernstein_coords(y, m)
    except SolverSingular:
        return [y.rows]
    return []


def coset_failures(x, y, m):
    """At x, normalized to y in stratum m: the v where u y, u with first row
    (1, -v), breaks the closed formula b = coset_charpoly(a, v) against the
    direct c(u_L x_F) = b and c(u y) = b c(x_E); and those of x, y whose coset
    map rank is not m - 1."""
    lv = y.level()
    x_f, _, x_e = normalized_blocks(y, m)
    a = charpoly(lv, x_f)
    c_e = char_coeffs_to_poly(charpoly(lv, x_e))
    # b and u_L read the prefix v[:m-1] alone: one block charpoly per prefix,
    # and the c(u y) it predicts, or None where b breaks the block
    prefixes = list(itertools.product(lv.elements(), repeat=m - 1))
    blocks = coset_charpolys(lv, x_f, [tuple(map(lv.neg, u)) for u in prefixes])
    wants = {}
    for u, block in zip(prefixes, blocks):
        b = coset_charpoly(lv, a, u)
        wants[u] = pol_mul(lv, char_coeffs_to_poly(b), c_e) if b == block else None
    vs = list(itertools.product(lv.elements(), repeat=y.n - 1))
    # at m = n, x_F is all of y and the two translates are one matrix
    wholes = (
        blocks if m == y.n
        else coset_charpolys(lv, y.rows, [tuple(map(lv.neg, v)) for v in vs])
    )
    formula = [
        v
        for v, whole in zip(vs, wholes)
        if char_coeffs_to_poly(whole) != wants[v[: m - 1]]
    ]
    return formula, [pt.rows for pt in (y, x) if coset_rank(pt) != m - 1]


def translation_map_failures(tower):
    """(a1, a2, xe) where the GL(3) stratum-2 translation map is not bijective."""
    lv = tower.level(1)
    bad = []
    for a1 in lv.elements():
        for a2 in lv.units():
            xf2 = companion_matrix(lv, (a1, a2))
            for xe in lv.units():
                seen = {
                    lemma_translation_map(lv, xf2, ((xe,),), (v1,), ((vm,), (0,)))
                    for v1 in lv.elements()
                    for vm in lv.elements()
                }
                if len(seen) != tower.q**2:
                    bad.append((a1, a2, xe))
    return bad


def orbit_census_failures(tower, n):
    """Characteristic vectors of GL(n) whose orbit census differs from the
    recursion."""
    census = orbit_census(tower, n)
    prediction = census_prediction(tower, n)
    return [
        a
        for a in sorted(census.keys() | prediction.keys())
        if {m: len(sizes) for m, sizes in census.get(a, {}).items()}
        != prediction.get(a)
    ]


def suite_mirabolic(run):
    cfg = run.cfg
    tower = run.tower
    n = cfg["shape"][0]
    q = tower.q
    lv = tower.level(1)
    rng = random.Random(cfg["seed"])
    samples = cfg["caps"]["samples"]
    # stratification stability under left unipotent translation
    ok = True
    if q ** (n * n) <= 1 << 16:
        pool = list(invertible_matrices(lv, n))
    else:
        pool = [_random_group_point(tower, n, rng).rows for _ in range(300)]
    vs = list(itertools.product(lv.elements(), repeat=n - 1))
    for rows in pool:
        m = len(krylov(lv, rows, []))
        if any(s != m for s in coset_strata(lv, rows, vs)):
            ok = False
    yield CheckResult(
        "left-translation-stability", ok, detail=f"{len(pool)} points"
    )
    # normalization round trip, coset formulas, rank and linearity
    ok_round = ok_coset = ok_rank = ok_linear = True
    for idx in range(samples):
        x = _random_group_point(tower, n, rng)
        _, y, m = normalize_stratum(x)
        ok_round &= not roundtrip_failures(y, m)
        formula_bad, rank_bad = coset_failures(x, y, m)
        ok_coset &= not formula_bad
        ok_rank &= not rank_bad
        if idx >= 10:
            continue
        for _ in range(3):
            v1, v2 = rng.choice(vs), rng.choice(vs)
            # images under the coset map v -> c(u_v y) - c(y)
            d1, d2, d12 = (
                tuple(map(lv.sub, charpoly(lv, left_translate(lv, y.rows, v)), y.char))
                for v in (v1, v2, tuple(map(lv.add, v1, v2)))
            )
            if d12 != tuple(map(lv.add, d1, d2)):
                ok_linear = False
    yield CheckResult("normalization-roundtrip", ok_round)
    yield CheckResult("coset-charpoly-formula", ok_coset, detail=f"{samples} points")
    yield CheckResult("coset-map-rank", ok_rank)
    yield CheckResult("coset-map-linearity", ok_linear)
    # simple transitivity brute force on the (companion, scalar) layout
    ran = n == 3 and q <= 3
    yield CheckResult(
        "translation-map-bijective",
        not ran or not translation_map_failures(tower),
        detail="" if ran else "layout needs shape [3] at q <= 3",
    )
    # census vs recursion
    ran = census_in_reach(n, q)
    yield CheckResult(
        "orbit-census-recursion",
        not ran or not orbit_census_failures(tower, n),
        detail=f"{q ** (n - 1) * (q - 1) if ran else 0} charpolys",
    )
    # parabolic rank classification round trip
    ok = True
    for _ in range(40):
        x = _random_group_point(tower, n, rng)
        for n1 in range(1, n):
            split = (n1, n - n1)
            r, _, rep = parabolic_rank_classify(x, split)
            r2, _, rep2 = parabolic_rank_classify(rep, split)
            if r2 != r or rep2.rows != rep.rows:
                ok = False
    yield CheckResult("parabolic-rank-classify-idempotent", ok)


# -- suite: induction --------------------------------------------------------------


def flag_vs_ordering_failures(traces, points):
    """Regular semisimple points where the flag-sum trace differs from the sum
    over the identity-twist eigenvalue orderings (no sign between them).

    The flag route reads hyper_trace and the ordering route the identity
    twist's fiber sums, which come from twisted_local_sum, so a wrong value
    on either side shows."""
    tower = traces.tower
    fiber_sums = traces.fiber_sums(perm_identity(traces.ws.d))
    flags = full_flags(tower, traces.ws.d)
    zero = tower.psi_ring.zero
    return [
        x.rows
        for x in points
        if induced_trace(traces, x, flags) != fiber_sums.get(x.char, zero)
    ]


def levi_restriction_failures(gamma):
    """Pairs a != b whose Levi restriction sum is not q times the torus trace."""
    lv = gamma.tower.level(1)
    return [
        (a, b)
        for a in lv.units()
        for b in lv.units()
        if a != b
        and levi_restriction_sum(gamma, (a, b))
        != gamma.traces.hyper_trace((a, b)) * gamma.tower.q
    ]


def suite_induction(run):
    cfg = run.cfg
    tower = run.tower
    n = cfg["shape"][0]
    q = tower.q
    lv = tower.level(1)
    traces, gamma = run.traces, run.gamma
    rng = random.Random(cfg["seed"])
    if n == 2:
        pool = [group_point(tower, rows) for rows in invertible_matrices(lv, 2)]
    else:
        pool = [_random_group_point(tower, n, rng) for _ in range(200)]
    # flag sum vs eigenvalue-ordering sum on regular semisimple points
    rss = [x for x in pool if _squarefree(tower, x.char)]
    yield CheckResult(
        "flag-vs-ordering-consistency",
        not flag_vs_ordering_failures(traces, rss),
        detail=f"{len(rss)} rss points",
    )
    # conjugation invariance of the gamma trace
    ok = True
    for _ in range(50):
        x = _random_group_point(tower, n, rng)
        try:
            phi_x = gamma.phi_regular(x)
        except NotComputableLocus:
            continue
        g = _random_group_point(tower, n, rng)
        conj = group_point(
            tower, mat_mul(lv, g.rows, mat_mul(lv, x.rows, mat_inv(lv, g.rows)))
        )
        if gamma.phi_regular(conj) != phi_x:
            ok = False
    yield CheckResult("conjugation-invariance", ok)
    # standard weights: gamma trace is a frozen unit times psi(trace)
    if cfg["rep"] == "std":
        ok = True
        sign = (-1) ** n
        seen = 0
        for x in pool:
            try:
                phi = gamma.phi_regular(x)
            except NotComputableLocus:
                continue
            seen += 1
            tr_x = 0
            for i in range(n):
                tr_x = lv.add(tr_x, x.rows[i][i])
            if phi != sign * tower.psi(tr_x):
                ok = False
        yield CheckResult(
            "gamma-trace-kernel-shape",
            ok,
            value=tower.ring.from_int(sign),
            detail=f"unit (-1)^n over {seen} regular points",
        )
    # the trace refuses to evaluate off the regular locus
    scalar = 2 % q if q > 2 else 1
    central = group_point(
        tower,
        tuple(tuple(scalar if i == j else 0 for j in range(n)) for i in range(n)),
    )
    try:
        gamma.phi_regular(central)
        ok = False
    except NotComputableLocus:
        ok = True
    yield CheckResult("off-locus-refusal", ok)
    # restriction to the diagonal Levi: a frozen unit times the torus trace
    if n == 2 and q > 2:
        yield CheckResult(
            "levi-restriction-unit",
            not levi_restriction_failures(gamma),
            value=q,
            detail="frozen unit q, exact on all distinct-eigenvalue points",
        )


# -- suite: gl2-main ----------------------------------------------------------------


def in_borel(rows):
    return rows[1][0] == 0


def mismatched_classes(run):
    """Keys of the non-central GL(2) classes where the geometric gamma value
    and the oracle's differ."""
    ring, gamma, values = run.tower.ring, run.gamma, run.oracle.values
    return {
        cls.key
        for cls in run.table.classes
        if cls.kind != "central"
        and ring.embed(gamma.value_for_charpoly(cls.key[:2])) != values[cls.key]
    }


# A failed sweep carries at most this many failing cosets (gl3-top: points),
# and as many route mismatches, as attributes of its VanishingFailed.
WITNESS_CAP = 1000


def vanishing_sweep_gl2(run):
    """The main GL(2) coset sweep, both routes, plus the mutation control.

    g runs over the invertible matrices off B in row-major order, and the
    coset of g is U g, the translates with row 0 replaced by row 0 plus v0
    times row 1.  With c = g[1][0] nonzero, the coset holds one matrix h
    with a zero corner, and g is h translated by s = g[0][0] / c.  Every
    summand is a function of a translate's class key, so the translates of
    h are classified together (coset_charpolys) on the first g of each coset
    (each matrix off B once), the two routes are compared once per class
    (mismatched_classes), and the three coset sums are formed once per
    multiset of keys.
    """
    tower, gamma = run.tower, run.gamma
    try:
        oracle = run.oracle
    except TableNotOrthogonal as exc:
        yield CheckResult("character-table-orthogonality", False, detail=str(exc))
        raise
    except SystemInconsistent as exc:
        yield CheckResult("oracle-solve", False, value=PAIRING, detail=str(exc))
        raise
    lv, ring = tower.level(1), tower.ring
    # the sweep's translates meet every non-central class
    mismatched_keys = mismatched_classes(run)
    # mutation control: the untwisted descent must break at least one coset
    gamma_mut = GammaTrace(run.traces, weyl_sign=False)
    coset_sums = {}  # sorted keys of a coset -> (vanishes, breaks)
    cosets = {}  # h -> (each w with a route mismatch at h + w row 1, vanishes, breaks)
    bad = []
    route_mismatch = []
    swept = broken = 0
    ws = [(w,) for w in lv.elements()]
    for rows in invertible_matrices(lv, 2):
        if in_borel(rows):
            continue
        (a, _), (c, _) = rows
        swept += 1
        s = lv.mul(a, lv.inv(c))
        h = left_translate(lv, rows, (lv.neg(s),))
        if h not in cosets:
            # row 1 of h has c != 0, so no translate is scalar
            keys = [(*c, False) for c in coset_charpolys(lv, h, ws)]
            multiset = tuple(sorted(keys))
            if multiset not in coset_sums:
                geo = ring.sum(gamma.value_for_charpoly(k[:2]) for k in multiset)
                orc = ring.sum(oracle.values[k] for k in multiset)
                mut = ring.sum(gamma_mut.value_for_charpoly(k[:2]) for k in multiset)
                coset_sums[multiset] = (
                    geo.is_zero() and orc.is_zero(), not mut.is_zero()
                )
            mismatched = [
                w for w, key in zip(lv.elements(), keys) if key in mismatched_keys
            ]
            cosets[h] = (mismatched, *coset_sums[multiset])
        mismatched, vanishes, breaks = cosets[h]
        # g + v0 row 1 is h + w row 1 for w = s + v0
        route_mismatch.extend(
            (rows, v0) for v0 in sorted(lv.sub(w, s) for w in mismatched)
        )
        if not vanishes:
            bad.append(rows)
        broken += breaks
    yield CheckResult(
        "coset-vanishing-both-routes",
        not bad and not route_mismatch,
        detail=f"{swept} cosets swept; failures={len(bad)}, "
        f"route mismatches={len(route_mismatch)}",
    )
    yield CheckResult(
        "mutation-control-breaks",
        broken > 0,
        detail=f"{broken} of {swept} cosets break under the untwisted descent",
    )
    yield CheckResult(
        "oracle-solve",
        True,
        value=PAIRING,
        detail=f"rank {oracle.rank}/{oracle.unknown_count}",
    )
    if bad or route_mismatch:
        exc = VanishingFailed(
            f"vanishing failed on {len(bad)} cosets, first {bad[:2]}; "
            f"{len(route_mismatch)} route mismatches, first {route_mismatch[:2]}"
        )
        exc.failures = bad[:WITNESS_CAP]
        exc.route_mismatches = route_mismatch[:WITNESS_CAP]
        raise exc


# -- suite: gl3-top -----------------------------------------------------------------


def vanishing_sweep_gl3_top(run):
    tower, traces, gamma = run.tower, run.traces, run.gamma
    lv = tower.level(1)
    n = run.cfg["shape"][0]
    rng = random.Random(run.cfg["seed"])
    points = [
        group_point(tower, companion_matrix(lv, tuple(lead) + (const,)))
        for lead in itertools.product(lv.elements(), repeat=n - 1)
        for const in lv.units()
    ]
    extras = 0
    while extras < 100:
        x = _random_group_point(tower, n, rng)
        if stratum_index(x) == n:
            points.append(x)
            extras += 1
    bad = []  # (rows, coset sum, det-fiber sum) of each failing point
    for x in points:
        coset, det_fiber = gamma.coset_vanishing_top(x)
        if not coset.is_zero() or coset != det_fiber:
            bad.append((x.rows, serialize_value(coset), serialize_value(det_fiber)))
    yield CheckResult(
        "top-stratum-coset-vanishing",
        not bad,
        detail=f"{len(points)} points tested ({extras} random), both routes",
    )
    yield CheckResult("sigma-fiber-gl3-torus", not sigma_fiber_failures(traces))
    if bad:
        exc = VanishingFailed(
            f"gl3 coset vanishing failed at {[rows for rows, _, _ in bad[:3]]}"
        )
        exc.failures = bad[:WITNESS_CAP]
        raise exc


# -- suite: oracle ------------------------------------------------------------------


def suite_oracle(run):
    tower = run.tower
    try:
        table = run.table
    except TableNotOrthogonal as exc:
        yield CheckResult("character-table-orthogonality", False, detail=str(exc))
        raise
    yield CheckResult(
        "character-table-orthogonality",
        True,
        detail=f"{len(table.classes)} classes, group order "
        f"{gl2_order(tower.q)}",
    )
    result = run.oracle
    yield CheckResult(
        "oracle-matches-geometry",
        not mismatched_classes(run),
        detail=f"convention={PAIRING}, rank {result.rank}"
        f"/{result.unknown_count}",
    )
    yield CheckResult(
        "oracle-full-rank",
        result.rank == result.unknown_count,
        detail="rank deficiency is reported, never masked",
    )
    u_p, u_c, rank, n_unknowns = calibrate_generic_units(result)
    full = rank == n_unknowns
    expect_p = tower.ring.from_int(tower.q)
    expect_c = tower.ring.from_int(-tower.q)
    ok = (u_c == expect_c if full else True) and (
        u_p == expect_p if (full and u_p is not None) else True
    )
    yield CheckResult(
        "generic-gamma-calibration",
        ok,
        value=[u_p, u_c],
        detail=f"rank {rank}/{n_unknowns}"
        + ("" if full else " (scales not pinned at this rank)"),
    )


# -- driver -------------------------------------------------------------------------


class Suite(NamedTuple):
    """A suite's `verify explain` statement, its checks, and the facts
    validate_config reads to refuse a config the suite cannot run."""

    statement: str
    checks: object  # generator function: run -> yields CheckResult
    shape: tuple = None  # the one shape it runs at
    q_max: int = None
    min_tower: int = 1  # smallest caps.tower
    twisted: bool = False  # reads twisted levels, up to the largest Weyl order
    single_factor: bool = False
    n_max: int = None  # largest n = max(shape)
    translates_max: int = None  # largest q^(n-1)


# q_max: gl2-main and gl3-top sweep every coset, and gl2-main, which builds
# the GL(2) table and oracle, keeps to the oracle's q.  At q = 13, oracle std
# takes 6.6 s and gl2-main sym2 3.4 s; at q = 11, 1.8 s and 1.7 s (2-vCPU
# machine, one run each).  The table's orthogonality check grows fastest
# above that: 7.8 s of the 10.2 s oracle run at q = 16.
#
# translates_max: the mirabolic suite translates each of up to 300 pool
# points and 60 samples by all q^(n-1) vectors v.  Single runs at caps.tower 1
# (2-vCPU x86-64, Python 3.11): q^(n-1) = 64 at GL(7), q=2, 0.5 s; 128 at
# GL(8), q=2, 0.94 s; 256 at GL(9), q=2, 1.8 s; 343 at GL(4), q=7, 0.63 s.
#
# n_max: the induction suite enumerates full flags.
SUITES = {
    "arith": Suite(
        "Gauss sums satisfy g(chi) g(conj chi) = chi(-1) q^m exactly and have "
        "complex magnitude q^(m/2); the Hasse-Davenport relation lifts them "
        "along norm maps; tower embeddings and generators are compatible.",
        suite_arith,
    ),
    "torus": Suite(
        "Hypergeometric traces agree with Kloosterman sums on one-dimensional "
        "tori; block permutations of repeated weights act on twisted local "
        "sums by the sign character and normalized twisted traces are "
        "lift-independent; Mellin transforms factor into Gauss sums along "
        "twist orbits after one unit calibration; convolution with any torus "
        "character is a scalar multiple of it; the sign-averaged determinant-"
        "fiber sum vanishes for every determinant value.",
        suite_torus, twisted=True,
    ),
    "mirabolic": Suite(
        "Left translation by the first-row unipotent group preserves the "
        "cyclic-span stratification; companion normalization and the "
        "triangular coordinate solve are exact bijections; the coset "
        "characteristic-polynomial shift formula matches direct computation, "
        "is linear, and has rank m-1 on the stratum of index m; orbit counts "
        "per characteristic polynomial match the stratification recursion; "
        "maximal-parabolic orbits are classified by the rank of the "
        "lower-left block.",
        suite_mirabolic, single_factor=True, translates_max=343,
    ),
    "induction": Suite(
        "The flag-sum trace of the induced object equals the sum over "
        "twist-fixed orderings of the eigenvalue multiset; the gamma trace is "
        "conjugation invariant and, for the standard weights, a frozen unit "
        "times the additive character of the trace on the whole regular "
        "locus; restriction to the diagonal Levi is a frozen unit times the "
        "torus trace.",
        suite_induction, twisted=True, single_factor=True, n_max=FLAG_N_MAX,
    ),
    "gl2-main": Suite(
        "For every g outside the Borel of GL(2, F_q) the sum of the gamma "
        "trace over the unipotent coset vanishes exactly, computed both "
        "geometrically and through the character-table expansion, with "
        "pointwise agreement of the two routes on regular classes; replacing "
        "the sign-twisted Weyl descent by the untwisted one breaks the "
        "vanishing.",
        vanishing_sweep_gl2, shape=(2,), q_max=13, min_tower=2,
    ),
    "gl3-top": Suite(
        "For top-stratum points of GL(3, F_q) outside the mirabolic subgroup "
        "the unipotent coset sum of the gamma trace vanishes exactly and "
        "agrees with its determinant-fiber recomputation; the sign-averaged "
        "determinant-fiber sums on the torus vanish for every determinant "
        "value.",
        vanishing_sweep_gl3_top, shape=(3,), q_max=3, twisted=True,
    ),
    "oracle": Suite(
        "The GL(2, F_q) character table is exactly orthogonal; the gamma "
        "trace expands over irreducible characters with generic coefficients "
        "given by torus Mellin transforms scaled by q times the twist sign, "
        "and the overdetermined regular-class system closes exactly.",
        suite_oracle, shape=(2,), q_max=13, min_tower=2,
    ),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(cfg_raw, suites=None, include_timings=False):
    """Run the configured suites; returns a list of SuiteReport."""
    cfg = validate_config(cfg_raw, suites)
    run = Run(cfg)
    reports = []
    for name in cfg["suites"]:
        params = {
            "p": cfg["p"],
            "f": cfg["f"],
            "shape": cfg["shape"],
            "rep": cfg["rep"],
            "caps": cfg["caps"],
        }
        report = SuiteReport(suite=name, params=params, seed=cfg["seed"])
        started = time.perf_counter()
        try:
            for check in SUITES[name].checks(run):
                report.checks.append(check)
        except GammasumsError as exc:
            report.checks.append(
                CheckResult(
                    "suite-error", False, detail=f"{type(exc).__name__}: {exc}"
                )
            )
        except Exception as exc:
            # a fault in the program, not a refused input: report it with the
            # place it was raised as a failed check, and run the next suite
            where = traceback.extract_tb(exc.__traceback__)[-1]
            place = f"{os.path.basename(where.filename)}:{where.lineno}"
            detail = f"{type(exc).__name__}: {exc} ({place} in {where.name})"
            report.checks = [CheckResult("internal-error", False, detail=detail)]
        if include_timings:
            report.params = dict(report.params)
            report.params["elapsed_s"] = round(time.perf_counter() - started, 3)
        reports.append(report)
    return reports
