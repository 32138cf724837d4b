import itertools
from collections import Counter
from math import lcm, prod

import pytest

from gammasums import harness, torus
from gammasums.cyclotomic import ZetaSum
from gammasums.errors import (
    NotConstant,
    NotSigmaPositive,
    NotSurjective,
    NotWStable,
    TowerTooShallow,
)
from gammasums.fields import MultCharacter, build_tower, kloosterman, psi_sum
from gammasums.torus import (
    TorusCharacter,
    TorusTraces,
    enumerate_twisted_points,
    expand_twisted_point,
    largest_weyl_order,
    perm_compose,
    perm_cycles,
    perm_identity,
    perm_sign,
    rational_character,
    torus_characters,
    trivial_character,
    twisted_point,
    validate_weight_system,
    weyl_elements,
    weyl_lift,
)


def test_validate_named_systems():
    std = validate_weight_system([2], "std")
    assert std.r == 2 and std.d == 2
    assert set(v for v, _ in std.weights) == {(1, 0), (0, 1)}
    sym2 = validate_weight_system([2], "sym2")
    assert sym2.r == 3
    assert set(v for v, _ in sym2.weights) == {(2, 0), (1, 1), (0, 2)}
    twisted = validate_weight_system([2], "std*det^1")
    assert set(v for v, _ in twisted.weights) == {(2, 1), (1, 2)}
    std3 = validate_weight_system([3], "std")
    assert std3.r == 3 and std3.d == 3


def test_validate_rejections():
    with pytest.raises(NotSurjective, match="factors through det"):
        validate_weight_system([2], [[(1, 1), 1]])
    with pytest.raises(NotSigmaPositive):
        validate_weight_system([2], [[(1, -2), 1], [(-2, 1), 1]])
    with pytest.raises(NotWStable):
        validate_weight_system([2], [[(1, 0), 1], [(0, 2), 1]])


def test_weyl_lift_examples():
    std = validate_weight_system([2], "std")
    xi, sr, sw = weyl_lift(std, (0, 1))
    assert xi == (0, 1) and sr * sw == 1
    xi, sr, sw = weyl_lift(std, (1, 0))
    assert xi == (1, 0) and sr == -1 and sw == -1 and sr * sw == 1
    sym2 = validate_weight_system([2], "sym2")
    xi, sr, sw = weyl_lift(sym2, (1, 0))
    # slots ordered (0,2), (1,1), (2,0): the outer two swap, middle fixed
    assert xi == (2, 1, 0) and sr * sw == 1


def test_hyper_trace_std_single_fiber_point(tower_f3):
    std = validate_weight_system([2], "std")
    traces = TorusTraces(tower_f3, std)
    lv = tower_f3.level(1)
    for a in lv.units():
        for b in lv.units():
            assert traces.hyper_trace((a, b)) == tower_f3.psi(lv.add(a, b))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hyper_trace_equals_kloosterman(tower_f3, r):
    ws = validate_weight_system([1], [[(1,), r]])
    traces = TorusTraces(tower_f3, ws)
    for t in tower_f3.level(1).units():
        assert traces.hyper_trace((t,)) == kloosterman(tower_f3, t, r)


def test_hyper_trace_sym2_frozen_value(tower_f3):
    # fiber over (1,1) in (F_3^x)^3; value computed by direct enumeration
    # and frozen: -zeta_3
    sym2 = validate_weight_system([2], "sym2")
    traces = TorusTraces(tower_f3, sym2)
    lv = tower_f3.level(1)
    brute = tower_f3.ring.zero
    for xs in itertools.product(lv.units(), repeat=3):
        coords = [1, 1]
        s = 0
        for x, vec in zip(xs, sym2.slots):
            s = lv.add(s, x)
            for j in range(2):
                if vec[j]:
                    coords[j] = lv.mul(coords[j], lv.power(x, vec[j]))
        if coords == [1, 1]:
            brute = brute + tower_f3.psi(s)
    value = traces.hyper_trace((1, 1))
    assert value == -brute
    n = tower_f3.ring.conductor
    assert value == -tower_f3.ring.zeta_power(n // 3)


def test_identity_twist_reduces_to_hyper(tower_f3):
    for rep in ("std", "sym2"):
        ws = validate_weight_system([2], rep)
        traces = TorusTraces(tower_f3, ws)
        lv = tower_f3.level(1)
        for t in itertools.product(lv.units(), repeat=2):
            pt = twisted_point(tower_f3, (0, 1), dict(enumerate(t)))
            assert traces.twisted_stalk_trace(pt) == traces.hyper_trace(t)


def test_twisted_point_f9_example(tower_f3):
    # GL(2) std, swap twist, point (alpha, alpha^3): the single fiber point
    # contributes psi of the relative trace of alpha
    std = validate_weight_system([2], "std")
    traces = TorusTraces(tower_f3, std)
    l2 = tower_f3.level(2)
    for alpha in l2.units():
        pt = twisted_point(tower_f3, (1, 0), {0: alpha})
        want = tower_f3.psi(tower_f3.trace(alpha, 2))
        assert traces.twisted_stalk_trace(pt) == want


def test_sign_action_on_crossed_system(tower_f3_deep):
    # arity-3 crossed system on G_m: block permutations act by sign
    ws = validate_weight_system([1], [[(1,), 3]])
    traces = TorusTraces(tower_f3_deep, ws)
    for t in tower_f3_deep.level(1).units():
        pt = twisted_point(tower_f3_deep, (0,), {0: t})
        base = traces.hyper_trace((t,))
        for xi in itertools.permutations(range(3)):
            got = traces.twisted_local_sum(tuple(xi), pt)
            want = base if perm_sign(tuple(xi)) == 1 else -base
            assert got == want, xi


def test_lift_independence_crossed(tower_f3_deep):
    ws = validate_weight_system([1], [[(1,), 3]])
    traces = TorusTraces(tower_f3_deep, ws)
    w = (0,)
    sig = ws.sigma_block_elements()
    assert len(sig) == 6
    for t in tower_f3_deep.level(1).units():
        pt = twisted_point(tower_f3_deep, w, {0: t})
        ref = traces.twisted_stalk_trace(pt)
        for tau in sig[:4]:
            assert traces.twisted_stalk_trace(pt, xi=tau) == ref


def test_tower_too_shallow(tower_f3):
    ws = validate_weight_system([1], [[(1,), 3]])
    traces = TorusTraces(tower_f3, ws)
    pt = twisted_point(tower_f3, (0,), {0: 1})
    with pytest.raises(TowerTooShallow):
        traces.twisted_local_sum((1, 2, 0), pt)


def test_mellin_gamma_gl1(tower_f3):
    ws = validate_weight_system([1], "std")
    traces = TorusTraces(tower_f3, ws)
    theta = trivial_character(tower_f3, (0,))
    assert traces.mellin_gamma((0,), theta) == tower_f3.ring.one


@pytest.mark.parametrize("rep", ["std", "sym2", "std*det^1"])
def test_mellin_factorization(tower_f3, rep):
    ws = validate_weight_system([2], rep)
    traces = TorusTraces(tower_f3, ws)
    for w in ws.weyl():
        for theta in torus_characters(tower_f3, w):
            assert traces.mellin_gamma(w, theta) == traces.mellin_reference(
                w, theta
            )
    unit = traces.mellin_unit()
    assert unit == tower_f3.ring.from_int((-1) ** ws.r)


def test_kummer_convolution(tower_f3):
    g1 = validate_weight_system([1], "std")
    traces1 = TorusTraces(tower_f3, g1)
    assert traces1.kummer_convolution_scalar(
        trivial_character(tower_f3, (0,))
    ) == tower_f3.ring.one
    std = validate_weight_system([2], "std")
    traces2 = TorusTraces(tower_f3, std)
    assert traces2.kummer_convolution_scalar(
        trivial_character(tower_f3, (0, 1))
    ) == tower_f3.ring.one
    for exps in itertools.product(range(2), repeat=2):
        traces2.kummer_convolution_scalar(rational_character(tower_f3, exps))


def test_kummer_check_catches_a_corrupted_trace(tower_f3):
    traces = TorusTraces(tower_f3, validate_weight_system([2], "std"))
    assert harness.kummer_failures(traces) == []
    clean = traces.hyper_trace

    def corrupted(t):
        value = clean(t)
        return value + 1 if tuple(t) == (1, 2) else value

    traces.hyper_trace = corrupted
    # the convolution is still a multiple of each character: only the
    # comparison with the Mellin reference sees the change
    for exps in itertools.product(range(2), repeat=2):
        traces.kummer_convolution_scalar(rational_character(tower_f3, exps))
    assert harness.kummer_failures(traces) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sigma_fiber_vanishing(tower_f3, tower_f5):
    for tower in (tower_f3, tower_f5):
        for rep in ("std", "sym2"):
            ws = validate_weight_system([2], rep)
            traces = TorusTraces(tower, ws)
            for z in tower.level(1).units():
                assert traces.sigma_fiber_sum(0, z).is_zero(), (rep, z)


def test_twisted_point_enumeration_count(tower_f3):
    # |T_w(F_q)| = prod over cycles of (q^len - 1)
    pts_id = list(enumerate_twisted_points(tower_f3, (0, 1)))
    pts_sw = list(enumerate_twisted_points(tower_f3, (1, 0)))
    assert len(pts_id) == 4 and len(pts_sw) == 8
    for pt in pts_sw:
        coords = expand_twisted_point(tower_f3, pt, 2)
        l2 = tower_f3.level(2)
        assert coords[1] == l2.frobenius(coords[0])


TWISTS = [(0,), (0, 1), (1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0)]


@pytest.mark.parametrize("w", TWISTS)
def test_twisted_points_hold_one_unit_per_cycle(tower_f3_deep, w):
    tower = tower_f3_deep
    cycles = perm_cycles(w)
    work = lcm(*map(len, cycles))
    lv = tower.level(work)
    pts = list(enumerate_twisted_points(tower, w))
    assert len(set(pts)) == len(pts) == prod(tower.q ** len(c) - 1 for c in cycles)
    for pt in pts:
        assert len(pt.values) == len(cycles)
        for cyc, unit in zip(cycles, pt.values):
            assert unit in set(tower.level(len(cyc)).units())
        by_rep = {c[0]: u for c, u in zip(cycles, pt.values)}
        assert twisted_point(tower, w, by_rep) == pt
        # t_{w(i)} = t_i^q at the working level
        coords = expand_twisted_point(tower, pt, work)
        assert all(coords[w[i]] == lv.frobenius(coords[i]) for i in range(len(w)))


@pytest.mark.parametrize("w", TWISTS)
def test_character_exponent_is_the_product_over_cycles(tower_f3_deep, w):
    # theta(pt) is the product over the w-cycles c, with unit u and exponent e,
    # of the level-len(c) character of exponent e at u
    tower = tower_f3_deep
    cycles = perm_cycles(w)
    pts = list(enumerate_twisted_points(tower, w))
    for theta in torus_characters(tower, w):
        assert len(theta.exponents) == len(cycles)
        for pt in pts:
            want = tower.ring.one
            for cyc, e, u in zip(cycles, theta.exponents, pt.values):
                want = want * MultCharacter(tower, len(cyc), e).value(u)
            assert tower.ring.zeta_power(theta.exponent(tower, pt)) == want


def test_invalid_twisted_point(tower_f3):
    from gammasums.errors import InvalidTwistedPoint

    with pytest.raises(InvalidTwistedPoint):
        twisted_point(tower_f3, (1, 0), {0: 0})
    with pytest.raises(InvalidTwistedPoint):
        twisted_point(tower_f3, (0, 1), {0: 1})  # missing second cycle
    with pytest.raises(InvalidTwistedPoint):
        twisted_point(tower_f3, (0, 1), {0: 5, 1: 1})  # 5 is not in F_3


def test_stalk_trace_rejects_non_lift(tower_f3):
    std = validate_weight_system([2], "std")
    traces = TorusTraces(tower_f3, std)
    pt = twisted_point(tower_f3, (0, 1), {0: 1, 1: 2})
    with pytest.raises(ValueError):
        traces.twisted_stalk_trace(pt, xi=(1, 0))


def compositions(total):
    """Every shape (ordered list of positive parts) summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_largest_weyl_order_is_the_walked_max():
    for total in range(1, 7):
        for shape in compositions(total):
            walked = max(
                lcm(*map(len, perm_cycles(w))) for w in weyl_elements(shape)
            )
            assert largest_weyl_order(shape) == walked, shape
    assert largest_weyl_order([5]) == largest_weyl_order([2, 3]) == 6
    assert largest_weyl_order([3, 3]) == 6 and largest_weyl_order([10]) == 30


def reference_local_counts(traces, xi, pt):
    """The fiber of pt under the fixed points of xi o F, point by point: every
    combination of one unit per xi-cycle, kept when its weight image is pt.
    Returns the counts of the coordinate sums in F_q."""
    tower, ws = traces.tower, traces.ws
    xi_cycles = perm_cycles(xi)
    w_cycles = perm_cycles(pt.w)
    work = lcm(*(len(c) for c in xi_cycles + w_cycles))
    if work > tower.max_level:
        raise TowerTooShallow(f"needs level {work}, tower bound is {tower.max_level}")
    lv = tower.level(work)
    order = lv.size - 1
    q = tower.q
    target = expand_twisted_point(tower, pt, work)
    target_dlog = [lv.dlog[v] for v in target]
    d, r = ws.d, ws.r
    cyc_data = []
    for cyc in xi_cycles:
        shifts = [pow(q, k, order) for k in range(len(cyc))]
        cyc_data.append((cyc, shifts))
    unit_dlogs = []
    for cyc, _ in cyc_data:
        lvl = tower.level(len(cyc))
        step = order // (lvl.size - 1)
        unit_dlogs.append([lvl.dlog[u] * step for u in lvl.units()])
    counts = {}
    for combo in itertools.product(*unit_dlogs):
        slot_dlog = [0] * r
        for (cyc, shifts), base in zip(cyc_data, combo):
            for k, slot in enumerate(cyc):
                slot_dlog[slot] = (base * shifts[k]) % order
        if any(
            (sum(ws.slots[s][j] * slot_dlog[s] for s in range(r)) - target_dlog[j])
            % order
            for j in range(d)
        ):
            continue
        s_elt = 0
        for s in range(r):
            s_elt = lv.add(s_elt, lv.exp[slot_dlog[s]])
        s1 = tower.unembed(s_elt, work, 1)
        counts[s1] = counts.get(s1, 0) + 1
    return counts


LOCAL_SUM_SYSTEMS = [
    pytest.param("tower_f3", [2], "std", id="std-q3"),
    pytest.param("tower_f3", [2], "sym2", id="sym2-q3"),
    pytest.param("tower_f5", [2], "std", id="std-q5"),
    pytest.param("tower_f5", [2], "sym2", id="sym2-q5"),
    pytest.param("tower_f3_deep", [1], [[(1,), 2]], id="gm-crossed-2"),
    pytest.param("tower_f3_deep", [1], [[(1,), 3]], id="gm-crossed-3"),
    # squares only: half the buckets are empty
    pytest.param("tower_f5", [1], [[(2,), 2]], id="gm-squares-2"),
    # a lift of the swap with a 4-cycle needs level 4
    pytest.param("tower_f3", [2], [[(1, 0), 2], [(0, 1), 2]], id="std-doubled"),
]


@pytest.mark.parametrize("tower_name,shape,rep", LOCAL_SUM_SYSTEMS)
def test_twisted_local_sum_is_the_per_point_loop(request, tower_name, shape, rep):
    """Every canonical lift and every composition with a block permutation,
    at every point of every twist; TowerTooShallow for the same (xi, w)."""
    tower = request.getfixturevalue(tower_name)
    ws = validate_weight_system(shape, rep)
    traces = TorusTraces(tower, ws)
    sig = ws.sigma_block_elements()
    empty = shallow = hyper = 0
    for w in ws.weyl():
        xi0 = weyl_lift(ws, w)[0]
        for xi in {xi0, *(perm_compose(xi0, tau) for tau in sig)}:
            for pt in enumerate_twisted_points(tower, w):
                try:
                    counts = reference_local_counts(traces, xi, pt)
                except TowerTooShallow:
                    with pytest.raises(TowerTooShallow):
                        traces.twisted_local_sum(xi, pt)
                    shallow += 1
                    continue
                empty += not counts
                want = psi_sum(tower, counts, ws.r)
                assert traces.twisted_local_sum(xi, pt) == want, (xi, pt)
                if xi == xi0 and w == perm_identity(ws.d):
                    t = expand_twisted_point(tower, pt, 1)
                    assert traces.hyper_trace(t) == want, t
                    hyper += 1
    assert hyper == (tower.q - 1) ** ws.d
    if rep == [[(1, 0), 2], [(0, 1), 2]]:
        assert shallow
    if rep == [[(2,), 2]]:
        assert empty


@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_hyper_and_identity_twist_share_one_walk(monkeypatch, tower_f5, rep):
    """hyper_trace at every split-torus point, then the stalk trace at every
    identity-twist point: the fixed points of the identity are walked once."""
    walks = []
    real = TorusTraces._fixed_point_buckets

    def counted(self, xi, work):
        if (xi, work) not in self._buckets:
            walks.append((xi, work))
        return real(self, xi, work)

    monkeypatch.setattr(TorusTraces, "_fixed_point_buckets", counted)
    ws = validate_weight_system([2], rep)
    traces = TorusTraces(tower_f5, ws)
    one_walk = [(perm_identity(ws.r), 1)]
    for t in itertools.product(tower_f5.level(1).units(), repeat=2):
        traces.hyper_trace(t)
    assert walks == one_walk
    for pt in enumerate_twisted_points(tower_f5, perm_identity(2)):
        traces.twisted_stalk_trace(pt)
    assert walks == one_walk


def test_kummer_reaches_not_constant(tower_f3):
    """A character whose exponent is off by one at a single point is not a
    homomorphism, and the convolution against it is not a multiple of it."""
    traces = TorusTraces(tower_f3, validate_weight_system([2], "std"))
    chi = rational_character(tower_f3, (1, 0))
    bad = twisted_point(tower_f3, (0, 1), {0: 2, 1: 1})

    class OffByOne(TorusCharacter):
        def exponent(self, tower, pt):
            return super().exponent(tower, pt) + (pt == bad)

    skewed = OffByOne(chi.w, chi.exponents)
    traces.kummer_convolution_scalar(chi)
    with pytest.raises(NotConstant):
        traces.kummer_convolution_scalar(skewed)


def reference_mellin_gamma(traces, w, theta):
    """The Mellin transform point by point, one stalk trace per point."""
    tower = traces.tower
    acc = tower.ring.accumulator()
    for pt in enumerate_twisted_points(tower, w):
        acc.add_shifted(traces.twisted_stalk_trace(pt), -theta.exponent(tower, pt))
    return acc.value()


@pytest.mark.parametrize(
    "p,f,shape,rep", [(3, 1, [2], "std"), (3, 1, [2], "sym2"), (2, 2, [3], "std")]
)
def test_mellin_gamma_is_the_per_point_loop(p, f, shape, rep):
    tower = build_tower(p, f, shape[0])
    traces = TorusTraces(tower, validate_weight_system(shape, rep))
    for w in traces.ws.weyl():
        for theta in torus_characters(tower, w):
            want = reference_mellin_gamma(traces, w, theta)
            assert traces.mellin_gamma(w, theta) == want, (w, theta)


def reference_kummer_scalar(traces, chi):
    """(t_psi * chi)(x) / chi(x) at every split-torus point x, each sum
    reduced on its own; NotConstant unless all of them are equal."""
    tower, d = traces.tower, traces.ws.d
    lv = tower.level(1)
    units = list(itertools.product(lv.units(), repeat=d))

    def exponent(t):
        pt = twisted_point(tower, perm_identity(d), dict(enumerate(t)))
        return chi.exponent(tower, pt)

    ratios = set()
    for x in units:
        acc = tower.ring.accumulator()
        for s in units:
            x_over_s = tuple(lv.mul(lv.inv(sc), xc) for sc, xc in zip(s, x))
            acc.add_shifted(traces.hyper_trace(s), exponent(x_over_s) - exponent(x))
        ratios.add(acc.value())
    if len(ratios) != 1:
        raise NotConstant("reference convolution is not a character multiple")
    return ratios.pop()


@pytest.mark.parametrize("tower_name", ["tower_f3", "tower_f5"])
@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_kummer_scalar_is_the_reduce_every_point_reference(request, tower_name, rep):
    tower = request.getfixturevalue(tower_name)
    traces = TorusTraces(tower, validate_weight_system([2], rep))
    for exps in itertools.product(range(tower.q - 1), repeat=2):
        chi = rational_character(tower, exps)
        assert traces.kummer_convolution_scalar(chi) == reference_kummer_scalar(
            traces, chi
        ), exps
    # a character off by one at a single point is refused by both routes
    bad = twisted_point(tower, (0, 1), {0: 2, 1: 1})
    chi = rational_character(tower, (1, 0))

    class OffByOne(TorusCharacter):
        def exponent(self, tower, pt):
            return super().exponent(tower, pt) + (pt == bad)

    skewed = OffByOne(chi.w, chi.exponents)
    with pytest.raises(NotConstant):
        traces.kummer_convolution_scalar(skewed)
    with pytest.raises(NotConstant):
        reference_kummer_scalar(traces, skewed)


@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_clean_kummer_run_reduces_once_per_character(monkeypatch, tower_f5, rep):
    traces = TorusTraces(tower_f5, validate_weight_system([2], rep))
    # the traces are psi-sums, each reduced once on first use
    for t in itertools.product(tower_f5.level(1).units(), repeat=2):
        traces.hyper_trace(t)
    reductions = []
    real = ZetaSum.value

    def counted(self, den=1):
        reductions.append(den)
        return real(self, den)

    monkeypatch.setattr(ZetaSum, "value", counted)
    for exps in itertools.product(range(tower_f5.q - 1), repeat=2):
        reductions.clear()
        traces.kummer_convolution_scalar(rational_character(tower_f5, exps))
        assert len(reductions) == 1, exps


@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_mellin_check_takes_each_gauss_sum_once(monkeypatch, tower_f3, rep):
    calls = Counter()
    real = torus.gauss_sum

    def counted(chi):
        calls[chi.level, chi.exponent] += 1
        return real(chi)

    monkeypatch.setattr(torus, "gauss_sum", counted)
    traces = TorusTraces(tower_f3, validate_weight_system([2], rep))
    assert harness.mellin_failures(traces) == []
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_mellin_factorization_breaks_under_one_corrupted_twisted_trace(tower_f3, rep):
    """The twisted trace at one point of the swap twist, plus 1, before that
    twist's points are collected: every character of the swap twist fails."""
    ws = validate_weight_system([2], rep)
    assert harness.mellin_failures(TorusTraces(tower_f3, ws)) == []
    traces = TorusTraces(tower_f3, ws)
    swap = (1, 0)
    bad = next(enumerate_twisted_points(tower_f3, swap))
    clean = traces.twisted_local_sum

    def corrupted(xi, pt):
        value = clean(xi, pt)
        return value + 1 if pt == bad else value

    traces.twisted_local_sum = corrupted
    failures = harness.mellin_failures(traces)
    assert failures == [(swap, theta) for theta in torus_characters(tower_f3, swap)]
