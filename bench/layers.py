"""Per-layer tracing of gammasums from outside the package.

A Tracer replaces the public functions and methods of each layer module with
timing wrappers, in every gammasums module that binds them (the harness
imports names directly), and restores the originals on uninstall.  For each
wrapped key it records calls, total time and self time.  Total time counts
only the outermost entry into a key, so recursion and nested members of one
group (Level.sub calling Level.add) are not counted twice.  Self time is the
span minus the part covered by wrapped child calls; a layer's self time is
the sum over its keys.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import statistics
import sys
import time

LAYERS = ("cyclotomic", "fields", "matrices", "torus", "mirabolic", "induction", "gl2")

# Only these names are wrapped in the harness: its suite functions are reached
# through a private dispatch table, so everything else it runs is its self time.
HARNESS_NAMES = ("run_suite", "emit")

# CycNum arithmetic is reached through operators, so its dunders are wrapped.
CYCNUM_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__truediv__", "__eq__",
)

# Short keys for the names the metrics are read from; other wrapped names keep
# "<layer>.<qualname>".  Several names sharing a key form one group.
ALIASES = {
    "cyclotomic.CycNum.__mul__": "cyclotomic.mul",
    "cyclotomic.CycNum.__rmul__": "cyclotomic.mul",
    "cyclotomic.CycNum.__add__": "cyclotomic.add",
    "cyclotomic.CycNum.__radd__": "cyclotomic.add",
    "cyclotomic.CycNum.__eq__": "cyclotomic.eq",
    "cyclotomic.CycNum.conjugate": "cyclotomic.conjugate",
    "cyclotomic.CycNum.inverse": "cyclotomic.inverse",
    "cyclotomic.solve_linear_system": "cyclotomic.solve",
    "cyclotomic.CyclotomicRing.__init__": "cyclotomic.ring_build",
    "fields.build_tower": "fields.tower_build",
    "fields.FieldTower.psi": "fields.psi",
    **{f"fields.Level.{op}": "fields.level_op"
       for op in ("add", "neg", "sub", "mul", "inv", "power")},
    "torus.TorusTraces.hyper_trace": "torus.hyper_trace",
    "torus.TorusTraces.twisted_local_sum": "torus.twisted_local_sum",
    "torus.TorusTraces.kummer_convolution_scalar": "torus.kummer_convolution",
    **{f"torus.TorusTraces.{m}": "torus.mellin"
       for m in ("mellin_gamma", "mellin_reference", "mellin_unit",
                 "mellin_orbit_characters")},
    "torus.TorusTraces.sigma_fiber_sum": "torus.sigma_fiber",
    "induction.GammaTrace.value_for_charpoly": "induction.value_for_charpoly",
    "induction.GammaTrace.coset_vanishing_top": "induction.coset_vanishing_top",
    "gl2.build_gl2_table": "gl2.table_build",
    "gl2.Gl2Table.verify_orthogonality": "gl2.orthogonality",
    "gl2.calibrate_generic_units": "gl2.calibrate",
}


# Arguments that a memoizing method keys its table on, so that the share of
# repeated calls equals the hit rate of TorusTraces._hyper/_local and
# GammaTrace._by_char.
def _hyper_key(args, kwargs):
    return tuple(args[1] if len(args) > 1 else kwargs["t"])


def _local_key(args, kwargs):
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    pt = args[2] if len(args) > 2 else kwargs["pt"]
    return (tuple(xi), pt)


def _charpoly_key(args, kwargs):
    return tuple(args[1] if len(args) > 1 else kwargs["char_coeffs"])


# Keys whose individual calls are kept as spans, to show where the time of a
# few coarse steps (a table build, a solve) went within each suite call.
SPAN_KEYS = (
    "harness.run_suite", "harness.emit", "fields.tower_build",
    "cyclotomic.ring_build", "cyclotomic.solve", "gl2.table_build",
    "gl2.orthogonality", "gl2.oracle_phi", "gl2.calibrate",
)

MEMO_KEYS = {
    "torus.hyper_trace": _hyper_key,
    "torus.twisted_local_sum": _local_key,
    "induction.value_for_charpoly": _charpoly_key,
}

# Metrics per layer.  A name ending in _calls or _s reads the calls or total
# time of the key before the suffix; _repeat_ratio reads MEMO_KEYS; the rest
# are computed in Tracer.layer_metrics.
LAYER_METRICS = {
    "cyclotomic": (
        "self_s", "mul_calls", "mul_s", "mul_cyc_calls", "mul_one_term_share",
        "add_calls", "add_s", "conjugate_calls", "conjugate_s",
        "inverse_calls", "eq_calls", "solve_calls", "solve_s", "ring_build_s",
    ),
    "fields": (
        "self_s", "tower_build_calls", "tower_build_s", "level_op_calls",
        "level_op_s", "psi_calls", "psi_s", "gauss_sum_s", "kloosterman_s",
    ),
    "matrices": (
        "self_s", "charpoly_calls", "charpoly_s", "mat_mul_calls", "mat_mul_s",
        "pol_divmod_calls", "pol_divmod_s",
    ),
    "torus": (
        "self_s", "hyper_trace_calls", "hyper_trace_s",
        "hyper_trace_repeat_ratio", "twisted_local_sum_calls",
        "twisted_local_sum_s", "twisted_local_sum_repeat_ratio",
        "kummer_convolution_s", "mellin_s", "sigma_fiber_s",
    ),
    "mirabolic": (
        "self_s", "group_point_calls", "group_point_s", "coset_charpoly_calls",
        "coset_charpoly_s", "normalize_stratum_s", "orbit_census_s",
    ),
    "induction": (
        "self_s", "value_for_charpoly_calls", "value_for_charpoly_repeat_ratio",
        "value_for_charpoly_s", "induced_trace_s", "factor_monic_calls",
        "factor_monic_s", "coset_vanishing_top_s",
    ),
    "gl2": (
        "self_s", "table_builds", "table_build_s", "orthogonality_s",
        "oracle_phi_s", "calibrate_s", "class_of_calls", "class_of_s",
    ),
    "harness": ("self_s", "emit_s"),
}


def metric_unit(name):
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def _primitive(num):
    g = math.gcd(*num)
    if next(v for v in num if v) < 0:
        g = -g
    return tuple(v // g for v in num)


class MonomialTest:
    """Is a nonzero CycNum an integer multiple of a single root of unity?

    That is a one-term value in the group ring Z[Z/N], even where its
    power-basis vector has many nonzero coordinates.
    """

    def __init__(self):
        self._rows = {}  # ring -> (primitive zeta^k vectors, their sizes)

    def __call__(self, x):
        num = x.num
        nonzero = len(num) - num.count(0)
        if nonzero <= 1:
            return nonzero == 1
        known = self._rows.get(x.ring)
        if known is None:
            ring = x.ring
            rows = {_primitive(ring.zeta_power(k).num) for k in range(ring.conductor)}
            known = self._rows[ring] = (rows, {len(r) - r.count(0) for r in rows})
        return nonzero in known[1] and _primitive(num) in known[0]


def _span_label(key, args, kwargs):
    if key != "harness.run_suite":
        return None
    cfg = args[0]
    suites = ",".join(kwargs.get("suites") or cfg["suites"])
    return f"{suites} p={cfg['p']} f={cfg['f']} rep={cfg['rep']}"


class Stat:
    """Counters of one key.  For cyclotomic.mul, `pairs` counts CycNum x CycNum
    products and `hits` those with a one-term operand; for MEMO_KEYS, `hits`
    counts repeated arguments and `seen` maps id(instance) to (instance,
    arguments seen), holding the instance so that its id is not reused."""

    __slots__ = ("calls", "total", "self_time", "depth", "hits", "pairs", "seen")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.hits = 0
        self.pairs = 0
        self.seen = {}


class Tracer:
    """Wraps the layer functions of an imported gammasums package."""

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.spans = []  # [key, start, seconds, parent span index, label]
        self._stack = [[0.0]]
        self._open_spans = [None]
        self._saved = []
        self._monomial = MonomialTest()

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(owner, attribute, key) for every function to wrap."""
        pkg = self.package.__name__
        out = []
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, fn in vars(obj).items():
                        if not inspect.isfunction(fn) or not self._wants(obj, attr):
                            continue
                        out.append((obj, attr, f"{layer}.{obj.__name__}.{attr}"))
                elif (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and (
                    obj.__module__ == module.__name__
                ):
                    out.append((module, name, f"{layer}.{name}"))
        harness = sys.modules[f"{pkg}.harness"]
        out += [(harness, name, f"harness.{name}") for name in HARNESS_NAMES]
        return out

    @staticmethod
    def _wants(cls, attr):
        if cls.__name__ == "CycNum":
            return attr in CYCNUM_DUNDERS or not attr.startswith("_")
        if attr == "__init__":
            return not dataclasses.is_dataclass(cls)
        return not attr.startswith("_")

    def install(self):
        pkg = self.package.__name__
        modules = [m for n, m in sys.modules.items()
                   if n == pkg or n.startswith(pkg + ".")]
        for owner, attr, key in self._targets():
            key = ALIASES.get(key, key)
            stat = self.stats.setdefault(key, Stat())
            orig = vars(owner)[attr]
            wrapper = self._wrap(orig, stat, key)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, val in list(vars(module).items()):
                    if val is orig:
                        self._saved.append((module, name, orig))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, stat, key):
        perf = time.perf_counter
        stack = self._stack
        if key == "cyclotomic.mul":
            cycnum = self.package.CycNum
            monomial = self._monomial

            def hook(args, kwargs):
                a, b = args
                if isinstance(a, cycnum) and isinstance(b, cycnum):
                    stat.pairs += 1
                    if monomial(a) or monomial(b):
                        stat.hits += 1
        elif key in MEMO_KEYS:
            key_of = MEMO_KEYS[key]

            def hook(args, kwargs):
                seen = stat.seen.setdefault(id(args[0]), (args[0], set()))[1]
                k = key_of(args, kwargs)
                if k in seen:
                    stat.hits += 1
                else:
                    seen.add(k)
        else:
            hook = None

        spans, open_spans = self.spans, self._open_spans
        keep_spans = key in SPAN_KEYS

        def timed(call, *args, **kwargs):
            # the span of one call: time covered by wrapped children goes to
            # them, the rest to this key's self time
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            if keep_spans:
                span = [key, 0.0, 0.0, open_spans[-1], _span_label(key, args, kwargs)]
                open_spans.append(len(spans))
                spans.append(span)
            started = perf()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = perf() - started
                if keep_spans:
                    span[1], span[2] = started, elapsed
                    open_spans.pop()
                stack.pop()
                stack[-1][0] += elapsed
                stat.self_time += elapsed - frame[0]
                stat.depth -= 1
                if not stat.depth:
                    stat.total += elapsed

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not the consumer between steps
            def wrapper(*args, **kwargs):
                stat.calls += 1
                gen = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(next, gen)
                    except StopIteration:
                        return
                    yield item
        elif hook is not None:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                # the hook's own time is charged to no one
                started = perf()
                hook(args, kwargs)
                stack[-1][0] += perf() - started
                return timed(fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return timed(fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- results ----------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat.__init__()
        self.spans.clear()
        self._monomial.__init__()

    def layer_metrics(self):
        """Per-layer metrics of everything traced since the last reset."""
        out = {}
        for layer, names in LAYER_METRICS.items():
            for name in names:
                out[f"{layer}.{name}"] = self._metric(layer, name)
        return out

    def _metric(self, layer, name):
        if name == "self_s":
            return sum(s.self_time for k, s in self.stats.items()
                       if k.startswith(layer + "."))
        if name == "table_builds":
            return self.stats["gl2.table_build"].calls
        if name == "mul_cyc_calls":
            return self.stats["cyclotomic.mul"].pairs
        if name == "mul_one_term_share":
            mul = self.stats["cyclotomic.mul"]
            return mul.hits / mul.pairs if mul.pairs else 0.0
        if name.endswith("_repeat_ratio"):
            stat = self.stats[f"{layer}.{name[:-len('_repeat_ratio')]}"]
            return stat.hits / stat.calls if stat.calls else 0.0
        if name.endswith("_calls"):
            return self.stats[f"{layer}.{name[:-len('_calls')]}"].calls
        return self.stats[f"{layer}.{name[:-len('_s')]}"].total


def median_metrics(samples):
    """Median of each metric over a list of per-pass metric dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
