"""gammasums benchmark: time to a verified report.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs every config of the workload through harness.run_suite, one
suite at a time, in one process on one thread; the next config starts when
the previous one finishes (a closed loop).  Passes repeat until the next one
would end well past --seconds.  Every check of every pass must pass, and each
config's harness.emit() bytes must hash to the SHA-256 recorded in
digests.json (at seed 1789) or, at any other seed, to the hash of the first
pass.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
environment, the samples behind each median and the report digests.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass,
then traced passes, and reports the per-layer metrics of layers.py.
See README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import Tracer, median_metrics, metric_unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

REFERENCE_SEED = 1789
# These suites sweep every class and coset, so the seed only changes the
# "seed" field of their reports.
SEED_IGNORED_BY = ("gl2-main", "oracle")
SETUP_PROBES = 7
END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def config(p, f, shape, rep, suites, tower):
    return {"p": p, "f": f, "shape": shape, "rep": rep, "suites": suites,
            "caps": {"tower": tower}}


# Why each workload exists, and what it should show, is in README.md.
WORKLOADS = {
    "gl2-oracle": [
        config(7, 1, [2], "sym2", ["gl2-main"], 2),
        config(5, 1, [2], "std", ["gl2-main", "oracle"], 2),
        config(2, 2, [2], "std*det^1", ["gl2-main", "oracle"], 2),
    ],
    "gln-strata": [
        config(2, 2, [4], "std", ["mirabolic"], 1),
        config(7, 1, [2], "std", ["induction"], 2),
        config(3, 1, [3], "std", ["induction", "gl3-top"], 3),
    ],
    "torus-mellin": [
        config(7, 1, [2], "sym2", ["torus"], 2),
        config(2, 2, [3], "std", ["arith", "torus"], 3),
        config(5, 1, [2], "std", ["torus"], 3),
    ],
}


def import_package():
    """Import gammasums from this checkout's src, never from elsewhere."""
    if not (SRC / "gammasums" / "__init__.py").is_file():
        raise SystemExit(f"error: no gammasums package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gammasums

    if Path(gammasums.__file__).resolve().parent != SRC / "gammasums":
        raise SystemExit(f"error: imported gammasums from {gammasums.__file__}")
    return gammasums


def load_digests():
    with open(BENCH_DIR / "digests.json") as fh:
        return json.load(fh)["digests"]


def setup_times(towers):
    """Seconds to import gammasums and build each tower, in fresh processes.

    The first probe is discarded: it may compile the package's bytecode.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
           json.dumps(towers)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_pass(harness, configs, seed):
    """One closed-loop pass: timings, report digests and check counts."""
    suite_s = {}
    cpu_s = 0.0
    digests = []
    errors = []
    attempted = failed = 0
    for raw in configs:
        cfg = dict(raw, seed=seed)
        reports = []
        for suite in cfg["suites"]:
            started, cpu_started = time.perf_counter(), time.process_time()
            try:
                reports += harness.run_suite(cfg, suites=[suite])
            except Exception as exc:  # a crashed suite is one failed check
                errors.append(f"{suite} {raw}: {type(exc).__name__}: {exc}")
                attempted += 1
                failed += 1
            suite_s[suite] = suite_s.get(suite, 0.0) + time.perf_counter() - started
            cpu_s += time.process_time() - cpu_started
            # free this call's reference cycles now, as the end of a `verify
            # run` process would: peak RSS is then one call's peak, and no
            # timed call pays for collecting an earlier call's garbage
            gc.collect()
        for report in reports:
            if report.checks:
                attempted += len(report.checks)
                failed += sum(not c.passed for c in report.checks)
            else:  # a suite that made no checks has not verified anything
                attempted += 1
                failed += 1
        digests.append(hashlib.sha256(harness.emit(reports).encode()).hexdigest())
    return {"verify_s": sum(suite_s.values()), "verify_cpu_s": cpu_s,
            "suite_s": suite_s, "digests": digests, "errors": errors,
            "attempted": attempted, "failed": failed}


def summary(values):
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values),
           "min": values[0], "max": values[-1]}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure(package, configs, seed, seconds, trace, reference=None):
    """Run passes for about `seconds` and return (result, detail).

    reference: the expected per-config report digests; when None the first
    pass's digests are the reference, so later passes must repeat them.
    """
    harness = package.harness
    towers = sorted({(c["p"], c["f"], c["caps"]["tower"]) for c in configs})
    setup = [] if trace else setup_times(towers)
    plain, traced, layer_samples = [], [], []
    tracer = Tracer(package) if trace else None
    started = time.perf_counter()
    try:
        while True:
            if tracer is not None and plain:
                if not traced:
                    tracer.install()
                tracer.reset()
                traced.append(run_pass(harness, configs, seed))
                layer_samples.append(tracer.layer_metrics())
                spans = [[k, round(t - started, 6), round(d, 6), parent, label]
                         for k, t, d, parent, label in tracer.spans]
                last = traced[-1]["verify_s"]
            else:
                plain.append(run_pass(harness, configs, seed))
                last = plain[-1]["verify_s"]
            elapsed = time.perf_counter() - started
            if elapsed + last / 2 >= seconds and (tracer is None or traced):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    passes = plain + traced
    reference_kind = "first pass" if reference is None else "recorded"
    if reference is None:
        reference = passes[0]["digests"]
    mismatches = sum(d != r for p in passes for d, r in zip(p["digests"], reference))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + mismatches
    verify = summary([p["verify_s"] for p in plain])
    suite_s = {s: summary([p["suite_s"][s] for p in plain])
               for s in harness.SUITE_NAMES if s in plain[0]["suite_s"]}
    if trace:
        metrics = median_metrics(layer_samples)
        for s in harness.SUITE_NAMES:
            metrics[f"suite_s.{s}"] = suite_s[s]["median"] if s in suite_s else 0.0
        metrics["trace_overhead_ratio"] = (
            statistics.median(p["verify_s"] for p in traced) / verify["median"])
    else:
        metrics = {
            "verify_s": verify["median"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    detail = {
        "seed": seed,
        "seed_ignored_by": list(SEED_IGNORED_BY),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "verify_s": verify,
        # CPU time of the same calls: wall time minus waiting for the processor
        "verify_cpu_s": summary([p["verify_cpu_s"] for p in plain]),
        "suite_s": suite_s,
        "towers": towers,
        "checks_failed_ratio": {"value": failed / attempted, "failed_checks":
                                failed - mismatches, "digest_mismatches": mismatches,
                                "checks_attempted": attempted},
        "errors": [e for p in passes for e in p["errors"]],
        "digests": passes[0]["digests"],
        "digest_reference": reference_kind,
    }
    if setup:
        detail["setup_s"] = summary(setup)
    if trace:
        detail["traced_verify_s"] = summary([p["verify_s"] for p in traced])
        # [key, start s, seconds, index of the enclosing span, label]
        detail["spans_of_last_traced_pass"] = spans
    return result, detail


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    return "s" if metric.startswith("suite_s.") else metric_unit(metric)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = import_package()
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = load_digests()[args.workload]
    result, detail = measure(package, WORKLOADS[args.workload], args.seed,
                             args.seconds, args.trace, reference)
    detail = {"workload": args.workload, "environment": environment(), **detail}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
