"""Fast self-test of the benchmark.

Usage, from the repository root:

    python3 bench/selftest.py

Runs the measurement on a tiny config set, once untraced and once traced, and
checks that the metrics emitted are exactly the end_to_end and per_layer
metrics listed in BENCHMARK.json, each with its listed unit, that every
end-to-end value is positive, that every check passed, and that the workload
names match.  Exits 0 when all of that holds, 1 otherwise.
"""

import json
import sys

import run

# every suite, at sizes that take about a second
TINY = [
    run.config(3, 1, [2], "std", ["arith", "torus", "induction", "gl2-main", "oracle"], 2),
    run.config(2, 1, [3], "std", ["mirabolic", "gl3-top"], 3),
]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    package = run.import_package()
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = run.measure(package, TINY, seed=1, seconds=0, trace=trace)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                problems.append(f"{section} {name}: listed unit {want.get(name)!r},"
                                f" emitted unit {got.get(name)!r}")
        if not result["correct"]:
            problems.append(f"trace {trace}: {result['failed']} failed checks")
        if trace == 0:
            problems += [f"{name} is not positive"
                         for name, m in result["metrics"].items() if not m["value"] > 0]
    for line in problems:
        print(line)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
