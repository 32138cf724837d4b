import importlib.util
import subprocess
import sys
from pathlib import Path

import gammasums
from gammasums.fields import build_tower
from gammasums.harness import run_suite

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the bench reads its per-layer metrics from named package functions, so
    # deleting or renaming one breaks it without breaking any other test
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bench_tracer_sees_level_ops():
    # the tracer wraps Level's methods on the class: an op bound per instance
    # would bypass it and read fields.level_op_calls as 0
    path = ROOT / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer(gammasums)
    tracer.install()
    try:
        reports = run_suite({"p": 2, "shape": [2], "suites": ["mirabolic"]})
    finally:
        tracer.uninstall()
    assert all(c.passed for r in reports for c in r.checks)
    assert tracer.layer_metrics()["fields.level_op_calls"] > 0
    # and no level shadows a traced op with an instance attribute
    ops = {k.rsplit(".", 1)[1] for k in layers.ALIASES if k.startswith("fields.Level.")}
    assert ops and not ops & set(vars(build_tower(2, 1, 1).level(1)))
