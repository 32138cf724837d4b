"""Golden report digests: fixed configs keep their report bytes exactly.

golden_digests.json holds, per config, the SHA-256 of harness.emit() of its
run_suite reports at seed 1789.  The digests were recorded once and are not
re-recorded: a mismatch means a change altered a report.
"""

import hashlib
import json
from pathlib import Path

from gammasums.harness import emit, run_suite

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json").read_text())


def report_digest(cfg):
    return hashlib.sha256(emit(run_suite(cfg)).encode()).hexdigest()


def test_golden_report_digests():
    mismatched = [
        entry["name"]
        for entry in GOLDEN["configs"]
        if report_digest(entry["config"]) != entry["sha256"]
    ]
    assert mismatched == []
