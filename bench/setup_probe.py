"""Set-up cost of one verify run, measured inside a fresh process.

Usage: python3 setup_probe.py SRC_DIR TOWERS_JSON

Times the import of gammasums from SRC_DIR plus one build_tower call per
[p, f, levels] entry of TOWERS_JSON (this fills the process-wide
cyclotomic_polynomial cache), and prints the seconds taken.
"""

import json
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gammasums  # noqa: E402

for p, f, levels in json.loads(sys.argv[2]):
    gammasums.build_tower(p, f, levels)
print(repr(time.perf_counter() - started))
