"""Smoke test of the benchmark harness in perfbench/.

The harness runs in a subprocess: its tracer patches rmsig's module
attributes, and those patches must not reach the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A small RM(4,8) workload, added in the subprocess only: at w = 24 a
# signature takes about four trials.  The harness holds calibration to
# the exact counting bound, which leaves no room for sampling noise on
# codes where it is tight: on RM(3,6) every vector of weight <= 3 is its
# own coset leader, so a sample of 64 exceeds the bound about half the
# time.  On RM(4,8) the share stays at least 14 times below the bound
# at every weight up to 17.  One traced round; the record is printed,
# not written.
SESSION = """
import json, sys
sys.path[:0] = sys.argv[1:]
import session
session.WORKLOADS["smoke-rm8"] = session.Workload(
    8, 4, 24, signs=2, calib_samples=1024, probes=True, round_s=1.0)
record = session.run("smoke-rm8", 1, 1, traced=True)
print(json.dumps({key: record[key] for key in
                  ("correct", "failed", "failures", "wrong_outputs", "end_to_end", "per_layer")}))
"""


def test_traced_session_reports_every_metric():
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"
    )
    out = subprocess.run(
        [sys.executable, "-c", SESSION, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["correct"], record["wrong_outputs"]
    assert record["failed"] == 0, record["failures"]
    # run.py prints "absent:" for any listed metric that comes out None.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for listed, values in (("end_to_end", record["end_to_end"]), ("per_layer", record["per_layer"])):
        absent = [m["name"] for m in spec[listed] if values.get(m["name"]) is None]
        assert not absent, (listed, absent)
    assert all(value is not None for value in record["per_layer"].values())
