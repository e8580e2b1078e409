#!/usr/bin/env python3
"""rmsig benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload sign-rm10 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; rmsig is imported from its `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` wraps rmsig's
layers and prints the per-layer metrics instead.  The last line of
standard output is the result JSON; the full record (host facts, counts,
both metric sets, the call table when traced) goes to
perfbench-results/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench-results"
SPEC = ROOT / "BENCHMARK.json"
# One BLAS thread: a single caller then uses one core, and on a shared
# 2-core host the figures stop depending on what the other core is doing.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def host_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmsig" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {SRC / 'rmsig'} or {SPEC} is missing; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import numpy as np
    import rmsig

    if Path(rmsig.__file__).resolve().parent != SRC / "rmsig":
        print(f"error: rmsig imported from {rmsig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import session

    record = session.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["host"] = host_facts(np)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    absent = [name for name, v in metrics.items() if v["value"] is None]

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("host " + json.dumps(record["host"]))
    for reason, count in record["failures"].items():
        print(f"failed x{count}: {reason}")
    for reason, count in record["wrong_outputs"].items():
        print(f"WRONG x{count}: {reason}")
    if absent:
        print("absent: " + ", ".join(absent))
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
