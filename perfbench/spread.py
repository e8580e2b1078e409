#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload sign-rm10 --seeds 1-10 [--trace 0]

For every metric: the median of the runs and the distance between the
first and third quartile as a share of the median (the steadiness
figure BENCHMARK.json's bounds are set against), plus the failed share.
Runs go one after another, each in its own process, with the run length
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", args.workload, "--seconds", str(spec["run_seconds"]),
                             "--trace", str(args.trace)]
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--seed", str(seed)], cwd=ROOT, capture_output=True,
                              text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: {time.monotonic() - t0:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {json.dumps(line)}", flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        if None in vals:
            print(f"{name:36s} absent in {vals.count(None)} runs")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:36s} median {med:.6g}  IQR/median {(q3 - q1) / med:.3f}")
    print("failed/attempted: " + ", ".join(sorted({f"{f}/{a}" for f, a in shares})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
