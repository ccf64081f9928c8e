"""Steadiness of the benchmark: each workload run repeatedly with new seeds.

Run from the root of a source checkout:

    python3 benchmarks/steady.py --runs 10 --first-seed 101
    python3 benchmarks/steady.py --workloads density-mix --runs 3 --trace 1

Every run lasts ``run_seconds`` of ``BENCHMARK.json``, the length the
bounds were set for.  For every metric it prints the median and the first
and third quartiles over the runs (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median`` and, for end-to-end metrics, the bound
from ``BENCHMARK.json``.  A spread over the bound is flagged ``OVER
BOUND``; a spread of a third of the bound or more is flagged ``>=
BOUND/3``.  Either flag, on any metric, makes the exit code 1.  With
``--trace 1`` every run of a workload uses the same seed, and every count
must repeat exactly (``kde.lscv.edge_hits`` depends on the sample, so it
repeats only for the same inputs).  The last line is a JSON object with
every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seed = args.first_seed
    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for _ in range(args.runs):
            res = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, **res})
            seed += 0 if args.trace else 1
            print(f"{workload} seed {runs[-1]['seed']}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            steady = False
            print(f"{workload}: failed shares {sorted(shares)}, "
                  f"correct {[r['correct'] for r in runs]}")
        print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if args.trace and first["unit"] == "count" and len(set(values)) != 1:
                flag, steady = "  COUNT DIFFERS", False
            if bound is not None and spread > bound:
                flag, steady = "  OVER BOUND", False
            elif bound is not None and spread >= bound / 3:
                flag, steady = "  >= BOUND/3", False
            print(f"{name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {first['unit']}{flag}")
        summary[workload] = runs
        seed += 1 if args.trace else 0
    print(json.dumps({"steady": steady, "runs": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
