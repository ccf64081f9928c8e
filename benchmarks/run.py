"""Benchmark of locmix: study panels and the matrix density, end to end.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload panel-small-p --seed 1 --seconds 35 --trace 0

Each run starts the workload in a process of its own (``worker.py``) with
one BLAS thread and ``src`` on the path, after three more processes that
only import locmix, numpy and scipy; ``setup_s`` is the median time from
process start to the end of those imports.  For ``density-mix`` another
process (``inputs.py``) first writes the seeded inputs and their oracles.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced passes and prints every per-layer metric and the
tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, TRACE_OVERHEAD

HERE = Path(__file__).resolve().parent
WORKLOADS = ["panel-small-p", "panel-large-p", "density-mix"]
SETUP_SAMPLES = 4  # the workload's own process and three import-only probes
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILDREN: list[subprocess.Popen] = []  # every worker started, stopped on any exit


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def start(args: list[str], root: Path, env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    CHILDREN.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("the worker could not import locmix, numpy and scipy")
    return proc, setup


def median(values: list[float]) -> float:
    return statistics.median(values)


def end_to_end(res: dict, setups: list[float]) -> dict:
    pass_s = median(res["pass_s"])
    # One latency per distinct call (same set, same place in the list):
    # the median over the passes that made it.
    calls = [median(times) for times in res["call_s"].values()]
    cuts = statistics.quantiles(calls, n=10, method="inclusive")
    return {
        "setup_s": (median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "work_per_s": (res["units_per_pass"] / pass_s, "1/s"),
        "call_s.p50": (median(calls), "s"),
        "call_s.p90": (cuts[8], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    out = {}
    # A panel run has a single traced pass, so there the count check has
    # nothing to compare; steady.py --trace 1 repeats counts across runs.
    for name, (unit, _, _) in LAYER_METRICS.items():
        values = [layers[name] for layers in res["layers"]]
        if unit == "count" and len(set(values)) != 1:
            res["problems"].append(f"{name} differs between traced passes: {values}")
        out[name] = (median(values), unit)
    overhead = median(res["traced_pass_s"]) - median(res["pass_s"])
    out[TRACE_OVERHEAD[0]] = (overhead, TRACE_OVERHEAD[1])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    t_begin = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "locmix" / "cli.py").is_file():
        print(f"error: no locmix source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "runs" / args.workload
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )

    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start(["--probe"], root, env)
            proc.communicate(timeout=30)
            setups.append(setup)
        if args.workload == "density-mix":
            subprocess.run(
                [sys.executable, str(HERE / "inputs.py"), "--seed", str(args.seed),
                 "--out", str(out_dir / "inputs")],
                cwd=root, env=env, check=True, timeout=60,
            )
        proc, setup = start(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out_dir)],
            root, env,
        )
        setups.append(setup)
        try:
            stdout, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - t_begin))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("error: the workload did not finish in time", file=sys.stderr)
            return 1
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not stdout.strip():
        print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(stdout.strip().splitlines()[-1])
    if not Path(res["env"]["locmix_path"]).is_relative_to(root / "src"):
        print(f"error: locmix was imported from {res['env']['locmix_path']}", file=sys.stderr)
        return 1

    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    env_info = dict(res["env"], git_commit=git_commit(root), workload=args.workload,
                    seed=args.seed, seconds=args.seconds, trace=args.trace,
                    passes=len(res["pass_s"]) + len(res["traced_pass_s"]))
    print("env " + json.dumps(env_info))
    for msg in res["failures"] + res["problems"]:
        print(f"problem: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6f} {unit:6s} attempted={res['attempted']} "
              f"failed={res['failed']}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def stop_children() -> None:
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    finally:
        stop_children()
