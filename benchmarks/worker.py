"""One workload of the benchmark, run in a process of its own.

``run.py`` starts this script with one BLAS thread and ``src`` on the
path.  It imports numpy, scipy and locmix, prints ``ready`` (the parent
times set-up up to that line), then builds the workload's calls (panels
from the seed; ``density-mix`` from the files and oracles that
``inputs.py`` wrote) and makes closed-loop passes over that fixed list of
``locmix.cli.main`` calls, one call at a time.  Each call's output is
checked outside the timed region.  The last line of standard output is a
JSON object with the raw timings, counts and checks.

With ``--probe`` as its only argument it exits right after ``ready``:
that is one more set-up sample.
"""

import sys
import time

# Imported before ``ready``: these imports are the timed set-up.
import numpy as np
import scipy
import locmix.cli

print("ready", flush=True)
if "--probe" in sys.argv:
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

N_REPS = 100_000
# Figure -> concentration ratio c = p/n of its panels.
FIGURE_C = {1: 0.1, 4: 0.95, 5: 0.1, 8: 0.95}
PANELS = {
    "panel-small-p": [(1, "a"), (5, "c")],
    "panel-large-p": [(4, "b"), (8, "b")],
}
@dataclass
class Call:
    """One ``locmix.cli.main`` call and the check of its output."""

    argv: list
    check: object  # callable(stdout text) -> list of problems
    units: int  # replicates scored, or density evaluations


def panel_calls(workload: str, seed: int, out_dir: Path) -> list:
    calls = []
    for figure, panel in PANELS[workload]:
        target = out_dir / f"{figure}{panel}"
        argv = [
            "figure", "--figure", str(figure), "--panel", panel,
            "--nreps", str(N_REPS), "--seed", str(seed), "--threads", "1",
            "--out", str(target),
        ]
        c = FIGURE_C[figure]
        calls.append(Call(argv, lambda _, t=target, c=c: checks.check_panel(t, N_REPS, c), N_REPS))
    return calls


def density_calls(set_index: int, in_dir: Path, oracles: list) -> list:
    """The calls of one set of model and data files written by ``inputs.py``."""
    calls = []
    for i, shape_oracles in enumerate(oracles):

        def check(stdout, shape_oracles=shape_oracles):
            try:
                value = json.loads(stdout)["log_density"]
            except (ValueError, KeyError, TypeError) as exc:
                return [f"unreadable density output {stdout!r}: {exc}"]
            return checks.check_density(value, shape_oracles)

        set_dir = in_dir / f"set-{set_index}"
        argv = ["density", "--model", str(set_dir / f"model-{i}.json"),
                "--data", str(set_dir / f"data-{i}.csv")]
        calls.append(Call(argv, check, 1))
    return calls


def timed_call(call: Call, tracer):
    """Run one CLI call; returns (seconds, exit code or exception, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = locmix.cli.main(call.argv)
            else:
                code = tracer.call(tracing.CLI_SPAN, locmix.cli.main, call.argv)
        except (Exception, SystemExit) as exc:  # a failed operation, counted
            code = repr(exc)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    if workload in PANELS:
        sets = [panel_calls(workload, seed, out_dir)]
    else:
        in_dir = out_dir / "inputs"
        oracles = json.loads((in_dir / "oracles.json").read_text())
        sets = [density_calls(k, in_dir, set_oracles) for k, set_oracles in enumerate(oracles)]
    result = {
        "attempted": 0, "failed": 0, "failures": [], "problems": [],
        "units_per_pass": sum(c.units for c in sets[0]),
        "pass_s": [], "call_s": {}, "traced_pass_s": [], "layers": [],
    }
    spans = []
    # Passes go on while the next one should end within `seconds` (judged
    # by the slowest so far); at least two, so the traced run has an
    # untraced and a traced pass.  The traced run makes each set's pass
    # twice in a row, untraced and then traced.  Each round over the sets
    # runs pinned to the next CPU this process may use: the vCPUs of a
    # shared host change speed apart from each other, and a process left
    # alone stays on one of them for a whole run.
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    slowest = 0.0
    n_pass = 0
    while n_pass < 2 or time.perf_counter() - started + slowest <= seconds:
        pair = n_pass // 2 if trace else n_pass
        set_index = pair % len(sets)
        os.sched_setaffinity(0, {cpus[pair // len(sets) % len(cpus)]})
        calls = sets[set_index]
        tracer = tracing.Tracer() if trace and n_pass % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        pass_s = 0.0
        call_s = {}
        try:
            for i, call in enumerate(calls):
                dt, code, stdout = timed_call(call, tracer)
                result["attempted"] += 1
                pass_s += dt
                call_s[f"{set_index}:{i}"] = dt
                if code != 0:
                    result["failed"] += 1
                    result["failures"].append(f"{' '.join(call.argv)}: exit {code}")
                    continue
                for problem in call.check(stdout):
                    result["problems"].append(f"{' '.join(call.argv)}: {problem}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            result["pass_s"].append(pass_s)
            for key, dt in call_s.items():
                result["call_s"].setdefault(key, []).append(dt)
        else:
            result["traced_pass_s"].append(pass_s)
            result["layers"].append(tracing.layer_values(tracer))
            spans.append(tracer)
        slowest = max(slowest, pass_s)
        n_pass += 1
    os.sched_setaffinity(0, cpus)
    if spans:
        write_trace(spans, out_dir / "trace.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    return result


def write_trace(tracers: list, path: Path) -> None:
    """Spans of every traced pass, with self times, as one ``.npz`` file."""
    names = sorted({n for t in tracers for n in t.names})
    arrays = {k: [] for k in ("pass", "name_id", "start", "end", "parent", "self")}
    offset = 0
    for k, t in enumerate(tracers):
        sp = t.spans()
        remap = np.array([names.index(n) for n in t.names], dtype=np.int32)
        arrays["pass"].append(np.full(sp["start"].size, k, dtype=np.int32))
        arrays["name_id"].append(remap[sp["name_id"]] if remap.size else sp["name_id"])
        arrays["parent"].append(np.where(sp["parent"] >= 0, sp["parent"] + offset, -1))
        for key in ("start", "end", "self"):
            arrays[key].append(sp[key])
        offset += sp["start"].size
    np.savez_compressed(
        path, names=np.array(names), **{k: np.concatenate(v) for k, v in arrays.items()}
    )


def _openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy load."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(lib_path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    found[Path(lib_path).name] = int(fn())
                    break
    return found


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "locmix": locmix.__version__,
        "locmix_path": str(Path(locmix.__file__).parent),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
