"""Command-line front end.

Subcommands
-----------
simulate : run one Monte Carlo experiment, writing ``samples.csv``,
    ``kde.csv``, ``report.json`` and ``manifest.json`` into ``--out``.
replay   : re-run the experiment a ``manifest.json`` records, like
    ``simulate``.
figure   : resolve a figure/panel of the simulation study into a config
    and behave like ``simulate`` (the KDE file gains a ``normal`` column
    with the standard normal overlay).
verify   : run a statistical verification suite and print a JSON report.
density  : evaluate the log matrix density for a model file and a CSV
    data matrix.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(including non-finite input), 3 regime violation, 4 I/O failure, 5 an
adaptive routine missed its accuracy target.  All CSV numbers carry 17
significant digits so that 64-bit floats round-trip exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import logging
import os
import platform
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import AccuracyNotMetError, InvalidInputError, RegimeError
from .figures import figure_config
from .harness import (
    BLOCK_SIZE,
    ExperimentConfig,
    default_nu,
    run_experiment,
    summarize_experiment,
)
from .kde import GofReport
from .modelfile import load_model, nu_to_json, parse_nu, read_json
from .products import ProductKind
from .rng import BIT_GENERATOR

logger = logging.getLogger(__name__)

# Rows per formatted chunk of a CSV file.
_CSV_CHUNK = 1 << 16

# Format of every CSV number: 17 significant digits round-trip a 64-bit float.
_FLOAT = "%.17g"

# Exit code and stderr prefix of each error type that :func:`main` reports.
_EXIT_CODES = {
    InvalidInputError: (2, "error: "),
    RegimeError: (3, "error: "),
    OSError: (4, "I/O error: "),
    AccuracyNotMetError: (5, "accuracy not met: "),
}


def _config_to_json(cfg: ExperimentConfig, normal_column: bool) -> dict:
    return {
        "p": cfg.p,
        "n": cfg.n,
        "n_reps": cfg.n_reps,
        "product": cfg.product.value,
        "nu": nu_to_json(cfg.nu),
        "master_seed": cfg.master_seed,
        "model_seed": cfg.model_seed,
        "kde_normal_column": normal_column,
        "block_size": BLOCK_SIZE,
    }


@functools.cache
def _openblas() -> tuple | None:
    """The get and set thread-count functions of numpy's bundled OpenBLAS, or None."""
    for lib_path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
                get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _blas_threads(threads: int | None = None) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, None without one; given
    ``threads``, set it to that and return the count before."""
    if (lib := _openblas()) is None:
        return None
    get, set_ = lib
    current = get()
    if threads not in (None, current):
        set_(threads)
    return current


def _environment() -> dict:
    """Versions, bit generator and BLAS that determine the bytes of a run.

    OpenBLAS rounds a matrix product differently at different thread
    counts, so the BLAS entry records its threads too: 1 under :func:`main`.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": BIT_GENERATOR,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
    }


def _manifest_int(doc: dict, name: str) -> int:
    """An integer field of a manifest; ``int`` alone would take 10.7, "10" or true."""
    value = doc[name]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:  # not isinstance: a JSON true is a bool
        raise InvalidInputError(
            f"manifest field {name!r} must be an integer (got {json.dumps(value)})"
        )
    return value


# Every key of a manifest config; a key outside them (such as the ``c``,
# ``q``, ``kde_grid`` or ``bandwidth_grid`` of older manifests) may have
# meant a run this version cannot make, so it is refused, not ignored.
_MANIFEST_KEYS = {
    "p", "n", "n_reps", "product", "nu", "master_seed", "model_seed",
    "kde_normal_column", "block_size",
}


def _config_from_json(doc: dict) -> tuple[ExperimentConfig, bool]:
    unknown = sorted(doc.keys() - _MANIFEST_KEYS)
    if unknown:
        raise InvalidInputError(
            f"manifest config has fields this version does not read: {', '.join(unknown)}"
        )
    if doc.get("block_size") != BLOCK_SIZE:
        raise InvalidInputError(
            f"manifest block_size {doc.get('block_size')!r} does not match this "
            f"version's stream contract (block b of {BLOCK_SIZE} replicates uses "
            "stream (master_seed, b)); its draws cannot be replayed"
        )
    normal_column = doc.get("kde_normal_column", False)
    if not isinstance(normal_column, bool):
        raise InvalidInputError("manifest field 'kde_normal_column' must be true or false")
    try:
        ints = {k: _manifest_int(doc, k) for k in "p n n_reps master_seed model_seed".split()}
        product, nu = ProductKind(doc["product"]), parse_nu(doc["nu"])
    except KeyError as exc:
        raise InvalidInputError(f"manifest config is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed manifest config: {exc}") from exc
    return ExperimentConfig(product=product, nu=nu, **ints), normal_column


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """A ``header`` line, then row i of the equally long ``columns``, each
    value as :data:`_FLOAT` writes it.

    One ``%`` format per fixed chunk of rows, so the text held at once is
    one chunk's, whatever the number of rows.
    """
    row = ",".join([_FLOAT] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            chunk = np.column_stack([c[start : start + _CSV_CHUNK] for c in columns])
            f.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_outputs(
    out_dir: Path,
    cfg: ExperimentConfig,
    standardized: np.ndarray,
    report: GofReport,
    duration: float,
    normal_column: bool,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "samples.csv", "standardized", standardized)
    x = report.kde_x
    kde = {"x": x, "density": report.kde_density}
    if normal_column:
        kde["normal"] = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    _write_csv(out_dir / "kde.csv", ",".join(kde), *kde.values())

    config_json = _config_to_json(cfg, normal_column)
    report_doc = {
        "ks": report.ks_statistic,
        "bandwidth": report.bandwidth,
        "bandwidth_on_grid_edge": report.bandwidth_on_grid_edge,
        "mean": report.mean,
        "variance": report.variance,
        "skewness": report.skewness,
        "config": config_json,
        "duration_seconds": duration,
    }
    (out_dir / "report.json").write_text(json.dumps(report_doc, indent=2) + "\n")

    manifest = {
        "config": config_json,
        "artifacts": {
            "samples": "samples.csv",
            "kde": "kde.csv",
            "report": "report.json",
        },
        "code_version": __version__,
        "environment": _environment(),
        "duration_seconds": duration,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _run_and_write(
    cfg: ExperimentConfig, out: str, threads: int, normal_column: bool
) -> int:
    t0 = time.perf_counter()
    standardized = run_experiment(cfg, threads=threads)
    report = summarize_experiment(standardized, threads=threads)
    duration = time.perf_counter() - t0
    _write_outputs(Path(out), cfg, standardized, report, duration, normal_column)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        p=args.p,
        n=args.n,
        n_reps=args.nreps,
        product=ProductKind(args.product),
        nu=default_nu(args.nu, args.q),
        master_seed=args.seed,
        model_seed=args.model_seed,
    )
    return _run_and_write(cfg, args.out, args.threads, normal_column=False)


def _cmd_replay(args: argparse.Namespace) -> int:
    doc = read_json(args.manifest, "manifest")
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("config"), dict)
        and isinstance(doc.get("environment", {}), dict)
    ):
        raise InvalidInputError("manifest, config and environment must be JSON objects")
    cfg, normal_column = _config_from_json(doc["config"])
    env, here = doc.get("environment", {}), _environment()
    differ = "; ".join(
        f"{k} {env.get(k)} (here {here[k]})" for k in ("numpy", "blas") if env.get(k) != here[k]
    )
    if differ:
        logger.warning("manifest environment differs in %s; bytes may differ", differ)
    return _run_and_write(cfg, args.out, args.threads, normal_column)


def _cmd_figure(args: argparse.Namespace) -> int:
    cfg = figure_config(
        args.figure,
        args.panel,
        n_reps=args.nreps,
        master_seed=args.seed,
        model_seed=args.model_seed,
    )
    return _run_and_write(cfg, args.out, args.threads, normal_column=True)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, seed=args.seed)
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "checks": [asdict(r) for r in results],
        "passed": all(r.passed for r in results),
    }
    print(json.dumps(doc, indent=2))
    return 0 if doc["passed"] else 1


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import build_workspace, log_density

    model = load_model(args.model)
    # Opened here, not by name in np.loadtxt, which would read a compressed
    # sibling such as data.csv.gz in place of a missing data.csv.
    with open(args.data) as f, warnings.catch_warnings():
        # An empty file is reported below as one error line.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidInputError(f"could not parse data CSV: {exc}") from exc
    if data.size == 0:
        raise InvalidInputError(f"data CSV {args.data} holds no numbers")
    workspace = build_workspace(model, data.shape[1])
    value = log_density(workspace, data)
    print(json.dumps({"log_density": value}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locmix",
        description="Monte Carlo experiments for products of sample moments "
        "under location-mixture Gaussian models",
    )
    parser.add_argument("--version", action="version", version=f"locmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Where and how fast a run writes: every command that runs one.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", required=True, help="output directory")
    output.add_argument(
        "--threads",
        type=int,
        default=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1,
        help="threads that draw and score the replicates, at least 1 (default: "
        "the CPUs this process may run on; output is independent of this)",
    )
    # The two commands that draw a new run also choose its size and model.
    draws = argparse.ArgumentParser(add_help=False, parents=[output])
    draws.add_argument("--nreps", type=int, default=100_000, help="Monte Carlo replicates")
    draws.add_argument(
        "--model-seed", type=int, default=0, help="seed of the random model (default 0)"
    )

    sim = sub.add_parser(
        "simulate", parents=[draws], help="run one experiment and write its artifacts"
    )
    sim.add_argument("--p", type=int, required=True, help="dimension")
    sim.add_argument("--n", type=int, required=True, help="sample size")
    sim.add_argument("--q", type=int, default=10, help="shift dimension (default 10)")
    sim.add_argument(
        "--product",
        choices=["cov", "precision"],
        default="cov",
        help="moment product (default cov)",
    )
    sim.add_argument(
        "--nu", choices=["tn", "gal"], default="tn", help="mixing family (default tn)"
    )
    sim.add_argument("--seed", type=int, required=True, help="master seed for the replicates")

    rep = sub.add_parser(
        "replay", parents=[output], help="re-run the experiment a manifest records"
    )
    rep.add_argument("manifest", help="manifest.json of an earlier run")

    fig = sub.add_parser(
        "figure", parents=[draws], help="reproduce one figure panel of the study"
    )
    fig.add_argument("--figure", type=int, required=True, help="figure number 1..8")
    fig.add_argument("--panel", choices=["a", "b", "c", "d"], required=True)
    fig.add_argument("--seed", type=int, default=1, help="master seed")

    ver = sub.add_parser("verify", help="run a statistical verification suite")
    ver.add_argument(
        "--suite",
        choices=["oracle", "moments", "variance", "density", "all"],
        required=True,
    )
    ver.add_argument("--seed", type=int, default=0)

    den = sub.add_parser("density", help="log density of a data matrix under a model")
    den.add_argument("--model", required=True, help="model JSON file")
    den.add_argument("--data", required=True, help="CSV file with one row per variable")

    return parser


# The parser of this process, built by the first call of :func:`main`.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # One BLAS thread for every command, so a run's bytes do not follow
    # OPENBLAS_NUM_THREADS and BLAS threads do not compete with --threads.
    blas_threads = _blas_threads(1)
    try:
        # Looked up per call, so a replaced handler is the one that runs.
        return globals()[f"_cmd_{args.command}"](args)
    except tuple(_EXIT_CODES) as exc:
        code, prefix = next(v for t, v in _EXIT_CODES.items() if isinstance(exc, t))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code
    finally:
        _blas_threads(blas_threads)


if __name__ == "__main__":
    sys.exit(main())
