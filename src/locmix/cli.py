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

# Values per formatted chunk of samples.csv.
_CSV_CHUNK = 1 << 16

# Format of every CSV number: 17 significant digits round-trip a 64-bit float.
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % x


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


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy; None if it cannot be read."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    """Versions, bit generator and BLAS that determine the bytes of a run.

    OpenBLAS rounds a matrix product differently at different thread
    counts, so the BLAS entry records its threads too.
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
    """An integer field of a manifest; ``int`` alone would truncate 10.7."""
    value = doc[name]
    if isinstance(value, float) and not value.is_integer():
        raise InvalidInputError(
            f"manifest field {name!r} must be an integer (got {value!r})"
        )
    return int(value)


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
    try:
        fields = dict(
            p=_manifest_int(doc, "p"),
            n=_manifest_int(doc, "n"),
            n_reps=_manifest_int(doc, "n_reps"),
            product=ProductKind(doc["product"]),
            nu=parse_nu(doc["nu"]),
            master_seed=_manifest_int(doc, "master_seed"),
            model_seed=_manifest_int(doc, "model_seed"),
        )
    except KeyError as exc:
        raise InvalidInputError(f"manifest config is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed manifest config: {exc}") from exc
    return ExperimentConfig(**fields), bool(doc.get("kde_normal_column", False))


def _write_samples(path: Path, standardized: np.ndarray) -> None:
    """``samples.csv``: a header, then each value as :func:`_fmt` writes it.

    One ``%`` format per fixed chunk of values, so the text held at once
    is one chunk's, whatever the number of replicates.
    """
    with open(path, "w") as f:
        f.write("standardized\n")
        for start in range(0, standardized.size, _CSV_CHUNK):
            chunk = standardized[start : start + _CSV_CHUNK].tolist()
            f.write((_FLOAT + "\n") * len(chunk) % tuple(chunk))


def _write_outputs(
    out_dir: Path,
    cfg: ExperimentConfig,
    standardized: np.ndarray,
    report: GofReport,
    duration: float,
    normal_column: bool,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_samples(out_dir / "samples.csv", standardized)

    if normal_column:
        header = "x,density,normal"
        rows = (
            f"{_fmt(x)},{_fmt(d)},{_fmt(np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi))}"
            for x, d in zip(report.kde_x, report.kde_density)
        )
    else:
        header = "x,density"
        rows = (
            f"{_fmt(x)},{_fmt(d)}" for x, d in zip(report.kde_x, report.kde_density)
        )
    (out_dir / "kde.csv").write_text(header + "\n" + "\n".join(rows) + "\n")

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
    env = doc.get("environment", {})
    written_with = env.get("numpy")
    if written_with != np.__version__:
        logger.warning(
            "manifest was written with numpy %s but this is numpy %s; numpy "
            "does not promise identical random streams across versions, so "
            "the replay may not be byte-identical",
            written_with,
            np.__version__,
        )
    blas = env.get("blas")
    written_threads = blas.get("threads") if isinstance(blas, dict) else None
    threads = _blas_threads()
    if written_threads != threads:
        logger.warning(
            "manifest was written with %s BLAS threads but this process has %s; "
            "OpenBLAS rounds matrix products differently at other thread "
            "counts, so the replay may not be byte-identical",
            written_threads,
            threads,
        )
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
        default=os.cpu_count() or 1,
        help="threads that draw and score the replicates, at least 1 (output is "
        "independent of this)",
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
    try:
        # Looked up per call, so a replaced handler is the one that runs.
        return globals()[f"_cmd_{args.command}"](args)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except AccuracyNotMetError as exc:
        print(f"accuracy not met: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
