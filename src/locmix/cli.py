"""Command-line front end.

Subcommands
-----------
simulate : run one Monte Carlo experiment, writing ``samples.csv``,
    ``kde.csv``, ``report.json`` and ``manifest.json`` into ``--out``.
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
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import finite_array
from .errors import (
    AccuracyNotMetError,
    InvalidDimensionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RegimeError,
    UnsupportedMixingError,
    ZeroVectorError,
)
from .figures import figure_config
from .harness import ExperimentConfig, default_nu, run_experiment, summarize_experiment
from .kde import GofReport
from .modelfile import load_model, nu_to_json, parse_nu
from .products import ProductKind


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_to_json(cfg: ExperimentConfig, normal_column: bool) -> dict:
    return {
        "p": cfg.p,
        "n": cfg.n,
        "q": cfg.q,
        "c": cfg.c,
        "n_reps": cfg.n_reps,
        "product": cfg.product.value,
        "nu": nu_to_json(cfg.nu),
        "master_seed": cfg.master_seed,
        "model_seed": cfg.model_seed,
        "kde_grid": list(cfg.kde_grid),
        "bandwidth_grid": None
        if cfg.bandwidth_grid is None
        else list(cfg.bandwidth_grid),
        "kde_normal_column": normal_column,
    }


def _config_from_json(doc: dict) -> tuple[ExperimentConfig, bool]:
    try:
        cfg = ExperimentConfig(
            p=int(doc["p"]),
            n=int(doc["n"]),
            q=int(doc["q"]),
            c=float(doc["c"]),
            n_reps=int(doc["n_reps"]),
            product=ProductKind(doc["product"]),
            nu=parse_nu(doc["nu"]),
            master_seed=int(doc["master_seed"]),
            model_seed=int(doc["model_seed"]),
            kde_grid=tuple(doc.get("kde_grid", (-4.0, 4.0, 201))),
            bandwidth_grid=None
            if doc.get("bandwidth_grid") is None
            else tuple(doc["bandwidth_grid"]),
        )
    except KeyError as exc:
        raise InvalidInputError(f"manifest config is missing field {exc}") from exc
    return cfg, bool(doc.get("kde_normal_column", False))


def _write_outputs(
    out_dir: Path,
    cfg: ExperimentConfig,
    standardized: np.ndarray,
    report: GofReport,
    duration: float,
    normal_column: bool,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["standardized"]
    lines.extend(_fmt(v) for v in standardized)
    (out_dir / "samples.csv").write_text("\n".join(lines) + "\n")

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
        "duration_seconds": duration,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _run_and_write(
    cfg: ExperimentConfig, out: str, threads: int, normal_column: bool
) -> int:
    t0 = time.perf_counter()
    standardized = run_experiment(cfg, threads=threads)
    report = summarize_experiment(standardized, cfg)
    duration = time.perf_counter() - t0
    _write_outputs(Path(out), cfg, standardized, report, duration, normal_column)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.manifest is not None:
        doc = json.loads(Path(args.manifest).read_text())
        cfg, normal_column = _config_from_json(doc["config"])
    else:
        for name in ("p", "n", "seed"):
            if getattr(args, name) is None:
                raise InvalidInputError(f"--{name} is required without --manifest")
        c = args.c if args.c is not None else args.p / args.n
        cfg = ExperimentConfig(
            p=args.p,
            n=args.n,
            q=args.q,
            c=c,
            n_reps=args.nreps,
            product=ProductKind(args.product),
            nu=default_nu(args.nu, args.q),
            master_seed=args.seed,
            model_seed=args.model_seed,
        )
        normal_column = False
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
        "checks": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    print(json.dumps(doc, indent=2))
    return 0 if doc["passed"] else 1


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import build_workspace, log_density

    model = load_model(args.model)
    try:
        data = np.loadtxt(args.data, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and not Path(args.data).exists():
            raise
        raise InvalidInputError(f"could not parse data CSV: {exc}") from exc
    data = finite_array(data, "data CSV")
    workspace = build_workspace(model, data.shape[1])
    value = log_density(workspace, model, data)
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

    sim = sub.add_parser("simulate", help="run one experiment and write its artifacts")
    sim.add_argument("--p", type=int, help="dimension")
    sim.add_argument("--n", type=int, help="sample size")
    sim.add_argument("--q", type=int, default=10, help="shift dimension (default 10)")
    sim.add_argument("--c", type=float, default=None, help="aspect ratio (default p/n)")
    sim.add_argument("--nreps", type=int, default=100_000, help="Monte Carlo replicates")
    sim.add_argument("--product", choices=["cov", "precision"], default="cov")
    sim.add_argument("--nu", choices=["tn", "gal"], default="tn", help="mixing family")
    sim.add_argument("--seed", type=int, help="master seed for the replicates")
    sim.add_argument(
        "--model-seed", type=int, default=0, help="seed of the random model (default 0)"
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (output is independent of this)",
    )
    sim.add_argument(
        "--manifest", default=None, help="re-run the config stored in a manifest file"
    )
    sim.set_defaults(func=_cmd_simulate)

    fig = sub.add_parser("figure", help="reproduce one figure panel of the study")
    fig.add_argument("--figure", type=int, required=True, help="figure number 1..8")
    fig.add_argument("--panel", choices=["a", "b", "c", "d"], required=True)
    fig.add_argument("--nreps", type=int, default=100_000)
    fig.add_argument("--seed", type=int, default=1, help="master seed")
    fig.add_argument("--model-seed", type=int, default=0)
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    fig.set_defaults(func=_cmd_figure)

    ver = sub.add_parser("verify", help="run a statistical verification suite")
    ver.add_argument(
        "--suite",
        choices=["oracle", "moments", "variance", "density", "all"],
        required=True,
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    den = sub.add_parser("density", help="log density of a data matrix under a model")
    den.add_argument("--model", required=True, help="model JSON file")
    den.add_argument("--data", required=True, help="CSV file with one row per variable")
    den.set_defaults(func=_cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegimeError, UnsupportedMixingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        InvalidInputError,
        InvalidDimensionError,
        ZeroVectorError,
        NotPositiveDefiniteError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
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
