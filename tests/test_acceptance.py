"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The heavy experiment sweep is shared across criteria through a
module-level cache.
"""

import json
from functools import lru_cache

import numpy as np

from locmix import run_experiment
from locmix.cli import main as cli_main
from locmix.figures import FIGURE_TABLE, figure_config
from locmix.kde import ks_statistic
from locmix.verify import (
    conditional_variance_cov,
    conditional_variance_precision,
    determinant_identity_check,
    mixture_agreement_check,
    normalization_check,
    representation_vs_oracle,
    singular_regime_vs_oracle,
    variance_form_identity,
    wishart_and_independence_checks,
)

SEED = 7
MASTER_SEED = 2026
MODEL_SEED = 0
N_REPS = 100_000

KS_BOUNDS = {0.1: 0.02, 0.5: 0.03, 0.8: 0.05, 0.95: 0.08}
LADDER_MARGIN = 0.005


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def summarize_checks(results):
    worst = max(results, key=lambda r: r.observed / r.tolerance if r.tolerance else 1.0)
    return (
        all(r.passed for r in results),
        f"{len(results)} checks, worst {worst.observed:.4g} vs {worst.tolerance:.4g}"
        f" ({worst.name})",
    )


@lru_cache(maxsize=None)
def panel_sample(figure, panel):
    cfg = figure_config(
        figure, panel, n_reps=N_REPS, master_seed=MASTER_SEED, model_seed=MODEL_SEED
    )
    return run_experiment(cfg)


def test_criterion_01_representation_vs_oracle():
    results = representation_vs_oracle(SEED, n_draws=5000, tolerance=0.04)
    ok, detail = summarize_checks(results)
    report(1, ok, f"representation vs matrix oracle: {detail}")
    assert ok, [r.as_dict() for r in results if not r.passed]


def test_criterion_02_singular_regime():
    results = singular_regime_vs_oracle(SEED, n_draws=5000, tolerance=0.04)
    ok, detail = summarize_checks(results)
    report(2, ok, f"singular regime p=15 > n-1=9: {detail}")
    assert ok, [r.as_dict() for r in results if not r.passed]


def test_criterion_03_conditional_variance_cov():
    results = conditional_variance_cov(SEED, p=200, n=2000, n_reps=N_REPS)
    ok, detail = summarize_checks(results)
    report(3, ok, f"cov conditional variance within 5%: {detail}")
    assert ok, [r.as_dict() for r in results if not r.passed]


def test_criterion_04_conditional_variance_precision():
    results = conditional_variance_precision(SEED, p=100, n=1000, n_reps=N_REPS)
    ok, detail = summarize_checks(results)
    report(4, ok, f"precision conditional variance within 5%: {detail}")
    assert ok, [r.as_dict() for r in results if not r.passed]


def test_criterion_05_clt_quality_ladder():
    failures = []
    lines = []
    for figure, entry in FIGURE_TABLE.items():
        bound = KS_BOUNDS[entry["c"]]
        ks = {panel: ks_statistic(panel_sample(figure, panel)) for panel in "abcd"}
        for panel, value in ks.items():
            if value > bound:
                failures.append(f"fig {figure}({panel}) KS {value:.4f} > {bound}")
        for small, large in (("a", "b"), ("c", "d")):
            if ks[large] > ks[small] + LADDER_MARGIN:
                failures.append(
                    f"fig {figure} ladder {large} vs {small}:"
                    f" {ks[large]:.4f} > {ks[small]:.4f} + {LADDER_MARGIN}"
                )
        lines.append(f"fig {figure}: " + " ".join(f"{v:.4f}" for v in ks.values()))
    ok = not failures
    report(5, ok, f"KS ladder over 32 panels at N={N_REPS}; " + "; ".join(lines))
    assert ok, failures


def test_criterion_06_right_skew():
    skews = {}
    for panel in ("a", "c"):
        s = panel_sample(3, panel)
        centered = s - s.mean()
        skews[panel] = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
    ok = all(v > 0 for v in skews.values())
    report(6, ok, f"figure 3 skewness a={skews['a']:+.4f} c={skews['c']:+.4f}")
    assert ok, skews


def test_criterion_07_independence_and_wishart_mean():
    results = wishart_and_independence_checks(SEED, reps=10_000)
    ok, detail = summarize_checks(results)
    report(7, ok, f"independence and Wishart mean: {detail}")
    assert ok, [r.as_dict() for r in results if not r.passed]


def test_criterion_08_density_correctness():
    results = [
        determinant_identity_check(2, 3, 2, SEED + 71),
        determinant_identity_check(3, 2, 1, SEED + 72),
        normalization_check(SEED),
        mixture_agreement_check(SEED),
    ]
    ok, detail = summarize_checks(results)
    report(8, ok, f"density identities/normalization/mixture: {detail}")
    assert ok, [r.as_dict() for r in results if not r.passed]


def test_criterion_09_variance_form_identity():
    result = variance_form_identity(SEED, n_instances=1000)
    report(9, result.passed, f"variance spellings agree to {result.observed:.3e} rel")
    assert result.passed, result.as_dict()


def test_criterion_10_reproducibility(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = [
        "simulate",
        "--p", "40",
        "--n", "200",
        "--q", "10",
        "--nreps", "2000",
        "--product", "precision",
        "--nu", "gal",
        "--seed", "12",
        "--out", str(out1),
        "--threads", "1",
    ]
    assert cli_main(args) == 0
    assert cli_main(["replay", str(out1 / "manifest.json"), "--out", str(out2), "--threads", "3"]) == 0
    same_samples = (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    same_kde = (out1 / "kde.csv").read_bytes() == (out2 / "kde.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("duration_seconds")
    r2.pop("duration_seconds")
    ok = same_samples and same_kde and r1 == r2
    report(10, ok, "manifest replay under different --threads is byte-identical")
    assert ok
