"""Tests of the benchmark's correctness checks: each accepts a right output
and rejects a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_checks.py
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

import checks
from locmix.cli import main as locmix_main
from locmix.kde import ks_statistic

N = 100_000


def write_panel(out_dir, samples, ks):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["standardized"] + [f"{v:.17g}" for v in samples]
    (out_dir / "samples.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "report.json").write_text(json.dumps({"ks": ks}))


@pytest.fixture(scope="module")
def normal_sample():
    return np.random.default_rng(7).standard_normal(N)


@pytest.mark.parametrize("c", [0.1, 0.95])
def test_panel_accepts_right_output(tmp_path, normal_sample, c):
    write_panel(tmp_path, normal_sample, ks_statistic(normal_sample))
    assert checks.check_panel(tmp_path, N, c) == []


@pytest.mark.parametrize("c", [0.1, 0.95])
@pytest.mark.parametrize("wrong", [lambda s: s + 0.1, lambda s: s * 1.1], ids=["shift", "scale"])
def test_panel_rejects_changed_sample(tmp_path, normal_sample, c, wrong):
    write_panel(tmp_path, wrong(normal_sample), ks_statistic(normal_sample))
    assert checks.check_panel(tmp_path, N, c)


@pytest.mark.parametrize("wrong", [lambda s: s + 0.1, lambda s: s * 1.1], ids=["shift", "scale"])
def test_panel_bound_rejects_consistent_wrong_output(tmp_path, normal_sample, wrong):
    sample = wrong(normal_sample)
    write_panel(tmp_path, sample, ks_statistic(sample))
    problems = checks.check_panel(tmp_path, N, 0.1)
    assert any("bound" in p for p in problems)


def test_panel_rejects_short_or_nonfinite_sample(tmp_path, normal_sample):
    write_panel(tmp_path / "short", normal_sample[:-1], ks_statistic(normal_sample[:-1]))
    assert checks.check_panel(tmp_path / "short", N, 0.1)
    bad = normal_sample.copy()
    bad[3] = np.nan
    write_panel(tmp_path / "nan", bad, 0.0)
    assert checks.check_panel(tmp_path / "nan", N, 0.1)


def test_panel_accepts_real_cli_output(tmp_path):
    out = tmp_path / "1a"
    assert locmix_main(["figure", "--figure", "1", "--panel", "a", "--nreps", "20000",
                        "--seed", "3", "--threads", "1", "--out", str(out)]) == 0
    assert checks.check_panel(out, 20000, 0.1) == []


@pytest.mark.parametrize("oracle", [checks.dense_log_density, checks.mean_log_density],
                         ids=["dense", "column-mean"])
def test_oracle_matches_quadrature(oracle):
    """q = 1: integrate the matrix-normal density against the half-normal law."""
    gen = np.random.default_rng(5)
    p, n = 2, 3
    mu, b = gen.uniform(-1, 1, p), gen.uniform(0, 1, (p, 1))
    diag = gen.uniform(0.2, 1.0, p)
    x = (mu + b[:, 0] * 0.7)[:, None] + np.sqrt(diag)[:, None] * gen.standard_normal((p, n))

    def integrand(nu):
        resid = x - (mu + b[:, 0] * nu)[:, None]
        log_f = stats.norm.logpdf(resid, scale=np.sqrt(diag)[:, None]).sum()
        return math.exp(log_f) * 2.0 * stats.norm.pdf(nu)

    expected = math.log(integrate.quad(integrand, 0.0, np.inf, epsabs=0, epsrel=1e-12)[0])
    value, tol = oracle(mu, np.diag(diag), b, np.eye(1), x)
    assert abs(value - expected) < 1e-9
    assert tol < 1e-4


@pytest.mark.parametrize("shape", [(3, 4, 2), (5, 8, 3), (4, 6, 5)])
def test_column_mean_oracle_matches_dense_oracle(shape):
    p, n, q = shape
    gen = np.random.default_rng(sum(shape))
    mu, b = gen.uniform(-1, 1, p), gen.uniform(0, 1, (p, q))
    sigma = np.diag(gen.uniform(0.05, 1.0, p))
    omega = np.eye(q) + 0.3 * (np.ones((q, q)) - np.eye(q))
    x = gen.uniform(-1, 2, (p, n))
    dense, tol = checks.dense_log_density(mu, sigma, b, omega, x)
    mean, _ = checks.mean_log_density(mu, sigma, b, omega, x)
    assert abs(dense - mean) < tol


def density_case(tmp_path, p, n, q, seed):
    gen = np.random.default_rng(seed)
    mu, b = gen.uniform(-1, 1, p), gen.uniform(0, 1, (p, q))
    diag = gen.uniform(0.05, 1.0, p)
    nu = np.abs(gen.standard_normal(q))
    x = (mu + b @ nu)[:, None] + np.sqrt(diag)[:, None] * gen.standard_normal((p, n))
    model = {"mu": mu.tolist(), "sigma": {"diag": diag.tolist()}, "b": b.tolist(),
             "nu": {"kind": "truncated_normal_abs", "omega": {"diag": [1.0] * q}}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    np.savetxt(tmp_path / "data.csv", x, fmt="%.17g", delimiter=",")
    args = (mu, np.diag(diag), b, np.eye(q), x)
    oracles = [("column-mean", *checks.mean_log_density(*args))]
    if p * n <= 800:
        oracles.append(("dense", *checks.dense_log_density(*args)))
    return oracles


# Small shapes get both oracles; the q >= 3 shapes of the density-mix
# workload get the column-mean oracle only.
@pytest.mark.parametrize("shape", [(1, 5, 1), (4, 6, 2), (5, 8, 3),
                                   (50, 200, 3), (50, 200, 5), (100, 200, 10)])
def test_density_check_accepts_program_and_rejects_offset(tmp_path, capsys, shape):
    oracles = density_case(tmp_path, *shape, seed=sum(shape))
    capsys.readouterr()
    assert locmix_main(["density", "--model", str(tmp_path / "model.json"),
                        "--data", str(tmp_path / "data.csv")]) == 0
    value = json.loads(capsys.readouterr().out)["log_density"]
    assert checks.check_density(value, oracles) == []
    for _, oracle, tol in oracles:
        for sign in (1.0, -1.0):
            wrong = oracle + sign * 1.01 * tol
            assert checks.check_density(wrong, oracles)


def test_density_check_rejects_nonfinite():
    assert checks.check_density(float("-inf"), [])
    assert checks.check_density(float("nan"), [("dense", -3.0, 1e-3)])
    assert checks.check_density(-3.0, []) == []
