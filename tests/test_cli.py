import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from locmix import cli
from locmix.cli import main
from locmix.errors import (
    AccuracyNotMetError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RegimeError,
)


def run_cli(*args):
    return main(list(args))


def simulate_args(out, nreps=500, extra=()):
    return [
        "simulate",
        "--p", "10",
        "--n", "60",
        "--q", "3",
        "--nreps", str(nreps),
        "--product", "cov",
        "--nu", "tn",
        "--seed", "5",
        "--out", str(out),
        "--threads", "1",
        *extra,
    ]


_DENSITY_STACK = ("scipy.special", "scipy.stats", "scipy.integrate")


def _fresh_interpreter(code, check=True):
    """Run ``code`` in a fresh interpreter that imports this tree's locmix."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=check,
    )


def _loaded_density_stack(code):
    """Run ``code`` in a fresh interpreter; return the density-stack modules it loaded."""
    code += f"; print(sorted(m for m in {_DENSITY_STACK!r} if m in sys.modules))"
    return _fresh_interpreter(code).stdout.strip().splitlines()[-1]


def test_import_leaves_density_stack_unloaded():
    # Sampling runs must not pay for scipy.special, scipy.stats or
    # scipy.integrate; only the orthant probability and the verify oracles
    # import them.
    assert _loaded_density_stack("import sys, locmix, locmix.cli") == "[]"


def test_figure_run_leaves_density_stack_unloaded(tmp_path):
    argv = ["figure", "--figure", "1", "--panel", "a", "--nreps", "2000"]
    argv += ["--threads", "1", "--out", str(tmp_path / "run")]
    code = f"import sys; from locmix.cli import main; assert main({argv!r}) == 0"
    assert _loaded_density_stack(code) == "[]"
    assert (tmp_path / "run" / "report.json").exists()


def test_density_q1_run_leaves_scipy_stats_unloaded(tmp_path):
    # A diagonal orthant is a product of normal CDFs: no Sobol engine.
    (tmp_path / "model.json").write_text(json.dumps(TINY_MODEL))
    (tmp_path / "data.csv").write_text("0.5,1.25\n")
    argv = ["density", "--model", str(tmp_path / "model.json")]
    argv += ["--data", str(tmp_path / "data.csv")]
    code = f"import sys; from locmix.cli import main; assert main({argv!r}) == 0"
    assert _loaded_density_stack(code) == "['scipy.special']"


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*simulate_args(out)) == 0
    for name in ("samples.csv", "kde.csv", "report.json", "manifest.json"):
        assert (out / name).exists()
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "standardized"
    assert len(lines) == 501
    kde_lines = (out / "kde.csv").read_text().splitlines()
    assert kde_lines[0] == "x,density"
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {
        "ks",
        "bandwidth",
        "bandwidth_on_grid_edge",
        "mean",
        "variance",
        "skewness",
        "config",
        "duration_seconds",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["p"] == 10
    assert manifest["config"].keys() == cli._MANIFEST_KEYS


def test_samples_roundtrip_17_digits(tmp_path):
    out = tmp_path / "run"
    run_cli(*simulate_args(out))
    text = (out / "samples.csv").read_text().splitlines()[1:]
    values = np.array([float(v) for v in text])
    # Re-running in process must give floats that round-trip exactly.
    out2 = tmp_path / "run2"
    run_cli(*simulate_args(out2))
    values2 = np.array(
        [float(v) for v in (out2 / "samples.csv").read_text().splitlines()[1:]]
    )
    np.testing.assert_array_equal(values, values2)


def test_simulate_byte_identical_and_thread_independent(tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_cli(*simulate_args(out1))
    run_cli(*simulate_args(out2))
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "kde.csv").read_bytes() == (out2 / "kde.csv").read_bytes()
    args = simulate_args(out3)
    args[args.index("--threads") + 1] = "2"
    run_cli(*args)
    assert (out1 / "samples.csv").read_bytes() == (out3 / "samples.csv").read_bytes()
    # --threads also scores the bandwidth candidates.
    assert (out1 / "kde.csv").read_bytes() == (out3 / "kde.csv").read_bytes()


def test_manifest_replay(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(*simulate_args(out1))
    assert run_cli("replay", str(out1 / "manifest.json"), "--out", str(out2), "--threads", "2") == 0
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out1 / "kde.csv").read_bytes() == (out2 / "kde.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("duration_seconds")
    r2.pop("duration_seconds")
    assert r1 == r2


def test_simulate_regime_violation_exit_3(tmp_path):
    code = run_cli(
        "simulate",
        "--p", "30",
        "--n", "20",
        "--product", "precision",
        "--nreps", "500",
        "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 3


def test_simulate_missing_required_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--n", "20", "--seed", "1", "--out", str(tmp_path / "x"))
    assert err.value.code == 2


@pytest.mark.parametrize("q", ["0", "-1"])
def test_simulate_q_below_one_exit_2(tmp_path, capsys, q):
    out = tmp_path / "x"
    args = ("--p", "5", "--n", "20", "--q", q, "--nreps", "200", "--seed", "1")
    assert run_cli("simulate", *args, "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == ["error: q must be >= 1 (got %s)" % q]
    assert not (out / "samples.csv").exists()


def test_bad_flag_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--frobble", "1")
    assert err.value.code == 2


def test_io_failure_exit_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    code = run_cli(*simulate_args(blocker / "sub"))
    assert code == 4


def test_figure_command(tmp_path):
    out = tmp_path / "fig"
    code = run_cli(
        "figure",
        "--figure", "2",
        "--panel", "a",
        "--nreps", "300",
        "--seed", "2",
        "--out", str(out),
        "--threads", "1",
    )
    assert code == 0
    kde_lines = (out / "kde.csv").read_text().splitlines()
    assert kde_lines[0] == "x,density,normal"
    x, _, normal = kde_lines[1].split(",")
    assert float(normal) == pytest.approx(
        np.exp(-0.5 * float(x) ** 2) / np.sqrt(2 * np.pi)
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["p"] == 250
    assert manifest["config"]["n"] == 500
    assert manifest["config"]["product"] == "cov"


def test_figure_unknown_exit_2(tmp_path):
    assert run_cli("figure", "--figure", "9", "--panel", "a", "--out", str(tmp_path)) == 2


def test_figure_manifest_replay_keeps_normal_column(tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    run_cli(
        "figure",
        "--figure", "1",
        "--panel", "a",
        "--nreps", "200",
        "--seed", "4",
        "--out", str(out1),
        "--threads", "1",
    )
    run_cli("replay", str(out1 / "manifest.json"), "--out", str(out2), "--threads", "1")
    assert (out1 / "kde.csv").read_bytes() == (out2 / "kde.csv").read_bytes()


def test_density_command(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "mu": [0.3],
                "sigma": {"diag": [0.8]},
                "b": [[0.7]],
                "nu": {"kind": "truncated_normal_abs", "omega": {"diag": [1.5]}},
            }
        )
    )
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.5,1.25\n")
    assert run_cli("density", "--model", str(model_path), "--data", str(data_path)) == 0


def test_density_b_zero_matches_matrix_normal(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "mu": [0.1, -0.2],
                "sigma": {"diag": [1.0, 2.0]},
                "b": [[0.0], [0.0]],
                "nu": {"kind": "truncated_normal_abs", "omega": {"diag": [1.0]}},
            }
        )
    )
    data_path = tmp_path / "data.csv"
    data = np.array([[0.4, -0.3, 0.1], [1.0, 0.2, -0.5]])
    data_path.write_text("\n".join(",".join(map(str, row)) for row in data) + "\n")
    assert run_cli("density", "--model", str(model_path), "--data", str(data_path)) == 0
    out = json.loads(capsys.readouterr().out)
    from scipy.stats import multivariate_normal

    mu = np.array([0.1, -0.2])
    cov = np.diag([1.0, 2.0])
    ref = sum(
        multivariate_normal(mean=mu, cov=cov).logpdf(data[:, j]) for j in range(3)
    )
    assert out["log_density"] == pytest.approx(ref, rel=1e-12)


def test_density_non_tn_exit_3(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "mu": [0.0],
                "sigma": {"diag": [1.0]},
                "b": [[1.0]],
                "nu": {"kind": "gal", "m": [1.0], "sigma": {"diag": [1.0]}, "s": 10},
            }
        )
    )
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.0,1.0\n")
    assert run_cli("density", "--model", str(model_path), "--data", str(data_path)) == 3


def test_density_malformed_csv_exit_2(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "mu": [0.0],
                "sigma": {"diag": [1.0]},
                "b": [[1.0]],
                "nu": {"kind": "truncated_normal_abs", "omega": {"diag": [1.0]}},
            }
        )
    )
    data_path = tmp_path / "data.csv"
    data_path.write_text("not,numbers\nat all\n")
    assert run_cli("density", "--model", str(model_path), "--data", str(data_path)) == 2


def test_density_dimension_mismatch_exit_2(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "mu": [0.0],
                "sigma": {"diag": [1.0]},
                "b": [[1.0]],
                "nu": {"kind": "truncated_normal_abs", "omega": {"diag": [1.0]}},
            }
        )
    )
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.0,1.0\n2.0,1.0\n")  # two rows but model has p = 1
    assert run_cli("density", "--model", str(model_path), "--data", str(data_path)) == 2


def test_verify_density_suite(capsys):
    assert run_cli("verify", "--suite", "density", "--seed", "3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert {"name", "tolerance", "observed", "passed", "detail"} <= set(doc["checks"][0])


VERIFY_ALL_CHECKS = [
    "representation-vs-oracle cov p=3 n=12 q=1 nu=tn",
    "representation-vs-oracle precision p=3 n=12 q=1 nu=tn",
    "representation-vs-oracle cov p=3 n=12 q=1 nu=gal",
    "representation-vs-oracle precision p=3 n=12 q=1 nu=gal",
    "representation-vs-oracle cov p=5 n=20 q=2 nu=tn",
    "representation-vs-oracle precision p=5 n=20 q=2 nu=tn",
    "representation-vs-oracle cov p=5 n=20 q=2 nu=gal",
    "representation-vs-oracle precision p=5 n=20 q=2 nu=gal",
    "representation-vs-oracle cov p=8 n=25 q=3 nu=tn",
    "representation-vs-oracle precision p=8 n=25 q=3 nu=tn",
    "representation-vs-oracle cov p=8 n=25 q=3 nu=gal",
    "representation-vs-oracle precision p=8 n=25 q=3 nu=gal",
    "singular-regime cov p=15 n=10 nu=tn",
    "singular-regime cov p=15 n=10 nu=gal",
    "std-normal mean (dim=1)",
    "chi2(100) mean rel err",
    "chi2(100) variance rel err",
    "noncentral chi2(50, 25) mean rel err",
    "noncentral chi2 lambda=0 reduction (two-sample KS)",
    "F(10,10) mean rel err",
    "noncentral F(5,30,20) mean rel err",
    "half-normal componentwise mean rel err",
    "gamma-mixture componentwise mean rel err",
    "Wishart mean rel Frobenius (p=4,n=20)",
    "independence |corr(tr S, l'xbar)|",
    "independence |corr(l'S l, l'xbar)|",
    "mean-vector marginal: componentwise mean (units of 3 se)",
    "mean-vector marginal: cov rel Frobenius",
    "S invariant to mixing law (tr S two-sample KS)",
    "cov conditional variance rel err (p=200, n=2000)",
    "cov conditional mean (units of 3 se)",
    "precision conditional variance rel err (p=100, n=1000)",
    "precision centering vs exact mean (units of 3 se)",
    "precision asymptotic centre rel err vs exact mean",
    "variance form identity over 1000 instances (rel)",
    "sigma2 continuity at c=0 (rel)",
    "sigma2 at c=0 equals classical form (rel)",
    "sigma2_tilde continuity at c=0 (rel)",
    "sigma2_tilde strictly increasing in c",
    "determinant identity (p=2, n=3, q=2) rel err",
    "determinant identity (p=3, n=2, q=1) rel err",
    "density normalization at (1,2,1)",
    "density vs mixing-integral quadrature at (1,2,1)",
    "orthant q=1 symmetry",
    "orthant q=2 independent",
    "orthant q=2 rho=0.5 closed form",
    "zero-loading collapse to matrix normal (abs log diff)",
    "sampling vs density (2-D KDE rel err where density > 0.05)",
]


def test_verify_all_suites_seed_0(capsys):
    assert run_cli("verify", "--suite", "all", "--seed", "0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == VERIFY_ALL_CHECKS


def test_verify_failing_check_exit_1(monkeypatch, capsys):
    import locmix.verify as verify

    def fake_suite(seed):
        return [verify.CheckResult("forced failure", 0.0, 1.0, False)]

    monkeypatch.setitem(verify.SUITES, "density", fake_suite)
    assert run_cli("verify", "--suite", "density") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


def test_verify_unknown_suite_is_invalid_input():
    from locmix.verify import run_suite

    with pytest.raises(InvalidInputError, match="unknown suite 'nope'"):
        run_suite("nope")


# The exit code and stderr prefix of each error type, as the README lists them.
_EXIT_CONTRACT = [
    (InvalidInputError("bad input"), 2, "error: "),
    (NotPositiveDefiniteError("not positive definite", -1.0), 2, "error: "),
    (RegimeError("outside the regime"), 3, "error: "),
    (OSError("disk gone"), 4, "I/O error: "),
    (AccuracyNotMetError("budget exhausted", 1e-3), 5, "accuracy not met: "),
]


@pytest.mark.parametrize(
    "exc, code, prefix", _EXIT_CONTRACT, ids=[type(c[0]).__name__ for c in _EXIT_CONTRACT]
)
def test_exit_code_per_error_type(monkeypatch, capsys, exc, code, prefix):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_verify", fail)
    assert run_cli("verify", "--suite", "oracle") == code
    assert capsys.readouterr().err.splitlines() == [prefix + str(exc)]


def test_manifest_missing_field_exit_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {"p": 10, "n": 60, "block_size": 4096}}))
    assert run_cli("replay", str(manifest), "--out", str(tmp_path / "x")) == 2


def test_replay_older_manifest_names_retired_fields(tmp_path, monkeypatch, capsys):
    # Manifests that still hold c, q and the grids were written before
    # those became derived or fixed; they might have meant another run.
    run_cli(*simulate_args(tmp_path / "a"))
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    retired = {"q": 3, "c": 10 / 60, "kde_grid": [-4.0, 4.0, 201], "bandwidth_grid": None}
    manifest["config"].update(retired)
    (tmp_path / "old.json").write_text(json.dumps(manifest))

    def no_draw(*args, **kwargs):
        raise AssertionError("replicates were drawn from an older manifest")

    monkeypatch.setattr(cli, "run_experiment", no_draw)
    capsys.readouterr()
    assert run_cli("replay", str(tmp_path / "old.json"), "--out", str(tmp_path / "b")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: manifest config has fields this version does not read: "
        "bandwidth_grid, c, kde_grid, q"
    ]


TINY_MODEL = {
    "mu": [0.3],
    "sigma": {"diag": [0.8]},
    "b": [[0.7]],
    "nu": {"kind": "truncated_normal_abs", "omega": {"diag": [1.5]}},
}


def write_density_inputs(tmp_path, model_text, data_text):
    (tmp_path / "model.json").write_text(model_text)
    (tmp_path / "data.csv").write_text(data_text)
    return "density", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv")


def test_density_nan_data_exit_2(tmp_path):
    args = write_density_inputs(tmp_path, json.dumps(TINY_MODEL), "0.5,nan\n")
    assert run_cli(*args) == 2


def test_density_infinite_model_exit_2(tmp_path):
    text = json.dumps(dict(TINY_MODEL, mu=[float("inf")]))
    assert "Infinity" in text
    args = write_density_inputs(tmp_path, text, "0.5,1.25\n")
    assert run_cli(*args) == 2


def test_density_asymmetric_sigma_exit_2(tmp_path, capsys):
    # Sigma and Omega share one symmetry rule, so one message.
    asym = {"dense": [[1, 0.3], [0.3 + 5e-11, 1]]}
    identity = {"diag": [1, 1]}
    for field in ("sigma", "omega"):
        model = dict(TINY_MODEL, mu=[0.0, 0.0], sigma=identity, b=[[0.5, 0], [0.5, 1]])
        model["nu"] = {"kind": "truncated_normal_abs", "omega": identity}
        if field == "sigma":
            model["sigma"] = asym
        else:
            model["nu"]["omega"] = asym
        args = write_density_inputs(tmp_path, json.dumps(model), "0.5,1.25\n0.1,-0.2\n")
        assert run_cli(*args) == 2
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ")
        assert err.endswith(f"{field} is not symmetric (relative asymmetry 5.000e-11)")


@pytest.mark.parametrize("command", ["replay", "density"])
def test_non_utf8_json_file_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    if command == "replay":
        args = ("replay", str(bad), "--out", str(tmp_path / "out"))
    else:
        (tmp_path / "data.csv").write_text("0.5,1.25\n")
        args = ("density", "--model", str(bad), "--data", str(tmp_path / "data.csv"))
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("data_text", ["", "# no rows\n"])
def test_density_empty_csv_one_error_line(tmp_path, data_text):
    # Checked in a fresh interpreter: pytest would capture numpy's
    # "input contained no data" warning instead of letting it reach stderr.
    args = list(write_density_inputs(tmp_path, json.dumps(TINY_MODEL), data_text))
    code = f"import sys; from locmix.cli import main; sys.exit(main({args!r}))"
    done = _fresh_interpreter(code, check=False)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"error: data CSV {args[-1]} holds no numbers"]


@pytest.mark.parametrize("replace_data", ["missing-beside-gz", "directory"])
def test_density_unreadable_data_exit_4(tmp_path, capsys, replace_data):
    # --data names a file that cannot be opened.  A compressed sibling such
    # as data.csv.gz is not read in its place.
    args = write_density_inputs(tmp_path, json.dumps(TINY_MODEL), "0.5,1.25\n")
    data = tmp_path / "data.csv"
    with gzip.open(tmp_path / "data.csv.gz", "wt") as f:
        f.write(data.read_text())
    data.unlink()
    if replace_data == "directory":
        data.mkdir()
    assert run_cli(*args) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("I/O error: ") and len(captured.err.splitlines()) == 1


def test_density_accuracy_not_met_exit_5(tmp_path, monkeypatch):
    import locmix.density as density
    from locmix.errors import AccuracyNotMetError

    def give_up(*args, **kwargs):
        raise AccuracyNotMetError("forced", 1.0)

    monkeypatch.setattr(density, "mvn_orthant_cdf", give_up)
    args = write_density_inputs(tmp_path, json.dumps(TINY_MODEL), "0.5,1.25\n")
    assert run_cli(*args) == 5


def test_manifest_records_stream_contract_and_environment(tmp_path):
    import platform

    import scipy

    out = tmp_path / "run"
    assert run_cli(*simulate_args(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["config"]["block_size"] == 4096
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bit_generator": "PCG64",
        "blas": {
            "name": blas["name"],
            "version": blas["version"],
            "threads": cli._blas_threads(),
        },
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_threads_read_from_numpy_openblas(threads):
    if cli._blas_threads() is None:
        pytest.skip("numpy does not bundle an OpenBLAS whose thread count can be read")
    code = (
        f"import os; os.environ['OPENBLAS_NUM_THREADS'] = '{threads}'; "
        "from locmix import cli; print(cli._blas_threads())"
    )
    assert _fresh_interpreter(code).stdout.split() == [str(threads)]


@pytest.mark.parametrize("block_size", [None, 1])
def test_manifest_replay_other_block_size_exit_2(tmp_path, capsys, block_size):
    out = tmp_path / "run"
    run_cli(*simulate_args(out))
    manifest = json.loads((out / "manifest.json").read_text())
    if block_size is None:
        del manifest["config"]["block_size"]
    else:
        manifest["config"]["block_size"] = block_size
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", str(tmp_path / "old.json"), "--out", str(tmp_path / "x")) == 2
    assert "stream contract" in capsys.readouterr().err


def test_manifest_replay_other_numpy_warns(tmp_path, caplog):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(*simulate_args(out1))
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["environment"]["numpy"] = "0.0.1"
    (tmp_path / "old.json").write_text(json.dumps(manifest))
    replay = ("replay", str(tmp_path / "old.json"), "--out", str(out2))
    with caplog.at_level("WARNING", logger="locmix.cli"):
        assert run_cli(*replay) == 0
    assert any("numpy 0.0.1" in r.getMessage() for r in caplog.records)
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    caplog.clear()
    with caplog.at_level("WARNING", logger="locmix.cli"):
        run_cli("replay", str(out1 / "manifest.json"), "--out", str(out2))
    assert not caplog.records


def test_manifest_replay_other_blas_threads_warns(tmp_path, caplog):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(*simulate_args(out1))
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["environment"]["blas"]["threads"] = 64
    (tmp_path / "other.json").write_text(json.dumps(manifest))
    with caplog.at_level("WARNING", logger="locmix.cli"):
        assert run_cli("replay", str(tmp_path / "other.json"), "--out", str(out2)) == 0
    (record,) = caplog.records
    assert "written with 64 BLAS threads" in record.getMessage()
    assert f"this process has {cli._blas_threads()};" in record.getMessage()


def test_samples_csv_chunks_match_one_join(tmp_path):
    values = np.random.default_rng(3).standard_normal(2 * cli._CSV_CHUNK + 3)
    values[:4] = [-0.0, 1e-300, 0.1, np.pi]
    cli._write_samples(tmp_path / "samples.csv", values)
    body = "\n".join(map("%.17g".__mod__, values.tolist()))
    expected = ("standardized\n" + body + "\n").encode()
    assert (tmp_path / "samples.csv").read_bytes() == expected


def test_density_far_tail_exit_5_without_infinity(tmp_path, capsys):
    from locmix import RngStream, default_nu, generate_paper_model, sample_data_matrix
    from locmix.modelfile import save_model

    model = generate_paper_model(5, default_nu("tn", 2), 0)
    x, _ = sample_data_matrix(model, 10, RngStream(1, 0), 1)
    data = x[0]
    save_model(model, tmp_path / "model.json")
    np.savetxt(tmp_path / "data.csv", data - 10.0, delimiter=",", fmt="%.17g")
    code = run_cli(
        "density", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv")
    )
    captured = capsys.readouterr()
    assert code == 5
    assert "Infinity" not in captured.out
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--model-seed", "-3")])
def test_negative_seed_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    # argparse keeps the last value of a repeated flag.
    assert run_cli(*simulate_args(out, nreps=200, extra=(flag, value))) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", "x"),
        ("product", "foo"),
        # Retired fields are refused whatever their value.
        ("kde_grid", [1, 2]),
        ("kde_grid", [-4, 4, 201.5]),
        ("p", 10.7),
        ("n", 60.5),
        ("q", 3.2),
        ("n_reps", 500.5),
        ("master_seed", 5.5),
        ("model_seed", 0.25),
        ("bandwidth_grid", ["a"]),
        ("bandwidth_grid", [-1.0, 0.0]),
        ("bandwidth_grid", []),
        ("bandwidth_grid", [0.1, float("inf")]),
    ],
)
def test_manifest_malformed_field_exit_2(tmp_path, monkeypatch, field, value):
    run_cli(*simulate_args(tmp_path / "a"))
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest["config"][field] = value
    (tmp_path / "bad.json").write_text(json.dumps(manifest))

    def no_draw(*args, **kwargs):
        raise AssertionError("replicates were drawn from a malformed manifest")

    # Rejected before any replicate is drawn.
    monkeypatch.setattr(cli, "run_experiment", no_draw)
    out = tmp_path / "b"
    assert run_cli("replay", str(tmp_path / "bad.json"), "--out", str(out)) == 2
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize(
    "make_doc",
    [
        lambda manifest: [1, 2],
        lambda manifest: {"config": [1]},
        lambda manifest: dict(manifest, environment=["numpy"]),
    ],
    ids=["list", "config-list", "environment-list"],
)
def test_manifest_not_an_object_exit_2(tmp_path, monkeypatch, capsys, make_doc):
    run_cli(*simulate_args(tmp_path / "a"))
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    (tmp_path / "bad.json").write_text(json.dumps(make_doc(manifest)))

    def no_draw(*args, **kwargs):
        raise AssertionError("replicates were drawn from a malformed manifest")

    monkeypatch.setattr(cli, "run_experiment", no_draw)
    capsys.readouterr()
    code = run_cli("replay", str(tmp_path / "bad.json"), "--out", str(tmp_path / "b"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_replay_manifest_without_config_exit_2(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"environment": {}}))
    code = run_cli("replay", str(tmp_path / "bad.json"), "--out", str(tmp_path / "b"))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: manifest, config and environment must be JSON objects"
    ]


@pytest.mark.parametrize(
    "option",
    [
        ("--p", "3"),
        ("--n", "60"),
        ("--q", "10"),
        ("--c", "0.5"),
        ("--product", "cov"),
        ("--nu", "tn"),
        ("--seed", "9"),
        ("--nreps", "100000"),
        ("--model-seed", "0"),
        ("--nreps", "50", "--seed", "9", "--p", "3"),
    ],
    ids=lambda option: " ".join(option),
)
def test_manifest_with_run_option_exit_2(tmp_path, monkeypatch, capsys, option):
    # The manifest fixes the run: replay takes no run option, not even
    # one equal to the manifest's value, and names each one it refuses.
    run_cli(*simulate_args(tmp_path / "a"))

    def no_draw(*args, **kwargs):
        raise AssertionError("replicates were drawn despite ignored options")

    monkeypatch.setattr(cli, "run_experiment", no_draw)
    capsys.readouterr()
    manifest = str(tmp_path / "a" / "manifest.json")
    out = tmp_path / "b"
    with pytest.raises(SystemExit) as exit_:
        run_cli("replay", manifest, *option, "--out", str(out))
    err = capsys.readouterr().err.splitlines()
    assert exit_.value.code == 2
    assert "error: unrecognized arguments: " in err[-1]
    assert all(flag in err[-1] for flag in option if flag.startswith("--"))
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_2(tmp_path, threads):
    out = tmp_path / "run"
    assert run_cli(*simulate_args(out, extra=("--threads", threads))) == 2
    figure = ("figure", "--figure", "1", "--panel", "a", "--nreps", "200")
    assert run_cli(*figure, "--out", str(out), "--threads", threads) == 2
    assert not (out / "samples.csv").exists()


def test_many_calls_in_one_process(tmp_path, monkeypatch, capsys):
    # Each call of a sequence in one process gives the exit code, output
    # and files it gives as the first call of a process, and the parser is
    # built once for the whole sequence.
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    density = write_density_inputs(tmp_path, json.dumps(TINY_MODEL), "0.5,1.25\n")
    no_data = density[:3]  # a usage error

    def verify_replaced(args):
        print(f"replaced verify of {args.suite}")
        return 1

    def outcome(argv):
        capsys.readouterr()
        with monkeypatch.context() as patch:
            # Replaced after the parser is built, and still the one that runs.
            if argv[0] == "verify":
                patch.setattr(cli, "_cmd_verify", verify_replaced)
            try:
                code = run_cli(*argv)
            except SystemExit as exc:
                code = exc.code
        files = []
        if argv[0] == "simulate":
            out = Path(argv[argv.index("--out") + 1])
            files = [(out / "samples.csv").read_text(), (out / "kde.csv").read_text()]
        return code, capsys.readouterr(), files

    def calls(out):
        return [simulate_args(out), density, no_data, density, ("verify", "--suite", "oracle")]

    first = []
    for argv in calls(tmp_path / "first"):
        monkeypatch.setattr(cli, "_parser", None, raising=False)
        first.append(outcome(argv))
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    builds.clear()
    in_turn = [outcome(argv) for argv in calls(tmp_path / "turn")]
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 1]
    assert first[4][1].out == "replaced verify of oracle\n"
    assert in_turn == first
    assert len(builds) == 1
