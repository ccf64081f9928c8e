import json

import numpy as np
import pytest

from locmix.cli import main


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
        "mean",
        "variance",
        "skewness",
        "config",
        "duration_seconds",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["p"] == 10
    assert manifest["config"]["c"] == pytest.approx(10 / 60)


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


def test_manifest_replay(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(*simulate_args(out1))
    assert (
        run_cli(
            "simulate",
            "--manifest", str(out1 / "manifest.json"),
            "--out", str(out2),
            "--threads", "2",
        )
        == 0
    )
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
    code = run_cli("simulate", "--n", "20", "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 2


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
    assert manifest["config"]["c"] == 0.5


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
    run_cli(
        "simulate",
        "--manifest", str(out1 / "manifest.json"),
        "--out", str(out2),
        "--threads", "1",
    )
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


def test_verify_failing_check_exit_1(monkeypatch, capsys):
    import locmix.verify as verify

    def fake_suite(seed):
        return [verify.CheckResult("forced failure", 0.0, 1.0, False)]

    monkeypatch.setitem(verify.SUITES, "density", fake_suite)
    assert run_cli("verify", "--suite", "density") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False


def test_manifest_missing_field_exit_2(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {"p": 10, "n": 60}}))
    code = run_cli(
        "simulate", "--manifest", str(manifest), "--out", str(tmp_path / "x")
    )
    assert code == 2


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


def test_density_accuracy_not_met_exit_5(tmp_path, monkeypatch):
    import locmix.density as density
    from locmix.errors import AccuracyNotMetError

    def give_up(*args, **kwargs):
        raise AccuracyNotMetError("forced", 1.0)

    monkeypatch.setattr(density, "mvn_orthant_cdf", give_up)
    args = write_density_inputs(tmp_path, json.dumps(TINY_MODEL), "0.5,1.25\n")
    assert run_cli(*args) == 5
