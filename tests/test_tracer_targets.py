"""The benchmark's tracer patches locmix names from outside the program.

A rename in ``locmix`` would otherwise surface only when a traced
benchmark run fails; this checks every name it looks up.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("locmix_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module_name, attr, span", TRACER.PATCHES)
def test_patched_name_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr)), f"{module_name}.{attr} ({span})"


@pytest.mark.parametrize("module_name", TRACER.STREAM_USERS)
def test_stream_user_has_rng_stream(module_name):
    module = importlib.import_module(module_name)
    assert isinstance(getattr(module, "RngStream"), type)


# Spans that the panel and density layer metrics read, as totals or
# through a parent's self time.
METRIC_SPANS = [
    "figures.figure_config",
    "harness.run_experiment",
    "harness.summarize_experiment",
    "harness.generate_paper_model",
    "products.precompute_quadratics",
    "products.sample_cov_product",
    "asymptotics.standardize",
    "kde.summarize",
    "kde.lscv_bandwidth",
    "kde.epanechnikov_kde",
    "kde.ks_statistic",
    "modelfile.load_model",
    "density.build_workspace",
    "density.log_density",
    "density.mvn_orthant_cdf",
]


def test_traced_cli_calls_reach_every_metric_span(tmp_path):
    # A call that bypasses a patched name would read 0 for its layer.
    import numpy as np

    from locmix import RngStream, default_nu, generate_paper_model, sample_data_matrix
    from locmix.cli import main
    from locmix.modelfile import save_model

    model = generate_paper_model(5, default_nu("tn", 2), 0)
    x, _ = sample_data_matrix(model, 10, RngStream(1, 0), 1)
    data = x[0]
    save_model(model, tmp_path / "model.json")
    np.savetxt(tmp_path / "data.csv", data, delimiter=",", fmt="%.17g")
    figure = ["figure", "--figure", "1", "--panel", "a", "--nreps", "500"]
    figure += ["--threads", "1", "--out", str(tmp_path / "run")]
    density = ["density", "--model", str(tmp_path / "model.json")]
    density += ["--data", str(tmp_path / "data.csv")]

    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert main(figure) == 0
        assert main(density) == 0
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    missed = [span for span in METRIC_SPANS if totals.get(span, {}).get("calls", 0) < 1]
    assert not missed
