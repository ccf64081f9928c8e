import json

import numpy as np
import pytest

from locmix import (
    Degenerate,
    GeneralizedAsymmetricLaplace,
    RngStream,
    TruncatedNormalAbs,
    build_workspace,
    generate_paper_model,
    log_density,
    sample_data_matrix,
)
from locmix.errors import InvalidInputError
from locmix.harness import default_nu
from locmix.modelfile import load_model, save_model
from locmix.verify import dense_test_model


def test_roundtrip(tmp_path):
    model, _ = dense_test_model(3, 2, seed=50)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert list(json.loads(path.read_text())["sigma"]) == ["dense"]
    loaded = load_model(path)
    np.testing.assert_allclose(loaded.mu, model.mu)
    np.testing.assert_allclose(loaded.sigma, model.sigma)
    np.testing.assert_allclose(loaded.b, model.b)
    assert isinstance(loaded.nu, TruncatedNormalAbs)


def test_paper_model_roundtrip_keeps_diagonal_and_density(tmp_path):
    model = generate_paper_model(6, default_nu("tn", 2), 0)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert list(doc["sigma"]) == ["diag"] and list(doc["nu"]["omega"]) == ["dense"]
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.sigma, model.sigma)
    assert loaded.nu.omega.shape == (2, 2)
    x = sample_data_matrix(model, 8, RngStream(3, 0), 1)[0][0]
    assert log_density(build_workspace(loaded, 8), x) == log_density(build_workspace(model, 8), x)


def test_diag_shorthand(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"mu": [0.0, 1.0], "sigma": {"diag": [1.0, 2.0]},'
        ' "b": [[1.0], [0.0]],'
        ' "nu": {"kind": "degenerate", "value": [0.5]}}'
    )
    model = load_model(path)
    np.testing.assert_array_equal(model.sigma, [1.0, 2.0])
    assert isinstance(model.nu, Degenerate)


def test_gal_variant(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"mu": [0.0], "sigma": {"diag": [1.0]}, "b": [[1.0]],'
        ' "nu": {"kind": "gal", "m": [1.0], "sigma": {"diag": [1.0]}, "s": 10}}'
    )
    model = load_model(path)
    assert isinstance(model.nu, GeneralizedAsymmetricLaplace)
    assert model.nu.s == 10.0


def test_malformed_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_model(path)


def test_missing_field(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"mu": [0.0]}')
    with pytest.raises(InvalidInputError):
        load_model(path)


def test_inconsistent_dimensions(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"mu": [0.0, 1.0], "sigma": {"diag": [1.0, 2.0]},'
        ' "b": [[1.0], [0.0]],'
        ' "nu": {"kind": "degenerate", "value": [0.5, 0.5]}}'
    )
    with pytest.raises(InvalidInputError):
        load_model(path)


def test_bad_matrix_node(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"mu": [0.0], "sigma": {"diag": [1.0], "dense": [[1.0]]},'
        ' "b": [[1.0]], "nu": {"kind": "degenerate", "value": [0.5]}}'
    )
    with pytest.raises(InvalidInputError):
        load_model(path)


@pytest.mark.parametrize(
    "sigma", ['{"diag": [[1.0, 0.0], [0.0, 2.0]]}', '{"dense": [1.0, 2.0]}']
)
def test_matrix_node_rank_is_checked(tmp_path, sigma):
    path = tmp_path / "model.json"
    path.write_text(
        '{"mu": [0.0, 1.0], "sigma": ' + sigma + ', "b": [[1.0], [0.0]],'
        ' "nu": {"kind": "degenerate", "value": [0.5]}}'
    )
    # A (p,) dense Sigma must not pass as a diagonal, nor a matrix as a diag.
    with pytest.raises(InvalidInputError, match=r"must be a (vector|matrix)"):
        load_model(path)
