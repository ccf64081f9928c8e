import numpy as np
import pytest

from locmix import Degenerate, GeneralizedAsymmetricLaplace, TruncatedNormalAbs
from locmix.errors import InvalidInputError
from locmix.modelfile import load_model, save_model
from locmix.verify import dense_test_model


def test_roundtrip(tmp_path):
    model, _ = dense_test_model(3, 2, seed=50)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_allclose(loaded.mu, model.mu)
    np.testing.assert_allclose(loaded.sigma, model.sigma)
    np.testing.assert_allclose(loaded.b, model.b)
    assert isinstance(loaded.nu, TruncatedNormalAbs)


def test_diag_shorthand(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"mu": [0.0, 1.0], "sigma": {"diag": [1.0, 2.0]},'
        ' "b": [[1.0], [0.0]],'
        ' "nu": {"kind": "degenerate", "value": [0.5]}}'
    )
    model = load_model(path)
    np.testing.assert_array_equal(model.sigma, np.diag([1.0, 2.0]))
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
