"""JSON model files: serialization of a full model specification.

Schema (all arrays are nested JSON lists of numbers)::

    {
      "mu": [...],                          # length p
      "sigma": {"diag": [...]}              # or {"dense": [[...], ...]}
      "b": [[...], ...],                    # p rows, q columns
      "nu": {"kind": "truncated_normal_abs", "omega": {"diag"|"dense": ...}}
            | {"kind": "gal", "m": [...], "sigma": {...}, "s": number}
            | {"kind": "degenerate", "value": [...]}
    }

Matrix fields accept either a ``diag`` shorthand or a full ``dense``
matrix; a ``diag`` Sigma stays a ``(p,)`` vector.  Parsing failures raise
:class:`InvalidInputError` with a diagnostic message.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .distributions import (
    Degenerate,
    GeneralizedAsymmetricLaplace,
    NuDistribution,
    TruncatedNormalAbs,
)
from .errors import InvalidInputError
from .model import ModelSpec


def _parse_matrix(node, name: str) -> NDArray:
    if not isinstance(node, dict) or ("diag" in node) == ("dense" in node):
        raise InvalidInputError(f"{name} must be an object with exactly one of 'diag'/'dense'")
    key, ndim, kind = ("diag", 1, "vector") if "diag" in node else ("dense", 2, "matrix")
    arr = np.asarray(node[key], dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name}.{key} must be a {kind}")
    return arr


def _parse_square(node, name: str) -> NDArray:
    mat = _parse_matrix(node, name)
    return np.diag(mat) if mat.ndim == 1 else mat


def parse_nu(node) -> NuDistribution:
    """Parse a mixing-law description (the ``nu`` schema node)."""
    if not isinstance(node, dict) or "kind" not in node:
        raise InvalidInputError("nu must be an object with a 'kind' field")
    kind = node["kind"]
    if kind == "truncated_normal_abs":
        return TruncatedNormalAbs(_parse_square(node["omega"], "nu.omega"))
    if kind == "gal":
        return GeneralizedAsymmetricLaplace(
            np.asarray(node["m"], dtype=float),
            _parse_square(node["sigma"], "nu.sigma"),
            float(node["s"]),
        )
    if kind == "degenerate":
        return Degenerate(np.asarray(node["value"], dtype=float))
    raise InvalidInputError(f"unknown nu kind {kind!r}")


def read_json(path: str | Path, what: str):
    """Parse a JSON file; bytes that are not UTF-8 JSON raise InvalidInputError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"{what} is not valid UTF-8 JSON: {exc}") from exc


def load_model(path: str | Path) -> ModelSpec:
    """Read a model specification from a JSON file."""
    doc = read_json(path, "model file")
    try:
        mu = np.asarray(doc["mu"], dtype=float)
        sigma = _parse_matrix(doc["sigma"], "sigma")
        b = np.asarray(doc["b"], dtype=float)
        nu = parse_nu(doc["nu"])
    except KeyError as exc:
        raise InvalidInputError(f"model file is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"model file field malformed: {exc}") from exc
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    try:
        return ModelSpec(mu=mu, sigma=sigma, b=b, nu=nu)
    except ValueError as exc:
        raise InvalidInputError(f"inconsistent model file: {exc}") from exc


def nu_to_json(nu: NuDistribution) -> dict:
    """JSON-serializable description of a mixing law."""
    if isinstance(nu, TruncatedNormalAbs):
        return {"kind": "truncated_normal_abs", "omega": {"dense": nu.omega.tolist()}}
    if isinstance(nu, GeneralizedAsymmetricLaplace):
        return {
            "kind": "gal",
            "m": nu.m.tolist(),
            "sigma": {"dense": nu.sigma.tolist()},
            "s": nu.s,
        }
    if isinstance(nu, Degenerate):
        return {"kind": "degenerate", "value": nu.value.tolist()}
    raise TypeError(f"unknown mixing distribution: {type(nu).__name__}")


def save_model(model: ModelSpec, path: str | Path) -> None:
    """Write a model specification as a JSON file."""
    doc = {
        "mu": model.mu.tolist(),
        "sigma": {"diag" if model.sigma.ndim == 1 else "dense": model.sigma.tolist()},
        "b": model.b.tolist(),
        "nu": nu_to_json(model.nu),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
