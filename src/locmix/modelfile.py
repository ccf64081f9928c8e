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
matrix.  Parsing failures raise :class:`InvalidInputError` with a
diagnostic message.
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
    if "diag" in node:
        return np.diag(np.asarray(node["diag"], dtype=float))
    dense = np.asarray(node["dense"], dtype=float)
    if dense.ndim != 2:
        raise InvalidInputError(f"{name}.dense must be a matrix")
    return dense


def parse_nu(node) -> NuDistribution:
    """Parse a mixing-law description (the ``nu`` schema node)."""
    if not isinstance(node, dict) or "kind" not in node:
        raise InvalidInputError("nu must be an object with a 'kind' field")
    kind = node["kind"]
    if kind == "truncated_normal_abs":
        return TruncatedNormalAbs(_parse_matrix(node["omega"], "nu.omega"))
    if kind == "gal":
        return GeneralizedAsymmetricLaplace(
            np.asarray(node["m"], dtype=float),
            _parse_matrix(node["sigma"], "nu.sigma"),
            float(node["s"]),
        )
    if kind == "degenerate":
        return Degenerate(np.asarray(node["value"], dtype=float))
    raise InvalidInputError(f"unknown nu kind {kind!r}")


def load_model(path: str | Path) -> ModelSpec:
    """Read a model specification from a JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"model file is not valid JSON: {exc}") from exc
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
        "sigma": {"dense": model.sigma.tolist()},
        "b": model.b.tolist(),
        "nu": nu_to_json(model.nu),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
