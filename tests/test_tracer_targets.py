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
