import pytest

from locmix.verify import TINY_MODEL


@pytest.fixture
def tiny_tn_model():
    """(p, n, q) = (1, -, 1) half-normal model used by the density oracles."""
    return TINY_MODEL
