"""Fixtures shared by the whole suite."""

import pytest

from gromov_width import polytope


@pytest.fixture(autouse=True)
def fresh_normal_forms():
    """Start each test with an empty monotone_normalize memo, so a test that
    counts enumerations sees the same calls whatever ran before it."""
    polytope._normalized.cache_clear()
