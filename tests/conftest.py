"""Fixtures shared across test modules."""

import pytest

from sgclone import verify_bounds


@pytest.fixture(scope="session")
def bounds_report():
    """One ``verify_bounds()`` report for every test that only reads it: the suite is exact."""
    return verify_bounds()
