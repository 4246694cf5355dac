"""Fixtures shared across the test tree."""

import pytest


@pytest.fixture(scope="session")
def matrix_rows():
    """The whole differential matrix, oracle replays included, run once
    for the differential tests and for E8/E9's bug-detection tests."""
    from repro.analysis.differential import run_matrix

    return run_matrix()
