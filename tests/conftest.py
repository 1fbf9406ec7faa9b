"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.lattice import Grid2D


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "property: Hypothesis property test (select with -m property)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid() -> Grid2D:
    """A 16 x 16 grid (256 nodes)."""
    return Grid2D(16)


@pytest.fixture
def tiny_grid() -> Grid2D:
    """A 5 x 5 grid, small enough for exhaustive checks."""
    return Grid2D(5)
