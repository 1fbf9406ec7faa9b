"""Tests for repro.dissemination.coverage (multi-walk cover time)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dissemination.coverage import CoverProcess, multi_walk_cover_time
from repro.dissemination.kernels import run_process_replications
from repro.grid.lattice import Grid2D
from repro.util.validation import ValidationError

from tests.strategies import max_examples


class TestMultiWalkCoverTime:
    def test_completes_on_small_grid(self, rng):
        grid = Grid2D(6)
        result = multi_walk_cover_time(grid, n_walkers=4, max_steps=100000, rng=rng)
        assert result.completed
        assert result.fraction_covered == 1.0
        assert result.cover_time >= 0

    def test_coverage_curve_monotone(self, rng):
        grid = Grid2D(6)
        result = multi_walk_cover_time(grid, n_walkers=4, max_steps=100000, rng=rng)
        assert np.all(np.diff(result.coverage_curve) >= 0)
        assert result.coverage_curve[-1] == grid.n_nodes

    def test_single_node_grid(self, rng):
        grid = Grid2D(1)
        result = multi_walk_cover_time(grid, n_walkers=1, max_steps=10, rng=rng)
        assert result.completed
        assert result.cover_time == 0

    def test_incomplete_when_horizon_too_small(self, rng):
        grid = Grid2D(32)
        result = multi_walk_cover_time(grid, n_walkers=1, max_steps=10, rng=rng)
        assert not result.completed
        assert result.cover_time == -1
        assert result.fraction_covered < 1.0

    def test_more_walkers_cover_faster(self, rng):
        grid = Grid2D(8)
        few = multi_walk_cover_time(grid, n_walkers=1, max_steps=200000, rng=rng)
        many = multi_walk_cover_time(grid, n_walkers=16, max_steps=200000, rng=rng)
        assert many.cover_time <= few.cover_time

    def test_time_to_cover_fraction(self, rng):
        grid = Grid2D(8)
        result = multi_walk_cover_time(grid, n_walkers=8, max_steps=200000, rng=rng)
        t_half = result.time_to_cover_fraction(0.5)
        t_full = result.time_to_cover_fraction(1.0)
        assert 0 <= t_half <= t_full

    def test_time_to_cover_fraction_unreached(self, rng):
        grid = Grid2D(32)
        result = multi_walk_cover_time(grid, n_walkers=1, max_steps=5, rng=rng)
        assert result.time_to_cover_fraction(1.0) == -1

    def test_invalid_arguments(self, rng):
        grid = Grid2D(4)
        with pytest.raises(ValidationError):
            multi_walk_cover_time(grid, 0, 10, rng=rng)
        with pytest.raises(ValidationError):
            multi_walk_cover_time(grid, 1, 0, rng=rng)


@pytest.mark.property
@settings(deadline=None, max_examples=max_examples(25))
@given(
    side=st.integers(1, 6),
    n_walkers=st.integers(1, 4),
    max_steps=st.sampled_from([20, 400]),
    rule=st.sampled_from(["lazy", "simple"]),
    n_replications=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    backend=st.sampled_from(["serial", "batched"]),
    fraction=st.floats(0.0, 1.0),
)
def test_time_to_cover_fraction_is_a_time(
    side, n_walkers, max_steps, rule, n_replications, seed, backend, fraction
):
    """The coverage curve has one entry per time from 0, so the first index
    reaching a fraction is the time it was reached, and at 1 the cover time."""
    process = CoverProcess(side, n_walkers, max_steps, rule=rule)
    _, results = run_process_replications(process, n_replications, seed=seed, backend=backend)
    for result in results:
        curve = result.coverage_curve
        assert curve.size == result.n_steps + 1
        reached = [t for t, covered in enumerate(curve) if covered >= fraction * result.n_nodes]
        assert result.time_to_cover_fraction(fraction) == (reached[0] if reached else -1)
        if result.completed:
            assert result.time_to_cover_fraction(1.0) == result.cover_time
