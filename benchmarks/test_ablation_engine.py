"""Ablation — vectorised walk stepping vs a per-agent Python loop.

DESIGN.md calls out the vectorised numpy stepping of all ``k`` walks as a key
engineering choice.  This benchmark quantifies the speed-up against a
straightforward per-agent Python implementation of the same lazy kernel and
checks that the two produce statistically identical behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import lazy_step

N_AGENTS = 512
N_STEPS = 50


def python_lazy_step(grid: Grid2D, positions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reference per-agent implementation of the paper's lazy kernel."""
    proposals = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    out = positions.copy()
    for i in range(positions.shape[0]):
        dx, dy = proposals[int(rng.integers(0, 5))]
        x, y = int(positions[i, 0]) + dx, int(positions[i, 1]) + dy
        if 0 <= x < grid.side and 0 <= y < grid.side:
            out[i, 0], out[i, 1] = x, y
    return out


def _run_many(step_fn, grid: Grid2D, rng: np.random.Generator) -> np.ndarray:
    positions = grid.random_positions(N_AGENTS, rng)
    for _ in range(N_STEPS):
        positions = step_fn(grid, positions, rng)
    return positions


@pytest.mark.benchmark(group="ablation-engine")
def test_ablation_engine_vectorised(benchmark):
    grid = Grid2D(64)
    result = benchmark(lambda: _run_many(lazy_step, grid, np.random.default_rng(0)))
    assert np.all(grid.contains(result))


@pytest.mark.benchmark(group="ablation-engine")
def test_ablation_engine_python_loop(benchmark):
    grid = Grid2D(64)
    result = benchmark.pedantic(
        lambda: _run_many(python_lazy_step, grid, np.random.default_rng(0)),
        rounds=3,
        iterations=1,
    )
    assert np.all(grid.contains(result))


def test_ablation_engine_same_distribution():
    """The two implementations induce the same single-step distribution."""
    grid = Grid2D(64)
    start = np.tile(grid.center(), (20000, 1))
    vec = lazy_step(grid, start, np.random.default_rng(1))
    ref = python_lazy_step(grid, start, np.random.default_rng(2))
    for direction in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        frac_vec = np.all(vec == start + np.array(direction), axis=1).mean()
        frac_ref = np.all(ref == start + np.array(direction), axis=1).mean()
        assert abs(frac_vec - frac_ref) < 0.03
