"""Single-walk utilities: trajectories, hitting times, displacement, range.

These helpers back the validation of Lemma 1 (visit probability of a node at
distance ``d`` within ``d^2`` steps) and Lemma 2 (displacement concentration
and number of distinct nodes visited).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import BLOCK_STEPS, StepRule, TapeStepper
from repro.walks.walkers import WalkEngine
from repro.util.rng import RandomState, default_rng


def walk_trajectory(
    grid: Grid2D,
    start: np.ndarray,
    steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> np.ndarray:
    """Trajectory of a single walk: ``(steps + 1, 2)`` array of positions."""
    start = np.asarray(start, dtype=np.int64).reshape(1, 2)
    engine = WalkEngine(grid, start, rule=rule, rng=rng)
    return engine.trajectory(steps)[:, 0, :]


#: Most bytes of visited-node marks :func:`walk_ranges` holds at once
#: (one byte per trial and node; larger batches run in groups).
_MARK_BYTES = 1 << 24


def walk_ranges(
    grid: Grid2D,
    start: np.ndarray,
    steps: int,
    rngs: Sequence[RandomState],
    rule: StepRule = "lazy",
) -> tuple[np.ndarray, np.ndarray]:
    """Range and maximum displacement of one walk per generator, all at once.

    Entry ``i`` of the two returned arrays equals
    ``distinct_nodes_visited(traj, grid)`` and ``max_displacement(traj)`` for
    ``traj = walk_trajectory(grid, start, steps, rngs[i], rule)``, bit for
    bit: the walks advance one vectorised step at a time, each reading its
    own generator through a :class:`~repro.mobility.kernels.TapeStepper`
    tape, and no trajectory is kept.  The tapes may draw past a walk's last
    step, so the generators must not be used afterwards.
    """
    start = np.asarray(start, dtype=np.int64).reshape(2)
    if not grid.contains(start):
        raise ValueError("the start lies outside the grid")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    rngs = list(rngs)
    ranges = np.empty(len(rngs), dtype=np.int64)
    displacements = np.empty(len(rngs), dtype=np.int64)
    group = max(1, _MARK_BYTES // grid.n_nodes)
    for lo in range(0, len(rngs), group):
        part = rngs[lo : lo + group]
        stepper = TapeStepper(grid, part, rule, n_walkers=1)
        active = np.arange(len(part))
        positions = np.tile(start, (len(part), 1, 1))
        visited = np.zeros((len(part), grid.n_nodes), dtype=bool)
        visited[:, grid.node_id(start)] = True
        farthest = np.zeros(len(part), dtype=np.int64)
        path = np.empty((len(part), BLOCK_STEPS, 2), dtype=np.int64)
        for done in range(0, steps, BLOCK_STEPS):
            block = path[:, : min(BLOCK_STEPS, steps - done)]
            for t in range(block.shape[1]):
                positions = stepper.step(positions, active)
                block[:, t] = positions[:, 0]
            visited[active[:, None], block[..., 0] * grid.side + block[..., 1]] = True
            np.maximum(farthest, np.abs(block - start).sum(axis=2).max(axis=1), out=farthest)
        ranges[lo : lo + group] = visited.sum(axis=1)
        displacements[lo : lo + group] = farthest
    return ranges, displacements


def hitting_time(
    grid: Grid2D,
    start: np.ndarray,
    target: np.ndarray,
    max_steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> int:
    """First time the walk started at ``start`` visits ``target``.

    Returns ``-1`` if the target is not hit within ``max_steps`` steps.
    Time 0 counts (a walk starting on the target hits it immediately).
    """
    start = np.asarray(start, dtype=np.int64).reshape(2)
    target = np.asarray(target, dtype=np.int64).reshape(2)
    if np.array_equal(start, target):
        return 0
    engine = WalkEngine(grid, start.reshape(1, 2), rule=rule, rng=rng)
    for t in range(1, max_steps + 1):
        pos = engine.step()[0]
        if pos[0] == target[0] and pos[1] == target[1]:
            return t
    return -1


def visit_within(
    grid: Grid2D,
    start: np.ndarray,
    target: np.ndarray,
    steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> bool:
    """Whether the walk visits ``target`` within ``steps`` steps (Lemma 1 event)."""
    return hitting_time(grid, start, target, steps, rng=rng, rule=rule) >= 0


def max_displacement(trajectory: np.ndarray) -> int:
    """Maximum Manhattan displacement from the starting position.

    ``trajectory`` has shape ``(T + 1, 2)``; the result is
    ``max_t ||x_t - x_0||_1`` (Lemma 2, point 1, concerns this quantity).
    """
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 2 or traj.shape[1] != 2:
        raise ValueError(f"trajectory must have shape (T+1, 2), got {traj.shape}")
    deltas = np.abs(traj - traj[0]).sum(axis=1)
    return int(deltas.max())


def distinct_nodes_visited(trajectory: np.ndarray, grid: Grid2D) -> int:
    """Number of distinct grid nodes touched by the trajectory (Lemma 2, point 2)."""
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 2 or traj.shape[1] != 2:
        raise ValueError(f"trajectory must have shape (T+1, 2), got {traj.shape}")
    node_ids = grid.node_id(traj)
    return int(np.unique(np.atleast_1d(node_ids)).size)


def displacement_tail_probability(
    grid: Grid2D,
    steps: int,
    lam: float,
    trials: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> float:
    """Empirical probability that a walk strays ``>= lam * sqrt(steps)`` from its start.

    Lemma 2 (point 1) bounds this probability by ``2 * exp(-lam^2 / 2)`` for
    each fixed step; here we measure the (larger) probability that the
    maximum displacement over the whole interval exceeds the threshold, which
    is what the experiments report.
    """
    rng = default_rng(rng)
    threshold = lam * np.sqrt(steps)
    center = grid.center()
    exceed = 0
    for _ in range(trials):
        traj = walk_trajectory(grid, center, steps, rng=rng, rule=rule)
        if max_displacement(traj) >= threshold:
            exceed += 1
    return exceed / trials if trials else 0.0
