"""Random-waypoint mobility (a classical MANET model, provided as an extension).

Each agent picks a uniformly random waypoint and moves one grid step towards
it per time step (in the Manhattan sense); when the waypoint is reached a new
one is drawn.  This model is *not* analysed by the paper — it is included so
that users can check how robust the Θ̃(n/√k) broadcast-time scaling is to the
mobility model, one of the future-research directions listed in Section 4.

The per-agent waypoints are *per-trial state*: each trial owns a
:class:`WaypointState` created by :meth:`RandomWaypointMobility.init_state`,
so a single model instance can drive any number of concurrent trials (the
batched backend carries one state per replication).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.base import MobilityModel
from repro.mobility.kernels import BatchStepper, MobilityState
from repro.util.rng import RandomState


class WaypointState(MobilityState):
    """Per-trial waypoint targets: an ``(k, 2)`` integer array."""

    __slots__ = ("waypoints",)

    def __init__(self, waypoints: np.ndarray) -> None:
        self.waypoints = np.asarray(waypoints, dtype=np.int64)

    @property
    def n_agents(self) -> int:
        """Number of agents the state was drawn for."""
        return self.waypoints.shape[0]


def _move_towards(positions: np.ndarray, waypoints: np.ndarray) -> np.ndarray:
    """One Manhattan step of every agent towards its waypoint (vectorised).

    Works on any leading batch shape: ``positions`` and ``waypoints`` are
    ``(..., k, 2)``.  Moves along the axis with the larger remaining
    distance (ties -> x); agents already at their waypoint stay.
    """
    new_positions = positions.copy()
    dx = waypoints[..., 0] - positions[..., 0]
    dy = waypoints[..., 1] - positions[..., 1]
    move_x = np.abs(dx) >= np.abs(dy)
    step_x = np.sign(dx) * move_x
    step_y = np.sign(dy) * (~move_x)
    new_positions[..., 0] += step_x.astype(np.int64)
    new_positions[..., 1] += step_y.astype(np.int64)
    return new_positions


class RandomWaypointMobility(MobilityModel):
    """Move one step per tick toward a uniformly random waypoint."""

    def init_state(self, n_agents: int, rng: RandomState) -> WaypointState:
        """Draw a fresh waypoint for every agent."""
        return WaypointState(self._grid.random_positions(n_agents, rng))

    @staticmethod
    def _check_state(k: int, state: Optional[MobilityState]) -> WaypointState:
        """The trial's state from :meth:`init_state`, checked against ``k`` agents."""
        if not isinstance(state, WaypointState):
            raise TypeError(f"expected WaypointState, got {type(state).__name__}")
        if state.n_agents != k:
            raise ValueError(
                f"state holds waypoints for {state.n_agents} agents, positions for {k}"
            )
        return state

    def step(
        self,
        positions: np.ndarray,
        rng: RandomState,
        state: Optional[MobilityState] = None,
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        state = self._check_state(positions.shape[0], state)
        waypoints = state.waypoints
        new_positions = _move_towards(positions, waypoints)

        # Agents that reached their waypoint draw a new one.
        arrived = (new_positions[:, 0] == waypoints[:, 0]) & (
            new_positions[:, 1] == waypoints[:, 1]
        )
        if np.any(arrived):
            fresh = self._grid.random_positions(int(arrived.sum()), rng)
            waypoints = waypoints.copy()
            waypoints[arrived] = fresh
            state.waypoints = waypoints
        return new_positions

    def batch_stepper(
        self,
        n_agents: int,
        rngs: Sequence[RandomState],
        states: Optional[Sequence[Optional[MobilityState]]] = None,
    ) -> BatchStepper:
        states = self._check_states(len(rngs), states)
        return _WaypointBatchStepper(
            self._grid, rngs, [self._check_state(n_agents, state) for state in states]
        )


class _WaypointBatchStepper(BatchStepper):
    """Vectorised waypoint stepping: batch-wide movement, per-trial redraws.

    The movement itself consumes no randomness, so it runs on the whole
    ``(A, k, 2)`` block at once; only the trials in which some agent arrived
    at its waypoint touch their generator (drawing exactly what the serial
    step would), so stream equivalence holds trial by trial.
    """

    def __init__(
        self, grid: Grid2D, rngs: Sequence[RandomState], states: list[WaypointState]
    ) -> None:
        self._grid = grid
        self._rngs = list(rngs)
        self._states = states

    def step(self, positions: np.ndarray, active: np.ndarray) -> np.ndarray:
        waypoints = np.stack([self._states[trial].waypoints for trial in active])
        new_positions = _move_towards(positions, waypoints)
        arrived = np.all(new_positions == waypoints, axis=-1)
        for row in np.flatnonzero(arrived.any(axis=1)):
            trial = int(active[row])
            state = self._states[trial]
            mask = arrived[row]
            fresh = self._grid.random_positions(int(mask.sum()), self._rngs[trial])
            updated = state.waypoints.copy()
            updated[mask] = fresh
            state.waypoints = updated
        return new_positions
