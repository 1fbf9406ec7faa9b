"""Single-rumor broadcast simulation.

The dynamics follow Section 2 of the paper:

1. At time 0 the agents are placed uniformly and independently at random on
   the grid nodes and one agent (the *source*) holds the rumor.
2. At every time step ``t`` the visibility graph ``G_t(r)`` is formed from
   the current positions and the rumor floods instantaneously through every
   connected component containing an informed agent.
3. The agents then perform one step of their mobility model (independent
   lazy random walks in the paper's model).

The broadcast time ``T_B`` is the first time step at which every agent is
informed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import BroadcastConfig
from repro.core.metrics import threshold_count
from repro.grid.lattice import Grid2D
from repro.mobility.base import MobilityModel
from repro.util.rng import RandomState, default_rng


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of a broadcast simulation run."""

    config: BroadcastConfig
    broadcast_time: int
    completed: bool
    n_steps: int
    n_informed: int
    informed_curve: np.ndarray
    frontier_history: Optional[np.ndarray] = None
    coverage_time: int = -1
    coverage_fraction: float = 0.0

    @property
    def n_agents(self) -> int:
        """Number of agents in the simulated system."""
        return self.config.n_agents

    def time_to_fraction(self, fraction: float) -> int:
        """First time at which at least ``fraction`` of the agents were informed.

        Uses the exact integer threshold ``ceil(fraction * n_agents)`` — see
        :func:`repro.core.metrics.threshold_count` for why comparing against
        the raw float product is wrong.
        """
        target = threshold_count(self.config.n_agents, fraction)
        reached = np.flatnonzero(self.informed_curve >= target)
        return int(reached[0]) if reached.size else -1


class BroadcastSimulation:
    """Simulator of a single-rumor broadcast among mobile agents.

    A single-trial facade over the serial face of
    :class:`~repro.dissemination.kernels.BroadcastProcess`: :meth:`step`
    is one kernel step and :meth:`run` continues the trial on the one serial
    loop, :func:`~repro.dissemination.kernels.run_process_serial`.

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.BroadcastConfig` describing the system.
    rng:
        Random generator or integer seed.
    mobility:
        Optional pre-built mobility model; by default the model named in the
        configuration is instantiated.
    connectivity:
        Resolved connectivity engine (``"recompute"``, ``"incremental"`` or
        ``"auto"``); ``None`` takes the active
        :func:`~repro.core.runner.connectivity_override`, else ``"auto"``.
        ``"auto"`` resolves as for the serial backend (see
        :func:`repro.core.runner.auto_pair`).
        Both engines produce bit-for-bit identical results — see
        :mod:`repro.connectivity.incremental`.
    """

    def __init__(
        self,
        config: BroadcastConfig,
        rng: RandomState | int | None = None,
        mobility: MobilityModel | None = None,
        connectivity: str | None = None,
    ) -> None:
        from repro.core.runner import resolve_pair
        from repro.dissemination.kernels import BroadcastProcess, serial_engine

        self._process = BroadcastProcess(config)
        if mobility is not None:
            self._process.mobility = mobility
        self._rng = default_rng(rng)
        self._engine = serial_engine(self._process, resolve_pair(config, "serial", connectivity)[1])
        self._state = self._process.init_state(self._rng)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> BroadcastConfig:
        """The simulation configuration."""
        return self._process.config

    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._process.grid

    @property
    def positions(self) -> np.ndarray:
        """Current agent positions (copy)."""
        return self._state.positions.copy()

    @property
    def informed(self) -> np.ndarray:
        """Boolean mask of currently informed agents (copy)."""
        return self._state.informed.copy()

    @property
    def source(self) -> int:
        """Index of the source agent."""
        return self._state.source

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._state.n_steps

    @property
    def n_informed(self) -> int:
        """Number of currently informed agents."""
        return int(np.count_nonzero(self._state.informed))

    @property
    def all_informed(self) -> bool:
        """Whether every agent is informed."""
        return bool(self._state.informed.all())

    @property
    def broadcast_time(self) -> int:
        """The broadcast time ``T_B`` (``-1`` while broadcast is incomplete)."""
        return self._state.broadcast_time

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Perform one full time step: rumor exchange, recording, then motion."""
        from repro.dissemination.kernels import serial_connectivity

        conn = serial_connectivity(self._process, self._state.positions, self._engine)
        self._process.step(self._state, conn, self._rng)

    def run(self, max_steps: Optional[int] = None) -> BroadcastResult:
        """Run until every agent is informed or the horizon is exhausted.

        When ``record_coverage`` is set the run continues (up to the horizon)
        until coverage also completes, so that both ``T_B`` and ``T_C`` are
        measured from a single trajectory.
        """
        from repro.dissemination.kernels import run_process_serial

        return run_process_serial(
            self._process, self._rng, state=self._state, engine=self._engine, horizon=max_steps
        )
