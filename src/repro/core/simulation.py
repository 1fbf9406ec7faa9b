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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.connectivity.visibility import visibility_components
from repro.core.config import BroadcastConfig
from repro.core.metrics import (
    CoverageTracker,
    FrontierTracker,
    InformedCurve,
    threshold_count,
)
from repro.core.protocol import flood_informed
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
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
        ``"auto"``); ``None`` resolves the config's ``connectivity`` field.
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
        from repro.connectivity.incremental import DeltaConnectivityEngine
        from repro.core.runner import resolve_pair

        self._config = config
        self._rng = default_rng(rng)
        self._grid = Grid2D.from_nodes(config.n_nodes)
        if mobility is None:
            mobility = make_mobility(config.mobility, self._grid, **dict(config.mobility_kwargs))
        self._mobility = mobility
        self._mobility_state = mobility.init_state(config.n_agents, self._rng)
        self._engine = (
            DeltaConnectivityEngine(config.n_agents, config.radius, self._grid.side)
            if resolve_pair(config, "serial", connectivity)[1] == "incremental"
            else None
        )

        self._positions = self._mobility.initial_positions(config.n_agents, self._rng)
        self._informed = np.zeros(config.n_agents, dtype=bool)
        source = config.source
        if source is None:
            source = int(self._rng.integers(0, config.n_agents))
        self._source = int(source)
        self._informed[self._source] = True

        self._time = 0
        self._broadcast_time = -1
        self._informed_curve = InformedCurve()
        self._frontier: Optional[FrontierTracker] = (
            FrontierTracker() if config.record_frontier else None
        )
        self._coverage: Optional[CoverageTracker] = (
            CoverageTracker(self._grid) if config.record_coverage else None
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> BroadcastConfig:
        """The simulation configuration."""
        return self._config

    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._grid

    @property
    def positions(self) -> np.ndarray:
        """Current agent positions (copy)."""
        return self._positions.copy()

    @property
    def informed(self) -> np.ndarray:
        """Boolean mask of currently informed agents (copy)."""
        return self._informed.copy()

    @property
    def source(self) -> int:
        """Index of the source agent."""
        return self._source

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._time

    @property
    def n_informed(self) -> int:
        """Number of currently informed agents."""
        return int(np.count_nonzero(self._informed))

    @property
    def all_informed(self) -> bool:
        """Whether every agent is informed."""
        return bool(self._informed.all())

    @property
    def broadcast_time(self) -> int:
        """The broadcast time ``T_B`` (``-1`` while broadcast is incomplete)."""
        return self._broadcast_time

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def _exchange(self) -> None:
        """Flood the rumor within components of the current visibility graph."""
        if self._engine is not None:
            labels = self._engine.step(self._positions)
        else:
            labels = visibility_components(self._positions, self._config.radius)
        self._informed = flood_informed(self._informed, labels)

    def _record(self) -> None:
        self._informed_curve.record(self._informed)
        if self._frontier is not None:
            self._frontier.record(self._positions, self._informed)
        if self._coverage is not None:
            self._coverage.record(self._positions, self._informed, self._time)
        if self._broadcast_time < 0 and self._informed.all():
            self._broadcast_time = self._time

    def step(self) -> None:
        """Perform one full time step: rumor exchange, recording, then motion."""
        self._exchange()
        self._record()
        self._positions = self._mobility.step(
            self._positions, self._rng, self._mobility_state
        )
        self._time += 1

    def run(self, max_steps: Optional[int] = None) -> BroadcastResult:
        """Run until every agent is informed or the horizon is exhausted.

        When ``record_coverage`` is set the run continues (up to the horizon)
        until coverage also completes, so that both ``T_B`` and ``T_C`` are
        measured from a single trajectory.
        """
        from repro.obs.metrics import step_loop_instruments

        steps_metric, active_metric = step_loop_instruments("serial_broadcast")
        active_metric.set(1)
        horizon = int(max_steps) if max_steps is not None else self._config.horizon
        while self._time < horizon:
            steps_metric.inc()
            self.step()
            if self._broadcast_time >= 0:
                if self._coverage is None or self._coverage.complete:
                    break
        active_metric.set(0)
        return self._result()

    def _result(self) -> BroadcastResult:
        return BroadcastResult(
            config=self._config,
            broadcast_time=self._broadcast_time,
            completed=self._broadcast_time >= 0,
            n_steps=self._time,
            n_informed=self.n_informed,
            informed_curve=self._informed_curve.as_array(),
            frontier_history=self._frontier.history if self._frontier is not None else None,
            coverage_time=self._coverage.coverage_time if self._coverage is not None else -1,
            coverage_fraction=(
                self._coverage.fraction_visited if self._coverage is not None else 0.0
            ),
        )
