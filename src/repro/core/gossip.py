"""Gossip (all-to-all rumor exchange) simulation.

In the gossip problem every agent starts with its own distinct rumor and the
gossip time ``T_G`` is the first time at which every agent knows every rumor.
Corollary 2 of the paper shows ``T_G = Õ(n / sqrt(k))`` — the same bound as
for a single rumor — and Theorem 2's lower bound applies as well, so the two
quantities coincide up to polylogarithmic factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.connectivity.visibility import visibility_components
from repro.core.config import GossipConfig
from repro.core.protocol import flood_rumors
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
from repro.mobility.base import MobilityModel
from repro.util.rng import RandomState, default_rng


@dataclass(frozen=True)
class GossipResult:
    """Outcome of a gossip simulation run."""

    config: GossipConfig
    gossip_time: int
    completed: bool
    n_steps: int
    min_rumors_known: int
    first_rumor_broadcast_time: int
    knowledge_curve: np.ndarray

    @property
    def n_agents(self) -> int:
        """Number of agents (= number of distinct rumors)."""
        return self.config.n_agents


class GossipSimulation:
    """Simulator of all-to-all rumor exchange among mobile agents.

    The knowledge state is a ``(k, k)`` boolean matrix whose entry ``(a, j)``
    says whether agent ``a`` knows rumor ``j`` (rumor ``j`` originates at
    agent ``j``).
    """

    def __init__(
        self,
        config: GossipConfig,
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
        self._rumors = np.eye(config.n_agents, dtype=bool)
        self._time = 0
        self._gossip_time = -1
        self._first_rumor_broadcast_time = -1
        self._knowledge_curve: list[int] = []

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> GossipConfig:
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
    def rumors(self) -> np.ndarray:
        """Current ``(k, k)`` knowledge matrix (copy)."""
        return self._rumors.copy()

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._time

    @property
    def gossip_time(self) -> int:
        """The gossip time ``T_G`` (``-1`` while gossip is incomplete)."""
        return self._gossip_time

    @property
    def all_know_all(self) -> bool:
        """Whether every agent knows every rumor."""
        return bool(self._rumors.all())

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """One full time step: rumor exchange, recording, then motion."""
        if self._engine is not None:
            labels = self._engine.step(self._positions)
        else:
            labels = visibility_components(self._positions, self._config.radius)
        self._rumors = flood_rumors(self._rumors, labels)
        self._knowledge_curve.append(int(self._rumors.sum()))
        if self._first_rumor_broadcast_time < 0 and bool(self._rumors[:, 0].all()):
            self._first_rumor_broadcast_time = self._time
        if self._gossip_time < 0 and self._rumors.all():
            self._gossip_time = self._time
        self._positions = self._mobility.step(
            self._positions, self._rng, self._mobility_state
        )
        self._time += 1

    def run(self, max_steps: Optional[int] = None) -> GossipResult:
        """Run until every agent knows every rumor or the horizon is exhausted."""
        from repro.obs.metrics import step_loop_instruments

        steps_metric, active_metric = step_loop_instruments("serial_gossip")
        active_metric.set(1)
        horizon = int(max_steps) if max_steps is not None else self._config.horizon
        while self._time < horizon and self._gossip_time < 0:
            steps_metric.inc()
            self.step()
        active_metric.set(0)
        return GossipResult(
            config=self._config,
            gossip_time=self._gossip_time,
            completed=self._gossip_time >= 0,
            n_steps=self._time,
            min_rumors_known=int(self._rumors.sum(axis=1).min()),
            first_rumor_broadcast_time=self._first_rumor_broadcast_time,
            knowledge_curve=np.asarray(self._knowledge_curve, dtype=np.int64),
        )
