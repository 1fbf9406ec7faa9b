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

from repro.core.config import GossipConfig
from repro.grid.lattice import Grid2D
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
    agent ``j``).  A single-trial facade over the serial face of
    :class:`~repro.dissemination.kernels.GossipProcess`, as
    :class:`~repro.core.simulation.BroadcastSimulation` is over the
    broadcast kernel.
    """

    def __init__(
        self,
        config: GossipConfig,
        rng: RandomState | int | None = None,
        mobility: MobilityModel | None = None,
        connectivity: str | None = None,
    ) -> None:
        from repro.core.runner import resolve_pair
        from repro.dissemination.kernels import GossipProcess, serial_engine

        self._process = GossipProcess(config)
        if mobility is not None:
            self._process.mobility = mobility
        self._rng = default_rng(rng)
        self._engine = serial_engine(self._process, resolve_pair(config, "serial", connectivity)[1])
        self._state = self._process.init_state(self._rng)

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> GossipConfig:
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
    def rumors(self) -> np.ndarray:
        """Current ``(k, k)`` knowledge matrix (copy)."""
        return self._state.rumors.copy()

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._state.n_steps

    @property
    def gossip_time(self) -> int:
        """The gossip time ``T_G`` (``-1`` while gossip is incomplete)."""
        return self._state.gossip_time

    @property
    def all_know_all(self) -> bool:
        """Whether every agent knows every rumor."""
        return bool(self._state.rumors.all())

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """One full time step: rumor exchange, recording, then motion."""
        from repro.dissemination.kernels import serial_connectivity

        conn = serial_connectivity(self._process, self._state.positions, self._engine)
        self._process.step(self._state, conn, self._rng)

    def run(self, max_steps: Optional[int] = None) -> GossipResult:
        """Run until every agent knows every rumor or the horizon is exhausted."""
        from repro.dissemination.kernels import run_process_serial

        return run_process_serial(
            self._process, self._rng, state=self._state, engine=self._engine, horizon=max_steps
        )
