"""The Frog model: only informed agents move.

Initially one of the ``k`` agents is *active* (informed) and performs a
random walk; the remaining agents are inactive and do not move.  Whenever an
active agent comes within the transmission radius of an inactive one, the
latter is activated and starts its own random walk.  Section 4 of the paper
argues that the broadcast time in the Frog model is also ``Θ̃(n / sqrt(k))``.

The dynamics live in :class:`repro.dissemination.kernels.FrogProcess` (the
batch-aware process kernel driven by both replication backends and the
sharded executor); this module keeps the stable single-trial simulator
facade on top of it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dissemination.kernels import (  # noqa: F401  (re-exported result type)
    FrogModelResult,
    FrogProcess,
    run_process_serial,
    serial_connectivity,
)
from repro.grid.lattice import Grid2D
from repro.util.rng import RandomState, default_rng

__all__ = ["FrogModelResult", "FrogModelSimulation", "FrogProcess"]


class FrogModelSimulation:
    """Single-trial simulator facade over the Frog-model process kernel.

    Parameters
    ----------
    n_nodes / n_agents / radius:
        System parameters; the transmission radius plays the same role as in
        the dynamic model (``0`` = activation requires co-location).
    source:
        Index of the initially active agent (``None`` = uniformly random).
    max_steps:
        Simulation horizon (``None`` = :func:`repro.core.config.default_max_steps`).
    """

    def __init__(
        self,
        n_nodes: int,
        n_agents: int,
        radius: float = 0.0,
        source: Optional[int] = None,
        max_steps: Optional[int] = None,
        rng: RandomState | int | None = None,
    ) -> None:
        self._process = FrogProcess(
            n_nodes, n_agents, radius=radius, source=source, max_steps=max_steps
        )
        self._rng = default_rng(rng)
        self._state = self._process.init_state(self._rng)

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._process.grid

    @property
    def positions(self) -> np.ndarray:
        """Current agent positions (copy)."""
        return self._state.positions.copy()

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of active (informed) agents (copy)."""
        return self._state.active.copy()

    @property
    def n_active(self) -> int:
        """Number of currently active agents."""
        return int(np.count_nonzero(self._state.active))

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._state.n_steps

    @property
    def activation_time(self) -> int:
        """First time every agent is active (``-1`` while incomplete)."""
        return self._state.activation_time

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """One time step: activation exchange, then motion of active agents only."""
        conn = serial_connectivity(self._process, self._state.positions, None)
        self._process.step(self._state, conn, self._rng)

    def run(self, max_steps: Optional[int] = None) -> FrogModelResult:
        """Run until every agent is active or the horizon is exhausted."""
        return run_process_serial(self._process, self._rng, state=self._state, horizon=max_steps)
