"""Random predator–prey system (Section 4 by-product).

``k`` predators and ``m`` preys perform independent random walks on the
``n``-node grid; a prey is caught (removed) as soon as a predator is within
the capture radius.  The paper's techniques give a high-probability upper
bound of ``O(n log^2 n / k)`` on the extinction time of the preys when
``k = Ω(log n)``.

The dynamics live in :class:`repro.dissemination.kernels.PredatorPreyProcess`
(the batch-aware process kernel driven by both replication backends and the
sharded executor); this module keeps the stable single-trial simulator
facade on top of it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dissemination.kernels import (  # noqa: F401  (re-exported result type)
    PredatorPreyProcess,
    PredatorPreyResult,
    run_process_serial,
    serial_connectivity,
)
from repro.grid.lattice import Grid2D
from repro.util.rng import RandomState, default_rng

__all__ = ["PredatorPreyProcess", "PredatorPreyResult", "PredatorPreySimulation"]


class PredatorPreySimulation:
    """Single-trial simulator facade over the predator–prey process kernel."""

    def __init__(
        self,
        n_nodes: int,
        n_predators: int,
        n_preys: int,
        capture_radius: float = 0.0,
        max_steps: Optional[int] = None,
        preys_move: bool = True,
        rng: RandomState | int | None = None,
    ) -> None:
        self._process = PredatorPreyProcess(
            n_nodes,
            n_predators,
            n_preys,
            capture_radius=capture_radius,
            max_steps=max_steps,
            preys_move=preys_move,
        )
        self._rng = default_rng(rng)
        self._state = self._process.init_state(self._rng)

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._process.grid

    @property
    def n_alive(self) -> int:
        """Number of preys still alive."""
        return int(np.count_nonzero(self._state.alive))

    @property
    def extinction_time(self) -> int:
        """First time no prey remains (``-1`` while some survive)."""
        return self._state.extinction_time

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._state.n_steps

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """One time step: captures, then motion of predators (and preys)."""
        conn = serial_connectivity(self._process, self._state.positions, None)
        self._process.step(self._state, conn, self._rng)

    def run(self, max_steps: Optional[int] = None) -> PredatorPreyResult:
        """Run until all preys are caught or the horizon is exhausted."""
        return run_process_serial(self._process, self._rng, state=self._state, horizon=max_steps)
