"""The dense mobile model of Clementi et al. (IPDPS 2009 / ICALP 2009).

In that model ``k = Θ(n)`` agents live on the ``n``-node grid.  At every step
an agent (a) exchanges information with all agents within distance ``R`` —
a *single-hop* exchange, not transitive flooding — and (b) jumps to a
uniformly random node within distance ``ρ`` of its current position.  For
``ρ = O(R)`` and ``R = Ω(sqrt(log n))`` the broadcast time is
``Θ(sqrt(n)/R)``; for ``ρ = Ω(max{R, sqrt(log n)})`` it is
``O(sqrt(n)/ρ + log n)``.

The single-hop exchange is the essential modelling difference with the
paper's sparse model: in the dense regime the visibility graph has a giant
(indeed, spanning) component, so the paper's instantaneous intra-component
flooding would finish in one step.  Clementi et al. instead let information
travel only ``R`` per step, which is what produces the ``sqrt(n)/R`` law this
baseline reproduces (experiment E16).

The exchange is a dilation of the informed set by the L1 ball of radius
``R``: the informed agents' nodes are marked on the grid, an exact L1
distance transform (a forward and a backward running minimum along each
axis) gives every node its distance to the nearest mark, and each agent
within ``R`` of one is informed.  That costs O(n) per step whatever ``R``,
where enumerating the pairs within ``R`` among ``k = Θ(n)`` agents costs
O(k·R²).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.jump import JumpMobility
from repro.util.rng import RandomState, default_rng
from repro.util.validation import check_non_negative, check_positive_int


@dataclass(frozen=True)
class DenseModelResult:
    """Outcome of a dense-model broadcast run."""

    n_nodes: int
    n_agents: int
    exchange_radius: float
    jump_radius: int
    broadcast_time: int
    completed: bool
    n_steps: int
    informed_curve: np.ndarray


def _single_hop_exchange(
    positions: np.ndarray, informed: np.ndarray, radius: float, side: int
) -> np.ndarray:
    """One round of single-hop exchange: informed agents inform every agent within ``radius``.

    The dilation described above, on the ``side × side`` grid, with the
    Manhattan ``<= radius`` rule of
    :func:`~repro.connectivity.spatial_hash.neighbor_pairs`.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if not informed.any():
        # No mark: every distance would be the sentinel, which a radius of
        # 2·side or more would meet.
        return informed.copy()
    dist = np.full((side, side), 2 * side, dtype=np.int64)
    dist[positions[informed, 0], positions[informed, 1]] = 0
    dist = _l1_distance_transform(dist)
    return dist[positions[:, 0], positions[:, 1]] <= radius


def _l1_distance_transform(dist: np.ndarray) -> np.ndarray:
    """``D[x, y] = min over (x', y') of dist[x', y'] + |x - x'| + |y - y'|`` on a square grid.

    The L1 metric is separable, so a forward and a backward running minimum
    along each axis are exact: forward,
    ``min_{j <= i} (d[j] + i - j) = i + min_{j <= i} (d[j] - j)``; backward,
    ``min_{j >= i} (d[j] + j - i)`` the same way on the reversed axis.  The
    second axis runs as the first of the transpose.
    """
    ramp = np.arange(dist.shape[0])[:, None]
    for _ in range(2):
        dist = np.minimum.accumulate(dist - ramp, axis=0) + ramp
        dist = np.minimum.accumulate((dist + ramp)[::-1], axis=0)[::-1] - ramp
        dist = dist.T
    return dist


class DenseModelSimulation:
    """Broadcast in the Clementi et al. dense model (single-hop exchange + jumps).

    Parameters
    ----------
    n_nodes:
        Number of grid nodes.
    n_agents:
        Number of agents; the theoretical guarantees require ``k = Θ(n)`` but
        any value is accepted.
    exchange_radius:
        The communication radius ``R`` (single-hop reach per step).
    jump_radius:
        The mobility radius ``ρ``.
    max_steps:
        Simulation horizon; the default is generous for the ``sqrt(n)/R`` law.
    """

    def __init__(
        self,
        n_nodes: int,
        n_agents: int,
        exchange_radius: float,
        jump_radius: int,
        max_steps: Optional[int] = None,
    ) -> None:
        self._n_nodes = check_positive_int(n_nodes, "n_nodes")
        self._n_agents = check_positive_int(n_agents, "n_agents")
        self._radius = check_non_negative(exchange_radius, "exchange_radius")
        self._rho = check_positive_int(jump_radius, "jump_radius")
        self._grid = Grid2D.from_nodes(n_nodes)
        if max_steps is None:
            max_steps = 200 * self._grid.side + 1000
        self._max_steps = check_positive_int(max_steps, "max_steps")

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._grid

    @property
    def exchange_radius(self) -> float:
        """The single-hop communication radius ``R``."""
        return self._radius

    @property
    def jump_radius(self) -> int:
        """The mobility radius ``ρ``."""
        return self._rho

    # ------------------------------------------------------------------ #
    def run(self, rng: RandomState | int | None = None) -> DenseModelResult:
        """Run one broadcast and return the dense-model result summary."""
        rng = default_rng(rng)
        mobility = JumpMobility(self._grid, jump_radius=self._rho)
        positions = mobility.initial_positions(self._n_agents, rng)
        informed = np.zeros(self._n_agents, dtype=bool)
        informed[int(rng.integers(0, self._n_agents))] = True

        broadcast_time = -1
        curve: list[int] = []
        t = 0
        while t < self._max_steps:
            informed = _single_hop_exchange(positions, informed, self._radius, self._grid.side)
            curve.append(int(informed.sum()))
            if informed.all():
                broadcast_time = t
                break
            positions = mobility.step(positions, rng)
            t += 1

        return DenseModelResult(
            n_nodes=self._n_nodes,
            n_agents=self._n_agents,
            exchange_radius=self._radius,
            jump_radius=self._rho,
            broadcast_time=broadcast_time,
            completed=broadcast_time >= 0,
            n_steps=t,
            informed_curve=np.asarray(curve, dtype=np.int64),
        )
