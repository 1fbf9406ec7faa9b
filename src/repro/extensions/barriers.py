"""Broadcast in planar domains with mobility and communication barriers.

This is the future-work extension sketched at the end of Section 4 of the
paper.  The dynamics are exactly those of the core model — instantaneous
flooding within connected components of the visibility graph, followed by one
lazy random-walk step per agent — except that

* agents live on the *free* nodes of an :class:`ObstacleGrid` and never step
  onto blocked nodes (mobility barrier);
* optionally, two agents within the transmission radius are connected only
  when the straight segment between them avoids blocked nodes
  (communication barrier / line of sight).

The interesting new phenomenon is the *bottleneck effect*: a wall with a
narrow gap slows broadcast down because the rumor can cross only through the
gap, and the slowdown grows as the gap narrows (experiment E17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.connectivity.barriers import barrier_visibility_components
from repro.connectivity.visibility import visibility_components
from repro.core.config import BroadcastConfig, default_max_steps
from repro.core.protocol import flood_informed
from repro.core.runner import (
    ReplicationSummary,
    run_broadcast_replications,
    summarise_values,
)
from repro.grid.obstacles import ObstacleGrid
from repro.mobility.obstacle_walk import ObstacleWalkMobility
from repro.util.rng import RandomState, SeedLike, default_rng
from repro.util.validation import check_non_negative, check_positive_int


@dataclass(frozen=True)
class BarrierBroadcastResult:
    """Outcome of a broadcast run in an obstacle domain."""

    n_free_nodes: int
    n_agents: int
    radius: float
    broadcast_time: int
    completed: bool
    n_steps: int
    informed_curve: np.ndarray


class BarrierBroadcastSimulation:
    """Single-rumor broadcast among agents confined to an obstacle domain.

    Parameters
    ----------
    domain:
        The obstacle domain (mobility barriers; also communication barriers
        when ``block_communication`` is True).
    n_agents:
        Number of agents, placed uniformly at random on the free nodes.
    radius:
        Transmission radius (Manhattan metric).
    block_communication:
        Whether obstacles also block transmission (line-of-sight model).
        With ``radius = 0`` this flag is irrelevant.
    source:
        Index of the initially informed agent (``None`` = uniformly random).
    max_steps:
        Simulation horizon; the default scales like the open-grid horizon on
        the number of *free* nodes.
    """

    def __init__(
        self,
        domain: ObstacleGrid,
        n_agents: int,
        radius: float = 0.0,
        block_communication: bool = True,
        source: Optional[int] = None,
        max_steps: Optional[int] = None,
        rng: RandomState | int | None = None,
    ) -> None:
        self._domain = domain
        self._n_agents = check_positive_int(n_agents, "n_agents")
        self._radius = check_non_negative(radius, "radius")
        self._block_communication = bool(block_communication)
        self._rng = default_rng(rng)
        if max_steps is None:
            max_steps = default_barrier_horizon(domain, n_agents)
        self._horizon = check_positive_int(max_steps, "max_steps")

        self._mobility = ObstacleWalkMobility(domain)
        self._positions = self._mobility.initial_positions(self._n_agents, self._rng)
        self._informed = np.zeros(self._n_agents, dtype=bool)
        if source is None:
            source = int(self._rng.integers(0, self._n_agents))
        if not (0 <= int(source) < self._n_agents):
            raise ValueError(f"source must lie in [0, {self._n_agents}), got {source}")
        self._informed[int(source)] = True
        self._time = 0
        self._broadcast_time = -1
        self._informed_curve: list[int] = []

    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> ObstacleGrid:
        """The obstacle domain."""
        return self._domain

    @property
    def positions(self) -> np.ndarray:
        """Current agent positions (copy)."""
        return self._positions.copy()

    @property
    def informed(self) -> np.ndarray:
        """Boolean mask of informed agents (copy)."""
        return self._informed.copy()

    @property
    def time(self) -> int:
        """Number of completed time steps."""
        return self._time

    @property
    def broadcast_time(self) -> int:
        """The broadcast time (``-1`` while incomplete)."""
        return self._broadcast_time

    # ------------------------------------------------------------------ #
    def _labels(self) -> np.ndarray:
        if self._radius > 0 and self._block_communication and self._domain.n_blocked > 0:
            return barrier_visibility_components(
                self._positions, self._radius, self._domain
            )
        return visibility_components(self._positions, self._radius)

    def step(self) -> None:
        """One time step: barrier-aware exchange, recording, then motion."""
        self._informed = flood_informed(self._informed, self._labels())
        self._informed_curve.append(int(self._informed.sum()))
        if self._broadcast_time < 0 and self._informed.all():
            self._broadcast_time = self._time
        self._positions = self._mobility.step(self._positions, self._rng)
        self._time += 1

    def run(self, max_steps: Optional[int] = None) -> BarrierBroadcastResult:
        """Run until every agent is informed or the horizon is exhausted."""
        horizon = int(max_steps) if max_steps is not None else self._horizon
        while self._time < horizon and self._broadcast_time < 0:
            self.step()
        return BarrierBroadcastResult(
            n_free_nodes=self._domain.n_free,
            n_agents=self._n_agents,
            radius=self._radius,
            broadcast_time=self._broadcast_time,
            completed=self._broadcast_time >= 0,
            n_steps=self._time,
            informed_curve=np.asarray(self._informed_curve, dtype=np.int64),
        )


def default_barrier_horizon(domain: ObstacleGrid, n_agents: int) -> int:
    """Default horizon for obstacle domains.

    Scales like the open-grid horizon on the number of *free* nodes, doubled
    because bottlenecks slow mixing down.
    """
    return 2 * default_max_steps(max(domain.n_free, 2), n_agents)


def run_barrier_broadcast_replications(
    domain: ObstacleGrid,
    n_agents: int,
    n_replications: int,
    *,
    radius: float = 0.0,
    block_communication: bool = True,
    max_steps: Optional[int] = None,
    seed: SeedLike = None,
    backend: Optional[str] = None,
) -> tuple[ReplicationSummary, list[BarrierBroadcastResult]]:
    """Replicated barrier broadcast, on the fast batched path where possible.

    Whenever the communication barriers are inert — ``radius == 0`` (the
    paper's sparse regime), ``block_communication`` off, or an obstacle-free
    domain — the run is exactly an open-core broadcast under obstacle-walk
    mobility, so it is dispatched through
    :func:`repro.core.runner.run_broadcast_replications` with
    ``mobility="obstacle_walk"`` and inherits the batched backend (the
    ``backend`` argument and :func:`repro.core.runner.backend_override` both
    apply).  Only line-of-sight configurations fall back to one serial
    :class:`BarrierBroadcastSimulation` per trial; per-trial results are
    bit-for-bit identical between the two routes for identical seeds.
    """
    check_positive_int(n_replications, "n_replications")
    if max_steps is None:
        max_steps = default_barrier_horizon(domain, n_agents)
    needs_line_of_sight = (
        radius > 0 and block_communication and domain.n_blocked > 0
    )
    if not needs_line_of_sight:
        config = BroadcastConfig(
            n_nodes=domain.side * domain.side,
            n_agents=n_agents,
            radius=radius,
            max_steps=max_steps,
            mobility="obstacle_walk",
            mobility_kwargs={"domain": domain},
        )
        summary, core_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend=backend
        )
        results = [
            BarrierBroadcastResult(
                n_free_nodes=domain.n_free,
                n_agents=n_agents,
                radius=radius,
                broadcast_time=res.broadcast_time,
                completed=res.completed,
                n_steps=res.n_steps,
                informed_curve=res.informed_curve,
            )
            for res in core_results
        ]
        return summary, results
    from repro.exec.executor import map_replications

    raw = map_replications(
        _line_of_sight_trials,
        n_replications,
        seed,
        kwargs={
            "domain": domain,
            "n_agents": n_agents,
            "radius": radius,
            "block_communication": block_communication,
            "max_steps": max_steps,
        },
        label=f"barrier[n_free={domain.n_free},k={n_agents},r={radius}]",
    )
    results = [_barrier_result(item) for item in raw]
    summary = summarise_values([res.broadcast_time for res in results])
    return summary, results


def _line_of_sight_trials(
    rngs,
    domain: ObstacleGrid,
    n_agents: int,
    radius: float,
    block_communication: bool,
    max_steps: int,
) -> list[BarrierBroadcastResult]:
    """Serial line-of-sight replications, one per generator (executor map
    function)."""
    return [
        BarrierBroadcastSimulation(
            domain,
            n_agents,
            radius=radius,
            block_communication=block_communication,
            max_steps=max_steps,
            rng=rng,
        ).run()
        for rng in rngs
    ]


def _barrier_result(item) -> BarrierBroadcastResult:
    """Normalise a map-unit trial payload back to a result object.

    The inline path hands results through unchanged; the sharded/stored path
    hands back their canonical JSON records.
    """
    if isinstance(item, BarrierBroadcastResult):
        return item
    fields = dict(item)
    fields["informed_curve"] = np.asarray(fields["informed_curve"], dtype=np.int64)
    return BarrierBroadcastResult(**fields)
