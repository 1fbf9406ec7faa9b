"""Broadcast above the percolation point (the regime of Peres et al., SODA 2011).

Peres et al. show that when the agent density is above the percolation point
the broadcast time is polylogarithmic in ``k`` — qualitatively much faster
than the ``Θ̃(n / sqrt(k))`` of the sparse regime.  Experiment E14 contrasts
the two regimes by running the same simulator with a radius slightly above
and well below ``r_c``.
"""

from __future__ import annotations

from repro.connectivity.percolation import percolation_radius
from repro.core.config import BroadcastConfig
from repro.core.simulation import BroadcastSimulation
from repro.util.rng import RandomState
from repro.util.validation import check_positive_int


def above_percolation_broadcast(
    n_nodes: int,
    n_agents: int,
    radius_factor: float = 2.0,
    max_steps: int | None = None,
    rng: RandomState | int | None = None,
    mobility: str = "random_walk",
) -> int:
    """Broadcast time with transmission radius ``radius_factor * r_c``.

    ``radius_factor > 1`` puts the system above the percolation point, where
    Peres et al. predict polylogarithmic broadcast time.
    """
    check_positive_int(n_nodes, "n_nodes")
    check_positive_int(n_agents, "n_agents")
    if radius_factor <= 0:
        raise ValueError(f"radius_factor must be positive, got {radius_factor}")
    radius = radius_factor * percolation_radius(n_nodes, n_agents)
    config = BroadcastConfig(
        n_nodes=n_nodes,
        n_agents=n_agents,
        radius=radius,
        max_steps=max_steps,
        mobility=mobility,
    )
    return BroadcastSimulation(config, rng=rng).run().broadcast_time
