"""Mobility models (batch-aware kernels).

The paper's agents perform independent lazy random walks
(:class:`RandomWalkMobility`).  The other models implement the substrates of
the works the paper compares against:

* :class:`StaticMobility` — agents that never move (the uninformed agents of
  the Frog model);
* :class:`JumpMobility` — the dense "move anywhere within distance ρ" model
  of Clementi et al.;
* :class:`BrownianMobility` — a discretised version of the Brownian motions
  used by Peres et al.;
* :class:`RandomWaypointMobility` — a classical MANET mobility model,
  provided as an extension for exploring robustness of the results;
* :class:`ObstacleWalkMobility` — the lazy walk confined to the free region
  of an :class:`~repro.grid.obstacles.ObstacleGrid` (mobility barriers).

Every model is a *kernel* in the sense of :mod:`repro.mobility.kernels`: it
exposes a per-trial ``step`` and a loop-persistent ``batch_stepper`` that
consume each trial's random stream in the identical order, so the serial and
batched replication backends return bit-for-bit identical results for every
model.
"""

from repro.mobility.base import MobilityModel
from repro.mobility.kernels import BatchStepper, MobilityState, StepRule
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.static import StaticMobility
from repro.mobility.jump import JumpMobility
from repro.mobility.brownian import BrownianMobility
from repro.mobility.waypoint import RandomWaypointMobility, WaypointState
from repro.mobility.obstacle_walk import ObstacleWalkMobility

__all__ = [
    "MobilityModel",
    "MobilityState",
    "BatchStepper",
    "StepRule",
    "RandomWalkMobility",
    "StaticMobility",
    "JumpMobility",
    "BrownianMobility",
    "RandomWaypointMobility",
    "WaypointState",
    "ObstacleWalkMobility",
    "make_mobility",
]

#: Factories taking ``(grid, **kwargs)`` and returning a model.
_REGISTRY = {
    "random_walk": RandomWalkMobility,
    "static": StaticMobility,
    "jump": JumpMobility,
    "brownian": BrownianMobility,
    "waypoint": RandomWaypointMobility,
    "obstacle_walk": ObstacleWalkMobility.for_grid,
}


def make_mobility(name: str, grid, **kwargs) -> MobilityModel:
    """Instantiate a mobility model by name.

    Parameters
    ----------
    name:
        One of ``"random_walk"``, ``"static"``, ``"jump"``, ``"brownian"``,
        ``"waypoint"``, ``"obstacle_walk"``.
    grid:
        The :class:`repro.grid.Grid2D` the agents live on.  For
        ``"obstacle_walk"`` this must be the grid underlying the domain.
    kwargs:
        Forwarded to the model factory (e.g. ``jump_radius`` for
        :class:`JumpMobility`, ``domain`` for :class:`ObstacleWalkMobility`).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(f"unknown mobility model {name!r}; choose from {sorted(_REGISTRY)}") from exc
    return factory(grid, **kwargs)
