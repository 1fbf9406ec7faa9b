"""Shared Hypothesis strategies for the property-based test suites.

Every ``tests/test_properties*.py`` module draws its inputs from here, so
the shapes of "a random point cloud", "a random seed" or "a random small
simulation config" stay consistent across suites.

Example counts are steered through the ``HYPOTHESIS_MAX_EXAMPLES``
environment variable: per-PR CI lowers them to keep feedback fast, the
nightly deep matrix raises them far beyond the local defaults, and an unset
variable keeps each suite's own default for laptop runs.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import strategies as st

from repro.core.config import BroadcastConfig, GossipConfig


def max_examples(default: int) -> int:
    """``default``, unless ``$HYPOTHESIS_MAX_EXAMPLES`` overrides it.

    The override works in both directions: per-PR CI sets a low value to
    keep feedback fast, while the nightly deep matrix sets a high one to
    dig far beyond the local defaults.
    """
    cap = os.environ.get("HYPOTHESIS_MAX_EXAMPLES")
    if cap is None:
        return default
    return max(1, int(cap))


# --------------------------------------------------------------------------- #
# Geometry / connectivity inputs
# --------------------------------------------------------------------------- #
#: A single grid point with generous coordinates.
points = st.tuples(st.integers(0, 200), st.integers(0, 200)).map(np.array)


def point_sets(
    max_coord: int = 30, min_size: int = 1, max_size: int = 40
) -> st.SearchStrategy[np.ndarray]:
    """An ``(m, 2)`` integer array of grid points."""
    return st.lists(
        st.tuples(st.integers(0, max_coord), st.integers(0, max_coord)),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda pts: np.array(pts, dtype=np.int64))


#: Small Manhattan visibility radii, including the sparse-regime r = 0.
radii = st.sampled_from([0.0, 1.0, 2.0, 3.0])

#: Integer seeds for reproducible generators.
seeds = st.integers(0, 2**31 - 1)

#: Replication counts for equivalence suites (kept small: each is a sim run).
replication_counts = st.integers(1, 6)

#: Work-unit chunk sizes (None = executor default).
chunk_sizes = st.none() | st.integers(1, 5)


# --------------------------------------------------------------------------- #
# Simulation configs (small enough for property suites)
# --------------------------------------------------------------------------- #
@st.composite
def broadcast_configs(draw, max_side: int = 12, max_agents: int = 8) -> BroadcastConfig:
    """A small broadcast config exercising radius and step-rule variety."""
    side = draw(st.integers(5, max_side))
    return BroadcastConfig(
        n_nodes=side * side,
        n_agents=draw(st.integers(2, max_agents)),
        radius=draw(st.sampled_from([0.0, 1.0, 2.0])),
        max_steps=draw(st.sampled_from([40, 80])),
        mobility_kwargs={"rule": draw(st.sampled_from(["lazy", "simple"]))},
    )


@st.composite
def gossip_configs(draw, max_side: int = 9, max_agents: int = 6) -> GossipConfig:
    """A small gossip config (the (k, k) knowledge state grows fast)."""
    side = draw(st.integers(5, max_side))
    return GossipConfig(
        n_nodes=side * side,
        n_agents=draw(st.integers(2, max_agents)),
        radius=draw(st.sampled_from([0.0, 1.0])),
        max_steps=draw(st.sampled_from([40, 80])),
    )


#: Every registered mobility model with the kwargs a small test grid needs
#: (``random_walk`` under both step rules).
MOBILITY_MODELS = (
    "random_walk",
    "simple_walk",
    "static",
    "jump",
    "brownian",
    "waypoint",
    "obstacle_walk",
)


def mobility_config(name: str, side: int) -> dict:
    """``{"mobility": ..., "mobility_kwargs": ...}`` of a config on a ``side`` grid."""
    from repro.grid.obstacles import ObstacleGrid

    kwargs = {
        "random_walk": {},
        "simple_walk": {"rule": "simple"},
        "static": {},
        "jump": {"jump_radius": 2},
        "brownian": {"sigma": 1.3},
        "waypoint": {},
        "obstacle_walk": {"domain": ObstacleGrid.with_wall(side, gap_width=2)},
    }[name]
    return {
        "mobility": "random_walk" if name == "simple_walk" else name,
        "mobility_kwargs": kwargs,
    }


@st.composite
def process_kernels(draw):
    """A small process kernel of any registered kind.

    Sizes are chosen so trials complete (or hit the horizon) within a few
    dozen steps, and so batches compact mid-run: with several trials per run
    some finish early while others keep going.  Broadcast and gossip run on
    every registered mobility model, at radii including a fractional one,
    and a broadcast may record the frontier and the coverage observables.
    """
    from repro.dissemination.kernels import (
        BroadcastProcess,
        CoverProcess,
        FrogProcess,
        GossipProcess,
        PredatorPreyProcess,
    )

    kind = draw(st.sampled_from(["broadcast", "gossip", "frog", "predator_prey", "cover"]))
    record_coverage = kind == "broadcast" and draw(st.booleans())
    # Informed agents cover every node within the horizon only on the
    # smallest grids; there some trials of a run stop early while others
    # run on, so a batch that records coverage compacts mid-run.
    side = draw(st.integers(4, 5) if record_coverage else st.integers(4, 9))
    n_nodes = side * side
    max_steps = draw(st.sampled_from([30, 60]))
    if kind in ("broadcast", "gossip"):
        fields = dict(
            n_nodes=n_nodes,
            n_agents=draw(st.integers(2, 6)),
            radius=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
            max_steps=max_steps,
            **mobility_config(draw(st.sampled_from(MOBILITY_MODELS)), side),
        )
        if kind == "broadcast":
            return BroadcastProcess(
                BroadcastConfig(
                    record_frontier=draw(st.booleans()),
                    record_coverage=record_coverage,
                    **fields,
                )
            )
        return GossipProcess(GossipConfig(**fields))
    radius = draw(st.sampled_from([0.0, 1.0, 2.0]))
    if kind == "frog":
        return FrogProcess(
            n_nodes, draw(st.integers(2, 6)), radius=radius, max_steps=max_steps
        )
    if kind == "predator_prey":
        return PredatorPreyProcess(
            n_nodes,
            draw(st.integers(1, 4)),
            draw(st.integers(1, 5)),
            capture_radius=radius,
            max_steps=max_steps,
            preys_move=draw(st.booleans()),
        )
    return CoverProcess(
        side,
        draw(st.integers(1, 6)),
        max_steps,
        rule=draw(st.sampled_from(["lazy", "simple"])),
    )


@st.composite
def dense_exchanges(draw) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One dense-model exchange round: ``(positions, informed, radius, side)``.

    Agents are drawn from a pool of at most ``k`` nodes, so smaller pools
    co-locate agents; the informed set is empty, full or random, and the
    radius runs from 0 to past the grid's L1 diameter.
    """
    side = draw(st.integers(1, 32))
    k = draw(st.integers(1, 200))
    node = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    pool = draw(st.lists(node, min_size=1, max_size=k))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=k, max_size=k))
    positions = np.array([pool[i] for i in picks], dtype=np.int64)
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "random":
        informed = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    else:
        informed = np.full(k, kind == "full")
    radius = draw(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])
        | st.integers(0, 2 * side).map(float)
        | st.integers(2 * side, 4 * side).map(float)
    )
    return positions, informed, radius, side


@st.composite
def sweep_grids(draw, max_points: int = 4) -> list[int]:
    """A small sweep grid: distinct agent counts in increasing order."""
    return sorted(
        draw(
            st.sets(st.integers(2, 10), min_size=1, max_size=max_points)
        )
    )
