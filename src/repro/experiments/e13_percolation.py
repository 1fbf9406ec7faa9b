"""E13 — emergence of the giant component around ``r_c ≈ sqrt(n/k)``.

The sparse regime of the paper is defined by radii below the percolation
point.  We sweep the transmission radius (as a multiple of the theoretical
``r_c``) and measure the fraction of agents in the largest component of
``G_t(r)``; the fraction should be small below ``r_c`` and grow rapidly
through the transition.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.connectivity.components import largest_component_fraction
from repro.connectivity.percolation import PercolationSweepResult, percolation_radius
from repro.connectivity.visibility import visibility_components
from repro.exec import map_replications
from repro.grid.lattice import Grid2D
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E13"
TITLE = "Giant component fraction vs transmission radius (percolation)"


def _giant_trials(rngs: list[RandomState], n_nodes: int, k: int, radius: float) -> list[float]:
    """Uniform placements, one per generator (executor map function):
    giant-component fractions."""
    grid = Grid2D.from_nodes(n_nodes)
    labels = [visibility_components(grid.random_positions(k, rng), radius) for rng in rngs]
    return [float(largest_component_fraction(trial)) for trial in labels]


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E13 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    n_nodes = workload["n_nodes"]
    n_agents = workload["n_agents"]
    radius_factors = list(workload["radius_factors"])
    samples = workload["samples"]
    grid = Grid2D.from_nodes(n_nodes)
    rngs = spawn_rngs(seed, len(radius_factors))

    r_c = percolation_radius(grid.n_nodes, n_agents)
    radii = np.array([factor * r_c for factor in radius_factors], dtype=np.float64)
    # Placement samples are independent, so each radius point's sampling
    # shards through the executor like any replication range.
    fractions = np.empty(radii.shape[0], dtype=np.float64)
    for idx, (rng, radius) in enumerate(zip(rngs, radii)):
        records = map_replications(
            _giant_trials,
            samples,
            seed=rng,
            kwargs={"n_nodes": grid.n_nodes, "k": n_agents, "radius": float(radius)},
            label=f"{EXPERIMENT_ID}[r={radius:.3g}]",
        )
        fractions[idx] = float(np.mean(records))
    sweep = PercolationSweepResult(
        n_nodes=grid.n_nodes,
        n_agents=n_agents,
        radii=radii,
        giant_fractions=fractions,
        theoretical_radius=r_c,
    )

    rows = [
        ExperimentRow(
            {
                "n": grid.n_nodes,
                "k": n_agents,
                "radius_factor": factor,
                "radius": float(radius),
                "giant_fraction": float(fraction),
            }
        )
        for factor, radius, fraction in zip(radius_factors, sweep.radii, sweep.giant_fractions)
    ]

    below = [
        float(f)
        for factor, f in zip(radius_factors, sweep.giant_fractions)
        if factor <= 0.5
    ]
    above = [
        float(f)
        for factor, f in zip(radius_factors, sweep.giant_fractions)
        if factor >= 2.0
    ]
    summary = {
        "theoretical_r_c": r_c,
        "estimated_threshold_radius_at_half": sweep.estimated_threshold(0.5),
        "mean_fraction_below_half_rc": float(np.mean(below)) if below else float("nan"),
        "mean_fraction_above_2rc": float(np.mean(above)) if above else float("nan"),
        "transition_present": (
            bool(below and above and np.mean(above) > 2.0 * np.mean(below))
            if below and above
            else False
        ),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"n_nodes": grid.n_nodes, "n_agents": n_agents, "samples": samples, "scale": scale},
        rows=rows,
        summary=summary,
    )
