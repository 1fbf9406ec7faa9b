"""E4 — maximum island size below the percolation point (Lemma 6).

With ``γ = sqrt(n / (4 e^6 k))`` and uniformly random agent positions, the
largest island (connected component of the proximity graph with parameter
``γ``) has at most ``log n`` agents with high probability.  We sample uniform
placements at several system sizes (keeping the density ``n / k`` fixed) and
report the maximum observed island size against the ``log n`` bound.
"""

from __future__ import annotations

import math

from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.connectivity.components import IslandStatistics, sample_island_sizes
from repro.connectivity.percolation import island_parameter_gamma
from repro.exec import map_replications
from repro.grid.lattice import Grid2D
from repro.theory.lemmas import lemma6_island_size_bound
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E4"
TITLE = "Maximum island size below the percolation point (Lemma 6)"


def _island_trials(rngs: list[RandomState], n_nodes: int, k: int, gamma: float) -> list[dict]:
    """Uniform placements, one per generator (executor map function):
    island-size statistics."""
    grid = Grid2D.from_nodes(n_nodes)
    return [sample_island_sizes(grid, k, gamma, rng) for rng in rngs]


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E4 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    node_counts = list(workload["node_counts"])
    density = workload["density"]
    samples = workload["samples"]
    rngs = spawn_rngs(seed, len(node_counts))

    rows: list[ExperimentRow] = []
    bound_satisfied: list[bool] = []
    for rng, n_nodes in zip(rngs, node_counts):
        grid = Grid2D.from_nodes(n_nodes)
        n_agents = max(grid.n_nodes // density, 2)
        gamma = island_parameter_gamma(grid.n_nodes, n_agents)
        # Placements are independent samples, so the point-internal sampling
        # shards through the executor like any replication range.
        records = map_replications(
            _island_trials,
            samples,
            seed=rng,
            kwargs={"n_nodes": grid.n_nodes, "k": n_agents, "gamma": gamma},
            label=f"{EXPERIMENT_ID}[n={grid.n_nodes}]",
        )
        stats = IslandStatistics.from_samples(n_agents, gamma, records)
        bound = lemma6_island_size_bound(grid.n_nodes)
        # Lemma 6 allows islands of up to log n agents; finite-size constants
        # are absorbed into a factor-2 slack when judging "satisfied".
        satisfied = stats.max_island_size <= 2.0 * bound + 1.0
        bound_satisfied.append(satisfied)
        rows.append(
            ExperimentRow(
                {
                    "n": grid.n_nodes,
                    "k": n_agents,
                    "gamma": gamma,
                    "samples": samples,
                    "max_island": stats.max_island_size,
                    "mean_max_island": stats.mean_max_island_size,
                    "log_n_bound": bound,
                    "giant_fraction": stats.giant_fraction,
                    "within_2x_bound": satisfied,
                }
            )
        )

    summary = {
        "all_within_2x_log_bound": all(bound_satisfied),
        "density_n_over_k": density,
        # The max island should grow at most logarithmically, so the ratio of
        # max island to log n should not blow up across the sweep.
        "max_island_to_logn_ratio": max(
            (row["max_island"] / max(math.log(row["n"]), 1.0)) for row in rows
        )
        if rows
        else float("nan"),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"scale": scale, "samples": samples},
        rows=rows,
        summary=summary,
    )
