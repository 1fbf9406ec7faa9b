"""E16 — the dense-model baseline of Clementi et al.

In the dense regime (``k = Θ(n)`` agents, exchange radius ``R``, jump radius
``ρ = O(R)``) the broadcast time is ``Θ(sqrt(n) / R)``.  We run the dense
model with ``k = n`` agents, sweep ``R`` and check the ``1/R`` decay — a very
different shape from the sparse regime's radius-insensitivity (E3), which is
exactly the contrast the paper draws with this prior work.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.baselines.dense_model import DenseModelSimulation
from repro.exec import map_replications
from repro.theory.bounds import dense_model_broadcast_bound
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E16"
TITLE = "Dense-model baseline: broadcast time vs exchange radius R"


def _dense_trials(
    rngs: list[RandomState], n_nodes: int, n_agents: int, exchange_radius: int, jump_radius: int
) -> list[dict]:
    """Replications of the dense-model broadcast, one per generator (executor
    map function)."""
    sim = DenseModelSimulation(
        n_nodes=n_nodes,
        n_agents=n_agents,
        exchange_radius=exchange_radius,
        jump_radius=jump_radius,
    )
    results = [sim.run(rng=rng) for rng in rngs]
    return [
        {"broadcast_time": int(result.broadcast_time), "completed": bool(result.completed)}
        for result in results
    ]


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E16 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    n_nodes = workload["n_nodes"]
    exchange_radii = list(workload["exchange_radii"])
    jump_radius = workload["jump_radius"]
    replications = workload["replications"]
    n_agents = n_nodes  # the dense regime k = Θ(n)
    rngs = spawn_rngs(seed, len(exchange_radii))

    rows: list[ExperimentRow] = []
    means: list[float] = []
    for rng, radius in zip(rngs, exchange_radii):
        trials = map_replications(
            _dense_trials,
            replications,
            seed=rng,
            kwargs={
                "n_nodes": n_nodes,
                "n_agents": n_agents,
                "exchange_radius": radius,
                "jump_radius": jump_radius,
            },
            label=f"{EXPERIMENT_ID}[n={n_nodes},R={radius}]",
        )
        times = [t["broadcast_time"] for t in trials if t["completed"]]
        mean_tb = float(np.mean(times)) if times else float("nan")
        means.append(mean_tb)
        predicted = dense_model_broadcast_bound(n_nodes, radius)
        rows.append(
            ExperimentRow(
                {
                    "n": n_nodes,
                    "k": n_agents,
                    "R": radius,
                    "rho": jump_radius,
                    "mean_T_B": mean_tb,
                    "predicted_sqrtn_over_R": predicted,
                    "ratio": mean_tb / predicted if predicted else float("nan"),
                    "completion_rate": len(times) / replications,
                }
            )
        )

    valid = [(r, t) for r, t in zip(exchange_radii, means) if t == t and t > 0]
    fitted = (
        fit_power_law([r for r, _ in valid], [t for _, t in valid]).exponent
        if len(valid) >= 2
        else float("nan")
    )
    summary = {
        "fitted_exponent_in_R": fitted,
        "theoretical_exponent_in_R": -1.0,
        "monotone_decreasing_in_R": all(
            means[i] + 1e-9 >= means[i + 1]
            for i in range(len(means) - 1)
            if means[i] == means[i] and means[i + 1] == means[i + 1]
        ),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"n_nodes": n_nodes, "k": n_agents, "rho": jump_radius, "scale": scale},
        rows=rows,
        summary=summary,
    )
