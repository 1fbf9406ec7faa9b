"""E9 — coverage time ``T_C`` vs broadcast time ``T_B`` (Section 4).

The coverage time is the first time at which every grid node has been
visited by an *informed* agent.  Section 4 argues ``T_C ≈ T_B = Õ(n/sqrt(k))``
in the dynamic model.  We measure both from the same trajectories and report
their ratio, which should stay within a polylogarithmic band.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.core.config import BroadcastConfig, default_max_steps
from repro.core.runner import run_broadcast_replications
from repro.theory.bounds import broadcast_time_scale
from repro.util.rng import SeedLike, spawn_rngs
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E9"
TITLE = "Coverage time vs broadcast time (T_C ~ T_B)"


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E9 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    n_nodes = workload["n_nodes"]
    agent_counts = list(workload["agent_counts"])
    replications = workload["replications"]
    rngs = spawn_rngs(seed, len(agent_counts))

    rows: list[ExperimentRow] = []
    coverage_means: list[float] = []
    for rng, k in zip(rngs, agent_counts):
        # T_B and T_C from one trajectory: a broadcast that records coverage
        # runs until both are done.
        config = BroadcastConfig(
            n_nodes=n_nodes,
            n_agents=k,
            radius=0.0,
            max_steps=default_max_steps(n_nodes, k) * 2,
            record_coverage=True,
        )
        _, results = run_broadcast_replications(config, replications, seed=rng)
        broadcast_times = [r.broadcast_time for r in results if r.broadcast_time >= 0]
        coverage_times = [r.coverage_time for r in results if r.coverage_time >= 0]
        mean_tb = float(np.mean(broadcast_times)) if broadcast_times else float("nan")
        mean_tc = float(np.mean(coverage_times)) if coverage_times else float("nan")
        coverage_means.append(mean_tc)
        predicted = broadcast_time_scale(n_nodes, k)
        rows.append(
            ExperimentRow(
                {
                    "n": n_nodes,
                    "k": k,
                    "replications": replications,
                    "mean_T_B": mean_tb,
                    "mean_T_C": mean_tc,
                    "T_C_over_T_B": mean_tc / mean_tb if mean_tb else float("nan"),
                    "predicted_scale": predicted,
                    "coverage_completion_rate": len(coverage_times) / replications,
                }
            )
        )

    valid = [(k, tc) for k, tc in zip(agent_counts, coverage_means) if tc == tc]
    if len(valid) >= 2:
        fit = fit_power_law([k for k, _ in valid], [tc for _, tc in valid])
        fitted_exponent = fit.exponent
    else:
        fitted_exponent = float("nan")
    ratios = [row["T_C_over_T_B"] for row in rows if row["T_C_over_T_B"] == row["T_C_over_T_B"]]
    summary = {
        "fitted_exponent_in_k": fitted_exponent,
        "max_T_C_over_T_B": max(ratios) if ratios else float("nan"),
        "min_T_C_over_T_B": min(ratios) if ratios else float("nan"),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"n_nodes": n_nodes, "radius": 0.0, "scale": scale},
        rows=rows,
        summary=summary,
    )
