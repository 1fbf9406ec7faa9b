"""E14 — broadcast below vs above the percolation point (Peres et al. regime).

The paper's ``Θ̃(n / sqrt(k))`` bound holds below the percolation point;
Peres et al. show that above it the broadcast time becomes polylogarithmic in
``k``.  We run the same simulator with a radius well below and a radius above
``r_c`` and report the speed-up, which should be large (growing with the
system size).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.connectivity.percolation import percolation_radius
from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.exec import map_replications
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E14"
TITLE = "Broadcast time below vs above the percolation point"

#: Radius factors (relative to r_c) used for the two regimes.
BELOW_FACTOR = 0.25
ABOVE_FACTOR = 2.0


def _regime_trials(
    rngs: list[RandomState], n_nodes: int, n_agents: int, radius_below: float
) -> list[dict]:
    """Paired below/above-percolation replications, one per generator
    (executor map function).

    Each trial's below and above runs draw from its stream's first and
    second spawned child; each regime is one replication run over the
    trials' children.
    """
    pairs = [spawn_rngs(rng, 2) for rng in rngs]

    def regime(radius: float, child: int) -> list:
        config = BroadcastConfig(n_nodes=n_nodes, n_agents=n_agents, radius=radius)
        streams = [pair[child] for pair in pairs]
        return run_broadcast_replications(config, len(streams), rng_streams=streams)[1]

    below = regime(radius_below, 0)
    above = regime(ABOVE_FACTOR * percolation_radius(n_nodes, n_agents), 1)
    return [
        {"below_time": int(b.broadcast_time), "above_time": int(a.broadcast_time)}
        for b, a in zip(below, above)
    ]


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E14 replications and return the report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    n_nodes = workload["n_nodes"]
    n_agents = workload["n_agents"]
    replications = workload["replications"]

    r_c = percolation_radius(n_nodes, n_agents)
    radius_below = BELOW_FACTOR * r_c

    trials = map_replications(
        _regime_trials,
        replications,
        seed=seed,
        kwargs={"n_nodes": n_nodes, "n_agents": n_agents, "radius_below": radius_below},
        label=f"{EXPERIMENT_ID}[n={n_nodes},k={n_agents}]",
    )
    rows: list[ExperimentRow] = []
    below_times: list[float] = []
    above_times: list[float] = []
    for rep, trial in enumerate(trials):
        below_time = trial["below_time"]
        above_time = trial["above_time"]
        below_times.append(below_time)
        above_times.append(above_time)
        rows.append(
            ExperimentRow(
                {
                    "replication": rep,
                    "n": n_nodes,
                    "k": n_agents,
                    "radius_below": radius_below,
                    "radius_above": ABOVE_FACTOR * r_c,
                    "T_B_below": below_time,
                    "T_B_above": above_time,
                    "speedup": (
                        below_time / max(above_time, 1)
                        if below_time >= 0 and above_time >= 0
                        else float("nan")
                    ),
                }
            )
        )

    below_ok = [t for t in below_times if t >= 0]
    above_ok = [t for t in above_times if t >= 0]
    mean_below = float(np.mean(below_ok)) if below_ok else float("nan")
    mean_above = float(np.mean(above_ok)) if above_ok else float("nan")
    summary = {
        "percolation_radius": r_c,
        "mean_T_B_below": mean_below,
        "mean_T_B_above": mean_above,
        "mean_speedup": mean_below / max(mean_above, 1.0) if mean_below == mean_below else float("nan"),
        "above_is_faster": bool(mean_above < mean_below) if mean_above == mean_above else False,
        "polylog_reference_log2_k": float(np.log(max(n_agents, 2)) ** 2),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"n_nodes": n_nodes, "n_agents": n_agents, "scale": scale},
        rows=rows,
        summary=summary,
    )
