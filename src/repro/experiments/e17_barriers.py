"""E17 — broadcast through a bottleneck (future-work extension).

The paper's closing remark proposes extending the model to planar domains
with mobility and communication barriers.  This experiment measures the
broadcast time in a square domain split by a vertical wall with a gap of
varying width: the narrower the gap, the longer the rumor takes to cross,
while a gap as wide as the wall recovers the open-grid behaviour.  This is an
*extension*, not a claim of the paper; the expectation is qualitative
(monotone slowdown as the bottleneck narrows).
"""

from __future__ import annotations

from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.extensions.barriers import run_barrier_broadcast_replications
from repro.grid.obstacles import ObstacleGrid
from repro.util.rng import SeedLike, spawn_rngs
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E17"
TITLE = "Broadcast through a bottleneck wall (barrier extension)"


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E17 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    side = workload["side"]
    n_agents = workload["n_agents"]
    gap_widths = list(workload["gap_widths"])
    replications = workload["replications"]
    rngs = spawn_rngs(seed, len(gap_widths) + 1)

    # Open-grid reference at the same n and k.
    open_config = BroadcastConfig(n_nodes=side * side, n_agents=n_agents, radius=0.0)
    open_summary, _ = run_broadcast_replications(open_config, replications, seed=rngs[-1])

    rows: list[ExperimentRow] = []
    means: list[float] = []
    for rng, gap in zip(rngs, gap_widths):
        domain = ObstacleGrid.with_wall(side, gap_width=gap)
        # radius 0 has no line-of-sight component, so this runs on the
        # batched backend (obstacle-walk mobility) wherever auto allows.
        summary, _ = run_barrier_broadcast_replications(
            domain, n_agents, replications, radius=0.0, seed=rng
        )
        times = summary.completed_values
        mean_tb = float(times.mean()) if times.size else float("nan")
        means.append(mean_tb)
        rows.append(
            ExperimentRow(
                {
                    "side": side,
                    "k": n_agents,
                    "gap_width": gap,
                    "n_free": domain.n_free,
                    "replications": replications,
                    "mean_T_B": mean_tb,
                    "open_grid_T_B": open_summary.mean,
                    "slowdown_vs_open": (
                        mean_tb / open_summary.mean if open_summary.mean else float("nan")
                    ),
                    "completion_rate": summary.completion_rate,
                }
            )
        )

    # gap_widths are listed narrowest first; the narrowest gap should be the
    # slowest configuration and the widest should approach the open grid.
    summary = {
        "open_grid_T_B": open_summary.mean,
        "narrowest_gap_T_B": means[0] if means else float("nan"),
        "widest_gap_T_B": means[-1] if means else float("nan"),
        "bottleneck_slowdown": (
            means[0] / means[-1] if means and means[-1] else float("nan")
        ),
        "widest_gap_close_to_open": (
            (means[-1] / open_summary.mean) if means and open_summary.mean else float("nan")
        ),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"side": side, "n_agents": n_agents, "radius": 0.0, "scale": scale},
        rows=rows,
        summary=summary,
    )
