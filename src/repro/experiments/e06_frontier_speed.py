"""E6 — speed of the informed frontier (Lemma 7 / Theorem 2 machinery).

The lower-bound argument tracks ``x(t)``, the rightmost grid column touched
by an informed agent, and shows (Lemma 7) that with the transmission radius
below ``sqrt(n / (64 e^6 k))`` the frontier advances by at most
``(γ log n) / 2`` per window of ``γ^2 / (144 log n)`` steps, where
``γ = sqrt(n / (4 e^6 k))``.  We run the broadcast simulation with frontier
tracking and compare the largest observed advance per window against the
theoretical budget.
"""

from __future__ import annotations

import math

from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.connectivity.percolation import island_parameter_gamma, lower_bound_radius
from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.core.simulation import BroadcastResult
from repro.exec import map_replications
from repro.theory.lemmas import lemma7_frontier_advance_bound, lemma7_frontier_window
from repro.util.rng import RandomState, SeedLike
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E6"
TITLE = "Frontier advance per observation window (Lemma 7)"


def _max_advance(history, window: int) -> int:
    if len(history) <= window:
        return int(history[-1] - history[0]) if len(history) else 0
    return int(max(history[i + window] - history[i] for i in range(len(history) - window)))


def _frontier_trials(
    rngs: list[RandomState], n_nodes: int, n_agents: int, radius: float, window: int
) -> list[dict]:
    """Frontier-tracked broadcast replications, one per generator (executor
    map function), run as one replication run over the generators."""
    config = BroadcastConfig(
        n_nodes=n_nodes,
        n_agents=n_agents,
        radius=radius,
        record_frontier=True,
    )
    _, results = run_broadcast_replications(config, len(rngs), rng_streams=rngs)
    return [_frontier_payload(result, window) for result in results]


def _frontier_payload(result: BroadcastResult, window: int) -> dict:
    """One replication's frontier statistics."""
    history = list(result.frontier_history) if result.frontier_history is not None else []
    total_advance = int(history[-1] - history[0]) if history else 0
    return {
        "max_advance": _max_advance(history, window),
        "total_advance": total_advance,
        "history_length": len(history),
        "broadcast_time": int(result.broadcast_time),
    }


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E6 replications and return the report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    n_nodes = workload["n_nodes"]
    n_agents = workload["n_agents"]
    replications = workload["replications"]

    radius = lower_bound_radius(n_nodes, n_agents)
    gamma = island_parameter_gamma(n_nodes, n_agents)
    window = max(int(lemma7_frontier_window(n_nodes, n_agents)), 1)
    advance_bound = lemma7_frontier_advance_bound(n_nodes, n_agents)

    trials = map_replications(
        _frontier_trials,
        replications,
        seed=seed,
        kwargs={
            "n_nodes": n_nodes,
            "n_agents": n_agents,
            "radius": radius,
            "window": window,
        },
        label=f"{EXPERIMENT_ID}[n={n_nodes},k={n_agents}]",
    )
    rows: list[ExperimentRow] = []
    per_step_rates: list[float] = []
    for rep, trial in enumerate(trials):
        max_advance = trial["max_advance"]
        per_step = trial["total_advance"] / max(trial["history_length"], 1)
        per_step_rates.append(per_step)
        rows.append(
            ExperimentRow(
                {
                    "replication": rep,
                    "n": n_nodes,
                    "k": n_agents,
                    "radius": radius,
                    "window_steps": window,
                    "max_advance_per_window": max_advance,
                    "lemma7_advance_bound": advance_bound,
                    "within_bound": max_advance <= advance_bound * 2.0 + 1.0,
                    "broadcast_time": trial["broadcast_time"],
                    "mean_advance_per_step": per_step,
                }
            )
        )

    # Theorem 2's consequence: the frontier needs Omega(sqrt(n)) columns of
    # progress at a bounded per-window speed, which gives the n / (sqrt(k)
    # polylog) lower bound on T_B.
    summary = {
        "gamma": gamma,
        "window_steps": window,
        "advance_bound_per_window": advance_bound,
        "all_within_2x_bound": all(bool(row["within_bound"]) for row in rows),
        "mean_advance_per_step": (
            sum(per_step_rates) / len(per_step_rates) if per_step_rates else float("nan")
        ),
        "grid_side": int(math.isqrt(n_nodes)),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"n_nodes": n_nodes, "n_agents": n_agents, "scale": scale},
        rows=rows,
        summary=summary,
    )
