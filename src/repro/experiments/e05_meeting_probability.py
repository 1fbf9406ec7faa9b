"""E5 — meeting probability of two walks vs initial distance (Lemma 3).

Lemma 3 lower-bounds the probability that two independent walks started at
Manhattan distance ``d`` meet (inside the lens ``D``) within ``d^2`` steps by
``c3 / log d``.  We estimate the probability by Monte-Carlo for a range of
distances and check that it decays no faster than ``1 / log d`` — i.e. the
product ``P(d) * log d`` stays bounded away from zero.
"""

from __future__ import annotations

import math

from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.exec import map_replications
from repro.grid.lattice import Grid2D
from repro.theory.lemmas import lemma3_meeting_probability_lower
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.walks.meeting import MeetingExperiment, MeetingResult
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E5"
TITLE = "Pairwise meeting probability within d^2 steps (Lemma 3)"


def _meeting_trials(rngs: list[RandomState], side: int, d: int, rule: str) -> list[dict]:
    """Pairs of walks, one per generator (executor map function): did each
    pair meet, and in the lens?"""
    experiment = MeetingExperiment(Grid2D(side), d, rule=rule)
    return [{"met": met, "in_lens": in_lens} for met, in_lens in experiment.run_trials(rngs)]


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E5 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    side = workload["side"]
    distances = list(workload["distances"])
    trials = workload["trials"]
    grid = Grid2D(side)
    rngs = spawn_rngs(seed, len(distances))

    rows: list[ExperimentRow] = []
    normalised: list[float] = []
    for rng, d in zip(rngs, distances):
        # Lemma 3 is stated for simple random walks; the workload only uses
        # even distances, so the simple walk's parity constraint is harmless.
        # Pair trials are independent, so the point-internal sampling shards
        # through the executor like any replication range.
        experiment = MeetingExperiment(grid, d, rule="simple")
        records = map_replications(
            _meeting_trials,
            trials,
            seed=rng,
            kwargs={"side": side, "d": d, "rule": "simple"},
            label=f"{EXPERIMENT_ID}[d={d}]",
        )
        result = MeetingResult(
            initial_distance=d,
            horizon=experiment.horizon,
            trials=trials,
            meetings=sum(r["met"] for r in records),
            meetings_in_lens=sum(r["in_lens"] for r in records),
        )
        log_d = max(math.log(d), 1.0)
        norm = result.probability_in_lens * log_d
        normalised.append(norm)
        rows.append(
            ExperimentRow(
                {
                    "d": d,
                    "horizon": result.horizon,
                    "trials": trials,
                    "P_meet": result.probability,
                    "P_meet_in_lens": result.probability_in_lens,
                    "lemma3_form": lemma3_meeting_probability_lower(d),
                    "P_in_lens_times_logd": norm,
                }
            )
        )

    positive = [x for x in normalised if x > 0]
    summary = {
        "min_normalised_probability": min(normalised) if normalised else float("nan"),
        "max_normalised_probability": max(normalised) if normalised else float("nan"),
        # Lemma 3 predicts P * log d = Omega(1): the normalised values should
        # not collapse towards zero as d grows.
        "normalised_spread": (max(positive) / min(positive)) if positive else float("inf"),
        "all_probabilities_positive": all(x > 0 for x in normalised),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"grid_side": side, "trials": trials, "scale": scale},
        rows=rows,
        summary=summary,
    )
