"""E15 — range of a single walk vs its length (Lemma 2).

Lemma 2 (point 2) asserts that a walk of length ``ℓ`` visits at least
``c2 * ℓ / log ℓ`` distinct nodes with probability greater than 1/2, and
(point 1) that its displacement concentrates around ``sqrt(ℓ)``.  We sweep
the walk length, measure the mean range and the median-exceedance of the
``ℓ / log ℓ`` form, and the mean maximum displacement relative to
``sqrt(ℓ)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import ExperimentReport, ExperimentRow
from repro.exec import map_replications
from repro.grid.lattice import Grid2D
from repro.theory.lemmas import lemma2_range_lower
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.walks.range_stats import RangeStatistics
from repro.walks.single import walk_ranges
from repro.workloads.configs import get_workload

EXPERIMENT_ID = "E15"
TITLE = "Walk range R_l and displacement vs walk length (Lemma 2)"


def _range_trials(rngs: list[RandomState], side: int, steps: int) -> list[dict]:
    """Walks from the centre, one per generator (executor map function):
    range and maximum displacement."""
    grid = Grid2D(side)
    ranges, displacements = walk_ranges(grid, grid.center(), steps, rngs)
    return [
        {"range": int(r), "displacement": int(d)} for r, d in zip(ranges, displacements)
    ]


def run(scale: str = "small", seed: SeedLike = 0) -> ExperimentReport:
    """Run the E15 sweep and return its report."""
    workload = get_workload(EXPERIMENT_ID, scale)
    side = workload["side"]
    lengths = list(workload["lengths"])
    trials = workload["trials"]
    rngs = spawn_rngs(seed, len(lengths))

    rows: list[ExperimentRow] = []
    mean_ranges: list[float] = []
    for rng, length in zip(rngs, lengths):
        # Walks are independent samples, so the point-internal sampling
        # shards through the executor like any replication range.
        records = map_replications(
            _range_trials,
            trials,
            seed=rng,
            kwargs={"side": side, "steps": length},
            label=f"{EXPERIMENT_ID}[l={length}]",
        )
        stats = RangeStatistics.from_samples(
            length,
            np.array([r["range"] for r in records], dtype=np.int64),
            np.array([r["displacement"] for r in records], dtype=np.int64),
        )
        mean_ranges.append(stats.mean_range)
        reference = lemma2_range_lower(length)
        rows.append(
            ExperimentRow(
                {
                    "steps": length,
                    "trials": trials,
                    "mean_range": stats.mean_range,
                    "median_range": stats.median_range,
                    "l_over_logl": reference,
                    "normalised_range": stats.normalised_range,
                    "frac_above_quarter_form": stats.fraction_above(0.25 * reference),
                    "mean_max_displacement": stats.mean_max_displacement,
                    "displacement_over_sqrt_l": stats.mean_max_displacement / math.sqrt(length),
                }
            )
        )

    fit = fit_power_law(lengths, mean_ranges)
    summary = {
        # R_l ~ l / log l corresponds to an exponent slightly below 1.
        "fitted_range_exponent": fit.exponent,
        "expected_range_exponent_range": (0.75, 1.05),
        "all_median_above_quarter_form": all(
            row["frac_above_quarter_form"] >= 0.5 for row in rows
        ),
        "displacement_ratio_band": (
            min(row["displacement_over_sqrt_l"] for row in rows),
            max(row["displacement_over_sqrt_l"] for row in rows),
        )
        if rows
        else (float("nan"), float("nan")),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"grid_side": side, "trials": trials, "scale": scale},
        rows=rows,
        summary=summary,
    )
