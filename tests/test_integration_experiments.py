"""Integration tests: every experiment runs end-to-end at the tiny scale.

These tests exercise the complete path (workload -> simulators -> analysis ->
report) and check structural invariants of the reports.  Scientific shape
assertions (exponents, orderings) are made only where the tiny scale is large
enough to support them; the benchmark harness makes the stronger claims at
the small scale.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import ExperimentReport
from repro.experiments import available_experiments, run_experiment


@pytest.mark.parametrize("experiment_id", available_experiments())
def test_experiment_runs_at_tiny_scale(experiment_id):
    report = run_experiment(experiment_id, scale="tiny", seed=1)
    assert isinstance(report, ExperimentReport)
    assert report.experiment_id == experiment_id
    assert report.rows, f"{experiment_id} produced no rows"
    assert report.summary, f"{experiment_id} produced no summary"
    # The rendering must not crash and must mention the experiment id.
    text = report.render()
    assert experiment_id in text


class TestExperimentShapes:
    """Targeted shape checks on the cheapest experiments."""

    def test_e1_broadcast_decreases_with_k(self):
        report = run_experiment("E1", scale="tiny", seed=3)
        times = report.column("mean_T_B")
        assert times[0] > times[-1]

    def test_e1_fit_exponent_is_negative(self):
        report = run_experiment("E1", scale="tiny", seed=3)
        assert report.summary["fitted_exponent_in_k"] < 0

    def test_e2_broadcast_increases_with_n(self):
        report = run_experiment("E2", scale="tiny", seed=3)
        times = report.column("mean_T_B")
        assert times[-1] > times[0]

    def test_e4_islands_are_small(self):
        report = run_experiment("E4", scale="tiny", seed=3)
        for row in report.rows:
            assert row["max_island"] <= row["k"]
            assert row["max_island"] >= 1

    def test_e5_probabilities_valid(self):
        report = run_experiment("E5", scale="tiny", seed=3)
        for row in report.rows:
            assert 0.0 <= row["P_meet_in_lens"] <= row["P_meet"] <= 1.0

    def test_e12_wang_and_pettarin_columns_present(self):
        report = run_experiment("E12", scale="tiny", seed=3)
        assert "wang_claimed" in report.columns
        assert "pettarin_scale" in report.columns

    def test_e13_giant_fraction_bounds(self):
        report = run_experiment("E13", scale="tiny", seed=3)
        fractions = report.column("giant_fraction")
        assert all(0 < f <= 1.0 for f in fractions)
        # Largest swept radius should yield a (near-)giant component.
        assert fractions[-1] > fractions[0]

    def test_e14_above_is_faster(self):
        report = run_experiment("E14", scale="tiny", seed=3)
        assert report.summary["mean_T_B_above"] <= report.summary["mean_T_B_below"]

    def test_e15_range_grows_with_length(self):
        report = run_experiment("E15", scale="tiny", seed=3)
        ranges = report.column("mean_range")
        assert ranges[-1] > ranges[0]

    def test_reports_are_serialisable(self):
        from repro.util.serialization import to_jsonable

        report = run_experiment("E1", scale="tiny", seed=5)
        payload = to_jsonable(report)
        assert payload["experiment_id"] == "E1"

    def test_seed_reproducibility(self):
        a = run_experiment("E1", scale="tiny", seed=11)
        b = run_experiment("E1", scale="tiny", seed=11)
        assert a.column("mean_T_B") == b.column("mean_T_B")
