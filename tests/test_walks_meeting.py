"""Tests for repro.walks.meeting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.lattice import Grid2D
from repro.util.rng import spawn_rngs
from repro.walks.meeting import MeetingExperiment, MeetingResult, estimate_meeting_probability

from strategies import max_examples, seeds


def _placement_before_the_fix(side: int, d: int):
    """The pair placement of earlier releases, or None where it raised."""
    mid_y = side // 2
    left = d // 2
    cx = side // 2
    a = np.array([max(cx - left, 0), mid_y])
    b = np.array([min(cx + d - left, side - 1), mid_y])
    if int(np.abs(a - b).sum()) != d:
        b = np.array([min(int(a[0]) + d, side - 1), mid_y])
        if int(np.abs(a - b).sum()) != d:
            return None
    return a, b


class TestMeetingExperiment:
    def test_default_horizon_is_d_squared(self):
        exp = MeetingExperiment(Grid2D(64), initial_distance=8)
        assert exp.horizon == 64

    def test_custom_horizon(self):
        exp = MeetingExperiment(Grid2D(64), initial_distance=8, horizon=10)
        assert exp.horizon == 10

    def test_distance_larger_than_diameter_rejected(self):
        with pytest.raises(ValueError):
            MeetingExperiment(Grid2D(4), initial_distance=100)

    def test_invalid_distance(self):
        with pytest.raises(Exception):
            MeetingExperiment(Grid2D(16), initial_distance=0)

    def test_starting_points_have_requested_distance(self):
        for d in (1, 3, 7, 15):
            exp = MeetingExperiment(Grid2D(32), initial_distance=d)
            a, b = exp._starting_points()
            assert abs(int(a[0]) - int(b[0])) + abs(int(a[1]) - int(b[1])) == d

    def test_every_distance_up_to_the_diameter_places(self):
        # Regression: d from side - 1 up placed the second node off its row
        # end and raised ValueError at the first trial (e.g. side 8, d = 7).
        for side in range(2, 10):
            grid = Grid2D(side)
            for d in range(1, grid.diameter + 1):
                a, b = MeetingExperiment(grid, d)._starting_points()
                assert grid.contains(a) and grid.contains(b)
                assert int(np.abs(a - b).sum()) == d
                before = _placement_before_the_fix(side, d)
                if before is not None:
                    assert a.tolist() == before[0].tolist()
                    assert b.tolist() == before[1].tolist()

    @settings(max_examples=max_examples(40), deadline=None)
    @given(
        side=st.integers(2, 12),
        data=st.data(),
        rule=st.sampled_from(["simple", "lazy"]),
        horizon=st.none() | st.integers(1, 900),
        trials=st.integers(1, 12),
        seed=seeds,
    )
    def test_batched_trials_equal_serial_trials(self, side, data, rule, horizon, trials, seed):
        # Small sides keep the pairs at the corners and walls, where the
        # simple walk redraws; horizons up to 900 refill the 128-step tapes
        # several times.
        d = data.draw(st.integers(1, Grid2D(side).diameter))
        experiment = MeetingExperiment(Grid2D(side), d, horizon=horizon, rule=rule)
        serial = [experiment.run_trial(rng) for rng in spawn_rngs(seed, trials)]
        assert experiment.run_trials(spawn_rngs(seed, trials)) == serial

    def test_batched_trials_of_no_generators(self):
        assert MeetingExperiment(Grid2D(8), 2).run_trials([]) == []

    def test_estimate_counts_are_consistent(self, rng):
        exp = MeetingExperiment(Grid2D(32), initial_distance=2)
        result = exp.estimate(40, rng=rng)
        assert isinstance(result, MeetingResult)
        assert 0 <= result.meetings_in_lens <= result.meetings <= result.trials
        assert result.probability == result.meetings / 40
        assert result.probability_in_lens == result.meetings_in_lens / 40

    def test_adjacent_walkers_meet_often(self, rng):
        # Distance 1 and a long horizon: lazy walks meet in most trials.
        result = estimate_meeting_probability(
            Grid2D(32), initial_distance=1, trials=40, rng=rng, horizon=2000
        )
        assert result.probability > 0.5

    def test_probability_decays_with_distance(self, rng):
        near = estimate_meeting_probability(Grid2D(64), 2, trials=120, rng=rng)
        far = estimate_meeting_probability(Grid2D(64), 16, trials=120, rng=rng)
        assert near.probability >= far.probability

    def test_deterministic_given_seed(self):
        a = estimate_meeting_probability(Grid2D(32), 4, trials=30, rng=11)
        b = estimate_meeting_probability(Grid2D(32), 4, trials=30, rng=11)
        assert a.meetings == b.meetings
        assert a.meetings_in_lens == b.meetings_in_lens

    def test_lazy_rule_supported(self, rng):
        result = estimate_meeting_probability(Grid2D(32), 4, trials=20, rng=rng, rule="lazy")
        assert 0.0 <= result.probability <= 1.0
