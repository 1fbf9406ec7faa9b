"""Pairwise meeting experiments (validation of Lemma 3).

Lemma 3 states: for two independent simple random walks started at Manhattan
distance ``d >= 1``, the probability that they meet within ``T = d^2`` steps
*at a node of the lens* ``D`` (the set of nodes within distance ``d`` of both
starting points) is at least ``c3 / max(1, log d)``.

:class:`MeetingExperiment` estimates this probability by Monte-Carlo
simulation of pairs of walks, also recording *where* the meeting occurred so
the lens restriction can be checked.

The default step rule is the paper's *lazy* walk.  Two strictly simple
(non-lazy) walks started at odd Manhattan distance can never occupy the same
node simultaneously — the parity of their distance is preserved — so the
literal simple-walk experiment is only meaningful for even ``d``; the lazy
kernel, which is what the paper's agents actually use, has no such parity
constraint and obeys the same asymptotic bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.grid.geometry import manhattan_distance
from repro.mobility.kernels import StepRule, TapeStepper
from repro.walks.walkers import WalkEngine
from repro.util.rng import RandomState, default_rng
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class MeetingResult:
    """Outcome of a Monte-Carlo meeting-probability estimate."""

    initial_distance: int
    horizon: int
    trials: int
    meetings: int
    meetings_in_lens: int

    @property
    def probability(self) -> float:
        """Estimated probability of meeting anywhere within the horizon."""
        return self.meetings / self.trials if self.trials else 0.0

    @property
    def probability_in_lens(self) -> float:
        """Estimated probability of meeting *inside the lens D* (Lemma 3 event)."""
        return self.meetings_in_lens / self.trials if self.trials else 0.0


class MeetingExperiment:
    """Monte-Carlo estimator of the Lemma 3 meeting probability.

    Parameters
    ----------
    grid:
        The lattice.
    initial_distance:
        Manhattan distance ``d`` between the two starting nodes.
    horizon:
        Number of steps to simulate; ``None`` uses the paper's ``T = d^2``.
    rule:
        Step rule; defaults to the paper's lazy walk (see the module
        docstring for why the strictly simple walk is parity-constrained).
    """

    def __init__(
        self,
        grid: Grid2D,
        initial_distance: int,
        horizon: int | None = None,
        rule: StepRule = "lazy",
    ) -> None:
        self._grid = grid
        self._d = check_positive_int(initial_distance, "initial_distance")
        if self._d > grid.diameter:
            raise ValueError(
                f"initial_distance {self._d} exceeds the grid diameter {grid.diameter}"
            )
        self._horizon = int(horizon) if horizon is not None else self._d * self._d
        if self._horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self._horizon}")
        self._rule = rule

    # ------------------------------------------------------------------ #
    @property
    def initial_distance(self) -> int:
        """The initial Manhattan distance ``d``."""
        return self._d

    @property
    def horizon(self) -> int:
        """Number of simulated steps ``T`` (default ``d^2``)."""
        return self._horizon

    # ------------------------------------------------------------------ #
    def _starting_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Two nodes at distance ``d``.

        They sit on the centre row, ``d // 2`` left and ``d - d // 2`` right
        of the centre column, wherever that fits.  Otherwise the pair spans
        ``min(d, side - 1)`` columns and takes the rest of the distance on
        the rows, both spans centred.
        """
        side = self._grid.side
        mid = side // 2
        d = self._d
        if mid + d - d // 2 <= side - 1:
            return (
                np.array([mid - d // 2, mid], dtype=np.int64),
                np.array([mid + d - d // 2, mid], dtype=np.int64),
            )
        across = min(d, side - 1)
        up = d - across
        x, y = (side - 1 - across) // 2, (side - 1 - up) // 2
        return (
            np.array([x, y], dtype=np.int64),
            np.array([x + across, y + up], dtype=np.int64),
        )

    def run_trial(self, rng: RandomState) -> tuple[bool, bool]:
        """Simulate one pair of walks; returns ``(met, met_inside_lens)``."""
        a0, b0 = self._starting_points()
        positions = np.stack([a0, b0])
        engine = WalkEngine(self._grid, positions, rule=self._rule, rng=rng)
        for _ in range(self._horizon):
            pos = engine.step()
            if pos[0, 0] == pos[1, 0] and pos[0, 1] == pos[1, 1]:
                meeting = pos[0]
                in_lens = (
                    int(manhattan_distance(meeting, a0)) <= self._d
                    and int(manhattan_distance(meeting, b0)) <= self._d
                )
                return True, in_lens
        return False, False

    def run_trials(self, rngs: Sequence[RandomState]) -> list[tuple[bool, bool]]:
        """:meth:`run_trial` for one pair of walks per generator, all at once.

        Every pair advances one vectorised step at a time and leaves the
        batch when it meets.  Each trial reads its own generator through a
        :class:`~repro.mobility.kernels.TapeStepper` tape, so trial ``i``
        equals ``run_trial(rngs[i])`` bit for bit, whatever else is in the
        batch.  The tapes may draw past a trial's last step, so the
        generators must not be used afterwards.
        """
        a0, b0 = self._starting_points()
        positions = np.empty((len(rngs), 2, 2), dtype=np.int64)
        positions[:, 0], positions[:, 1] = a0, b0
        active = np.arange(len(rngs))
        met = np.zeros(len(rngs), dtype=bool)
        in_lens = np.zeros(len(rngs), dtype=bool)
        stepper = TapeStepper(self._grid, rngs, self._rule, n_walkers=2)
        for _ in range(self._horizon):
            if not active.size:
                break
            positions = stepper.step(positions, active)
            hit = (positions[:, 0, 0] == positions[:, 1, 0]) & (
                positions[:, 0, 1] == positions[:, 1, 1]
            )
            if hit.any():
                spot = positions[hit, 0]
                met[active[hit]] = True
                in_lens[active[hit]] = (np.abs(spot - a0).sum(axis=1) <= self._d) & (
                    np.abs(spot - b0).sum(axis=1) <= self._d
                )
                positions, active = positions[~hit], active[~hit]
        return list(zip(met.tolist(), in_lens.tolist()))

    def estimate(self, trials: int, rng: RandomState | int | None = None) -> MeetingResult:
        """Estimate the meeting probability from ``trials`` independent pairs."""
        trials = check_positive_int(trials, "trials")
        rng = default_rng(rng)
        meetings = 0
        in_lens = 0
        for _ in range(trials):
            met, lens = self.run_trial(rng)
            meetings += int(met)
            in_lens += int(lens)
        return MeetingResult(
            initial_distance=self._d,
            horizon=self._horizon,
            trials=trials,
            meetings=meetings,
            meetings_in_lens=in_lens,
        )


def estimate_meeting_probability(
    grid: Grid2D,
    initial_distance: int,
    trials: int,
    rng: RandomState | int | None = None,
    horizon: int | None = None,
    rule: StepRule = "lazy",
) -> MeetingResult:
    """Convenience wrapper building a :class:`MeetingExperiment` and running it."""
    experiment = MeetingExperiment(grid, initial_distance, horizon=horizon, rule=rule)
    return experiment.estimate(trials, rng=rng)
