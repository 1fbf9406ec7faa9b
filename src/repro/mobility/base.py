"""Abstract interface of a mobility model (the batch-aware kernel contract)."""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import BatchStepper, MobilityState, PerTrialStepper
from repro.util.rng import RandomState


class MobilityModel(abc.ABC):
    """A rule for placing agents initially and moving them at each time step.

    A model instance holds *configuration only* (the grid and the model's
    parameters); everything a single trial needs beyond its positions array
    lives in an explicit per-trial :class:`~repro.mobility.kernels.MobilityState`
    created by :meth:`init_state`, so one model instance can drive any number
    of concurrent trials.

    Every model is a *batch-aware kernel*: it exposes the per-trial
    ``step(positions, rng, state)`` and :meth:`batch_stepper`, a
    loop-persistent stepper over an ``(R, k, 2)`` tensor of ``R``
    independent trials (see :mod:`repro.mobility.kernels`).  The stepper
    consumes each trial's generator in exactly the order ``step`` would, so
    a batched trial reproduces its serial counterpart bit for bit — the
    contract the ``backend="batched"`` replication engine relies on.
    """

    def __init__(self, grid: Grid2D) -> None:
        self._grid = grid

    @property
    def grid(self) -> Grid2D:
        """The lattice on which agents move."""
        return self._grid

    # ------------------------------------------------------------------ #
    # Initial conditions and per-trial state
    # ------------------------------------------------------------------ #
    def initial_positions(self, n_agents: int, rng: RandomState) -> np.ndarray:
        """Initial placement: uniform and independent over the grid nodes.

        All models in the paper and its baselines share this initial
        condition; override only if a different placement is required.
        """
        return self._grid.random_positions(n_agents, rng)

    def init_state(self, n_agents: int, rng: RandomState) -> Optional[MobilityState]:
        """Draw a fresh per-trial auxiliary state (default: none).

        Stateful models (e.g. the waypoint model) override this; the caller
        owns the returned object and passes it back to every ``step`` call
        of that trial.
        """
        return None

    def init_states(
        self, n_agents: int, rngs: Sequence[RandomState]
    ) -> list[Optional[MobilityState]]:
        """One :meth:`init_state` per replication, in trial order."""
        return [self.init_state(n_agents, rng) for rng in rngs]

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def step(
        self,
        positions: np.ndarray,
        rng: RandomState,
        state: Optional[MobilityState] = None,
    ) -> np.ndarray:
        """Return the positions after one movement step.

        Must not mutate ``positions`` in place.  ``state`` is the trial's
        auxiliary state from :meth:`init_state`; a stateful model raises
        ``TypeError`` without it.
        """

    def batch_stepper(
        self,
        n_agents: int,
        rngs: Sequence[RandomState],
        states: Optional[Sequence[Optional[MobilityState]]] = None,
    ) -> BatchStepper:
        """A loop-persistent batched stepper for a replication run.

        The returned object may amortise generator calls across steps
        (block pre-drawing) while preserving per-trial stream equivalence.
        The default wraps :meth:`step` in a
        :class:`~repro.mobility.kernels.PerTrialStepper`.
        """
        return PerTrialStepper(self, rngs, self._check_states(len(rngs), states))

    # ------------------------------------------------------------------ #
    def _check_states(
        self,
        n_trials: int,
        states: Optional[Sequence[Optional[MobilityState]]],
    ) -> list[Optional[MobilityState]]:
        """Validate a per-trial state list, defaulting to all-None."""
        if states is None:
            if self._requires_state():
                raise ValueError(
                    f"{type(self).__name__} keeps per-trial auxiliary state; pass "
                    "the states from init_states() to batched stepping"
                )
            return [None] * n_trials
        states = list(states)
        if len(states) != n_trials:
            raise ValueError(f"expected {n_trials} states, got {len(states)}")
        return states

    def _requires_state(self) -> bool:
        """Whether batched stepping needs explicit per-trial states."""
        return type(self).init_state is not MobilityModel.init_state

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(grid={self._grid!r})"
