"""Batch-aware process kernels for the Section-4 dissemination dynamics.

This module is to the dissemination package what :mod:`repro.mobility.kernels`
is to mobility: the *kernel layer* that lets one process definition drive both
replication backends.  A dissemination process is

* ``init_state(rng) -> state`` — draw a trial's initial condition (positions
  plus process bookkeeping), consuming the generator exactly as the legacy
  serial simulator did;
* ``step(state, conn, rng)`` — one full time step: interaction (driven by the
  per-step connectivity input ``conn``), curve recording, then motion;
* ``stopped(state)`` — whether the trial's stopping condition has been hit.

Every kernel also implements the batched face of the same contract
(``init_batch`` / ``step_batch`` / ``compact`` / ``build_results``), advancing
``R`` independent trials as one ``(R, k, 2)`` position tensor; the generic
replication drivers live in :func:`run_process_serial` (here) and
:func:`repro.core.batched.run_process_replications_batched`.

The connectivity input is declared per kernel via ``needs``:

* ``"labels"`` — per-step component labels of ``G_t(r)`` over the kernel's
  point set, supplied by the recompute path or by the incremental
  :class:`~repro.connectivity.incremental.DeltaConnectivityEngine` (both
  induce the same partition, so the choice is purely a performance knob);
* ``"pairs"`` — the raw within-radius index pairs (the predator–prey capture
  test at ``r >= 1`` is a *direct-pair* predicate, which component labels
  would over-approximate; below ``r = 1`` co-location components coincide
  with direct pairs, so that case runs on labels and the incremental
  engine);
* ``"none"`` — no connectivity at all (pure cover-time processes).

Stream equivalence is the contract that makes the backends interchangeable:
every batched entry point consumes each trial's generator in exactly the
order the serial ``step`` would — including the *state-dependent* draws of
the Frog model (only active agents move, so each trial draws ``n_active``
proposals) and the two-population predator–prey draws (predators first, then
the surviving preys).  ``backend="serial"`` and ``backend="batched"`` thus
return bit-for-bit identical results for identical seeds, verified per
kernel by ``tests/test_properties_dissemination.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Literal, Optional, Sequence

import numpy as np

from repro.connectivity.spatial_hash import neighbor_pairs
from repro.connectivity.visibility import effective_radius, visibility_components
from repro.core.config import check_backend, check_connectivity, default_max_steps
from repro.core.protocol import flood_informed, flood_informed_batch
from repro.core.runner import (
    ReplicationSummary,
    auto_pair,
    check_rng_streams,
    current_backend_override,
    current_connectivity_override,
    summarise_values,
)
from repro.grid.lattice import Grid2D
from repro.mobility.kernels import StepRule, apply_lazy_choices, lazy_step
from repro.mobility.random_walk import RandomWalkMobility
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.util.validation import check_non_negative, check_positive_int

ConnectivityNeed = Literal["labels", "pairs", "none"]


# --------------------------------------------------------------------------- #
# Result dataclasses (the stable public result types of the processes)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FrogModelResult:
    """Outcome of a Frog-model simulation run."""

    n_nodes: int
    n_agents: int
    radius: float
    activation_time: int
    completed: bool
    n_steps: int
    n_active: int
    active_curve: np.ndarray

    @property
    def broadcast_time(self) -> int:
        """Alias of :attr:`activation_time` (the paper's ``T_B`` for this model)."""
        return self.activation_time


@dataclass(frozen=True)
class PredatorPreyResult:
    """Outcome of a predator–prey simulation run."""

    n_nodes: int
    n_predators: int
    n_preys: int
    capture_radius: float
    extinction_time: int
    completed: bool
    n_steps: int
    preys_remaining: int
    survival_curve: np.ndarray


@dataclass(frozen=True)
class CoverTimeResult:
    """Outcome of a multi-walk cover-time measurement."""

    n_nodes: int
    n_walkers: int
    cover_time: int
    completed: bool
    n_steps: int
    fraction_covered: float
    coverage_curve: np.ndarray

    def time_to_cover_fraction(self, fraction: float) -> int:
        """First time at which at least ``fraction`` of the nodes were covered.

        Returns ``-1`` if the fraction is never reached.
        """
        target = fraction * self.n_nodes
        reached = np.flatnonzero(self.coverage_curve >= target)
        return int(reached[0]) if reached.size else -1


@dataclass(frozen=True)
class InformedCoverageResult:
    """Outcome of a broadcast run that also tracks informed-agent coverage.

    This is the E9 observable: the broadcast time ``T_B`` and the coverage
    time ``T_C`` (first time every node has been visited by an *informed*
    agent), measured from one trajectory.
    """

    n_nodes: int
    n_agents: int
    radius: float
    broadcast_time: int
    coverage_time: int
    completed: bool
    coverage_completed: bool
    n_steps: int
    coverage_fraction: float
    informed_curve: np.ndarray


@dataclass(frozen=True)
class InfectionResult:
    """Outcome of an infection-time measurement."""

    n_nodes: int
    n_agents: int
    radius: float
    infection_time: int
    completed: bool


# --------------------------------------------------------------------------- #
# The contract
# --------------------------------------------------------------------------- #
class ProcessState:
    """Base class of per-trial serial process state.

    Concrete kernels attach their own fields; the two attributes below are
    required by the serial driver.
    """

    positions: np.ndarray
    n_steps: int


class ProcessKernel(abc.ABC):
    """A dissemination process runnable on both replication backends.

    A kernel instance holds *configuration only* (grid, radius, counts,
    horizon); per-trial state lives in explicit state objects so one kernel
    can drive any number of concurrent trials — the same separation the
    mobility kernel contract established.

    Attributes
    ----------
    name:
        Registry name (also the executor payload identity).
    needs:
        Per-step connectivity requirement (``"labels"``, ``"pairs"`` or
        ``"none"``); may depend on the instance's radius.
    n_points:
        Number of points the connectivity input covers (all moving *and*
        frozen agents of the process).
    TIME_FIELD:
        Result field summarised by :func:`run_process_replications`
        (``-1`` meaning "did not complete").
    """

    name: str = ""
    TIME_FIELD: str = ""
    result_class: type = object

    grid: Grid2D
    radius: float
    n_points: int
    horizon: int

    @property
    def needs(self) -> ConnectivityNeed:
        """The per-step connectivity input this process consumes."""
        return "labels"

    @property
    @abc.abstractmethod
    def spec(self) -> dict[str, Any]:
        """JSON-able ``{"name": ..., "kwargs": {...}}`` rebuilding this kernel.

        This is the executor payload: :func:`make_process` applied to it must
        return an equivalent kernel in any process.
        """

    # -- serial face -------------------------------------------------------- #
    # ``state`` is always the kernel's own :class:`ProcessState` subclass;
    # the signatures say ``Any`` so concrete kernels can annotate the exact
    # type without violating the override contract.
    @abc.abstractmethod
    def init_state(self, rng: RandomState) -> ProcessState:
        """Draw one trial's initial state (legacy serial draw order)."""

    @abc.abstractmethod
    def step(self, state: Any, conn: Any, rng: RandomState) -> None:
        """One full time step: interaction, recording, then motion."""

    @abc.abstractmethod
    def stopped(self, state: Any) -> bool:
        """Whether the trial's stopping condition has been reached."""

    @abc.abstractmethod
    def result(self, state: Any) -> Any:
        """Build the trial's result dataclass from its final state."""

    # -- batched face ------------------------------------------------------- #
    @abc.abstractmethod
    def init_batch(self, rngs: Sequence[RandomState]) -> Any:
        """Per-trial init draws fused into one batch state (``R`` trials)."""

    def initially_stopped(self, bstate: Any) -> np.ndarray:
        """Trials whose stopping condition already holds at ``t = 0``."""
        return np.zeros(bstate.positions.shape[0], dtype=bool)

    @abc.abstractmethod
    def step_batch(
        self,
        bstate: Any,
        conn: Any,
        rngs: Sequence[RandomState],
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the active trials by one step.

        Returns ``(counts, done)``: the per-trial curve value recorded for
        this step and the mask of trials whose stopping condition was hit at
        time ``t`` (their result fields must be written into the batch
        state's full-``R`` arrays before returning).
        """

    def compact(self, bstate: Any, keep: np.ndarray) -> None:
        """Drop finished trials from the batch state's hot arrays."""
        bstate.positions = bstate.positions[keep]

    def finalize(self, bstate: Any, active: np.ndarray) -> None:
        """Record final per-trial observables of the still-active trials."""

    @abc.abstractmethod
    def build_results(
        self, bstate: Any, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[Any]:
        """Assemble one result per trial from the batch state and curves."""


# --------------------------------------------------------------------------- #
# Serial driver
# --------------------------------------------------------------------------- #
def serial_connectivity(
    process: ProcessKernel, positions: np.ndarray, engine: Optional[Any]
) -> Any:
    """The per-step connectivity input of a serial trial."""
    if process.needs == "labels":
        if engine is not None:
            return engine.step(positions)
        return visibility_components(positions, process.radius)
    if process.needs == "pairs":
        return neighbor_pairs(positions, process.radius)
    return None


def run_process_serial(
    process: ProcessKernel, rng: RandomState, connectivity: str = "recompute"
) -> Any:
    """Run one serial trial of ``process`` and return its result.

    ``connectivity`` selects the labelling engine for ``needs == "labels"``
    kernels (``"incremental"`` maintains the components across steps, any
    other value recomputes them); pair- and connectivity-free kernels ignore
    it — there is nothing label-shaped to maintain — so every resolved
    choice is result-identical by construction.
    """
    engine = None
    if process.needs == "labels" and connectivity == "incremental":
        from repro.connectivity.incremental import DeltaConnectivityEngine

        engine = DeltaConnectivityEngine(process.n_points, process.radius, process.grid.side)
    state = process.init_state(rng)
    while state.n_steps < process.horizon and not process.stopped(state):
        conn = serial_connectivity(process, state.positions, engine)
        process.step(state, conn, rng)
    return process.result(state)


# --------------------------------------------------------------------------- #
# Shared single-population, source-seeded configuration
# --------------------------------------------------------------------------- #
def _flat_node_ids(positions: np.ndarray, side: int) -> np.ndarray:
    """Vectorised flat node keys (``x * side + y``) of any positions tensor."""
    return positions[..., 0] * side + positions[..., 1]


class _SourceSeededProcess(ProcessKernel):
    """Shared configuration of the single-population source-seeded kernels.

    The frog, informed-coverage and infection processes all share the
    broadcast-like setup: ``k`` agents placed uniformly, one source agent
    seeded (drawn from the trial's generator when not fixed), a
    transmission radius and the default broadcast horizon.  The draw order
    — positions first, then the source index — is the legacy serial
    simulators' constructor order, part of the stream-equivalence contract.
    """

    def __init__(
        self,
        n_nodes: int,
        n_agents: int,
        radius: float = 0.0,
        source: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        self.n_nodes = check_positive_int(n_nodes, "n_nodes")
        self.n_agents = check_positive_int(n_agents, "n_agents")
        self.radius = check_non_negative(radius, "radius")
        if source is not None and not (0 <= int(source) < self.n_agents):
            raise ValueError(f"source must lie in [0, {self.n_agents}), got {source}")
        self.source = None if source is None else int(source)
        self.grid = Grid2D.from_nodes(n_nodes)
        self.n_points = self.n_agents
        self.max_steps = None if max_steps is None else int(max_steps)
        self.horizon = (
            self.max_steps
            if self.max_steps is not None
            else default_max_steps(n_nodes, n_agents)
        )

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kwargs": {
                "n_nodes": self.n_nodes,
                "n_agents": self.n_agents,
                "radius": self.radius,
                "source": self.source,
                "max_steps": self.max_steps,
            },
        }

    def _draw_trial(self, rng: RandomState) -> tuple[np.ndarray, np.ndarray]:
        """One trial's initial positions and source-seeded boolean mask."""
        positions = self.grid.random_positions(self.n_agents, rng)
        source = self.source
        if source is None:
            source = int(rng.integers(0, self.n_agents))
        mask = np.zeros(self.n_agents, dtype=bool)
        mask[source] = True
        return positions, mask

    def _draw_batch(self, rngs: Sequence[RandomState]) -> tuple[np.ndarray, np.ndarray]:
        """The per-trial init draws fused into ``(R, k, 2)`` + ``(R, k)``."""
        n_trials = len(rngs)
        positions = np.empty((n_trials, self.n_agents, 2), dtype=np.int64)
        mask = np.zeros((n_trials, self.n_agents), dtype=bool)
        for trial, rng in enumerate(rngs):
            positions[trial], mask[trial] = self._draw_trial(rng)
        return positions, mask


# --------------------------------------------------------------------------- #
# Frog model (state-dependent mobility: only active agents move)
# --------------------------------------------------------------------------- #
class FrogState(ProcessState):
    """Serial per-trial state of the Frog model."""

    __slots__ = ("positions", "active", "n_steps", "activation_time", "curve")

    def __init__(self, positions: np.ndarray, active: np.ndarray) -> None:
        self.positions = positions
        self.active = active
        self.n_steps = 0
        self.activation_time = -1
        self.curve: list[int] = []


class _FrogBatch:
    """Batched state of the Frog model (hot arrays compacted to active trials)."""

    __slots__ = ("positions", "active_mask", "activation_time", "final_active", "choice")

    def __init__(self, positions: np.ndarray, active_mask: np.ndarray) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.active_mask = active_mask
        self.activation_time = np.full(n_trials, -1, dtype=np.int64)
        self.final_active = np.full(n_trials, -1, dtype=np.int64)
        self.choice = np.zeros(positions.shape[:2], dtype=np.int64)


class FrogProcess(_SourceSeededProcess):
    """The Frog model as a batch-aware process kernel.

    Only *active* (informed) agents move; activation floods through the
    components of ``G_t(r)``.  Motion is masked kernel stepping: each trial
    draws exactly ``n_active`` lazy proposals (the serial draw), scattered
    into a batch-wide choice tensor whose inactive entries are the "stay"
    proposal, then applied with one
    :func:`~repro.mobility.kernels.apply_lazy_choices` pass.
    """

    name = "frog"
    TIME_FIELD = "activation_time"
    result_class = FrogModelResult

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> FrogState:
        return FrogState(*self._draw_trial(rng))

    def step(self, state: FrogState, conn: Any, rng: RandomState) -> None:
        state.active = flood_informed(state.active, conn)
        n_active = int(np.count_nonzero(state.active))
        state.curve.append(n_active)
        if state.activation_time < 0 and n_active == self.n_agents:
            state.activation_time = state.n_steps
        if n_active:
            moved = lazy_step(self.grid, state.positions[state.active], rng)
            new_positions = state.positions.copy()
            new_positions[state.active] = moved
            state.positions = new_positions
        state.n_steps += 1

    def stopped(self, state: FrogState) -> bool:
        return state.activation_time >= 0

    def result(self, state: FrogState) -> FrogModelResult:
        return FrogModelResult(
            n_nodes=self.n_nodes,
            n_agents=self.n_agents,
            radius=self.radius,
            activation_time=state.activation_time,
            completed=state.activation_time >= 0,
            n_steps=state.n_steps,
            n_active=int(np.count_nonzero(state.active)),
            active_curve=np.asarray(state.curve, dtype=np.int64),
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState]) -> _FrogBatch:
        return _FrogBatch(*self._draw_batch(rngs))

    def step_batch(
        self,
        bstate: _FrogBatch,
        conn: np.ndarray,
        rngs: Sequence[RandomState],
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        informed = flood_informed_batch(bstate.active_mask, conn)
        bstate.active_mask = informed
        counts = informed.sum(axis=1)
        done = counts == self.n_agents
        bstate.activation_time[active[done]] = t
        bstate.final_active[active[done]] = self.n_agents
        # Masked kernel stepping: trial i draws exactly its serial n_active
        # proposals; inactive agents get proposal 0 ("stay").
        choice = bstate.choice[: active.size]
        choice[:] = 0
        for row, trial in enumerate(active):
            n_active = int(counts[row])
            if n_active:
                choice[row, informed[row]] = rngs[trial].integers(0, 5, size=n_active)
        bstate.positions = apply_lazy_choices(self.grid, bstate.positions, choice)
        return counts, done

    def compact(self, bstate: _FrogBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.active_mask = bstate.active_mask[keep]

    def finalize(self, bstate: _FrogBatch, active: np.ndarray) -> None:
        bstate.final_active[active] = bstate.active_mask.sum(axis=1)

    def build_results(
        self, bstate: _FrogBatch, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[FrogModelResult]:
        return [
            FrogModelResult(
                n_nodes=self.n_nodes,
                n_agents=self.n_agents,
                radius=self.radius,
                activation_time=int(bstate.activation_time[trial]),
                completed=bool(bstate.activation_time[trial] >= 0),
                n_steps=int(n_steps[trial]),
                n_active=int(bstate.final_active[trial]),
                active_curve=curves[trial],
            )
            for trial in range(bstate.activation_time.shape[0])
        ]


# --------------------------------------------------------------------------- #
# Predator–prey (two populations + removal)
# --------------------------------------------------------------------------- #
class PredatorPreyState(ProcessState):
    """Serial per-trial state of the predator–prey system."""

    __slots__ = ("positions", "alive", "n_steps", "extinction_time", "curve")

    def __init__(self, positions: np.ndarray, n_preys: int) -> None:
        self.positions = positions
        self.alive = np.ones(n_preys, dtype=bool)
        self.n_steps = 0
        self.extinction_time = -1
        self.curve: list[int] = []


class _PredatorPreyBatch:
    """Batched state of the predator–prey system."""

    __slots__ = ("positions", "alive", "extinction_time", "preys_remaining", "choice")

    def __init__(self, positions: np.ndarray, n_preys: int) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.alive = np.ones((n_trials, n_preys), dtype=bool)
        self.extinction_time = np.full(n_trials, -1, dtype=np.int64)
        self.preys_remaining = np.full(n_trials, -1, dtype=np.int64)
        self.choice = np.zeros(positions.shape[:2], dtype=np.int64)


class PredatorPreyProcess(ProcessKernel):
    """The random predator–prey system as a batch-aware process kernel.

    The point set stacks the ``k`` predators first and the ``m`` preys
    second (dead preys stay frozen at their capture position and are simply
    masked out of the capture test).  A prey is caught when a predator is
    within the capture radius — a *direct-pair* predicate, so at ``r >= 1``
    the kernel consumes raw pairs; below ``r = 1`` (effective radius 0)
    co-location components coincide with direct pairs and the kernel runs
    on labels (and hence on the incremental connectivity engine).
    """

    name = "predator_prey"
    TIME_FIELD = "extinction_time"
    result_class = PredatorPreyResult

    def __init__(
        self,
        n_nodes: int,
        n_predators: int,
        n_preys: int,
        capture_radius: float = 0.0,
        max_steps: Optional[int] = None,
        preys_move: bool = True,
    ) -> None:
        self.n_nodes = check_positive_int(n_nodes, "n_nodes")
        self.n_predators = check_positive_int(n_predators, "n_predators")
        self.n_preys = check_positive_int(n_preys, "n_preys")
        self.radius = check_non_negative(capture_radius, "capture_radius")
        self.preys_move = bool(preys_move)
        self.grid = Grid2D.from_nodes(n_nodes)
        self.n_points = self.n_predators + self.n_preys
        self.max_steps = None if max_steps is None else int(max_steps)
        self.horizon = (
            self.max_steps
            if self.max_steps is not None
            else default_max_steps(n_nodes, n_predators)
        )

    @property
    def needs(self) -> ConnectivityNeed:
        return "labels" if effective_radius(self.radius) == 0 else "pairs"

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kwargs": {
                "n_nodes": self.n_nodes,
                "n_predators": self.n_predators,
                "n_preys": self.n_preys,
                "capture_radius": self.radius,
                "max_steps": self.max_steps,
                "preys_move": self.preys_move,
            },
        }

    # -- capture tests ------------------------------------------------------ #
    def _caught_from_labels(self, labels: np.ndarray, alive: np.ndarray) -> np.ndarray:
        """Living preys sharing an ``r = 0`` component with a predator.

        Works on ``(n_points,)`` labels with ``(m,)`` alive masks and on the
        batched ``(R', n_points)`` / ``(R', m)`` forms alike; labels need not
        be dense (engine labels are component representatives) — only the
        partition matters.
        """
        kp = self.n_predators
        table = np.zeros(int(labels.max()) + 1, dtype=bool)
        table[labels[..., :kp].ravel()] = True
        return alive & table[labels[..., kp:]]

    def _caught_from_pairs(self, pairs: np.ndarray, alive: np.ndarray) -> np.ndarray:
        """Living preys within the capture radius of a predator (direct pairs)."""
        caught = np.zeros_like(alive)
        if pairs.size == 0:
            return caught
        kp = self.n_predators
        is_pred = pairs < kp
        cross = is_pred[:, 0] ^ is_pred[:, 1]
        if not np.any(cross):
            return caught
        cross_pairs = pairs[cross]
        prey_members = np.where(
            cross_pairs[:, 0] >= kp, cross_pairs[:, 0], cross_pairs[:, 1]
        )
        caught[np.unique(prey_members - kp)] = True
        return caught & alive

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> PredatorPreyState:
        predators = self.grid.random_positions(self.n_predators, rng)
        preys = self.grid.random_positions(self.n_preys, rng)
        return PredatorPreyState(
            np.concatenate([predators, preys], axis=0), self.n_preys
        )

    def step(self, state: PredatorPreyState, conn: Any, rng: RandomState) -> None:
        if self.needs == "labels":
            caught = self._caught_from_labels(conn, state.alive)
        else:
            caught = self._caught_from_pairs(conn, state.alive)
        state.alive = state.alive & ~caught
        n_alive = int(np.count_nonzero(state.alive))
        state.curve.append(n_alive)
        if state.extinction_time < 0 and n_alive == 0:
            state.extinction_time = state.n_steps
        kp = self.n_predators
        positions = state.positions.copy()
        positions[:kp] = lazy_step(self.grid, positions[:kp], rng)
        if self.preys_move and n_alive:
            moved = lazy_step(self.grid, state.positions[kp:][state.alive], rng)
            prey_rows = kp + np.flatnonzero(state.alive)
            positions[prey_rows] = moved
        state.positions = positions
        state.n_steps += 1

    def stopped(self, state: PredatorPreyState) -> bool:
        return state.extinction_time >= 0

    def result(self, state: PredatorPreyState) -> PredatorPreyResult:
        return PredatorPreyResult(
            n_nodes=self.n_nodes,
            n_predators=self.n_predators,
            n_preys=self.n_preys,
            capture_radius=self.radius,
            extinction_time=state.extinction_time,
            completed=state.extinction_time >= 0,
            n_steps=state.n_steps,
            preys_remaining=int(np.count_nonzero(state.alive)),
            survival_curve=np.asarray(state.curve, dtype=np.int64),
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState]) -> _PredatorPreyBatch:
        n_trials = len(rngs)
        positions = np.empty((n_trials, self.n_points, 2), dtype=np.int64)
        kp = self.n_predators
        for trial, rng in enumerate(rngs):
            positions[trial, :kp] = self.grid.random_positions(kp, rng)
            positions[trial, kp:] = self.grid.random_positions(self.n_preys, rng)
        return _PredatorPreyBatch(positions, self.n_preys)

    def step_batch(
        self,
        bstate: _PredatorPreyBatch,
        conn: Any,
        rngs: Sequence[RandomState],
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        kp = self.n_predators
        if self.needs == "labels":
            caught = self._caught_from_labels(conn, bstate.alive)
        else:
            caught = np.zeros_like(bstate.alive)
            for row, pairs in enumerate(conn):
                caught[row] = self._caught_from_pairs(pairs, bstate.alive[row])
        bstate.alive = bstate.alive & ~caught
        counts = bstate.alive.sum(axis=1)
        done = counts == 0
        bstate.extinction_time[active[done]] = t
        bstate.preys_remaining[active[done]] = 0
        choice = bstate.choice[: active.size]
        choice[:] = 0
        for row, trial in enumerate(active):
            rng = rngs[trial]
            choice[row, :kp] = rng.integers(0, 5, size=kp)
            n_alive = int(counts[row])
            if self.preys_move and n_alive:
                choice[row, kp:][bstate.alive[row]] = rng.integers(0, 5, size=n_alive)
        bstate.positions = apply_lazy_choices(self.grid, bstate.positions, choice)
        return counts, done

    def compact(self, bstate: _PredatorPreyBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.alive = bstate.alive[keep]

    def finalize(self, bstate: _PredatorPreyBatch, active: np.ndarray) -> None:
        bstate.preys_remaining[active] = bstate.alive.sum(axis=1)

    def build_results(
        self, bstate: _PredatorPreyBatch, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[PredatorPreyResult]:
        return [
            PredatorPreyResult(
                n_nodes=self.n_nodes,
                n_predators=self.n_predators,
                n_preys=self.n_preys,
                capture_radius=self.radius,
                extinction_time=int(bstate.extinction_time[trial]),
                completed=bool(bstate.extinction_time[trial] >= 0),
                n_steps=int(n_steps[trial]),
                preys_remaining=int(bstate.preys_remaining[trial]),
                survival_curve=curves[trial],
            )
            for trial in range(bstate.extinction_time.shape[0])
        ]


# --------------------------------------------------------------------------- #
# Multi-walk cover time (no connectivity at all)
# --------------------------------------------------------------------------- #
class CoverState(ProcessState):
    """Serial per-trial state of the multi-walk cover-time process."""

    __slots__ = ("positions", "visited", "n_steps", "cover_time", "curve")

    def __init__(self, positions: np.ndarray, visited: np.ndarray) -> None:
        self.positions = positions
        self.visited = visited
        self.n_steps = 0
        self.cover_time = 0 if bool(visited.all()) else -1
        self.curve: list[int] = [int(np.count_nonzero(visited))]


class _CoverBatch:
    """Batched state of the cover-time process."""

    __slots__ = ("positions", "visited", "count", "stepper", "cover_time", "final_count", "count0")

    def __init__(
        self,
        positions: np.ndarray,
        visited: np.ndarray,
        count: np.ndarray,
        stepper: Any,
    ) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.visited = visited
        self.count = count
        self.stepper = stepper
        self.cover_time = np.where(count == visited.shape[1], 0, -1).astype(np.int64)
        self.final_count = count.copy()
        self.count0 = count.copy()


class CoverProcess(ProcessKernel):
    """Cover time of ``k`` independent walks as a batch-aware process kernel.

    No connectivity input at all: each step moves every walk (via the
    mobility kernel's loop-persistent batch stepper — block pre-drawn lazy
    choices, or per-trial stepping for the ``simple`` rule) and marks the
    nodes now occupied.  The coverage curve is recorded every
    ``record_curve_every`` steps, exactly like the legacy loop.
    """

    name = "cover"
    TIME_FIELD = "cover_time"
    result_class = CoverTimeResult

    def __init__(
        self,
        side: int,
        n_walkers: int,
        max_steps: int,
        rule: StepRule = "lazy",
        record_curve_every: int = 1,
    ) -> None:
        self.side = check_positive_int(side, "side")
        self.n_walkers = check_positive_int(n_walkers, "n_walkers")
        self.max_steps = check_positive_int(max_steps, "max_steps")
        self.record_curve_every = check_positive_int(record_curve_every, "record_curve_every")
        if rule not in ("lazy", "simple"):
            raise ValueError(f"rule must be 'lazy' or 'simple', got {rule!r}")
        self.rule: StepRule = rule
        self.grid = Grid2D(self.side)
        self.n_nodes = self.grid.n_nodes
        self.radius = 0.0
        self.n_points = self.n_walkers
        self.horizon = self.max_steps
        self._mobility = RandomWalkMobility(self.grid, rule=rule)

    @property
    def needs(self) -> ConnectivityNeed:
        return "none"

    @property
    def spec(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kwargs": {
                "side": self.side,
                "n_walkers": self.n_walkers,
                "max_steps": self.max_steps,
                "rule": self.rule,
                "record_curve_every": self.record_curve_every,
            },
        }

    def _node_ids(self, positions: np.ndarray) -> np.ndarray:
        return _flat_node_ids(positions, self.side)

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> CoverState:
        positions = self.grid.random_positions(self.n_walkers, rng)
        visited = np.zeros(self.n_nodes, dtype=bool)
        visited[self._node_ids(positions)] = True
        return CoverState(positions, visited)

    def step(self, state: CoverState, conn: Any, rng: RandomState) -> None:
        state.positions = self._mobility.step(state.positions, rng)
        state.n_steps += 1
        state.visited[self._node_ids(state.positions)] = True
        t = state.n_steps
        if t % self.record_curve_every == 0:
            state.curve.append(int(np.count_nonzero(state.visited)))
        if state.cover_time < 0 and bool(state.visited.all()):
            state.cover_time = t
            if t % self.record_curve_every != 0:
                state.curve.append(int(np.count_nonzero(state.visited)))

    def stopped(self, state: CoverState) -> bool:
        return state.cover_time >= 0

    def result(self, state: CoverState) -> CoverTimeResult:
        return CoverTimeResult(
            n_nodes=self.n_nodes,
            n_walkers=self.n_walkers,
            cover_time=state.cover_time,
            completed=state.cover_time >= 0,
            n_steps=state.n_steps,
            fraction_covered=float(np.count_nonzero(state.visited) / self.n_nodes),
            coverage_curve=np.asarray(state.curve, dtype=np.int64),
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState]) -> _CoverBatch:
        n_trials = len(rngs)
        k = self.n_walkers
        positions = np.empty((n_trials, k, 2), dtype=np.int64)
        for trial, rng in enumerate(rngs):
            positions[trial] = self.grid.random_positions(k, rng)
        visited = np.zeros((n_trials, self.n_nodes), dtype=bool)
        count = np.zeros(n_trials, dtype=np.int64)
        self._mark(visited, count, positions)
        stepper = self._mobility.batch_stepper(k, rngs)
        return _CoverBatch(positions, visited, count, stepper)

    def _mark(
        self,
        visited: np.ndarray,
        count: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Mark the occupied nodes and update the per-row visited counts.

        Deduplication runs only over the keys not yet visited — a rapidly
        shrinking set once the walks warm up — so the steady-state cost is
        one gather over the batch, not a sort.
        """
        n = self.n_nodes
        flat = (
            self._node_ids(positions)
            + np.arange(positions.shape[0], dtype=np.int64)[:, None] * n
        ).ravel()
        flat_visited = visited.reshape(-1)
        new = flat[~flat_visited[flat]]
        if new.size:
            fresh = np.unique(new)
            flat_visited[fresh] = True
            count += np.bincount(fresh // n, minlength=count.shape[0])

    def initially_stopped(self, bstate: _CoverBatch) -> np.ndarray:
        return bstate.cover_time == 0

    def step_batch(
        self,
        bstate: _CoverBatch,
        conn: Any,
        rngs: Sequence[RandomState],
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        bstate.positions = bstate.stepper.step(bstate.positions, active)
        self._mark(bstate.visited, bstate.count, bstate.positions)
        counts = bstate.count.copy()
        done = counts == self.n_nodes
        # Serial loops count completed steps from 1; driver t is 0-based.
        bstate.cover_time[active[done]] = t + 1
        bstate.final_count[active[done]] = self.n_nodes
        return counts, done

    def compact(self, bstate: _CoverBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.visited = bstate.visited[keep]
        bstate.count = bstate.count[keep]

    def finalize(self, bstate: _CoverBatch, active: np.ndarray) -> None:
        bstate.final_count[active] = bstate.count

    def build_results(
        self, bstate: _CoverBatch, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[CoverTimeResult]:
        every = self.record_curve_every
        results = []
        for trial in range(bstate.cover_time.shape[0]):
            cover_time = int(bstate.cover_time[trial])
            steps = int(n_steps[trial])
            counts = curves[trial]
            # The serial loop records every ``every``-th step plus the (off-
            # interval) completion step; the same selection as one index mask.
            select = np.arange(1, steps + 1) % every == 0
            if cover_time > 0 and cover_time % every != 0:
                select[cover_time - 1] = True
            curve = np.concatenate(
                ([np.int64(bstate.count0[trial])], counts[select])
            ).astype(np.int64, copy=False)
            results.append(
                CoverTimeResult(
                    n_nodes=self.n_nodes,
                    n_walkers=self.n_walkers,
                    cover_time=cover_time,
                    completed=cover_time >= 0,
                    n_steps=steps,
                    fraction_covered=float(bstate.final_count[trial] / self.n_nodes),
                    coverage_curve=curve,
                )
            )
        return results


# --------------------------------------------------------------------------- #
# Broadcast + informed coverage (the E9 observable)
# --------------------------------------------------------------------------- #
class InformedCoverageState(ProcessState):
    """Serial per-trial state of the informed-coverage process."""

    __slots__ = (
        "positions", "informed", "visited", "n_steps",
        "broadcast_time", "coverage_time", "curve",
    )

    def __init__(self, positions: np.ndarray, informed: np.ndarray, n_nodes: int) -> None:
        self.positions = positions
        self.informed = informed
        self.visited = np.zeros(n_nodes, dtype=bool)
        self.n_steps = 0
        self.broadcast_time = -1
        self.coverage_time = -1
        self.curve: list[int] = []


class _InformedCoverageBatch:
    """Batched state of the informed-coverage process."""

    __slots__ = (
        "positions", "informed", "visited", "count", "stepper",
        "broadcast_time", "coverage_time", "final_informed", "final_count",
    )

    def __init__(
        self,
        positions: np.ndarray,
        informed: np.ndarray,
        visited: np.ndarray,
        stepper: Any,
    ) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.informed = informed
        self.visited = visited
        self.count = np.zeros(n_trials, dtype=np.int64)
        self.stepper = stepper
        self.broadcast_time = np.full(n_trials, -1, dtype=np.int64)
        self.coverage_time = np.full(n_trials, -1, dtype=np.int64)
        self.final_informed = np.full(n_trials, -1, dtype=np.int64)
        self.final_count = np.zeros(n_trials, dtype=np.int64)


class InformedCoverageProcess(_SourceSeededProcess):
    """Broadcast plus informed-agent coverage as one process kernel.

    Mirrors a ``BroadcastSimulation`` with ``record_coverage=True`` draw for
    draw: flood through ``G_t(r)`` components, mark the nodes occupied by
    informed agents, then one lazy-walk step for everybody.  A trial stops
    once *both* the broadcast and the coverage have completed (the E9
    semantics: ``T_B`` and ``T_C`` measured from one trajectory).
    """

    name = "coverage"
    TIME_FIELD = "broadcast_time"
    result_class = InformedCoverageResult

    def __init__(
        self,
        n_nodes: int,
        n_agents: int,
        radius: float = 0.0,
        source: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        super().__init__(n_nodes, n_agents, radius=radius, source=source, max_steps=max_steps)
        self._mobility = RandomWalkMobility(self.grid)

    def _node_ids(self, positions: np.ndarray) -> np.ndarray:
        return _flat_node_ids(positions, self.grid.side)

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> InformedCoverageState:
        positions, informed = self._draw_trial(rng)
        return InformedCoverageState(positions, informed, self.n_nodes)

    def step(self, state: InformedCoverageState, conn: Any, rng: RandomState) -> None:
        state.informed = flood_informed(state.informed, conn)
        n_informed = int(np.count_nonzero(state.informed))
        state.curve.append(n_informed)
        state.visited[self._node_ids(state.positions[state.informed])] = True
        if state.coverage_time < 0 and bool(state.visited.all()):
            state.coverage_time = state.n_steps
        if state.broadcast_time < 0 and n_informed == self.n_agents:
            state.broadcast_time = state.n_steps
        state.positions = self._mobility.step(state.positions, rng)
        state.n_steps += 1

    def stopped(self, state: InformedCoverageState) -> bool:
        return state.broadcast_time >= 0 and state.coverage_time >= 0

    def result(self, state: InformedCoverageState) -> InformedCoverageResult:
        return InformedCoverageResult(
            n_nodes=self.n_nodes,
            n_agents=self.n_agents,
            radius=self.radius,
            broadcast_time=state.broadcast_time,
            coverage_time=state.coverage_time,
            completed=state.broadcast_time >= 0,
            coverage_completed=state.coverage_time >= 0,
            n_steps=state.n_steps,
            coverage_fraction=float(np.count_nonzero(state.visited) / self.n_nodes),
            informed_curve=np.asarray(state.curve, dtype=np.int64),
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState]) -> _InformedCoverageBatch:
        positions, informed = self._draw_batch(rngs)
        visited = np.zeros((len(rngs), self.n_nodes), dtype=bool)
        stepper = self._mobility.batch_stepper(self.n_agents, rngs)
        return _InformedCoverageBatch(positions, informed, visited, stepper)

    def step_batch(
        self,
        bstate: _InformedCoverageBatch,
        conn: np.ndarray,
        rngs: Sequence[RandomState],
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        informed = flood_informed_batch(bstate.informed, conn)
        bstate.informed = informed
        counts = informed.sum(axis=1)
        # Mark only the informed agents' nodes: scatter through flat keys with
        # the uninformed entries masked out.
        n = self.n_nodes
        flat = (
            self._node_ids(bstate.positions)
            + np.arange(active.size, dtype=np.int64)[:, None] * n
        )
        flat_visited = bstate.visited.reshape(-1)
        keys = flat[informed]
        new = keys[~flat_visited[keys]]
        if new.size:
            fresh = np.unique(new)
            flat_visited[fresh] = True
            bstate.count += np.bincount(fresh // n, minlength=active.size)
        newly_covered = (bstate.count == n) & (bstate.coverage_time[active] < 0)
        bstate.coverage_time[active[newly_covered]] = t
        newly_broadcast = (counts == self.n_agents) & (bstate.broadcast_time[active] < 0)
        bstate.broadcast_time[active[newly_broadcast]] = t
        done = (bstate.broadcast_time[active] >= 0) & (bstate.coverage_time[active] >= 0)
        bstate.final_informed[active[done]] = counts[done]
        bstate.final_count[active[done]] = bstate.count[done]
        bstate.positions = bstate.stepper.step(bstate.positions, active)
        return counts, done

    def compact(self, bstate: _InformedCoverageBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.informed = bstate.informed[keep]
        bstate.visited = bstate.visited[keep]
        bstate.count = bstate.count[keep]

    def finalize(self, bstate: _InformedCoverageBatch, active: np.ndarray) -> None:
        bstate.final_informed[active] = bstate.informed.sum(axis=1)
        bstate.final_count[active] = bstate.count

    def build_results(
        self,
        bstate: _InformedCoverageBatch,
        curves: list[np.ndarray],
        n_steps: np.ndarray,
    ) -> list[InformedCoverageResult]:
        return [
            InformedCoverageResult(
                n_nodes=self.n_nodes,
                n_agents=self.n_agents,
                radius=self.radius,
                broadcast_time=int(bstate.broadcast_time[trial]),
                coverage_time=int(bstate.coverage_time[trial]),
                completed=bool(bstate.broadcast_time[trial] >= 0),
                coverage_completed=bool(bstate.coverage_time[trial] >= 0),
                n_steps=int(n_steps[trial]),
                coverage_fraction=float(bstate.final_count[trial] / self.n_nodes),
                informed_curve=curves[trial],
            )
            for trial in range(bstate.broadcast_time.shape[0])
        ]


# --------------------------------------------------------------------------- #
# Infection time (the broadcast problem in virus-literature vocabulary)
# --------------------------------------------------------------------------- #
class InfectionState(ProcessState):
    """Serial per-trial state of the infection process."""

    __slots__ = ("positions", "informed", "n_steps", "infection_time")

    def __init__(self, positions: np.ndarray, informed: np.ndarray) -> None:
        self.positions = positions
        self.informed = informed
        self.n_steps = 0
        self.infection_time = -1


class _InfectionBatch:
    """Batched state of the infection process."""

    __slots__ = ("positions", "informed", "stepper", "infection_time")

    def __init__(self, positions: np.ndarray, informed: np.ndarray, stepper: Any) -> None:
        self.positions = positions
        self.informed = informed
        self.stepper = stepper
        self.infection_time = np.full(positions.shape[0], -1, dtype=np.int64)


class InfectionProcess(_SourceSeededProcess):
    """Contact infection (single-rumor broadcast) as a process kernel.

    Draw-for-draw equivalent to a plain lazy-walk ``BroadcastSimulation``;
    exists so the infection-time framing of E12 and the related-work
    baselines runs on the shared process drivers (batched + sharded +
    incremental connectivity) without touching the core broadcast runner.
    """

    name = "infection"
    TIME_FIELD = "infection_time"
    result_class = InfectionResult

    def __init__(
        self,
        n_nodes: int,
        n_agents: int,
        radius: float = 0.0,
        source: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        super().__init__(n_nodes, n_agents, radius=radius, source=source, max_steps=max_steps)
        self._mobility = RandomWalkMobility(self.grid)

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> InfectionState:
        return InfectionState(*self._draw_trial(rng))

    def step(self, state: InfectionState, conn: Any, rng: RandomState) -> None:
        state.informed = flood_informed(state.informed, conn)
        if state.infection_time < 0 and bool(state.informed.all()):
            state.infection_time = state.n_steps
        state.positions = self._mobility.step(state.positions, rng)
        state.n_steps += 1

    def stopped(self, state: InfectionState) -> bool:
        return state.infection_time >= 0

    def result(self, state: InfectionState) -> InfectionResult:
        return InfectionResult(
            n_nodes=self.n_nodes,
            n_agents=self.n_agents,
            radius=self.radius,
            infection_time=state.infection_time,
            completed=state.infection_time >= 0,
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState]) -> _InfectionBatch:
        positions, informed = self._draw_batch(rngs)
        stepper = self._mobility.batch_stepper(self.n_agents, rngs)
        return _InfectionBatch(positions, informed, stepper)

    def step_batch(
        self,
        bstate: _InfectionBatch,
        conn: np.ndarray,
        rngs: Sequence[RandomState],
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        informed = flood_informed_batch(bstate.informed, conn)
        bstate.informed = informed
        counts = informed.sum(axis=1)
        done = counts == self.n_agents
        bstate.infection_time[active[done]] = t
        bstate.positions = bstate.stepper.step(bstate.positions, active)
        return counts, done

    def compact(self, bstate: _InfectionBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.informed = bstate.informed[keep]

    def build_results(
        self, bstate: _InfectionBatch, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[InfectionResult]:
        return [
            InfectionResult(
                n_nodes=self.n_nodes,
                n_agents=self.n_agents,
                radius=self.radius,
                infection_time=int(bstate.infection_time[trial]),
                completed=bool(bstate.infection_time[trial] >= 0),
            )
            for trial in range(bstate.infection_time.shape[0])
        ]


# --------------------------------------------------------------------------- #
# Registry + replication runner
# --------------------------------------------------------------------------- #
PROCESS_KERNELS: dict[str, type[ProcessKernel]] = {
    FrogProcess.name: FrogProcess,
    PredatorPreyProcess.name: PredatorPreyProcess,
    CoverProcess.name: CoverProcess,
    InformedCoverageProcess.name: InformedCoverageProcess,
    InfectionProcess.name: InfectionProcess,
}


def available_processes() -> list[str]:
    """Names of all registered process kernels, sorted."""
    return sorted(PROCESS_KERNELS)


def make_process(name: str, **kwargs: Any) -> ProcessKernel:
    """Instantiate a registered process kernel by name."""
    try:
        cls = PROCESS_KERNELS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown process {name!r}; known: {available_processes()}"
        ) from exc
    return cls(**kwargs)


def resolve_process_pair(
    process: ProcessKernel,
    backend: Optional[str] = None,
    connectivity: Optional[str] = None,
) -> tuple[str, str]:
    """The ``(backend, connectivity)`` pair a process run executes.

    Mirrors :func:`repro.core.runner.resolve_pair`: each request is the
    explicit argument if given, else the active
    :func:`~repro.core.runner.backend_override` /
    :func:`~repro.core.runner.connectivity_override`, else ``"auto"``, and
    the one policy :func:`~repro.core.runner.auto_pair` resolves it (every
    registered kernel implements the batched face, so ``auto`` never lands
    on serial).  Pair- and connectivity-free kernels have no label engine
    to maintain, so for them both engines are the same computation.
    """
    if backend is None:
        backend = current_backend_override()
    if connectivity is None:
        connectivity = current_connectivity_override()
    return auto_pair(
        check_backend(backend if backend is not None else "auto"),
        check_connectivity(connectivity if connectivity is not None else "auto"),
        process.radius,
        labels=process.needs == "labels",
        process=True,
    )


def resolve_process_backend(process: ProcessKernel, backend: Optional[str] = None) -> str:
    """The backend half of :func:`resolve_process_pair`."""
    return resolve_process_pair(process, backend)[0]


def resolve_process_connectivity(
    process: ProcessKernel, connectivity: Optional[str] = None
) -> str:
    """The connectivity half of :func:`resolve_process_pair`."""
    return resolve_process_pair(process, connectivity=connectivity)[1]


def run_process_replications(
    process: ProcessKernel,
    n_replications: int,
    seed: SeedLike = None,
    backend: Optional[str] = None,
    *,
    connectivity: Optional[str] = None,
    rng_streams: Optional[Sequence[RandomState]] = None,
) -> tuple[ReplicationSummary, list[Any]]:
    """Run ``n_replications`` trials of a process kernel and summarise them.

    The process-kernel counterpart of
    :func:`repro.core.runner.run_broadcast_replications`: ``backend``
    selects serial, batched or compiled execution and ``connectivity`` the
    component-labelling engine for label-consuming kernels (default
    ``"auto"`` for both, resolved jointly by :func:`resolve_process_pair`),
    and both honour the process-wide
    ``backend_override`` / ``connectivity_override`` blocks the CLI flags
    install.  ``rng_streams`` supplies explicit per-trial generators (the
    executor's chunked work units use this); without it, an active
    :func:`repro.exec.execution_override` shards the run into ``"process"``
    work units.  Every execution path is bit-for-bit identical for identical
    seeds.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    resolved_backend, engine = resolve_process_pair(process, backend, connectivity)
    if rng_streams is None:
        from repro.exec.executor import current_executor

        executor = current_executor()
        if executor is not None:
            return executor.run_process(
                process, n_replications, seed,
                backend=resolved_backend,
                connectivity=engine,
            )
    if resolved_backend in ("batched", "compiled"):
        from repro.core.batched import run_process_replications_batched

        return run_process_replications_batched(
            process, n_replications, seed,
            rng_streams=rng_streams, connectivity=engine,
            compiled=resolved_backend == "compiled",
        )
    rngs = list(rng_streams) if rng_streams is not None else spawn_rngs(seed, n_replications)
    results = [run_process_serial(process, rng, connectivity=engine) for rng in rngs]
    summary = summarise_values([getattr(res, process.TIME_FIELD) for res in results])
    return summary, results
