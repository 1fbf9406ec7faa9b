"""Batch-aware process kernels: broadcast, gossip and the Section-4 dynamics.

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
``R`` independent trials as one ``(R, k, 2)`` position tensor.  One serial
loop (:func:`run_process_serial`, here) and one batched loop
(:func:`repro.core.batched.run_process_replications_batched`) drive every
kernel: the paper's broadcast (:class:`BroadcastProcess`, Theorems 1-2) and
gossip (:class:`GossipProcess`, Corollary 2) on any registered mobility
model, and the Section-4 processes.

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
the surviving preys), which both read per-trial draw tapes
(:class:`~repro.mobility.kernels.TapeStepper`) through a moving mask.
``backend="serial"`` and ``backend="batched"`` thus return bit-for-bit
identical results for identical seeds, verified per kernel by
``tests/test_properties_dissemination.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Literal, Optional, Sequence

import numpy as np

from repro.connectivity.spatial_hash import neighbor_pairs
from repro.connectivity.visibility import effective_radius, visibility_components
from repro.core.batched import regroup_curves
from repro.core.config import BroadcastConfig, GossipConfig, default_max_steps
from repro.core.gossip import GossipResult
from repro.core.metrics import CoverageTracker, FrontierTracker, InformedCurve
from repro.core.protocol import (
    flood_informed,
    flood_informed_batch,
    flood_rumors,
    flood_rumors_batch,
)
from repro.core.runner import (
    ReplicationSummary,
    auto_pair,
    check_rng_streams,
    requested_pair,
    resolve_pair,
    summarise_values,
)
from repro.core.simulation import BroadcastResult
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
from repro.mobility.kernels import StepRule, TapeStepper, lazy_step
from repro.mobility.random_walk import RandomWalkMobility
from repro.obs.metrics import step_loop_instruments
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
    loop:
        Step-loop label: the serial loop counts this kernel's steps under
        ``repro_sim_steps_total{loop="serial_<loop>"}``, the batched loop
        under ``batched_<loop>``.
    """

    name: str = ""
    TIME_FIELD: str = ""
    result_class: type = object
    loop: str = "process"

    grid: Grid2D
    radius: float
    n_points: int
    horizon: int

    @property
    def needs(self) -> ConnectivityNeed:
        """The per-step connectivity input this process consumes."""
        return "labels"

    @property
    def fused_r0(self) -> bool:
        """Whether the fused ``r = 0`` block driver may run this kernel (:meth:`run_fused`).

        The one place that decides whether a run may fuse: the batched loop
        hands a compiled run to the driver only when this holds (and the
        driver supports its mobility), and ``auto`` resolves a label run at
        ``⌊r⌋ = 0`` to compiled only when it holds.
        """
        return False

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

    def rebuild_result(self, fields: dict[str, Any]) -> Any:
        """One trial's result from its record fields (the executor's merge)."""
        return self.result_class(**fields)

    # -- batched face ------------------------------------------------------- #
    @abc.abstractmethod
    def init_batch(self, rngs: Sequence[RandomState], ops: Any = None) -> Any:
        """Per-trial init draws fused into one batch state (``R`` trials).

        ``ops`` is the compiled provider of a compiled run (``None``
        otherwise); a kernel may route its mobility applies through it, never
        its draws.
        """

    def initially_stopped(self, bstate: Any) -> np.ndarray:
        """Trials whose stopping condition already holds at ``t = 0``."""
        return np.zeros(bstate.positions.shape[0], dtype=bool)

    @abc.abstractmethod
    def step_batch(
        self,
        bstate: Any,
        conn: Any,
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the active trials by one step.

        Motion reads each trial's generator through the batch state's
        stepper, made by :meth:`init_batch`.  Returns ``(counts, done)``:
        the per-trial curve value recorded for this step and the mask of
        trials whose stopping condition was hit at time ``t`` (their result
        fields must be written into the batch state's full-``R`` arrays
        before returning).
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

    def run_fused(
        self, ops: Any, bstate: Any
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Run every step on the fused block driver (``fused_r0`` kernels only).

        Returns ``(step_trials, step_counts, n_steps)`` as the batched loop
        records them, with the result fields written into ``bstate``.
        """
        raise NotImplementedError(f"process {self.name!r} has no fused driver")


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


def serial_engine(process: ProcessKernel, connectivity: str) -> Optional[Any]:
    """The engine a serial trial keeps across steps, or ``None`` to recompute.

    Only label-consuming kernels maintain one, under ``"incremental"``;
    pair- and connectivity-free kernels have nothing label-shaped to
    maintain, so every resolved choice is result-identical by construction.
    The engine runs at ``⌊r⌋``, as the batched loop's does, so a radius in
    ``(0, 1)`` takes the same-cell path.
    """
    if process.needs == "labels" and connectivity == "incremental":
        from repro.connectivity.incremental import DeltaConnectivityEngine

        return DeltaConnectivityEngine(
            process.n_points, effective_radius(process.radius), process.grid.side
        )
    return None


def run_process_serial(
    process: ProcessKernel,
    rng: RandomState,
    connectivity: str = "recompute",
    *,
    state: Optional[ProcessState] = None,
    engine: Optional[Any] = None,
    horizon: Optional[int] = None,
) -> Any:
    """Run one serial trial of ``process`` and return its result.

    The one serial step loop of every kernel.  ``connectivity`` selects the
    labelling engine (:func:`serial_engine`).  A facade continues a trial
    already under way: ``state`` is its state and ``engine`` its engine
    (``None`` recomputes), and ``connectivity`` is then ignored.  ``horizon``
    caps the completed steps (default: the kernel's).  Each step advances
    ``repro_sim_steps_total{loop="serial_<loop>"}``.
    """
    if state is None:
        engine = serial_engine(process, connectivity)
        state = process.init_state(rng)
    horizon = process.horizon if horizon is None else int(horizon)
    steps_metric, active_metric = step_loop_instruments(f"serial_{process.loop}")
    active_metric.set(1)
    while state.n_steps < horizon and not process.stopped(state):
        steps_metric.inc()
        process.step(state, serial_connectivity(process, state.positions, engine), rng)
    active_metric.set(0)
    return process.result(state)


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

    __slots__ = ("positions", "active_mask", "stepper", "activation_time", "final_active")

    def __init__(
        self, positions: np.ndarray, active_mask: np.ndarray, stepper: TapeStepper
    ) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.active_mask = active_mask
        self.stepper = stepper
        self.activation_time = np.full(n_trials, -1, dtype=np.int64)
        self.final_active = np.full(n_trials, -1, dtype=np.int64)


class FrogProcess(ProcessKernel):
    """The Frog model as a batch-aware process kernel.

    ``k`` agents are placed uniformly and one source agent is active (drawn
    from the trial's generator when not fixed, after the positions: the
    legacy serial simulator's draw order).  Only *active* (informed) agents
    move; activation floods through the components of ``G_t(r)``.  Batched
    motion runs on per-trial lazy draw tapes
    (:class:`~repro.mobility.kernels.TapeStepper`) with the active agents as
    the moving mask, so each trial reads exactly its serial ``n_active``
    proposals.
    """

    name = "frog"
    TIME_FIELD = "activation_time"
    result_class = FrogModelResult

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
        """One trial's initial positions and source-seeded active mask."""
        positions = self.grid.random_positions(self.n_agents, rng)
        source = self.source
        if source is None:
            source = int(rng.integers(0, self.n_agents))
        mask = np.zeros(self.n_agents, dtype=bool)
        mask[source] = True
        return positions, mask

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
    def init_batch(self, rngs: Sequence[RandomState], ops: Any = None) -> _FrogBatch:
        n_trials = len(rngs)
        positions = np.empty((n_trials, self.n_agents, 2), dtype=np.int64)
        mask = np.zeros((n_trials, self.n_agents), dtype=bool)
        for trial, rng in enumerate(rngs):
            positions[trial], mask[trial] = self._draw_trial(rng)
        return _FrogBatch(positions, mask, TapeStepper(self.grid, rngs, "lazy", self.n_agents))

    def step_batch(
        self,
        bstate: _FrogBatch,
        conn: np.ndarray,
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        informed = flood_informed_batch(bstate.active_mask, conn)
        bstate.active_mask = informed
        counts = informed.sum(axis=1)
        done = counts == self.n_agents
        bstate.activation_time[active[done]] = t
        bstate.final_active[active[done]] = self.n_agents
        bstate.positions = bstate.stepper.step(bstate.positions, active, informed)
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

    __slots__ = ("positions", "alive", "stepper", "extinction_time", "preys_remaining")

    def __init__(self, positions: np.ndarray, n_preys: int, stepper: TapeStepper) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.alive = np.ones((n_trials, n_preys), dtype=bool)
        self.stepper = stepper
        self.extinction_time = np.full(n_trials, -1, dtype=np.int64)
        self.preys_remaining = np.full(n_trials, -1, dtype=np.int64)


class PredatorPreyProcess(ProcessKernel):
    """The random predator–prey system as a batch-aware process kernel.

    The point set stacks the ``k`` predators first and the ``m`` preys
    second (dead preys stay frozen at their capture position and are simply
    masked out of the capture test).  A prey is caught when a predator is
    within the capture radius — a *direct-pair* predicate, so at ``r >= 1``
    the kernel consumes raw pairs; below ``r = 1`` (effective radius 0)
    co-location components coincide with direct pairs and the kernel runs
    on labels (and hence on the incremental connectivity engine).  Batched
    motion reads per-trial lazy draw tapes
    (:class:`~repro.mobility.kernels.TapeStepper`) in the serial order: the
    predators, then the living preys when ``preys_move``.
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
    def init_batch(self, rngs: Sequence[RandomState], ops: Any = None) -> _PredatorPreyBatch:
        n_trials = len(rngs)
        positions = np.empty((n_trials, self.n_points, 2), dtype=np.int64)
        kp = self.n_predators
        for trial, rng in enumerate(rngs):
            positions[trial, :kp] = self.grid.random_positions(kp, rng)
            positions[trial, kp:] = self.grid.random_positions(self.n_preys, rng)
        stepper = TapeStepper(self.grid, rngs, "lazy", self.n_points)
        return _PredatorPreyBatch(positions, self.n_preys, stepper)

    def step_batch(
        self,
        bstate: _PredatorPreyBatch,
        conn: Any,
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
        moving = np.zeros((active.size, self.n_points), dtype=bool)
        moving[:, :kp] = True
        if self.preys_move:
            moving[:, kp:] = bstate.alive
        bstate.positions = bstate.stepper.step(bstate.positions, active, moving)
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
# Visited-node marking (cover time, and a broadcast's informed coverage)
# --------------------------------------------------------------------------- #
def _flat_node_ids(positions: np.ndarray, side: int) -> np.ndarray:
    """Vectorised flat node keys (``x * side + y``) of any positions tensor."""
    return positions[..., 0] * side + positions[..., 1]


def _batch_node_keys(positions: np.ndarray, side: int, n_nodes: int) -> np.ndarray:
    """``row * n_nodes + node`` keys of ``(R', k, 2)`` positions: flat indices
    into an ``(R', n_nodes)`` visited table."""
    rows = np.arange(positions.shape[0], dtype=np.int64)[:, None]
    return _flat_node_ids(positions, side) + rows * n_nodes


def _mark_visited(visited: np.ndarray, count: np.ndarray, keys: np.ndarray) -> None:
    """Mark flat ``keys`` in the ``(R', n)`` ``visited`` table and count each row's new nodes.

    Deduplication runs only over the keys not yet visited — a rapidly
    shrinking set once the walks warm up — so the steady-state cost is one
    gather over the batch, not a sort.
    """
    flat_visited = visited.reshape(-1)
    new = keys[~flat_visited[keys]]
    if new.size:
        fresh = np.unique(new)
        flat_visited[fresh] = True
        count += np.bincount(fresh // visited.shape[1], minlength=count.shape[0])


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
    choices, or per-trial draw tapes for the ``simple`` rule) and marks the
    nodes now occupied.  The coverage curve holds the number of covered
    nodes at every time from ``t = 0``, so an index into it is a time.
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
    ) -> None:
        self.side = check_positive_int(side, "side")
        self.n_walkers = check_positive_int(n_walkers, "n_walkers")
        self.max_steps = check_positive_int(max_steps, "max_steps")
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
        state.curve.append(int(np.count_nonzero(state.visited)))
        if state.cover_time < 0 and bool(state.visited.all()):
            state.cover_time = state.n_steps

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
    def init_batch(self, rngs: Sequence[RandomState], ops: Any = None) -> _CoverBatch:
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

    def _mark(self, visited: np.ndarray, count: np.ndarray, positions: np.ndarray) -> None:
        """Mark the occupied nodes and update the per-row visited counts."""
        _mark_visited(visited, count, _batch_node_keys(positions, self.side, self.n_nodes).ravel())

    def initially_stopped(self, bstate: _CoverBatch) -> np.ndarray:
        return bstate.cover_time == 0

    def step_batch(
        self,
        bstate: _CoverBatch,
        conn: Any,
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
        return [
            CoverTimeResult(
                n_nodes=self.n_nodes,
                n_walkers=self.n_walkers,
                cover_time=int(bstate.cover_time[trial]),
                completed=bool(bstate.cover_time[trial] >= 0),
                n_steps=int(n_steps[trial]),
                fraction_covered=float(bstate.final_count[trial] / self.n_nodes),
                coverage_curve=np.concatenate(
                    ([np.int64(bstate.count0[trial])], curves[trial])
                ).astype(np.int64, copy=False),
            )
            for trial in range(bstate.cover_time.shape[0])
        ]


# --------------------------------------------------------------------------- #
# Broadcast and gossip (Theorems 1-2, Corollary 2) on any mobility model
# --------------------------------------------------------------------------- #
class _ConfigProcess(ProcessKernel):
    """Shared set-up of the kernels built from a simulation config.

    The config is the kernel's whole spec: it names the mobility model and
    its kwargs, and it is what every result carries.  A trial draws its
    mobility state, then its initial positions (then, for a broadcast, the
    source): the serial simulators' historical draw order, part of the
    stream-equivalence contract.
    """

    config_class: type

    def __init__(self, config: Any) -> None:
        if not isinstance(config, self.config_class):
            config = self.config_class(**config)
        self.config = config
        self.n_agents = config.n_agents
        self.radius = config.radius
        self.n_points = config.n_agents
        self.horizon = config.horizon
        self.grid = Grid2D.from_nodes(config.n_nodes)
        self.mobility = make_mobility(config.mobility, self.grid, **dict(config.mobility_kwargs))

    @property
    def spec(self) -> dict[str, Any]:
        return {"name": self.name, "kwargs": {"config": self.config}}

    def rebuild_result(self, fields: dict[str, Any]) -> Any:
        return self.result_class(config=self.config, **fields)

    def _draw_source(self, rng: RandomState) -> int:
        """The trial's source agent, drawn after its positions (none for gossip)."""
        return 0

    def _draw_trial(self, rng: RandomState) -> tuple[Any, np.ndarray]:
        """One trial's mobility state and initial positions."""
        mobility_state = self.mobility.init_state(self.n_agents, rng)
        return mobility_state, self.mobility.initial_positions(self.n_agents, rng)

    def _draw_batch(
        self, rngs: Sequence[RandomState], ops: Any
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        """``(R, k, 2)`` positions, sources and the batch's mobility stepper.

        Under a compiled run the stepper applies its draws through the
        provider's kernels (:func:`~repro.compiled.api.accelerate_stepper`).
        """
        positions = np.empty((len(rngs), self.n_agents, 2), dtype=np.int64)
        sources = np.zeros(len(rngs), dtype=np.int64)
        states = []
        for trial, rng in enumerate(rngs):
            mobility_state, positions[trial] = self._draw_trial(rng)
            states.append(mobility_state)
            sources[trial] = self._draw_source(rng)
        stepper = self.mobility.batch_stepper(self.n_agents, rngs, states)
        if ops is not None:
            from repro.compiled.api import accelerate_stepper

            stepper = accelerate_stepper(ops, stepper)
        return positions, sources, stepper


class BroadcastState(ProcessState):
    """Serial per-trial state of a broadcast."""

    __slots__ = (
        "positions",
        "mobility_state",
        "informed",
        "source",
        "n_steps",
        "broadcast_time",
        "curve",
        "frontier",
        "coverage",
    )

    def __init__(
        self,
        positions: np.ndarray,
        mobility_state: Any,
        source: int,
        n_agents: int,
        frontier: Optional[FrontierTracker],
        coverage: Optional[CoverageTracker],
    ) -> None:
        self.positions = positions
        self.mobility_state = mobility_state
        self.informed = np.zeros(n_agents, dtype=bool)
        self.informed[source] = True
        self.source = source
        self.n_steps = 0
        self.broadcast_time = -1
        self.curve = InformedCurve()
        self.frontier = frontier
        self.coverage = coverage


class _BroadcastBatch:
    """Batched state of a broadcast, with the observables its config records.

    ``frontier`` (each trial's rightmost informed column so far) and
    ``visited``/``count`` (the nodes informed agents have occupied) are
    ``None`` unless recorded; like the positions, they hold the active
    trials only.  Each step's frontier is kept as an ``(active, values)``
    record and regrouped per trial like the informed curve.
    """

    __slots__ = (
        "positions",
        "informed",
        "stepper",
        "broadcast_time",
        "final_informed",
        "frontier",
        "frontier_trials",
        "frontier_values",
        "visited",
        "count",
        "coverage_time",
        "final_count",
    )

    def __init__(
        self,
        positions: np.ndarray,
        sources: np.ndarray,
        stepper: Any,
        config: BroadcastConfig,
        n_nodes: int,
    ) -> None:
        n_trials, n_agents = positions.shape[:2]
        self.positions = positions
        self.informed = np.zeros((n_trials, n_agents), dtype=bool)
        self.informed[np.arange(n_trials), sources] = True
        self.stepper = stepper
        self.broadcast_time = np.full(n_trials, -1, dtype=np.int64)
        self.final_informed = np.full(n_trials, n_agents, dtype=np.int64)
        self.frontier = np.full(n_trials, -1, dtype=np.int64) if config.record_frontier else None
        self.frontier_trials: list[np.ndarray] = []
        self.frontier_values: list[np.ndarray] = []
        self.visited = (
            np.zeros((n_trials, n_nodes), dtype=bool) if config.record_coverage else None
        )
        self.count = np.zeros(n_trials, dtype=np.int64)
        self.coverage_time = np.full(n_trials, -1, dtype=np.int64)
        # A trial that records coverage stops only once covered, so only the
        # horizon leaves one short of every node.
        self.final_count = np.full(n_trials, n_nodes, dtype=np.int64)


class BroadcastProcess(_ConfigProcess):
    """Single-rumor broadcast (Theorems 1-2) as a process kernel.

    Each step floods the rumor through the components of ``G_t(r)``,
    records, then moves every agent one step of the config's mobility model
    (also on the step the broadcast completes).  The frontier and coverage
    observables (``record_frontier``, ``record_coverage``) run on both
    faces; a trial that records coverage stops once both the broadcast and
    the coverage are done (``T_B`` and ``T_C`` from one trajectory).  A
    compiled batch with no observable and a block-draw mobility model at
    ``⌊r⌋ = 0`` runs on the fused block driver (:meth:`run_fused`).
    """

    name = "broadcast"
    TIME_FIELD = "broadcast_time"
    result_class = BroadcastResult
    loop = "broadcast"
    config_class = BroadcastConfig

    @property
    def fused_r0(self) -> bool:
        """The fused driver records neither observable, so it takes only runs without one."""
        return not (self.config.record_frontier or self.config.record_coverage)

    def _draw_source(self, rng: RandomState) -> int:
        source = self.config.source
        return int(rng.integers(0, self.n_agents)) if source is None else int(source)

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> BroadcastState:
        mobility_state, positions = self._draw_trial(rng)
        source = self._draw_source(rng)
        config = self.config
        return BroadcastState(
            positions,
            mobility_state,
            source,
            self.n_agents,
            FrontierTracker() if config.record_frontier else None,
            CoverageTracker(self.grid) if config.record_coverage else None,
        )

    def step(self, state: BroadcastState, conn: Any, rng: RandomState) -> None:
        state.informed = flood_informed(state.informed, conn)
        state.curve.record(state.informed)
        if state.frontier is not None:
            state.frontier.record(state.positions, state.informed)
        if state.coverage is not None:
            state.coverage.record(state.positions, state.informed, state.n_steps)
        if state.broadcast_time < 0 and state.informed.all():
            state.broadcast_time = state.n_steps
        state.positions = self.mobility.step(state.positions, rng, state.mobility_state)
        state.n_steps += 1

    def stopped(self, state: BroadcastState) -> bool:
        """Broadcast done, and coverage too when it is recorded (one trajectory)."""
        return state.broadcast_time >= 0 and (state.coverage is None or state.coverage.complete)

    def result(self, state: BroadcastState) -> BroadcastResult:
        frontier, coverage = state.frontier, state.coverage
        return BroadcastResult(
            config=self.config,
            broadcast_time=state.broadcast_time,
            completed=state.broadcast_time >= 0,
            n_steps=state.n_steps,
            n_informed=int(np.count_nonzero(state.informed)),
            informed_curve=state.curve.as_array(),
            frontier_history=frontier.history if frontier is not None else None,
            coverage_time=coverage.coverage_time if coverage is not None else -1,
            coverage_fraction=coverage.fraction_visited if coverage is not None else 0.0,
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState], ops: Any = None) -> _BroadcastBatch:
        positions, sources, stepper = self._draw_batch(rngs, ops)
        return _BroadcastBatch(positions, sources, stepper, self.config, self.grid.n_nodes)

    def step_batch(
        self,
        bstate: _BroadcastBatch,
        conn: np.ndarray,
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        informed = flood_informed_batch(bstate.informed, conn)
        bstate.informed = informed
        counts = informed.sum(axis=1)
        done = counts == self.n_agents
        if bstate.frontier is not None:
            rightmost = np.where(informed, bstate.positions[..., 0], -1).max(axis=1)
            bstate.frontier = np.maximum(bstate.frontier, rightmost)
            bstate.frontier_trials.append(active)
            bstate.frontier_values.append(bstate.frontier)
        if bstate.visited is None:
            bstate.broadcast_time[active[done]] = t
        else:
            done = self._record_coverage(bstate, done, active, t)
        bstate.positions = bstate.stepper.step(bstate.positions, active)
        return counts, done

    def _record_coverage(
        self, bstate: _BroadcastBatch, broadcast: np.ndarray, active: np.ndarray, t: int
    ) -> np.ndarray:
        """Mark the informed agents' nodes; done once broadcast and coverage both are."""
        n_nodes = self.grid.n_nodes
        keys = _batch_node_keys(bstate.positions, self.grid.side, n_nodes)
        _mark_visited(bstate.visited, bstate.count, keys[bstate.informed])
        newly_broadcast = broadcast & (bstate.broadcast_time[active] < 0)
        bstate.broadcast_time[active[newly_broadcast]] = t
        newly_covered = (bstate.count == n_nodes) & (bstate.coverage_time[active] < 0)
        bstate.coverage_time[active[newly_covered]] = t
        return (bstate.broadcast_time[active] >= 0) & (bstate.coverage_time[active] >= 0)

    def compact(self, bstate: _BroadcastBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.informed = bstate.informed[keep]
        if bstate.frontier is not None:
            bstate.frontier = bstate.frontier[keep]
        if bstate.visited is not None:
            bstate.visited = bstate.visited[keep]
            bstate.count = bstate.count[keep]

    def finalize(self, bstate: _BroadcastBatch, active: np.ndarray) -> None:
        bstate.final_informed[active] = bstate.informed.sum(axis=1)
        if bstate.visited is not None:
            bstate.final_count[active] = bstate.count

    def run_fused(
        self, ops: Any, bstate: _BroadcastBatch
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        from repro.compiled.driver import run_broadcast_r0_fused

        n_trials = bstate.broadcast_time.shape[0]
        step_trials, step_counts, broadcast_time, n_steps, n_informed = run_broadcast_r0_fused(
            ops,
            self.grid,
            bstate.stepper,
            bstate.positions,
            bstate.informed,
            n_trials,
            self.horizon,
        )
        bstate.broadcast_time = broadcast_time
        bstate.final_informed = n_informed
        return step_trials, step_counts, n_steps

    def build_results(
        self, bstate: _BroadcastBatch, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[BroadcastResult]:
        n_trials = bstate.broadcast_time.shape[0]
        frontiers = (
            regroup_curves(n_trials, bstate.frontier_trials, bstate.frontier_values)
            if bstate.frontier is not None
            else [None] * n_trials
        )
        covered = bstate.visited is not None
        return [
            BroadcastResult(
                config=self.config,
                broadcast_time=int(bstate.broadcast_time[trial]),
                completed=bool(bstate.broadcast_time[trial] >= 0),
                n_steps=int(n_steps[trial]),
                n_informed=int(bstate.final_informed[trial]),
                informed_curve=curves[trial],
                frontier_history=frontiers[trial],
                coverage_time=int(bstate.coverage_time[trial]),
                coverage_fraction=(
                    float(bstate.final_count[trial] / self.grid.n_nodes) if covered else 0.0
                ),
            )
            for trial in range(n_trials)
        ]


class GossipState(ProcessState):
    """Serial per-trial state of a gossip run."""

    __slots__ = (
        "positions",
        "mobility_state",
        "rumors",
        "n_steps",
        "gossip_time",
        "first_broadcast",
        "curve",
    )

    def __init__(self, positions: np.ndarray, mobility_state: Any, n_agents: int) -> None:
        self.positions = positions
        self.mobility_state = mobility_state
        self.rumors = np.eye(n_agents, dtype=bool)
        self.n_steps = 0
        self.gossip_time = -1
        self.first_broadcast = -1
        self.curve: list[int] = []


class _GossipBatch:
    """Batched state of a gossip run: an ``(R, k, k)`` knowledge tensor."""

    __slots__ = ("positions", "rumors", "stepper", "gossip_time", "first_broadcast", "min_rumors")

    def __init__(self, positions: np.ndarray, stepper: Any, n_agents: int) -> None:
        n_trials = positions.shape[0]
        self.positions = positions
        self.rumors = np.broadcast_to(
            np.eye(n_agents, dtype=bool), (n_trials, n_agents, n_agents)
        ).copy()
        self.stepper = stepper
        self.gossip_time = np.full(n_trials, -1, dtype=np.int64)
        self.first_broadcast = np.full(n_trials, -1, dtype=np.int64)
        self.min_rumors = np.full(n_trials, 1, dtype=np.int64)


class GossipProcess(_ConfigProcess):
    """All-to-all rumor exchange (Corollary 2) as a process kernel.

    Agent ``j`` starts with rumor ``j``; the knowledge state is a ``(k, k)``
    boolean matrix (``(R, k, k)`` on the batched face) flooded through the
    components of ``G_t(r)`` each step before every agent moves.  The
    recorded curve is the total knowledge ``sum(rumors)``.
    """

    name = "gossip"
    TIME_FIELD = "gossip_time"
    result_class = GossipResult
    loop = "gossip"
    config_class = GossipConfig

    # -- serial ------------------------------------------------------------- #
    def init_state(self, rng: RandomState) -> GossipState:
        mobility_state, positions = self._draw_trial(rng)
        return GossipState(positions, mobility_state, self.n_agents)

    def step(self, state: GossipState, conn: Any, rng: RandomState) -> None:
        state.rumors = flood_rumors(state.rumors, conn)
        state.curve.append(int(state.rumors.sum()))
        if state.first_broadcast < 0 and bool(state.rumors[:, 0].all()):
            state.first_broadcast = state.n_steps
        if state.gossip_time < 0 and state.rumors.all():
            state.gossip_time = state.n_steps
        state.positions = self.mobility.step(state.positions, rng, state.mobility_state)
        state.n_steps += 1

    def stopped(self, state: GossipState) -> bool:
        return state.gossip_time >= 0

    def result(self, state: GossipState) -> GossipResult:
        return GossipResult(
            config=self.config,
            gossip_time=state.gossip_time,
            completed=state.gossip_time >= 0,
            n_steps=state.n_steps,
            min_rumors_known=int(state.rumors.sum(axis=1).min()),
            first_rumor_broadcast_time=state.first_broadcast,
            knowledge_curve=np.asarray(state.curve, dtype=np.int64),
        )

    # -- batched ------------------------------------------------------------ #
    def init_batch(self, rngs: Sequence[RandomState], ops: Any = None) -> _GossipBatch:
        positions, _sources, stepper = self._draw_batch(rngs, ops)
        return _GossipBatch(positions, stepper, self.n_agents)

    def step_batch(
        self,
        bstate: _GossipBatch,
        conn: np.ndarray,
        active: np.ndarray,
        t: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        k = self.n_agents
        rumors = flood_rumors_batch(bstate.rumors, conn)
        bstate.rumors = rumors
        totals = rumors.sum(axis=(1, 2))
        newly_first = rumors[:, :, 0].all(axis=1) & (bstate.first_broadcast[active] < 0)
        bstate.first_broadcast[active[newly_first]] = t
        done = totals == k * k
        bstate.gossip_time[active[done]] = t
        bstate.min_rumors[active[done]] = k  # gossip completed: every agent knows all k
        bstate.positions = bstate.stepper.step(bstate.positions, active)
        return totals, done

    def compact(self, bstate: _GossipBatch, keep: np.ndarray) -> None:
        bstate.positions = bstate.positions[keep]
        bstate.rumors = bstate.rumors[keep]

    def finalize(self, bstate: _GossipBatch, active: np.ndarray) -> None:
        bstate.min_rumors[active] = bstate.rumors.sum(axis=2).min(axis=1)

    def build_results(
        self, bstate: _GossipBatch, curves: list[np.ndarray], n_steps: np.ndarray
    ) -> list[GossipResult]:
        return [
            GossipResult(
                config=self.config,
                gossip_time=int(bstate.gossip_time[trial]),
                completed=bool(bstate.gossip_time[trial] >= 0),
                n_steps=int(n_steps[trial]),
                min_rumors_known=int(bstate.min_rumors[trial]),
                first_rumor_broadcast_time=int(bstate.first_broadcast[trial]),
                knowledge_curve=curves[trial],
            )
            for trial in range(bstate.gossip_time.shape[0])
        ]


# --------------------------------------------------------------------------- #
# Registry + replication runner
# --------------------------------------------------------------------------- #
PROCESS_KERNELS: dict[str, type[ProcessKernel]] = {
    BroadcastProcess.name: BroadcastProcess,
    GossipProcess.name: GossipProcess,
    FrogProcess.name: FrogProcess,
    PredatorPreyProcess.name: PredatorPreyProcess,
    CoverProcess.name: CoverProcess,
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

    A kernel built from a simulation config (:class:`BroadcastProcess`,
    :class:`GossipProcess`) resolves as its config does, through
    :func:`repro.core.runner.resolve_pair`.  The others mirror it: each
    request is the explicit argument if given, else the active
    :func:`~repro.core.runner.backend_override` /
    :func:`~repro.core.runner.connectivity_override`, else ``"auto"``
    (:func:`~repro.core.runner.requested_pair`), and the one policy
    :func:`~repro.core.runner.auto_pair` resolves it (every
    such kernel implements the batched face, so ``auto`` never lands on
    serial).  Pair- and connectivity-free kernels have no label engine to
    maintain, so for them both engines are the same computation.
    """
    if isinstance(process, _ConfigProcess):
        return resolve_pair(process.config, backend, connectivity)
    return auto_pair(
        *requested_pair(backend, connectivity),
        process.radius,
        labels=process.needs == "labels",
        fused_r0=process.fused_r0,
    )


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
    backend, connectivity = resolve_process_pair(process, backend, connectivity)
    return _replicate(process, n_replications, seed, backend, connectivity, rng_streams)


def _replicate(
    process: ProcessKernel,
    n_replications: int,
    seed: SeedLike,
    backend: str,
    connectivity: str,
    rng_streams: Optional[Sequence[RandomState]] = None,
) -> tuple[ReplicationSummary, list[Any]]:
    """The one replication path under every ``run_*_replications`` entry point.

    ``backend`` and ``connectivity`` are already resolved.  Without
    ``rng_streams`` an active :func:`repro.exec.execution_override` shards
    the run into ``"process"`` units whose payload is ``process.spec``;
    otherwise the trials run on the batched loop or, one by one, on
    :func:`run_process_serial`.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    if rng_streams is None:
        from repro.exec.executor import current_executor

        executor = current_executor()
        if executor is not None:
            return executor.run_process(
                process,
                n_replications,
                seed,
                backend=backend,
                connectivity=connectivity,
            )
    if backend in ("batched", "compiled"):
        from repro.core.batched import run_process_replications_batched

        return run_process_replications_batched(
            process,
            n_replications,
            seed,
            rng_streams=rng_streams,
            connectivity=connectivity,
            compiled=backend == "compiled",
        )
    rngs = list(rng_streams) if rng_streams is not None else spawn_rngs(seed, n_replications)
    results = [run_process_serial(process, rng, connectivity) for rng in rngs]
    summary = summarise_values([getattr(res, process.TIME_FIELD) for res in results])
    return summary, results
