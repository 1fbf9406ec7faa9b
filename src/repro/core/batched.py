"""Batched replication backend: all trials advance as one vectorised system.

Every headline quantity of the paper is a with-high-probability statement, so
each experiment replicates its simulation dozens of times with independent
random streams.  The serial backend (:mod:`repro.core.simulation`,
:mod:`repro.core.gossip`) runs those replications one at a time; this module
advances all ``R`` of them simultaneously as an ``(R, k, 2)`` position
tensor:

* one batched mobility step for every trial at once, delegated to the
  mobility model's :meth:`~repro.mobility.base.MobilityModel.batch_stepper`
  — the kernel layer of :mod:`repro.mobility.kernels`.  Models with
  fixed-size per-step draws (lazy walk, obstacle walk, Brownian) pre-draw
  per-trial blocks and apply them batch-wide; models with data-dependent
  draws (simple walk, jump, waypoint redraws) step trial by trial but stay
  vectorised over agents, and still share the batched labelling/flooding
  passes below;
* one sort-based component labelling over the whole batch
  (:func:`repro.connectivity.batched.batched_visibility_labels`);
* one flooding pass over the whole batch
  (:func:`repro.core.protocol.flood_informed_batch` /
  :func:`~repro.core.protocol.flood_rumors_batch`);
* active-trial masking, so replications that complete drop out of the hot
  loop while the stragglers keep running.

Bit-for-bit equivalence with the serial backend is part of the contract:
each trial owns the generator that :func:`repro.util.rng.spawn_rngs` would
hand its serial counterpart and consumes it in exactly the same order
(mobility state, then initial positions, then source choice, then the
per-step mobility draws), so ``backend="batched"`` and ``backend="serial"``
return identical results for identical seeds — verified trial-for-trial by
the property tests, for every built-in mobility model.

The ``compiled`` flag (``backend="compiled"``) keeps this exact loop and
draw order but routes the per-step hot kernels — mobility apply, component
labelling and the ``r = 0`` flood scatter — through :mod:`repro.compiled`;
for ``r = 0`` broadcasts with block-draw mobility the whole flood → record →
complete → move iteration runs as fused multi-step native blocks.  Above
``r = 0`` the incremental engine is the provider's stateless
:class:`~repro.compiled.engine.CompiledDeltaEngine` (one compiled
``labels_batch`` call per step) under compiled and the
numpy :class:`~repro.connectivity.incremental.DeltaConnectivityEngine`
otherwise (``auto`` picks per backend, see
:func:`repro.core.runner.auto_pair`).  All randomness still comes from the
same numpy generators in the same order, so ``compiled`` results are
bit-for-bit identical to ``batched`` and ``serial`` (again property-verified
trial for trial).

Every path decision and labelling call uses the effective radius ``⌊r⌋``
(:func:`~repro.connectivity.visibility.effective_radius`): between integer
positions ``G_t(r)`` and ``G_t(⌊r⌋)`` are the same graph, so an ``r = 0.5``
broadcast runs the ``r = 0`` flood paths.  Configurations and results keep
the radius the user gave.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.connectivity.batched import batched_visibility_labels
from repro.connectivity.incremental import SAME_CELL_TABLE_LIMIT, DeltaConnectivityEngine
from repro.connectivity.visibility import effective_radius
from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.gossip import GossipResult
from repro.core.protocol import flood_informed_batch, flood_rumors_batch
from repro.core.runner import (
    ReplicationSummary,
    check_rng_streams,
    resolve_pair,
    summarise_values,
)
from repro.core.simulation import BroadcastResult
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
from repro.mobility.base import MobilityModel
from repro.obs.metrics import step_loop_instruments
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.util.validation import ValidationError, check_positive_int


def _regroup_curves(
    n_trials: int, step_trials: list[np.ndarray], step_counts: list[np.ndarray]
) -> list[np.ndarray]:
    """Per-trial time series from per-step ``(active, counts)`` records.

    One stable sort replaces the per-trial Python appends the hot loop would
    otherwise do at every step.
    """
    if not step_trials:
        return [np.empty(0, dtype=np.int64) for _ in range(n_trials)]
    flat_trials = np.concatenate(step_trials)
    flat_counts = np.concatenate(step_counts).astype(np.int64, copy=False)
    order = np.argsort(flat_trials, kind="stable")
    sorted_trials = flat_trials[order]
    sorted_counts = flat_counts[order]
    bounds = np.searchsorted(sorted_trials, np.arange(n_trials + 1))
    # Copies, not views: a view would pin the whole batch's step records in
    # memory for as long as any single trial's curve is kept alive.
    return [sorted_counts[bounds[i] : bounds[i + 1]].copy() for i in range(n_trials)]


def _flood_colocated(grid: Grid2D, positions: np.ndarray, informed: np.ndarray) -> np.ndarray:
    """Fused r = 0 labelling + flooding: spread within co-located groups.

    In the paper's sparse regime the components of ``G_t(0)`` are exactly the
    groups of agents sharing a node, so flooding reduces to one scatter and
    one gather through an ``(R * n)`` per-trial node mask — no sort, no
    union–find.  Equivalent to ``flood_informed_batch`` over
    ``batched_visibility_labels(positions, 0)``, but grid-aware and faster:
    unlike ``position_group_key`` it needs a *fixed* dense key space
    (``grid.n_nodes`` per trial) so the mask can be allocated without
    inspecting the coordinates.
    """
    n_trials = informed.shape[0]
    node = positions[..., 0] * grid.side + positions[..., 1]
    key = (node + np.arange(n_trials, dtype=np.int64)[:, None] * grid.n_nodes).ravel()
    node_informed = np.zeros(n_trials * grid.n_nodes, dtype=bool)
    node_informed[key[informed.ravel()]] = True
    return node_informed[key].reshape(informed.shape)


class _EpochColocatedFlood:
    """Allocation-free fused ``r = 0`` flooding for the incremental engine.

    Equivalent to :func:`_flood_colocated`, but the per-trial node mask is a
    persistent epoch-stamped table: marks from earlier steps read as stale
    instead of being re-zeroed, so the hot loop never allocates or sweeps
    the ``R * n`` cells.  Rows are keyed by compact trial index, which makes
    the table oblivious to mid-run compaction.
    """

    def __init__(self, n_trials: int, n_nodes: int) -> None:
        self._table = np.zeros(n_trials * n_nodes, dtype=np.int64)
        self._epoch = 0

    def flood(self, grid: Grid2D, positions: np.ndarray, informed: np.ndarray) -> np.ndarray:
        n_trials = informed.shape[0]
        node = positions[..., 0] * grid.side + positions[..., 1]
        key = (node + np.arange(n_trials, dtype=np.int64)[:, None] * grid.n_nodes).ravel()
        self._epoch += 1
        self._table[key[informed.ravel()]] = self._epoch
        return (self._table[key] == self._epoch).reshape(informed.shape)


def _build_mobility(config: BroadcastConfig | GossipConfig) -> tuple[Grid2D, MobilityModel]:
    """The grid and mobility model a serial simulation would construct."""
    grid = Grid2D.from_nodes(config.n_nodes)
    mobility = make_mobility(config.mobility, grid, **dict(config.mobility_kwargs))
    return grid, mobility


def _mobility_supported(config: BroadcastConfig | GossipConfig) -> bool:
    """Whether the config names a constructible mobility model.

    Every registered kernel runs on the batched backend, so the only
    disqualifier is a configuration the serial backend would refuse too
    (unknown model name, invalid or unknown kwargs): the batched backend
    must not silently accept what serial would reject.
    """
    try:
        _build_mobility(config)
    except (ValidationError, ValueError, TypeError):
        return False
    return True


def supports_batched_broadcast(config: BroadcastConfig) -> bool:
    """Whether the batched backend can run this broadcast configuration.

    Every built-in mobility model (including obstacle-walk domains) is
    supported; only the frontier/coverage observables stay on the serial
    path, since they track per-trial trajectories the batched state layout
    does not carry.
    """
    return (
        not config.record_frontier
        and not config.record_coverage
        and _mobility_supported(config)
    )


def supports_batched_gossip(config: GossipConfig) -> bool:
    """Whether the batched backend can run this gossip configuration."""
    return _mobility_supported(config)


def _initial_state(
    mobility: MobilityModel,
    config: BroadcastConfig | GossipConfig,
    rngs: list[RandomState],
    with_source: bool,
) -> tuple[list, np.ndarray, np.ndarray]:
    """Per-trial mobility states, ``(R, k, 2)`` positions and sources.

    Mirrors the serial simulators' constructor draw order exactly: mobility
    state first, then initial positions, then (for broadcast) the source
    index.
    """
    n_trials = len(rngs)
    k = config.n_agents
    positions = np.empty((n_trials, k, 2), dtype=np.int64)
    sources = np.zeros(n_trials, dtype=np.int64)
    states = []
    for trial, rng in enumerate(rngs):
        states.append(mobility.init_state(k, rng))
        positions[trial] = mobility.initial_positions(k, rng)
        if with_source:
            source = getattr(config, "source", None)
            if source is None:
                source = int(rng.integers(0, k))
            sources[trial] = int(source)
    return states, positions, sources


def run_broadcast_replications_batched(
    config: BroadcastConfig,
    n_replications: int,
    seed: SeedLike = None,
    *,
    rng_streams: Optional[Sequence[RandomState]] = None,
    connectivity: Optional[str] = None,
    compiled: bool = False,
) -> tuple[ReplicationSummary, list[BroadcastResult]]:
    """Batched equivalent of :func:`repro.core.runner.run_broadcast_replications`.

    Returns the same ``(summary, results)`` pair, with every
    :class:`~repro.core.simulation.BroadcastResult` identical to the one the
    serial backend produces for the same seed.  ``rng_streams`` supplies one
    explicit per-trial generator instead of deriving them from ``seed`` (the
    executor's chunked work units use this).  ``connectivity`` selects the
    component-labelling engine (``None`` resolves the config's field); with
    ``"incremental"`` one engine (:func:`_make_engine`) carries per-trial
    state across steps, indexed by the loop's ``active`` trials so mid-run
    compaction needs no state surgery.  ``compiled`` routes the hot kernels
    through the active :mod:`repro.compiled` provider (raising when none is
    available) without touching the draw order — see the module docstring.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    if not supports_batched_broadcast(config):
        raise ValueError(
            "configuration not supported by the batched backend (requires a "
            "valid mobility configuration and no frontier/coverage recording)"
        )
    check_rng_streams(rng_streams, n_replications)
    ops = None
    if compiled:
        from repro.compiled import require_ops

        ops = require_ops()
    rngs = list(rng_streams) if rng_streams is not None else spawn_rngs(seed, n_replications)
    grid, mobility = _build_mobility(config)
    states, positions, sources = _initial_state(mobility, config, rngs, with_source=True)
    k = config.n_agents
    n_trials = n_replications
    radius = effective_radius(config.radius)
    incremental = _resolve_engine(config, connectivity, compiled) == "incremental"
    table_fits = n_trials * grid.n_nodes <= SAME_CELL_TABLE_LIMIT
    engine = flood = None
    if radius == 0:
        if ops is not None and table_fits:
            # Compiled r = 0 flood scatter (used for both connectivity
            # engines: the epoch table already is the incremental state, and
            # recompute yields the identical informed sets at r = 0).
            from repro.compiled.api import EpochFloodR0

            flood = EpochFloodR0(ops, n_trials, grid.n_nodes)
        elif incremental and table_fits:
            # The fused colocated flood subsumes the engine's same-cell
            # labelling; the incremental variant only swaps the per-step
            # mask allocation for a persistent epoch table.  Mirror the
            # engine's own table-size guard: past the limit, keep the
            # transient-mask recompute path rather than pinning a huge
            # table for the whole run.
            flood = _EpochColocatedFlood(n_trials, grid.n_nodes)
    elif incremental:
        engine = _make_engine(ops, k, radius, grid.side, n_trials)
    labels_fn = _resolve_labels_fn(ops)

    informed = np.zeros((n_trials, k), dtype=bool)
    informed[np.arange(n_trials), sources] = True
    broadcast_time = np.full(n_trials, -1, dtype=np.int64)
    n_steps = np.zeros(n_trials, dtype=np.int64)
    n_informed = np.full(n_trials, k, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    stepper = mobility.batch_stepper(k, rngs, states)
    if ops is not None:
        from repro.compiled.api import accelerate_stepper

        stepper = accelerate_stepper(ops, stepper)

    horizon = config.horizon
    if ops is not None and _fused_broadcast_usable(ops, radius, stepper, n_trials, grid):
        # Whole-loop fused native path: flood -> record -> complete -> move
        # runs block-at-a-time in the provider, bit-for-bit with the loop
        # below (the pre-drawn mobility blocks come from the same stepper).
        from repro.compiled.driver import run_broadcast_r0_fused

        step_trials, step_counts, broadcast_time, n_steps, n_informed = run_broadcast_r0_fused(
            ops, grid, stepper, positions, informed, n_trials, horizon
        )
        curves = _regroup_curves(n_trials, step_trials, step_counts)
        return _broadcast_results(config, n_trials, broadcast_time, n_steps, n_informed, curves)

    # The hot loop works on arrays compacted to the still-active trials
    # (``active`` maps compact rows back to trial indices); completed trials
    # are physically dropped rather than masked, so no per-step gather.
    steps_metric, active_metric = step_loop_instruments("batched_broadcast")
    active = np.arange(n_trials)
    t = 0
    while active.size and t < horizon:
        steps_metric.inc(int(active.size))
        active_metric.set(int(active.size))
        if engine is not None:
            informed = flood_informed_batch(informed, engine.step(positions, active))
        elif flood is not None:
            informed = flood.flood(grid, positions, informed)
        elif radius == 0:
            informed = _flood_colocated(grid, positions, informed)
        else:
            labels = labels_fn(positions, radius)
            informed = flood_informed_batch(informed, labels)
        counts = informed.sum(axis=1)
        step_trials.append(active)
        step_counts.append(counts)
        done = counts == k
        # The serial simulator moves the agents (consuming one draw) even on
        # the step where broadcast completes, so the batched backend does too.
        positions = stepper.step(positions, active)
        t += 1
        if done.any():
            finished = active[done]
            broadcast_time[finished] = t - 1
            n_steps[finished] = t
            keep = ~done
            positions = positions[keep]
            informed = informed[keep]
            active = active[keep]
    active_metric.set(0)
    n_steps[active] = t
    n_informed[active] = informed.sum(axis=1)

    curves = _regroup_curves(n_trials, step_trials, step_counts)
    return _broadcast_results(config, n_trials, broadcast_time, n_steps, n_informed, curves)


def _resolve_engine(
    config: BroadcastConfig | GossipConfig, connectivity: Optional[str], compiled: bool
) -> str:
    """The connectivity engine of a batched run (``None`` resolves ``auto``)."""
    return resolve_pair(config, "compiled" if compiled else "batched", connectivity)[1]


def _make_engine(ops, k: int, radius: float, side: int, n_trials: int):
    """The incremental engine: the provider's for ``radius > 0``, else numpy's."""
    if ops is not None and radius > 0:
        from repro.compiled.engine import CompiledDeltaEngine

        return CompiledDeltaEngine(ops, k, radius, n_trials=n_trials)
    return DeltaConnectivityEngine(k, radius, side, n_trials=n_trials)


def _resolve_labels_fn(ops):
    """Batch labelling function: the provider's when compiled, numpy otherwise."""
    if ops is None:
        return batched_visibility_labels
    from repro.compiled.api import make_labels_fn

    return make_labels_fn(ops)


def _fused_broadcast_usable(ops, radius: float, stepper, n_trials: int, grid: Grid2D) -> bool:
    from repro.compiled.driver import fused_broadcast_supported

    return fused_broadcast_supported(ops, radius, stepper, n_trials, grid.n_nodes)


def _broadcast_results(
    config: BroadcastConfig,
    n_trials: int,
    broadcast_time: np.ndarray,
    n_steps: np.ndarray,
    n_informed: np.ndarray,
    curves: list[np.ndarray],
) -> tuple[ReplicationSummary, list[BroadcastResult]]:
    results = [
        BroadcastResult(
            config=config,
            broadcast_time=int(broadcast_time[trial]),
            completed=bool(broadcast_time[trial] >= 0),
            n_steps=int(n_steps[trial]),
            n_informed=int(n_informed[trial]),
            informed_curve=curves[trial],
        )
        for trial in range(n_trials)
    ]
    summary = summarise_values([res.broadcast_time for res in results])
    return summary, results


def run_process_replications_batched(
    process,
    n_replications: int,
    seed: SeedLike = None,
    *,
    rng_streams: Optional[Sequence[RandomState]] = None,
    connectivity: Optional[str] = None,
    compiled: bool = False,
) -> tuple[ReplicationSummary, list]:
    """Batched driver for a registered dissemination process kernel.

    The process-kernel counterpart of
    :func:`run_broadcast_replications_batched`: all ``R`` trials advance as
    one position tensor, with the per-step connectivity input computed
    batch-wide according to the kernel's ``needs`` declaration —

    * ``"labels"`` — one :func:`~repro.connectivity.batched.batched_visibility_labels`
      pass per step, or one incremental engine (:func:`_make_engine`)
      addressed by the loop's ``active`` trials when ``connectivity ==
      "incremental"`` (compaction-free state, bit-for-bit identical labels);
    * ``"pairs"`` — per-trial within-radius pairs (direct-pair predicates,
      e.g. predator–prey captures at ``r > 0``);
    * ``"none"`` — nothing.

    The kernel's ``step_batch`` owns interaction, recording and motion
    (consuming each trial's generator exactly as its serial ``step`` would);
    completed trials are physically compacted out of the hot arrays.  Results
    are bit-for-bit identical to the serial driver
    (:func:`repro.dissemination.kernels.run_process_serial`) for identical
    seeds — Hypothesis-verified per kernel.

    ``compiled`` swaps the labelling passes for the active
    :mod:`repro.compiled` provider's labels kernel or engine; the process
    kernels keep owning their own draws, so results are again bit-for-bit
    identical.
    """
    from repro.connectivity.spatial_hash import neighbor_pairs

    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    ops = None
    if compiled:
        from repro.compiled import require_ops

        ops = require_ops()
    rngs = list(rng_streams) if rng_streams is not None else spawn_rngs(seed, n_replications)
    n_trials = n_replications
    bstate = process.init_batch(rngs)
    radius = effective_radius(process.radius)
    labels_fn = _resolve_labels_fn(ops)
    engine = None
    # Compiled at radius 0: labels_fn's exact-position grouping *is* the
    # same-cell labelling; recomputing it per step is the compiled
    # incremental face (identical partitions, no engine state).
    if (
        process.needs == "labels"
        and connectivity == "incremental"
        and (radius > 0 or ops is None)
    ):
        engine = _make_engine(ops, process.n_points, radius, process.grid.side, n_trials)

    n_steps = np.zeros(n_trials, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    active = np.arange(n_trials)
    done0 = process.initially_stopped(bstate)
    if done0.any():
        keep = ~done0
        process.compact(bstate, keep)
        active = active[keep]
    t = 0
    horizon = process.horizon
    steps_metric, active_metric = step_loop_instruments("batched_process")
    while active.size and t < horizon:
        steps_metric.inc(int(active.size))
        active_metric.set(int(active.size))
        if process.needs == "labels":
            if engine is not None:
                conn = engine.step(bstate.positions, active)
            else:
                conn = labels_fn(bstate.positions, radius)
        elif process.needs == "pairs":
            conn = [
                neighbor_pairs(bstate.positions[row], process.radius)
                for row in range(active.size)
            ]
        else:
            conn = None
        counts, done = process.step_batch(bstate, conn, rngs, active, t)
        step_trials.append(active)
        step_counts.append(counts)
        t += 1
        if done.any():
            n_steps[active[done]] = t
            keep = ~done
            process.compact(bstate, keep)
            active = active[keep]
    active_metric.set(0)
    n_steps[active] = t
    process.finalize(bstate, active)

    curves = _regroup_curves(n_trials, step_trials, step_counts)
    results = process.build_results(bstate, curves, n_steps)
    summary = summarise_values([getattr(res, process.TIME_FIELD) for res in results])
    return summary, results


def run_gossip_replications_batched(
    config: GossipConfig,
    n_replications: int,
    seed: SeedLike = None,
    *,
    rng_streams: Optional[Sequence[RandomState]] = None,
    connectivity: Optional[str] = None,
    compiled: bool = False,
) -> tuple[ReplicationSummary, list[GossipResult]]:
    """Batched equivalent of :func:`repro.core.runner.run_gossip_replications`.

    The knowledge state is an ``(R, k, k)`` boolean tensor flooded across all
    trials in one pass per step.  ``rng_streams``, ``connectivity`` and
    ``compiled`` behave as in :func:`run_broadcast_replications_batched`.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    if not supports_batched_gossip(config):
        raise ValueError(
            "configuration not supported by the batched backend (requires a "
            "valid mobility configuration)"
        )
    check_rng_streams(rng_streams, n_replications)
    ops = None
    if compiled:
        from repro.compiled import require_ops

        ops = require_ops()
    rngs = list(rng_streams) if rng_streams is not None else spawn_rngs(seed, n_replications)
    grid, mobility = _build_mobility(config)
    states, positions, _ = _initial_state(mobility, config, rngs, with_source=False)
    k = config.n_agents
    n_trials = n_replications
    radius = effective_radius(config.radius)
    labels_fn = _resolve_labels_fn(ops)
    engine = None
    # Compiled at radius 0: per-step compiled labels recompute (see the
    # process runner — identical partitions, no engine state).
    if _resolve_engine(config, connectivity, compiled) == "incremental" and (
        radius > 0 or ops is None
    ):
        engine = _make_engine(ops, k, radius, grid.side, n_trials)

    rumors = np.broadcast_to(np.eye(k, dtype=bool), (n_trials, k, k)).copy()
    gossip_time = np.full(n_trials, -1, dtype=np.int64)
    first_broadcast = np.full(n_trials, -1, dtype=np.int64)
    n_steps = np.zeros(n_trials, dtype=np.int64)
    min_rumors = np.full(n_trials, 1, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    stepper = mobility.batch_stepper(k, rngs, states)
    if ops is not None:
        from repro.compiled.api import accelerate_stepper

        stepper = accelerate_stepper(ops, stepper)

    horizon = config.horizon
    steps_metric, active_metric = step_loop_instruments("batched_gossip")
    active = np.arange(n_trials)
    t = 0
    while active.size and t < horizon:
        steps_metric.inc(int(active.size))
        active_metric.set(int(active.size))
        if engine is not None:
            labels = engine.step(positions, active)
        else:
            labels = labels_fn(positions, radius)
        rumors = flood_rumors_batch(rumors, labels)
        totals = rumors.sum(axis=(1, 2))
        step_trials.append(active)
        step_counts.append(totals)
        newly_first = rumors[:, :, 0].all(axis=1) & (first_broadcast[active] < 0)
        first_broadcast[active[newly_first]] = t
        done = totals == k * k
        gossip_time[active[done]] = t
        positions = stepper.step(positions, active)
        t += 1
        if done.any():
            finished = active[done]
            n_steps[finished] = t
            min_rumors[finished] = k  # gossip completed: every agent knows all k
            keep = ~done
            positions = positions[keep]
            rumors = rumors[keep]
            active = active[keep]
    active_metric.set(0)
    n_steps[active] = t
    min_rumors[active] = rumors.sum(axis=2).min(axis=1)

    curves = _regroup_curves(n_trials, step_trials, step_counts)
    results = [
        GossipResult(
            config=config,
            gossip_time=int(gossip_time[trial]),
            completed=bool(gossip_time[trial] >= 0),
            n_steps=int(n_steps[trial]),
            min_rumors_known=int(min_rumors[trial]),
            first_rumor_broadcast_time=int(first_broadcast[trial]),
            knowledge_curve=curves[trial],
        )
        for trial in range(n_trials)
    ]
    summary = summarise_values([res.gossip_time for res in results])
    return summary, results
