"""Batched replication backend: all trials advance as one vectorised system.

Every headline quantity of the paper is a with-high-probability statement, so
each experiment replicates its simulation dozens of times with independent
random streams.  The serial backend
(:func:`repro.dissemination.kernels.run_process_serial`) runs those
replications one at a time; this module advances all ``R`` of them
simultaneously as an ``(R, k, 2)`` position tensor, through the batched face
of a process kernel (:mod:`repro.dissemination.kernels`: the broadcast and
gossip kernels as well as the Section-4 processes):

* one batched mobility step for every trial at once, delegated to the
  mobility model's :meth:`~repro.mobility.base.MobilityModel.batch_stepper`
  — the kernel layer of :mod:`repro.mobility.kernels`.  Models with
  fixed-size per-step draws (lazy walk, obstacle walk, Brownian) pre-draw
  per-trial blocks and apply them batch-wide; the simple walk reads
  per-trial draw tapes, so its rejection redraws batch too; models with
  other data-dependent draws (jump, waypoint redraws) step trial by trial
  but stay vectorised over agents, and still share the batched
  labelling/flooding passes below;
* one sort-based component labelling over the whole batch
  (:func:`repro.connectivity.batched.batched_visibility_labels`), or one
  incremental engine addressed by the loop's ``active`` trials;
* one flooding pass over the whole batch
  (:func:`repro.core.protocol.flood_informed_batch` /
  :func:`~repro.core.protocol.flood_rumors_batch`, inside the kernel's
  ``step_batch``);
* active-trial compaction, so replications that complete drop out of the
  hot loop while the stragglers keep running.

Bit-for-bit equivalence with the serial backend is part of the contract:
each trial owns the generator that :func:`repro.util.rng.spawn_rngs` would
hand its serial counterpart and consumes it in exactly the same order
(mobility state, then initial positions, then source choice, then the
per-step mobility draws), so ``backend="batched"`` and ``backend="serial"``
return identical results for identical seeds — verified trial-for-trial by
the property tests, for every built-in mobility model.

The ``compiled`` flag (``backend="compiled"``) keeps this exact loop and
draw order but routes the per-step hot kernels — the broadcast and gossip
mobility applies and component labelling — through :mod:`repro.compiled`.
A kernel with a native kind
(:attr:`~repro.dissemination.kernels.ProcessKernel.native_kind`: the
``r_eff = 0`` broadcast with or without its observables, the Frog model,
predator–prey and the lazy cover process) leaves this loop altogether
when the provider carries the kinds and its mobility draws in blocks or
lazy tapes: its whole step iteration runs as multi-step native blocks on
:func:`repro.compiled.driver.run_blocks`, which keeps the kernel's
``initially_stopped``, ``compact`` and ``finalize``.  Above ``r = 0`` the
incremental engine is the provider's stateless
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
broadcast runs the ``r = 0`` paths.  Configurations and results keep the
radius the user gave.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.connectivity.batched import batched_visibility_labels
from repro.connectivity.incremental import DeltaConnectivityEngine
from repro.connectivity.spatial_hash import neighbor_pairs
from repro.connectivity.visibility import effective_radius
from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.gossip import GossipResult
from repro.core.protocol import flood_informed_batch  # noqa: F401  (perfbench traces it here)
from repro.core.runner import (
    ReplicationSummary,
    check_rng_streams,
    resolve_pair,
    summarise_values,
)
from repro.core.simulation import BroadcastResult
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
from repro.obs.metrics import step_loop_instruments
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.util.validation import ValidationError, check_positive_int


def regroup_curves(
    n_trials: int, step_trials: list[np.ndarray], step_counts: list[np.ndarray]
) -> list[np.ndarray]:
    """Per-trial time series from ``(trials, counts)`` records in step order.

    A record is one step's ``(active, counts)``, or a native block's records
    flattened into one pair.  One stable sort replaces the per-trial Python
    appends the hot loop would otherwise do at every step.
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


def supports_batched(config: BroadcastConfig | GossipConfig) -> bool:
    """Whether the batched backend can run this broadcast or gossip configuration.

    Every kernel runs on the batched backend, observables included, so the
    only disqualifier is a configuration the serial backend would refuse
    too (unknown model name, invalid or unknown kwargs): the batched
    backend must not silently accept what serial would reject.
    """
    try:
        grid = Grid2D.from_nodes(config.n_nodes)
        make_mobility(config.mobility, grid, **dict(config.mobility_kwargs))
    except (ValidationError, ValueError, TypeError):
        return False
    return True


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

    Runs :class:`~repro.dissemination.kernels.BroadcastProcess` on the one
    batched loop (:func:`run_process_replications_batched`), with
    ``connectivity=None`` resolved from the config as the runner would.
    """
    if not supports_batched(config):
        raise ValueError(
            "configuration not supported by the batched backend (requires a "
            "valid mobility configuration)"
        )
    from repro.dissemination.kernels import BroadcastProcess

    return _run_batched(
        BroadcastProcess(config), n_replications, seed,
        rng_streams=rng_streams,
        connectivity=_resolve_engine(config, connectivity, compiled),
        compiled=compiled,
    )


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

    Runs :class:`~repro.dissemination.kernels.GossipProcess` (an ``(R, k, k)``
    knowledge tensor flooded across all trials in one pass per step) on the
    one batched loop, as :func:`run_broadcast_replications_batched` does.
    """
    if not supports_batched(config):
        raise ValueError(
            "configuration not supported by the batched backend (requires a "
            "valid mobility configuration)"
        )
    from repro.dissemination.kernels import GossipProcess

    return _run_batched(
        GossipProcess(config), n_replications, seed,
        rng_streams=rng_streams,
        connectivity=_resolve_engine(config, connectivity, compiled),
        compiled=compiled,
    )


def run_process_replications_batched(
    process: Any,
    n_replications: int,
    seed: SeedLike = None,
    *,
    rng_streams: Optional[Sequence[RandomState]] = None,
    connectivity: Optional[str] = None,
    compiled: bool = False,
) -> tuple[ReplicationSummary, list]:
    """Batched driver for a registered process kernel (broadcast and gossip included).

    All ``R`` trials advance as one position tensor, with the per-step
    connectivity input computed batch-wide according to the kernel's
    ``needs`` declaration —

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
    seeds — Hypothesis-verified per kernel.  ``rng_streams`` supplies one
    explicit per-trial generator instead of deriving them from ``seed`` (the
    executor's chunked work units use this).

    ``compiled`` swaps the labelling passes for the active
    :mod:`repro.compiled` provider's labels kernel or engine (raising when
    none is available) and hands the kernel the provider for its mobility
    applies; a kernel with a native kind whose run the native block loop
    supports runs every step there instead.  No draw moves, so results are
    again bit-for-bit identical.
    """
    return _run_batched(
        process, n_replications, seed,
        rng_streams=rng_streams, connectivity=connectivity, compiled=compiled,
    )


def _run_batched(
    process: Any,
    n_replications: int,
    seed: SeedLike,
    *,
    rng_streams: Optional[Sequence[RandomState]],
    connectivity: Optional[str],
    compiled: bool,
) -> tuple[ReplicationSummary, list]:
    """The one batched step loop (see :func:`run_process_replications_batched`)."""
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    ops = None
    if compiled:
        from repro.compiled import require_ops

        ops = require_ops()
    rngs = list(rng_streams) if rng_streams is not None else spawn_rngs(seed, n_replications)
    n_trials = n_replications
    bstate = process.init_batch(rngs, ops)
    if (
        ops is not None
        and process.native_kind is not None
        and _native_block_usable(ops, bstate.stepper, process.grid)
    ):
        # The kernel's native kind runs whole blocks of steps per provider
        # call, bit-for-bit with the loop below (the draws come from the
        # same stepper, in the same order).
        step_trials, step_counts, n_steps = process.run_fused(ops, bstate)
        return _summarise(process, bstate, n_trials, step_trials, step_counts, n_steps)

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
    # The hot loop works on state compacted to the still-active trials
    # (``active`` maps compact rows back to trial indices); completed trials
    # are physically dropped rather than masked, so no per-step gather.
    active = np.arange(n_trials)
    done0 = process.initially_stopped(bstate)
    if done0.any():
        keep = ~done0
        process.compact(bstate, keep)
        active = active[keep]
    t = 0
    horizon = process.horizon
    steps_metric, active_metric = step_loop_instruments(f"batched_{process.loop}")
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
        counts, done = process.step_batch(bstate, conn, active, t)
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
    return _summarise(process, bstate, n_trials, step_trials, step_counts, n_steps)


def _summarise(
    process: Any,
    bstate: Any,
    n_trials: int,
    step_trials: list[np.ndarray],
    step_counts: list[np.ndarray],
    n_steps: np.ndarray,
) -> tuple[ReplicationSummary, list]:
    curves = regroup_curves(n_trials, step_trials, step_counts)
    results = process.build_results(bstate, curves, n_steps)
    summary = summarise_values([getattr(res, process.TIME_FIELD) for res in results])
    return summary, results


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


def _native_block_usable(ops, stepper, grid: Grid2D) -> bool:
    from repro.compiled.driver import native_block_supported

    return native_block_supported(ops, stepper, grid.n_nodes)
