"""Fused multi-step broadcast driver for the compiled backend (``r = 0``).

In the paper's sparse regime the per-step work of a broadcast trial is one
co-location flood plus one mobility apply — a handful of numpy dispatches
whose interpreter overhead dominates once the arrays are in cache.  The cc
provider's ``repro_broadcast_r0_block`` runs whole *blocks* of pre-drawn
steps (flood → count → completion check → apply) in a single native call;
this module owns the Python side of that loop: draw-block handoff from the
mobility stepper, per-step curve reconstruction, completion bookkeeping and
trial compaction at block boundaries.

The loop is bit-for-bit equivalent to the batched runner's per-step loop:
draws come from the very same :class:`~repro.mobility.kernels.BlockDrawStepper`
buffers (refilled at the same step indices for the same still-active trial
sets), trials that complete stop being flooded/recorded exactly one step
after completion, and the serial backend's "move even on the completion
step" convention is honoured by construction (the pre-drawn block entries
of a finished trial are simply never read — its generator has already
advanced past them either way).  Once per block the driver advances the
same ``repro_sim_steps_total{loop="batched_broadcast"}`` counter and
``repro_sim_active_trials`` gauge the per-step loop keeps, by the
trial-steps the block recorded.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compiled.api import SUPPORTED_KERNELS
from repro.connectivity.visibility import effective_radius
from repro.mobility.kernels import BlockDrawStepper, NoDrawStepper
from repro.obs.metrics import step_loop_instruments


def fused_broadcast_supported(
    ops: Any, radius: float, stepper: Any, n_trials: int, n_nodes: int
) -> bool:
    """Whether the fused block driver can run this broadcast workload.

    It floods co-located groups, i.e. runs at effective radius ``⌊r⌋ = 0``.
    """
    from repro.connectivity.incremental import SAME_CELL_TABLE_LIMIT

    if effective_radius(radius) != 0 or not getattr(ops, "has_block_driver", False):
        return False
    if n_trials * n_nodes > SAME_CELL_TABLE_LIMIT:
        return False
    if isinstance(stepper, NoDrawStepper):
        return True
    kernel = getattr(stepper, "kernel", None)
    return (
        isinstance(stepper, BlockDrawStepper)
        and kernel is not None
        and kernel[0] in SUPPORTED_KERNELS
    )


def run_broadcast_r0_fused(
    ops: Any,
    grid: Any,
    stepper: Any,
    positions: np.ndarray,
    informed: np.ndarray,
    n_trials: int,
    horizon: int,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Run the whole ``r = 0`` broadcast hot loop through the fused driver.

    Returns ``(step_trials, step_counts, broadcast_time, n_steps,
    n_informed)`` in exactly the shapes the batched runner's per-step loop
    would have produced.  ``positions`` and ``informed`` are consumed
    (mutated and compacted).
    """
    k = informed.shape[1]
    side, n_nodes = grid.side, grid.n_nodes
    kernel = getattr(stepper, "kernel", None)
    table = np.zeros(n_trials * n_nodes, dtype=np.int64)
    epoch = 0
    broadcast_time = np.full(n_trials, -1, dtype=np.int64)
    n_steps = np.zeros(n_trials, dtype=np.int64)
    n_informed = np.full(n_trials, k, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    steps_metric, active_metric = step_loop_instruments("batched_broadcast")
    active = np.arange(n_trials)
    t = 0
    while active.size and t < horizon:
        active_metric.set(int(active.size))
        if kernel is None:
            draws = None
            block = min(horizon - t, 128)
        else:
            draws = stepper.next_draws(active, horizon - t)
            block = draws.shape[1]
        done_at = np.full(active.size, -1, dtype=np.int64)
        counts_out = np.full((block, active.size), -1, dtype=np.int64)
        steps_run = ops.broadcast_r0_block(
            kernel, side, n_nodes, draws, positions, informed,
            table, epoch, done_at, counts_out,
        )
        epoch += steps_run
        recorded = counts_out[:steps_run] >= 0
        steps_metric.inc(int(recorded.sum()))
        for s in range(steps_run):
            step_trials.append(active[recorded[s]])
            step_counts.append(counts_out[s][recorded[s]])
        t += steps_run
        finished = done_at >= 0
        if finished.any():
            done_trials = active[finished]
            broadcast_time[done_trials] = t - steps_run + done_at[finished]
            n_steps[done_trials] = broadcast_time[done_trials] + 1
            keep = ~finished
            positions = positions[keep]
            informed = informed[keep]
            active = active[keep]
    active_metric.set(0)
    n_steps[active] = t
    if active.size:
        n_informed[active] = informed.sum(axis=1)
    return step_trials, step_counts, broadcast_time, n_steps, n_informed
