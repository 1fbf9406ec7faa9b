"""Fused multi-step broadcast driver for the compiled backend (``r = 0``).

In the paper's sparse regime the per-step work of a broadcast trial is one
co-location flood plus one mobility apply — a handful of numpy dispatches
whose interpreter overhead dominates once the arrays are in cache.  The cc
provider's ``repro_broadcast_r0_block`` runs whole *blocks* of pre-drawn
steps (flood → count → completion check → apply) in a single native call;
this module owns the Python side of that loop: draw-block handoff from the
mobility stepper, block records for the curves, completion bookkeeping and
trial compaction at block boundaries.

The native block is cache-resident and copy-free.  One ``n_nodes``-byte
mark table serves every trial (each step sets, reads and clears its own
marks, so the table carries no state and does not grow with the trial
count); inside a block the trials run one after another (trial-major); and
the int32 draw block is read in place through its trial stride, a view of
the stepper's buffer while every trial is active.

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

While the kernel runs block ``b``, one helper thread draws block ``b + 1``
into the stepper's spare buffer (:meth:`BlockDrawStepper.prefetch`), and
the next ``next_draws`` swaps it in.  Both halves release the GIL (ctypes
around the native call, numpy's bounded-integer and normal fills while they
fill), so two CPUs run them at once.  No value changes: each trial's
generator is drawn by one thread at a time, in the same block order; a trial
that completes during block ``b`` has had block ``b + 1`` drawn for nothing,
which no result reads, just as none reads a block's unread tail; and a
generator is never used after its run.  The helper runs only when the process
has a CPU to spare (:func:`cpu_share`), the block's ``A × block × k`` draws
reach :data:`PREFETCH_MIN_DRAWS` and steps remain after the block.  It is one
``ThreadPoolExecutor(max_workers=1)`` per run, made at the first block that
qualifies and shut down before the run returns or raises; an exception
raised in a prefetch re-raises in the caller.

Per block the driver adds to ``repro_sim_phase_seconds_total{loop=
"batched_broadcast", phase}``: ``draws`` (its own ``next_draws`` calls plus
the helper's prefetches, each timed on the thread that ran it), ``kernel``
(the native block call) and ``draw_wait`` (blocked on a pending prefetch).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Any, Optional

import numpy as np

from repro.compiled.api import SUPPORTED_KERNELS
from repro.connectivity.visibility import effective_radius
from repro.mobility.kernels import BLOCK_STEPS, BlockDrawStepper, NoDrawStepper
from repro.obs.metrics import phase_seconds, step_loop_instruments

#: Draws per block (``A × block × k`` agent-steps) from which the driver draws
#: the next block on a helper thread.  Below it the handoff (thread wake-ups
#: each block, the thread's start and join each run) costs more than the
#: overlap saves: this is the smallest power of two at which every point of
#: the crossover sweep in ``docs/PERFORMANCE.md`` ran faster with the helper.
PREFETCH_MIN_DRAWS = 1 << 17

#: This process's share of the CPUs when a process pool set one.
_CPU_SHARE: Optional[int] = None


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def set_cpu_share(share: int) -> None:
    """Record how many CPUs this process may count on.

    A process pool's workers split the host's CPUs between them; each
    records its share here, so the draw helper never oversubscribes them.
    """
    global _CPU_SHARE
    _CPU_SHARE = share


def cpu_share() -> int:
    """CPUs this process may count on: its pool share if set, else :func:`usable_cpus`."""
    return usable_cpus() if _CPU_SHARE is None else _CPU_SHARE


def prefetch_wanted(draws: int, steps_after: int) -> bool:
    """Whether the driver draws the next block on a helper thread.

    ``draws`` is the current block's ``A × block × k``, ``steps_after`` the
    steps left after it.  Only when steps remain, the draws outweigh the
    thread handoff and the process has a CPU to spare for the helper.
    """
    return steps_after > 0 and draws >= PREFETCH_MIN_DRAWS and cpu_share() >= 2


def _timed_prefetch(stepper: BlockDrawStepper, active: np.ndarray) -> float:
    """``stepper.prefetch(active)``; returns the seconds it took."""
    began = perf_counter()
    stepper.prefetch(active)
    return perf_counter() - began


def fused_broadcast_supported(ops: Any, radius: float, stepper: Any, n_nodes: int) -> bool:
    """Whether the fused block driver can run this broadcast workload.

    It floods co-located groups, i.e. runs at effective radius ``⌊r⌋ = 0``,
    with a mark table of ``n_nodes`` bytes whatever the trial count.
    """
    from repro.connectivity.incremental import SAME_CELL_TABLE_LIMIT

    if effective_radius(radius) != 0 or not getattr(ops, "has_block_driver", False):
        return False
    if n_nodes > SAME_CELL_TABLE_LIMIT:
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
    n_informed)``: the curve records as one flattened ``(trials, counts)``
    pair per block, in step order, for
    :func:`repro.core.batched.regroup_curves`, and the per-trial outcomes.
    ``positions`` and ``informed`` are consumed (mutated and compacted).
    """
    k = informed.shape[1]
    kernel = getattr(stepper, "kernel", None)
    marks = np.zeros(grid.n_nodes, dtype=np.uint8)
    broadcast_time = np.full(n_trials, -1, dtype=np.int64)
    n_steps = np.zeros(n_trials, dtype=np.int64)
    n_informed = np.full(n_trials, k, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    steps_metric, active_metric = step_loop_instruments("batched_broadcast")
    phases = phase_seconds("batched_broadcast", ("draws", "kernel", "draw_wait"))
    helper: Optional[ThreadPoolExecutor] = None
    active = np.arange(n_trials)
    t = 0
    try:
        while active.size and t < horizon:
            active_metric.set(int(active.size))
            if kernel is None:
                draws = None
                block = min(horizon - t, BLOCK_STEPS)
            else:
                began = perf_counter()
                draws = stepper.next_draws(active, horizon - t)
                phases["draws"].inc(perf_counter() - began)
                block = draws.shape[1]
            done_at = np.full(active.size, -1, dtype=np.int64)
            counts_out = np.full((block, active.size), -1, dtype=np.int64)
            prefetch: Optional[Future] = None
            if draws is not None and prefetch_wanted(active.size * block * k, horizon - t - block):
                # Submitted last, so that the helper's wake-up meets the kernel
                # call, which releases the GIL, rather than Python work here.
                if helper is None:
                    helper = ThreadPoolExecutor(max_workers=1)
                prefetch = helper.submit(_timed_prefetch, stepper, active)
            began = perf_counter()
            steps_run = ops.broadcast_r0_block(
                kernel, grid.side, draws, positions, informed, marks, done_at, counts_out
            )
            phases["kernel"].inc(perf_counter() - began)
            if prefetch is not None:
                began = perf_counter()
                drawn = prefetch.result()
                phases["draw_wait"].inc(perf_counter() - began)
                phases["draws"].inc(drawn)
            counts_out = counts_out[:steps_run]
            recorded = counts_out >= 0
            step_trials.append(np.broadcast_to(active, recorded.shape)[recorded])
            step_counts.append(counts_out[recorded])
            steps_metric.inc(int(step_trials[-1].size))
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
    finally:
        if helper is not None:
            helper.shutdown()  # waits for a prefetch the kernel left pending
    active_metric.set(0)
    n_steps[active] = t
    n_informed[active] = informed.sum(axis=1)
    return step_trials, step_counts, broadcast_time, n_steps, n_informed
