"""The native block loop of the compiled backend: whole blocks of steps per call.

In the paper's sparse regime the per-step work of a trial is one
co-location pass plus one mobility apply, a handful of numpy dispatches
whose interpreter overhead dominates once the arrays are in cache.  A
process kernel with a native *kind*
(:attr:`~repro.dissemination.kernels.ProcessKernel.native_kind`) instead
runs whole *blocks* of pre-drawn steps in one call of the cc provider.  The
kinds are the ``r_eff = 0`` processes: the broadcast without an observable
(``repro_broadcast_r0_block``) and with its frontier and coverage
observables, the Frog model, predator–prey and the lazy cover process
(:mod:`repro.compiled._csrc`).  This module owns the Python side, one loop
for every kind (:func:`run_blocks`): draw handoff, block records for the
curves, completion bookkeeping, and compaction of the kind's per-trial
arrays at block boundaries, through the kernel's own ``compact`` and
``finalize``.

The native blocks are cache-resident and copy-free.  One ``n_nodes``-byte
mark table serves every trial (each step sets, reads and clears its own
marks, so the table carries no state and does not grow with the trial
count); inside a block the trials run one after another (trial-major); and
the draws are read in place.

The loop is bit-for-bit equivalent to the batched runner's per-step loop,
and so to serial.  A :class:`~repro.mobility.kernels.BlockDrawStepper` hands
out the very same draw blocks (refilled at the same step indices for the
same still-active trial sets).  A :class:`~repro.mobility.kernels.TapeStepper`
has every active trial's tape topped up by its refill rule before each
block, and a block runs at most a tape's steps, so it never reads past it;
numpy's bounded draws give the same values however they are split into
calls, so every value lands where the per-step loop reads it.  A trial that
is done stops before its move: the pre-drawn entries it leaves unread are
never read by any result, and its generator is not used after the run.
Once per block the loop advances the per-step loop's
``repro_sim_steps_total{loop="batched_<loop>"}`` counter, by the
trial-steps the block recorded, and its ``repro_sim_active_trials`` gauge.

For block-draw kinds, while the kernel runs block ``b`` one helper thread
draws block ``b + 1`` into the stepper's spare buffer
(:meth:`BlockDrawStepper.prefetch`), and the next ``next_draws`` swaps it
in.  Both halves release the GIL (ctypes around the native call, numpy's
bounded-integer and normal fills while they fill), so two CPUs run them at
once.  No value changes: each trial's generator is drawn by one thread at a
time, in the same block order; a trial that completes during block ``b``
has had block ``b + 1`` drawn for nothing, which no result reads, just as
none reads a block's unread tail.  The helper runs only when the process
has a CPU to spare (:func:`cpu_share`), the block's ``A × block × k`` draws
reach :data:`PREFETCH_MIN_DRAWS` and steps remain after the block.  It is one
``ThreadPoolExecutor(max_workers=1)`` per run, made at the first block that
qualifies and shut down before the run returns or raises; an exception
raised in a prefetch re-raises in the caller.

Per block the loop adds to ``repro_sim_phase_seconds_total{loop=
"batched_<loop>", phase}``: ``draws`` (its own draw handoffs and tape
top-ups plus the helper's prefetches, each timed on the thread that ran
it), ``kernel`` (the native block call) and ``draw_wait`` (blocked on a
pending prefetch).
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from repro.compiled.api import SUPPORTED_KERNELS
from repro.mobility.kernels import BLOCK_STEPS, BlockDrawStepper, NoDrawStepper, TapeStepper
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


def native_block_supported(ops: Any, stepper: Any, n_nodes: int) -> bool:
    """Whether the native block loop can run a kind over this mobility stepper.

    It needs the cc provider's block kinds, a grid whose mark table of
    ``n_nodes`` bytes stays within the same-cell table limit, and draws it
    can hand to a block: none (a static model), a block of a compiled
    mobility spec, or lazy-walk tapes.
    """
    from repro.connectivity.incremental import SAME_CELL_TABLE_LIMIT

    if not getattr(ops, "has_block_driver", False) or n_nodes > SAME_CELL_TABLE_LIMIT:
        return False
    if isinstance(stepper, NoDrawStepper):
        return True
    if isinstance(stepper, TapeStepper):
        return stepper.rule == "lazy"
    kernel = getattr(stepper, "kernel", None)
    return (
        isinstance(stepper, BlockDrawStepper)
        and kernel is not None
        and kernel[0] in SUPPORTED_KERNELS
    )


def records(active: np.ndarray, block_records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's ``(steps, A)`` records flattened to ``(trials, values)`` in step order.

    Entries still at their ``-1`` fill (the steps after a trial was done)
    are dropped.
    """
    recorded = block_records >= 0
    return np.broadcast_to(active, recorded.shape)[recorded], block_records[recorded]


def done_steps(active: np.ndarray, t: int, done_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trials a block starting at step ``t`` finished, and the step each was done at."""
    finished = done_at >= 0
    return active[finished], t + done_at[finished]


#: ``block(draws, active, t, done_at, counts_out) -> steps run`` of a kind.
BlockFn = Callable[[Any, np.ndarray, int, np.ndarray, np.ndarray], int]


def run_blocks(
    process: Any, bstate: Any, block: BlockFn
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Run every step of a batched process on its native kind, block by block.

    ``block(draws, active, t, done_at, counts_out)`` runs the native kind
    on the still-active trials ``active`` (the rows of ``bstate``'s hot
    arrays) from step ``t`` for up to ``counts_out.shape[0]`` steps,
    records each step's curve value in the ``(steps, A)`` ``counts_out``,
    sets ``done_at`` (A,) to the block step at which a trial was done, and
    writes the result fields of those trials into ``bstate``.  It returns
    the steps it ran.  ``draws`` is the block's draw slice of a
    :class:`BlockDrawStepper`, the ``(tape, cursor, steps)`` of a
    :class:`TapeStepper` (:meth:`TapeStepper.top_up`), or ``None``.

    Returns ``(step_trials, step_counts, n_steps)`` as the per-step loop
    records them, one flattened record pair per block, for
    :func:`repro.core.batched.regroup_curves`.  Done trials leave through
    ``process.compact``, and the trials still active at the horizon pass
    through ``process.finalize``, as in the per-step loop.
    """
    stepper = bstate.stepper
    n_trials, k = bstate.positions.shape[:2]
    horizon = process.horizon
    n_steps = np.zeros(n_trials, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    loop = f"batched_{process.loop}"
    steps_metric, active_metric = step_loop_instruments(loop)
    phases = phase_seconds(loop, ("draws", "kernel", "draw_wait"))
    helper: Optional[ThreadPoolExecutor] = None
    active = np.arange(n_trials)
    done0 = process.initially_stopped(bstate)
    if done0.any():
        process.compact(bstate, ~done0)
        active = active[~done0]
    t = 0
    try:
        while active.size and t < horizon:
            active_metric.set(int(active.size))
            began = perf_counter()
            if isinstance(stepper, BlockDrawStepper):
                draws: Any = stepper.next_draws(active, horizon - t)
                steps = draws.shape[1]
            elif isinstance(stepper, TapeStepper):
                draws = stepper.top_up(active)
                steps = min(horizon - t, draws[2])
            else:
                draws = None
                steps = min(horizon - t, BLOCK_STEPS)
            phases["draws"].inc(perf_counter() - began)
            done_at = np.full(active.size, -1, dtype=np.int64)
            counts_out = np.full((steps, active.size), -1, dtype=np.int64)
            prefetch: Optional[Future] = None
            if isinstance(stepper, BlockDrawStepper) and prefetch_wanted(
                active.size * steps * k, horizon - t - steps
            ):
                # Submitted last, so that the helper's wake-up meets the kernel
                # call, which releases the GIL, rather than Python work here.
                if helper is None:
                    helper = ThreadPoolExecutor(max_workers=1)
                prefetch = helper.submit(_timed_prefetch, stepper, active)
            began = perf_counter()
            steps_run = block(draws, active, t, done_at, counts_out)
            phases["kernel"].inc(perf_counter() - began)
            if prefetch is not None:
                began = perf_counter()
                drawn = prefetch.result()
                phases["draw_wait"].inc(perf_counter() - began)
                phases["draws"].inc(drawn)
            trials, counts = records(active, counts_out[:steps_run])
            step_trials.append(trials)
            step_counts.append(counts)
            steps_metric.inc(int(trials.size))
            finished, done_step = done_steps(active, t, done_at)
            n_steps[finished] = done_step + 1
            t += steps_run
            if finished.size:
                keep = done_at < 0
                process.compact(bstate, keep)
                active = active[keep]
    finally:
        if helper is not None:
            helper.shutdown()  # waits for a prefetch the kernel left pending
    active_metric.set(0)
    n_steps[active] = t
    process.finalize(bstate, active)
    return step_trials, step_counts, n_steps
