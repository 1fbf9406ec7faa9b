"""Batch-aware stepping machinery shared by all mobility models.

This module is the *kernel layer* of the mobility package: it owns the
primitive step rules of the paper's random walks (:func:`lazy_step` and
:func:`simple_step`, which :mod:`repro.walks` re-exports) and the machinery
that lets one mobility model drive both execution backends:

* **serial** — ``model.step(positions, rng, state)`` advances one trial;
* **batched** — ``model.batch_stepper(...)`` returns a loop-persistent
  :class:`BatchStepper` that advances an ``(R, k, 2)`` tensor of ``R``
  independent trials each step, and may amortise generator calls by
  pre-drawing per-trial blocks.

The contract that makes the backends interchangeable is *stream equivalence*:
a batch stepper must consume each trial's generator in exactly the order the
serial ``step`` would, so a batched trial reproduces its serial counterpart
bit for bit.  Bulk numpy draws preserve this property — e.g.
``rng.integers(0, 5, size=(block, k))`` yields the same values as ``block``
successive draws of size ``k`` — which is what :class:`BlockDrawStepper`
exploits.  The lazy and obstacle walks draw their blocks as int32: numpy
draws every integer range below ``2**32`` through the same 32-bit bounded
routine for int32 and int64 output, so the values and the generator state
after the draw are unchanged, and the block is half the size.  The serial
:func:`lazy_step` keeps int64.  A trial's block holds at most
:data:`BLOCK_STEPS` steps and, down to a single step, at most
:data:`BLOCK_BYTES` bytes; this bounds both the block buffer and the spare
that :meth:`BlockDrawStepper.prefetch` fills.  :class:`TapeStepper` gives
each trial its own cursor into such a block, for walks whose draws per step
differ between trials: the simple walk's redraws, and the Section-4
processes that move only some of their walkers.

Per-trial auxiliary state (e.g. waypoints) lives in explicit
:class:`MobilityState` objects created by ``model.init_state`` rather than on
the model instance, so one model can drive many concurrent trials.
"""

from __future__ import annotations

import abc
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.util.rng import RandomState

StepRule = Literal["lazy", "simple"]

#: Proposal table: row i is the displacement of proposal i.
#: Proposal 0 is "stay"; proposals 1-4 are the four axis moves.
PROPOSALS = np.array(
    [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]],
    dtype=np.int64,
)

#: Most steps in one trial's draw block.
BLOCK_STEPS = 128
#: Most bytes in one trial's draw block (the lazy and obstacle walks' int32
#: choices keep 128 steps up to k = 2048, Brownian float64 pairs up to
#: k = 512): a buffer and its spare together hold no more than one
#: 128-step buffer did at k = 4096.
BLOCK_BYTES = 1 << 20


# --------------------------------------------------------------------------- #
# Primitive step rules (the paper's walks)
# --------------------------------------------------------------------------- #
def lazy_step(grid: Grid2D, positions: np.ndarray, rng: RandomState) -> np.ndarray:
    """Advance every walk by one *lazy* step (the paper's mobility rule).

    Each agent draws one of the five proposals uniformly; off-grid proposals
    are rejected (the agent stays).  Because each of the ``n_v`` valid
    neighbours is selected with probability exactly ``1/5`` and the stay
    probability absorbs the rest, this matches the transition kernel of
    Section 2 of the paper.
    """
    positions = np.asarray(positions, dtype=np.int64)
    k = positions.shape[0]
    choice = rng.integers(0, 5, size=k)
    return apply_lazy_choices(grid, positions, choice)


def simple_step(grid: Grid2D, positions: np.ndarray, rng: RandomState) -> np.ndarray:
    """Advance every walk by one *simple* (non-lazy) step.

    Each agent moves to a uniformly random valid neighbour.  Implemented by
    rejection: draw one of the four axis moves, and re-draw (vectorised) for
    the agents whose proposal left the grid.
    """
    positions = np.asarray(positions, dtype=np.int64)
    k = positions.shape[0]
    current = positions.copy()
    pending = np.arange(k)
    result = positions.copy()
    # At most a handful of rounds are needed in practice: corner nodes accept
    # half of the proposals, so the pending set shrinks geometrically.
    while pending.size:
        choice = rng.integers(1, 5, size=pending.size)
        proposed = current[pending] + PROPOSALS[choice]
        inside = (
            (proposed[:, 0] >= 0)
            & (proposed[:, 0] < grid.side)
            & (proposed[:, 1] >= 0)
            & (proposed[:, 1] < grid.side)
        )
        accepted = pending[inside]
        result[accepted] = proposed[inside]
        pending = pending[~inside]
    return result


def apply_lazy_choices(grid: Grid2D, positions: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """Apply pre-drawn lazy-step proposals to a positions array.

    ``positions`` has shape ``(..., 2)`` and ``choice`` the matching leading
    shape, with values in ``0..4`` indexing the proposal table (stay / +x /
    -x / +y / -y).  Off-grid proposals are rejected (the agent stays),
    exactly as in :func:`lazy_step`.  Splitting the draw from the apply lets
    the batched backend pre-draw choices in per-trial blocks while keeping
    the trajectory identical.  A proposal moves one coordinate by one, so
    clipping an off-grid proposal back into the grid rejects it: the walker
    stays.
    """
    moved = positions + PROPOSALS.take(choice, axis=0)
    return np.minimum(np.maximum(moved, 0, out=moved), grid.side - 1, out=moved)


def apply_masked_choices(
    side: int, free_mask: np.ndarray, positions: np.ndarray, choice: np.ndarray
) -> np.ndarray:
    """Apply lazy-step proposals on a domain with blocked nodes.

    Like :func:`apply_lazy_choices` but a proposal is also rejected (the
    agent stays) when it lands on a node whose entry in the ``(side, side)``
    boolean ``free_mask`` is False.  This is the masked-proposal-rejection
    kernel of the obstacle walk, usable on arbitrarily batched position
    tensors.
    """
    positions = np.asarray(positions, dtype=np.int64)
    proposed = positions + PROPOSALS.take(choice, axis=0)
    px, py = proposed[..., 0], proposed[..., 1]
    inside = (px >= 0) & (px < side) & (py >= 0) & (py < side)
    # Clip only for the mask lookup; out-of-grid proposals are already
    # rejected by ``inside`` regardless of what the clipped lookup returns.
    allowed = inside & free_mask[np.clip(px, 0, side - 1), np.clip(py, 0, side - 1)]
    return np.where(allowed[..., None], proposed, positions)


# --------------------------------------------------------------------------- #
# Per-trial auxiliary state
# --------------------------------------------------------------------------- #
class MobilityState:
    """Base class of explicit per-trial auxiliary mobility state.

    Models whose dynamics need more than the positions array (e.g. the
    waypoint model) return one of these from
    :meth:`repro.mobility.base.MobilityModel.init_state`; the simulation (one
    object per trial) carries it and passes it back to every ``step`` call,
    and a batch stepper holds one per trial.  Keeping the state off the model instance is what
    lets a single model object drive many concurrent trials — the batched
    backend holds one state per replication.
    """

    __slots__ = ()


# --------------------------------------------------------------------------- #
# Batch steppers
# --------------------------------------------------------------------------- #
class BatchStepper(abc.ABC):
    """Loop-persistent advancer of a compacted batch of replications.

    Created once per replication run via
    :meth:`repro.mobility.base.MobilityModel.batch_stepper` with the full
    per-trial generator (and state) lists, then called every time step with
    the positions of the still-active trials only:

    ``positions`` has shape ``(A, k, 2)`` and ``active`` is the length-``A``
    array mapping compacted rows to *original* trial indices (trials leave
    the batch when they complete, never join).  Implementations must consume
    each trial's generator exactly as the serial ``step`` would.
    """

    @abc.abstractmethod
    def step(self, positions: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Advance the active trials by one step and return the new positions."""


class PerTrialStepper(BatchStepper):
    """Bit-for-bit fallback: step each active trial with its own generator.

    Used by models whose per-step draws are data dependent (rejection
    sampling, arrival-triggered redraws), where a fixed-size bulk draw would
    desynchronise the stream.  Stepping stays vectorised over the ``k``
    agents of each trial; only the trial loop is Python.
    """

    def __init__(
        self,
        model,
        rngs: Sequence[RandomState],
        states: Sequence[Optional[MobilityState]],
    ) -> None:
        self._model = model
        self._rngs = list(rngs)
        self._states = list(states)

    def step(self, positions: np.ndarray, active: np.ndarray) -> np.ndarray:
        out = np.empty_like(positions)
        for row, trial in enumerate(active):
            out[row] = self._model.step(
                positions[row], self._rngs[trial], self._states[trial]
            )
        return out


class TapeStepper(BatchStepper):
    """Step the paper's walks with each trial reading its own draw tape.

    Row ``i`` of the tape buffers the next proposals of ``rngs[i]`` as
    int32: ``integers(0, 5)`` for the lazy walk, ``integers(1, 5)`` for the
    simple walk.  numpy's bounded integer draws are chunk-invariant — draws
    of sizes ``a`` and then ``b`` equal one draw of size ``a + b``, in values
    and in the generator state after them — so a trial that reads its tape
    value by value sees exactly the values :func:`lazy_step` or
    :func:`simple_step` would draw call by call.  Unlike
    :class:`BlockDrawStepper`'s one cursor for the whole batch, every trial
    keeps its own cursor, so the simple walk's rejection redraws (a
    data-dependent number of draws per step) batch bit for bit as well, and
    so do processes that move only some walkers (the ``moving`` mask of
    :meth:`step`).

    A tape holds :data:`BLOCK_STEPS` steps of ``n_walkers`` proposals, and at
    most :data:`BLOCK_BYTES` bytes, per trial; a refill keeps a trial's
    unread values and draws as many as it read.  So a trial may draw past
    its last step: the generators must not be used after the stepper.
    """

    def __init__(
        self, grid: Grid2D, rngs: Sequence[RandomState], rule: StepRule, n_walkers: int
    ) -> None:
        if rule not in ("lazy", "simple"):
            raise ValueError(f"rule must be 'lazy' or 'simple', got {rule!r}")
        self._grid = grid
        self._rngs = list(rngs)
        self._rule = rule
        self._low = 0 if rule == "lazy" else 1
        self._walkers = np.arange(n_walkers)
        self._block = max(1, min(BLOCK_STEPS, BLOCK_BYTES // (4 * n_walkers)))
        self._tape = np.empty((len(self._rngs), self._block * n_walkers), dtype=np.int32)
        self._cursor = np.full(len(self._rngs), self._tape.shape[1], dtype=np.int64)

    @property
    def rule(self) -> StepRule:
        """The step rule whose proposals the tapes hold."""
        return self._rule

    def top_up(self, trials: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Refill ``trials``' tapes for a native block; returns ``(tape, cursor, steps)``.

        Each trial's tape then holds a whole tape of unread proposals, by
        the refill rule of the per-step reads.  ``tape`` and ``cursor`` are
        the stepper's own arrays, indexed by trial: a block reads trial
        ``i``'s proposals from ``tape[i, cursor[i]:]`` in order and advances
        ``cursor[i]`` past them.  A step reads at most one proposal per
        walker, so a block of at most ``steps`` steps never reads past the
        tape, and every value lands where the per-step reads would find it.
        """
        started = trials[self._cursor[trials] > 0]
        if started.size:
            self._refill(started)
        return self._tape, self._cursor, self._block

    def _read(self, trials: np.ndarray, wanted: Optional[np.ndarray] = None) -> np.ndarray:
        """The next proposals of ``trials``: one per walker, or per True of ``wanted``.

        ``wanted`` is an ``(A, n_walkers)`` mask; the True entries of row
        ``j`` receive trial ``trials[j]``'s next values in walker order, and
        the False entries are left unspecified.
        """
        width = self._tape.shape[1]
        cursor = self._cursor[trials]
        short = cursor > width - self._walkers.size
        if short.any():
            self._refill(trials[short])
            cursor = self._cursor[trials]
        if wanted is None:
            offsets = cursor[:, None] + self._walkers
            self._cursor[trials] = cursor + self._walkers.size
        else:
            taken = np.cumsum(wanted, axis=1)
            offsets = cursor[:, None] + taken - wanted
            self._cursor[trials] = cursor + taken[:, -1]
        return self._tape.take(offsets + (trials * width)[:, None])

    def _refill(self, trials: np.ndarray) -> None:
        width = self._tape.shape[1]
        for trial in trials.tolist():
            read = int(self._cursor[trial])
            row = self._tape[trial]
            row[: width - read] = row[read:]
            row[width - read :] = self._rngs[trial].integers(
                self._low, 5, size=read, dtype=np.int32
            )
            self._cursor[trial] = 0

    def _off_grid(self, proposed: np.ndarray) -> np.ndarray:
        outside = (proposed < 0) | (proposed >= self._grid.side)
        return outside[..., 0] | outside[..., 1]

    def step(
        self, positions: np.ndarray, active: np.ndarray, moving: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Advance the active trials by one step of the rule.

        ``moving``, an ``(A, n_walkers)`` mask, moves only its True walkers:
        they read the tape in walker order, as one serial step of just those
        walkers would draw, and the others stay put.
        """
        choice = self._read(active, moving)
        if moving is not None:
            choice = np.where(moving, choice, 0)  # proposal 0 is "stay"
        if self._rule == "lazy":
            return apply_lazy_choices(self._grid, positions, choice)
        moved = positions + PROPOSALS.take(choice, axis=0)
        # The simple walk redraws each off-grid proposal, walkers in order.
        pending = self._off_grid(moved)
        while pending.any():
            rows = np.flatnonzero(pending.any(axis=1))
            wanted = pending[rows]
            proposed = positions[rows] + PROPOSALS.take(
                self._read(active[rows], wanted), axis=0
            )
            moved[rows] = np.where(wanted[..., None], proposed, moved[rows])
            pending[rows] = wanted & self._off_grid(proposed)
        return moved


class NoDrawStepper(BatchStepper):
    """Stepper for models that never consume randomness nor move agents."""

    def step(self, positions: np.ndarray, active: np.ndarray) -> np.ndarray:
        return positions


class BlockDrawStepper(BatchStepper):
    """Pre-draw per-trial random blocks and apply them batch-wide.

    ``draw(rng, block)`` must return the stacked draws of ``block``
    successive serial steps (leading axis = block axis) while consuming the
    generator exactly as those successive per-step draws would — true of
    bulk numpy ``Generator`` calls such as
    ``rng.integers(0, 5, (block, k), dtype=np.int32)`` or
    ``rng.normal(0, s, (block, k, 2))``.  ``apply(positions, draws)``
    turns one per-step slice into the new positions for the whole compacted
    batch.  A block is ``block`` steps long, or shorter when ``step_bytes``
    (one trial's draws per step) would take it past :data:`BLOCK_BYTES`.

    Trials advance in lockstep (completed trials leave, none join), so a
    single shared cursor tracks every active trial's offset within the
    current block, and refills draw only for the trials still active.

    :meth:`prefetch` draws the block after the current one into a spare
    buffer of the same shape, so that a caller can draw it on another
    thread while it consumes the current one; the next refill then swaps
    the buffers instead of drawing.  Each trial's generator still draws
    its blocks in order, one thread at a time, so no value changes.

    ``kernel``, when given, is a declarative spec of what ``apply`` computes
    — ``("lazy", side)``, ``("masked", side, free_mask)`` or
    ``("brownian", side)`` — letting the compiled backend substitute a
    compiled implementation of the same pure function (``set_apply``) or
    consume whole draw blocks at once (``next_draws``) without changing the
    generator streams.
    """

    def __init__(
        self,
        rngs: Sequence[RandomState],
        draw: Callable[[RandomState, int], np.ndarray],
        apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
        block: int = BLOCK_STEPS,
        kernel: Optional[tuple] = None,
        step_bytes: int = 0,
    ) -> None:
        if step_bytes:
            block = max(1, min(block, BLOCK_BYTES // step_bytes))
        self._rngs = list(rngs)
        self._draw = draw
        self._apply = apply
        self._block = block
        self._buffer: np.ndarray | None = None
        self._spare: np.ndarray | None = None
        #: The trials whose next block :meth:`prefetch` drew into the spare.
        self._prefetched: np.ndarray | None = None
        self._cursor = block  # forces a fill on first use
        self.kernel = kernel

    def set_apply(self, apply: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Replace the apply function (must compute the same pure function).

        Draws are untouched, so the swap cannot affect the generator streams;
        the compiled backend uses this to route the apply through a compiled
        kernel while keeping trajectories bit-for-bit identical.
        """
        self._apply = apply

    def _fill(self, buffer: np.ndarray | None, active: np.ndarray) -> np.ndarray | None:
        """Draw the next block of each ``active`` trial into ``buffer`` (made if None)."""
        for trial in active:
            draws = self._draw(self._rngs[trial], self._block)
            if buffer is None:
                buffer = np.empty((len(self._rngs),) + draws.shape, dtype=draws.dtype)
            buffer[trial] = draws
        return buffer

    def _refill(self, active: np.ndarray) -> None:
        if self._prefetched is None:
            self._buffer = self._fill(self._buffer, active)
            return
        if not np.isin(active, self._prefetched).all():
            raise RuntimeError("the prefetched block lacks rows for trials that are active")
        self._buffer, self._spare = self._spare, self._buffer
        self._prefetched = None

    def prefetch(self, active: np.ndarray) -> None:
        """Draw the block after the current one, for the trials in ``active``.

        The draws go into a spare buffer; the next refill for a subset of
        ``active`` swaps it in instead of drawing, and trials that left in
        between have had one block drawn that nothing reads.  It never
        writes the buffer the last :meth:`next_draws` view points into, so
        it may run on another thread while that view is read — but no other
        method of this stepper may run until it returns.
        """
        if self._prefetched is not None:
            raise RuntimeError("the block prefetched before has not been used yet")
        self._spare = self._fill(self._spare, active)
        self._prefetched = active

    def step(self, positions: np.ndarray, active: np.ndarray) -> np.ndarray:
        cursor = self._cursor
        if cursor == self._block:
            self._refill(active)
            cursor = 0
        self._cursor = cursor + 1
        assert self._buffer is not None
        return self._apply(positions, self._buffer[active, cursor])

    def next_draws(self, active: np.ndarray, limit: int) -> np.ndarray:
        """Hand out the next (up to ``limit``) per-step draw slices in bulk.

        Returns ``self._buffer[active, cursor:cursor + m]`` with
        ``m = min(limit, block - cursor)`` and advances the cursor by ``m`` —
        exactly the draws ``m`` successive :meth:`step` calls with this
        ``active`` set would have consumed, refilled at the identical step
        index for the identical trial set.  A block chunk never spans a
        refill, so interleaving ``next_draws`` with per-step ``step`` calls
        keeps the streams aligned.  The returned array's second axis is the
        step axis.

        While every trial is active the result is a basic-slice *view* of
        the block buffer, not a copy.  It stays valid through a
        :meth:`prefetch`, which fills the other buffer, but only until the
        next :meth:`step` or ``next_draws`` call: its refill either draws
        into this buffer or swaps it out to be the next prefetch's target.
        """
        cursor = self._cursor
        if cursor == self._block:
            self._refill(active)
            cursor = 0
        m = min(int(limit), self._block - cursor)
        self._cursor = cursor + m
        assert self._buffer is not None
        if active.size == len(self._rngs):
            # Trials only ever leave the batch, so ``active`` is every trial.
            return self._buffer[:, cursor:cursor + m]
        return self._buffer[active, cursor:cursor + m]
