"""Kernel-level parity and provider-selection tests for :mod:`repro.compiled`.

Two layers below the backend-equivalence property suites:

* **kernel parity** — every provider's apply/labels kernels must equal
  the numpy references exactly (positions bit-for-bit, labels up to the
  partition).  The pure-python provider always runs, so the kernel *logic*
  is pinned even on hosts without a C toolchain; whatever compiled
  provider is active is exercised through the same oracle.
* **provider selection** — the ``REPRO_COMPILED_PROVIDER`` probe: graceful
  unavailability (``auto`` keeps resolving to ``batched``, explicit
  ``compiled`` fails with an actionable error), the cc provider's kernel
  cache, and the ``BlockDrawStepper.next_draws`` stream-alignment
  contract the compiled drivers rely on.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiled
from repro.compiled import _cc, api, kernels_py
from repro.connectivity.batched import batched_visibility_labels
from repro.core.config import BroadcastConfig
from repro.core.protocol import flood_informed_batch
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
from repro.mobility.kernels import (
    BlockDrawStepper,
    apply_lazy_choices,
    apply_masked_choices,
)

from strategies import max_examples, seeds


def _provider_list() -> list:
    """The pure-python reference ops plus the active compiled provider."""
    providers = [api.LoopOps(kernels_py, "python")]
    if repro.compiled.available():
        providers.append(repro.compiled.require_ops())
    return providers


_PROVIDERS = _provider_list()


@pytest.fixture(params=_PROVIDERS, ids=[ops.name for ops in _PROVIDERS], scope="module")
def ops(request):
    return request.param


def min_member_labels(positions: np.ndarray, radius: float) -> np.ndarray:
    """The labels contract: ``trial * k + min component member``.

    That is each component's minimum flat agent index, over the partition
    of the numpy reference (components never cross trials).
    """
    dense = batched_visibility_labels(positions, radius).ravel()
    flat_index = np.arange(dense.size)
    minimum = np.full(dense.max() + 1, dense.size)
    np.minimum.at(minimum, dense, flat_index)
    return minimum[dense].reshape(positions.shape[:2])


# --------------------------------------------------------------------------- #
# Kernel parity against the numpy references
# --------------------------------------------------------------------------- #
class TestKernelParity:
    @settings(max_examples=max_examples(25), deadline=None)
    @given(side=st.integers(1, 12), n_trials=st.integers(1, 4),
           k=st.integers(1, 12), seed=seeds)
    def test_apply_lazy_matches_numpy(self, ops, side, n_trials, k, seed):
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, side, size=(n_trials, k, 2))
        choice = rng.integers(0, 5, size=(n_trials, k))
        expected = apply_lazy_choices(Grid2D(side), positions, choice)
        assert np.array_equal(ops.apply_lazy(side, positions, choice), expected)

    @settings(max_examples=max_examples(25), deadline=None)
    @given(side=st.integers(1, 10), n_trials=st.integers(1, 4),
           k=st.integers(1, 10), seed=seeds)
    def test_apply_masked_matches_numpy(self, ops, side, n_trials, k, seed):
        rng = np.random.default_rng(seed)
        free_mask = rng.random((side, side)) < 0.7
        free_mask[0, 0] = True
        positions = rng.integers(0, side, size=(n_trials, k, 2))
        choice = rng.integers(0, 5, size=(n_trials, k))
        expected = apply_masked_choices(side, free_mask, positions, choice)
        assert np.array_equal(
            ops.apply_masked(side, free_mask, positions, choice), expected
        )

    @settings(max_examples=max_examples(25), deadline=None)
    @given(side=st.integers(1, 12), n_trials=st.integers(1, 4),
           k=st.integers(1, 10), seed=seeds)
    def test_apply_brownian_matches_numpy(self, ops, side, n_trials, k, seed):
        model = make_mobility("brownian", Grid2D(side), sigma=1.5)
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, side, size=(n_trials, k, 2))
        displacement = rng.normal(0.0, 1.5, size=(n_trials, k, 2))
        got = ops.apply_brownian(side, positions, displacement)
        for trial in range(n_trials):
            assert np.array_equal(
                got[trial], model._apply(positions[trial], displacement[trial])
            )

    @settings(max_examples=max_examples(25), deadline=None)
    @given(n_trials=st.integers(1, 4), k=st.integers(1, 300),
           extent=st.sampled_from([3, 9, 40, 300, 3000]),
           radius=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0]),
           seed=seeds)
    def test_labels_batch_matches_numpy_partition(
        self, ops, n_trials, k, extent, radius, seed
    ):
        """Exact labels on sparse and dense inputs.

        Coordinates up to 3000 put cell keys above 2^16, so the radix sort
        runs several digit passes; k up to 300 crosses the small-input
        insertion-sort cutoff.
        """
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, extent, size=(n_trials, k, 2))
        got = ops.labels_batch(positions, radius)
        assert np.array_equal(got, min_member_labels(positions, radius))
        reference = api.LoopOps(kernels_py, "python").labels_batch(positions, radius)
        assert np.array_equal(got, reference)

    @settings(max_examples=max_examples(25), deadline=None)
    @given(n_trials=st.integers(1, 4), k=st.integers(1, 64),
           spacing=st.sampled_from([1, 256]), seed=seeds)
    def test_labels_batch_r0_ties_label_by_min_member(self, ops, n_trials, k, spacing, seed):
        """At r = 0 a co-located run takes its first sorted member's index,
        so both sorts (insertion below the cutoff, radix above) must keep
        equal keys in agent order.  A spacing of 256 makes every key's low
        digit 0: the radix sort skips that pass and must still run the
        higher ones."""
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, 3, size=(n_trials, k, 2)) * spacing
        got = ops.labels_batch(positions, 0.0)
        assert np.array_equal(got, min_member_labels(positions, 0.0))


# --------------------------------------------------------------------------- #
# Input kinds: what a provider method converts before its kernel reads it
# --------------------------------------------------------------------------- #
_BLOCK_OPS = next((ops for ops in _PROVIDERS if ops.has_block_driver), None)

#: Input kinds a provider method accepts besides a C-contiguous array of the
#: kernel's dtype ("dtype" swaps int64 <-> int32, float64 -> float32, bool -> uint8).
_KINDS = ("read-only", "non-contiguous", "dtype")
_OTHER_DTYPE = {
    np.dtype(np.int64): np.int32,
    np.dtype(np.int32): np.int64,
    np.dtype(np.float64): np.float32,
    np.dtype(np.bool_): np.uint8,
}


def as_kind(arr: np.ndarray, kind: str) -> np.ndarray:
    """``arr``'s values as an input of ``kind`` (see :data:`_KINDS`)."""
    if kind == "read-only":
        out = arr.copy()
        out.flags.writeable = False
        return out
    if kind == "non-contiguous":
        wide = np.zeros(arr.shape + (2,), dtype=arr.dtype)
        wide[..., 1] = arr
        return wide[..., 1]
    return arr.astype(_OTHER_DTYPE[arr.dtype])


def contiguous(arr: np.ndarray, dtype) -> np.ndarray:
    """The contiguous copy of ``arr``'s values in the kernel's own dtype."""
    return np.array(arr, dtype=dtype, order="C")


class TestInputKinds:
    """Read-only, non-contiguous, other-dtype and empty inputs give what the
    contiguous copy of the same values gives, for every entry point."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_apply_lazy(self, ops, kind):
        rng = np.random.default_rng(11)
        positions = as_kind(rng.integers(0, 6, size=(3, 7, 2)), kind)
        choice = as_kind(rng.integers(0, 5, size=(3, 7), dtype=np.int32), kind)
        got = ops.apply_lazy(6, positions, choice)
        expected = ops.apply_lazy(6, contiguous(positions, np.int64), contiguous(choice, np.int32))
        assert got.dtype == np.int64 and np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_apply_masked(self, ops, kind):
        rng = np.random.default_rng(12)
        free_mask = as_kind(rng.random((6, 6)) < 0.6, kind)
        positions = as_kind(rng.integers(0, 6, size=(3, 7, 2)), kind)
        choice = as_kind(rng.integers(0, 5, size=(3, 7), dtype=np.int32), kind)
        got = ops.apply_masked(6, free_mask, positions, choice)
        expected = ops.apply_masked(
            6,
            contiguous(free_mask, np.uint8),
            contiguous(positions, np.int64),
            contiguous(choice, np.int32),
        )
        assert np.array_equal(got, expected)
        assert np.array_equal(
            got, apply_masked_choices(6, contiguous(free_mask, bool), positions, choice)
        )

    @pytest.mark.parametrize("kind", _KINDS)
    def test_apply_brownian(self, ops, kind):
        rng = np.random.default_rng(13)
        positions = as_kind(rng.integers(0, 6, size=(3, 7, 2)), kind)
        displacement = as_kind(rng.normal(0.0, 1.5, size=(3, 7, 2)), kind)
        got = ops.apply_brownian(6, positions, displacement)
        expected = ops.apply_brownian(
            6, contiguous(positions, np.int64), contiguous(displacement, np.float64)
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.5])
    def test_labels_batch(self, ops, kind, radius):
        rng = np.random.default_rng(14)
        positions = as_kind(rng.integers(0, 9, size=(3, 40, 2)), kind)
        got = ops.labels_batch(positions, radius)
        reference = api.LoopOps(kernels_py, "python").labels_batch(
            contiguous(positions, np.int64), radius
        )
        assert np.array_equal(got, ops.labels_batch(contiguous(positions, np.int64), radius))
        assert np.array_equal(got, reference)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_empty_batches(self, ops, shape):
        positions = np.zeros(shape + (2,), dtype=np.int64)
        choice = np.zeros(shape, dtype=np.int32)
        free_mask = np.ones((4, 4), dtype=bool)
        for got in (
            ops.apply_lazy(4, positions, choice),
            ops.apply_masked(4, free_mask, positions, choice),
            ops.apply_brownian(4, positions, np.zeros(shape + (2,))),
        ):
            assert got.shape == shape + (2,) and got.dtype == np.int64
        for radius in (0.0, 2.0):
            labels = ops.labels_batch(positions, radius)
            assert labels.shape == shape and labels.dtype == np.int64

    def test_accelerated_obstacle_stepper_converts_its_mask_once(self, ops):
        """The compiled obstacle apply and the fused driver read the spec's
        mask as uint8; ``accelerate_stepper`` converts the model's read-only
        bool mask once, and the bound apply still equals the numpy one."""
        rng = np.random.default_rng(17)
        free_mask = rng.random((6, 6)) < 0.6
        free_mask.flags.writeable = False
        stepper = BlockDrawStepper([], None, None, kernel=("masked", 6, free_mask))
        assert api.accelerate_stepper(ops, stepper) is stepper
        mask = stepper.kernel[2]
        assert mask.dtype == np.uint8 and mask.flags.c_contiguous and mask.flags.writeable
        positions = rng.integers(0, 6, size=(3, 7, 2))
        choice = rng.integers(0, 5, size=(3, 7), dtype=np.int32)
        assert np.array_equal(
            stepper._apply(positions, choice),
            apply_masked_choices(6, free_mask, positions, choice),
        )

    def test_labels_batch_is_reentrant(self):
        """Two threads labelling different batches at once (ctypes releases
        the GIL around the call) each get their serial result: the kernel's
        scratch belongs to the call."""
        compiled = [ops for ops in _PROVIDERS if ops.name != "python"]
        if not compiled:
            pytest.skip("no compiled provider on this host")
        ops = compiled[0]
        rng = np.random.default_rng(15)
        # More threads than the host's CPUs, on batches of different sizes.
        batches = [
            rng.integers(0, extent, size=(8, k, 2))
            for extent, k in ((60, 400), (120, 300), (250, 500), (400, 200))
        ]
        serial = [ops.labels_batch(batch, 3.0) for batch in batches]
        start = threading.Barrier(len(batches))

        def label_repeatedly(batch: np.ndarray) -> list:
            start.wait(timeout=60)
            return [ops.labels_batch(batch, 3.0) for _ in range(25)]

        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            results = list(pool.map(label_repeatedly, batches, timeout=120))
        for runs, expected in zip(results, serial):
            assert all(np.array_equal(labels, expected) for labels in runs)


def _run_block(ops, kernel, side, draws, positions, informed, steps):
    """One ``broadcast_r0_block`` call on copies; returns every output."""
    positions, informed = positions.copy(), informed.copy()
    marks = np.zeros(side * side, dtype=np.uint8)
    done_at = np.full(positions.shape[0], -1, dtype=np.int64)
    counts = np.full((steps, positions.shape[0]), -1, dtype=np.int64)
    ran = ops.broadcast_r0_block(kernel, side, draws, positions, informed, marks, done_at, counts)
    return ran, positions, informed, done_at, counts, marks


@pytest.mark.skipif(_BLOCK_OPS is None, reason="no provider with the fused block driver")
class TestBlockInputKinds:
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("walk", ["lazy", "masked", "brownian"])
    def test_draws_and_mask(self, kind, walk):
        side, n_trials, k, steps = 5, 3, 6, 9
        rng = np.random.default_rng(16)
        free_mask = rng.random((side, side)) < 0.7
        if walk == "brownian":
            draws = rng.normal(0.0, 1.3, size=(n_trials, steps, k, 2))
            dtype = np.float64
        else:
            draws = rng.integers(0, 5, size=(n_trials, steps, k), dtype=np.int32)
            dtype = np.int32
        positions = rng.integers(0, side, size=(n_trials, k, 2))
        informed = rng.random((n_trials, k)) < 0.3
        mask = as_kind(free_mask, kind)
        draws = as_kind(draws, kind)
        spec = {
            "lazy": ("lazy", side),
            "masked": ("masked", side, mask),
            "brownian": ("brownian", side),
        }[walk]
        plain = ("masked", side, contiguous(mask, np.uint8)) if walk == "masked" else spec
        got = _run_block(_BLOCK_OPS, spec, side, draws, positions, informed, steps)
        expected = _run_block(
            _BLOCK_OPS, plain, side, contiguous(draws, dtype), positions, informed, steps
        )
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_trials, k", [(0, 4), (3, 0)])
    def test_empty_batches(self, n_trials, k):
        side, steps = 4, 5
        draws = np.zeros((n_trials, steps, k), dtype=np.int32)
        positions = np.zeros((n_trials, k, 2), dtype=np.int64)
        informed = np.zeros((n_trials, k), dtype=bool)
        ran, _, _, done_at, counts, _ = _run_block(
            _BLOCK_OPS, ("lazy", side), side, draws, positions, informed, steps
        )
        # With no agents every trial is complete at its first step.
        assert ran == (1 if n_trials else 0)
        assert np.array_equal(done_at, np.zeros(n_trials, dtype=np.int64))
        assert np.array_equal(counts[:1], np.zeros((1, n_trials), dtype=np.int64))

    def test_rejects_arrays_the_kernels_would_misread(self):
        """Sizes, dtypes and layouts the C side cannot read raise before any call."""
        ops = _BLOCK_OPS
        positions = np.zeros((2, 3, 2), dtype=np.int64)
        informed = np.zeros((2, 3), dtype=bool)
        done_at = np.full(2, -1, dtype=np.int64)

        def block(p=positions, i=informed, d=done_at, kernel=("lazy", 4)):
            draws = np.zeros((2, 4, 3), dtype=np.int32)
            counts = np.full((4, 2), -1, dtype=np.int64)
            marks = np.zeros(16, dtype=np.uint8)
            return ops.broadcast_r0_block(kernel, 4, draws, p, i, marks, d, counts)

        rejected = [
            lambda: ops.apply_lazy(4, positions, np.zeros((2, 2))),
            lambda: ops.apply_masked(4, np.ones((3, 3), bool), positions, np.zeros((2, 3))),
            lambda: ops.apply_brownian(4, positions, np.zeros((2, 3))),
            lambda: ops.labels_batch(np.zeros((2, 3)), 1.0),
            lambda: block(p=positions.astype(np.int32)),
            lambda: block(p=np.zeros((2, 3, 4), dtype=np.int64)[..., ::2]),
            lambda: block(i=np.zeros((2, 6), dtype=bool)[:, ::2]),
            lambda: block(d=np.full(3, -1, dtype=np.int64)),
            lambda: block(kernel=("masked", 4, np.ones((3, 3), bool))),
        ]
        for call in rejected:
            with pytest.raises(ValueError):
                call()
        assert block() == 4  # the same call on well-formed arrays runs


# --------------------------------------------------------------------------- #
# The fused r = 0 block kernel against per-step reference kernels
# --------------------------------------------------------------------------- #


@pytest.mark.skipif(_BLOCK_OPS is None, reason="no provider with the fused block driver")
class TestFusedBlockKernel:
    @settings(max_examples=max_examples(40), deadline=None)
    @given(side=st.integers(1, 9), n_trials=st.integers(1, 4), k=st.integers(1, 8),
           kind=st.sampled_from(["static", "lazy", "masked", "brownian"]),
           block=st.integers(1, 12), data=st.data(), seed=seeds)
    def test_block_equals_per_step_reference(self, side, n_trials, k, kind, block, data, seed):
        """A strided view of a draw block, trial-major over shared marks,
        equals the labels flood and the python provider's apply kernels,
        step by step."""
        rng = np.random.default_rng(seed)
        free_mask = rng.random((side, side)) < 0.8
        kernel = {
            "static": None,
            "lazy": ("lazy", side),
            "masked": ("masked", side, free_mask),
            "brownian": ("brownian", side),
        }[kind]
        if kind == "brownian":
            buffer = rng.normal(0.0, 1.3, size=(n_trials, block, k, 2))
        else:
            dtype = data.draw(st.sampled_from([np.int32, np.int64]), label="choice dtype")
            buffer = rng.integers(0, 5, size=(n_trials, block, k), dtype=dtype)
        start = data.draw(st.integers(0, block - 1), label="cursor")
        steps = data.draw(st.integers(1, block - start), label="steps")
        draws = None if kernel is None else buffer[:, start:start + steps]
        positions = rng.integers(0, side, size=(n_trials, k, 2))
        informed = rng.random((n_trials, k)) < 0.3

        reference = None if kernel is None else api.bind_apply(
            api.LoopOps(kernels_py, "python"), kernel
        )
        ref_pos, ref_inf = positions.copy(), informed.copy()
        ref_done = np.full(n_trials, -1, dtype=np.int64)
        ref_counts = np.full((steps, n_trials), -1, dtype=np.int64)
        for a in range(n_trials):
            for s in range(steps):
                labels = batched_visibility_labels(ref_pos[a:a + 1], 0.0)
                ref_inf[a:a + 1] = flood_informed_batch(ref_inf[a:a + 1], labels)
                ref_counts[s, a] = ref_inf[a].sum()
                if ref_counts[s, a] == k:
                    ref_done[a] = s
                    break
                if reference is not None:
                    ref_pos[a:a + 1] = reference(ref_pos[a:a + 1], draws[a:a + 1, s])

        marks = np.zeros(side * side, dtype=np.uint8)
        done_at = np.full(n_trials, -1, dtype=np.int64)
        counts = np.full((steps, n_trials), -1, dtype=np.int64)
        ran = _BLOCK_OPS.broadcast_r0_block(
            kernel, side, draws, positions, informed, marks, done_at, counts
        )
        assert ran == max(d + 1 if d >= 0 else steps for d in ref_done)
        assert np.array_equal(positions, ref_pos)
        assert np.array_equal(informed, ref_inf)
        assert np.array_equal(done_at, ref_done)
        assert np.array_equal(counts, ref_counts)
        assert not marks.any()


# --------------------------------------------------------------------------- #
# next_draws: the bulk-draw contract the fused drivers rely on
# --------------------------------------------------------------------------- #
class TestNextDraws:
    @settings(max_examples=max_examples(20), deadline=None)
    @given(seed=seeds, block=st.integers(2, 9), n_steps=st.integers(1, 30),
           data=st.data())
    def test_bulk_draws_equal_per_step_draws(self, seed, block, n_steps, data):
        """Interleaved ``next_draws``/``step`` consumption matches pure
        stepping draw for draw, including across refills and compaction."""
        side, k, n_trials = 7, 4, 3

        def draw(rng, n):
            return rng.integers(0, 5, size=(n, k))

        def apply(positions, choices):
            return apply_lazy_choices(Grid2D(side), positions, choices)

        def make_stepper():
            rngs = [np.random.default_rng([seed, t]) for t in range(n_trials)]
            return BlockDrawStepper(rngs, draw, apply, block=block)

        reference = make_stepper()
        bulk = make_stepper()
        positions = np.zeros((n_trials, k, 2), dtype=np.int64)
        ref_pos = positions.copy()
        bulk_pos = positions.copy()
        active = np.arange(n_trials)
        remaining = n_steps
        while remaining:
            limit = data.draw(st.integers(1, remaining), label="chunk limit")
            draws = bulk.next_draws(active, limit)
            assert 1 <= draws.shape[1] <= limit
            # Copy-free while every trial is active; a copy once compacted.
            assert np.shares_memory(draws, bulk._buffer) == (active.size == n_trials)
            for s in range(draws.shape[1]):
                bulk_pos = apply(bulk_pos, draws[:, s])
                ref_pos = reference.step(ref_pos, active)
                remaining -= 1
            assert np.array_equal(bulk_pos, ref_pos)
            if active.size > 1 and data.draw(st.booleans(), label="compact"):
                active = active[1:]
                ref_pos = ref_pos[1:]
                bulk_pos = bulk_pos[1:]

    @settings(max_examples=max_examples(20), deadline=None)
    @given(seed=seeds, block=st.integers(1, 6), n_steps=st.integers(1, 30),
           data=st.data())
    def test_prefetched_blocks_equal_per_step_draws(self, seed, block, n_steps, data):
        """Blocks drawn ahead by ``prefetch`` and swapped in by the next
        ``next_draws`` match pure stepping, also when trials leave between
        the prefetch and the swap."""
        side, k, n_trials = 7, 4, 4

        def draw(rng, n):
            return rng.integers(0, 5, size=(n, k), dtype=np.int32)

        def apply(positions, choices):
            return apply_lazy_choices(Grid2D(side), positions, choices)

        def make_stepper():
            rngs = [np.random.default_rng([seed, t]) for t in range(n_trials)]
            return BlockDrawStepper(rngs, draw, apply, block=block)

        reference = make_stepper()
        bulk = make_stepper()
        ref_pos = np.zeros((n_trials, k, 2), dtype=np.int64)
        bulk_pos = ref_pos.copy()
        active = np.arange(n_trials)
        remaining = n_steps
        while remaining:
            draws = bulk.next_draws(active, remaining)  # the rest of the block
            for s in range(draws.shape[1]):
                bulk_pos = apply(bulk_pos, draws[:, s])
                ref_pos = reference.step(ref_pos, active)
                remaining -= 1
            assert np.array_equal(bulk_pos, ref_pos)
            if remaining and data.draw(st.booleans(), label="prefetch"):
                bulk.prefetch(active)
                with pytest.raises(RuntimeError, match="not been used"):
                    bulk.prefetch(active)
            if active.size > 1 and data.draw(st.booleans(), label="leave"):
                rows = sorted(data.draw(
                    st.sets(st.integers(0, active.size - 1), min_size=1, max_size=active.size - 1),
                    label="rows kept",
                ))
                active, ref_pos, bulk_pos = active[rows], ref_pos[rows], bulk_pos[rows]

    def test_swap_refuses_a_trial_the_prefetch_skipped(self):
        rngs = [np.random.default_rng(t) for t in range(3)]
        stepper = BlockDrawStepper(rngs, lambda rng, n: rng.integers(0, 5, (n, 2)), None, block=2)
        stepper.next_draws(np.arange(3), 2)
        stepper.prefetch(np.arange(2))
        with pytest.raises(RuntimeError, match="lacks rows"):
            stepper.next_draws(np.arange(3), 2)


# --------------------------------------------------------------------------- #
# Provider selection and graceful fallback
# --------------------------------------------------------------------------- #
@pytest.fixture
def provider_env(monkeypatch):
    """Pin ``REPRO_COMPILED_PROVIDER`` and re-probe; restores on teardown."""

    def pin(value: str) -> None:
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", value)
        repro.compiled.reset_probe()

    yield pin
    monkeypatch.undo()
    repro.compiled.reset_probe()


class TestProviderSelection:
    def test_none_pins_backend_unavailable(self, provider_env):
        from repro.core.runner import resolve_backend, run_broadcast_replications

        provider_env("none")
        assert not repro.compiled.available()
        assert repro.compiled.provider_name() is None
        with pytest.raises(RuntimeError, match="REPRO_COMPILED_PROVIDER=none"):
            repro.compiled.require_ops()
        # ``auto`` quietly keeps resolving to batched ...
        config = BroadcastConfig(n_nodes=49, n_agents=4, max_steps=30)
        assert resolve_backend(config) == "batched"
        summary, _ = run_broadcast_replications(config, 2, seed=0)
        assert summary.n_replications == 2
        # ... while an explicit request fails loudly.
        with pytest.raises(RuntimeError, match="no compiled provider"):
            run_broadcast_replications(config, 2, seed=0, backend="compiled")

    def test_none_pins_process_backend_to_batched(self, provider_env):
        from repro.dissemination.kernels import (
            make_process,
            resolve_process_pair,
            run_process_replications,
        )

        provider_env("none")
        process = make_process("frog", n_nodes=49, n_agents=4, max_steps=40)
        assert resolve_process_pair(process, "auto")[0] == "batched"
        summary, _ = run_process_replications(process, 2, seed=0)
        assert summary.n_replications == 2
        with pytest.raises(RuntimeError, match="no compiled provider"):
            run_process_replications(process, 2, seed=0, backend="compiled")

    def test_python_provider_is_opt_in_only(self, provider_env):
        provider_env("python")
        assert repro.compiled.provider_name() == "python"
        ops = repro.compiled.require_ops()
        assert not ops.has_block_driver

    def test_invalid_provider_name_rejected(self, provider_env):
        provider_env("gpu")
        assert not repro.compiled.available()  # never raises
        with pytest.raises(ValueError, match="REPRO_COMPILED_PROVIDER"):
            repro.compiled.require_ops()


@pytest.mark.skipif(
    repro.compiled.provider_name() != "cc", reason="no C toolchain on this host"
)
class TestCcKernelCache:
    """Stale builds of other source hashes are pruned; builds in use are not."""

    TWO_DAYS = 2 * 24 * 3600

    def _file(self, directory, name, age=0.0):
        path = directory / name
        path.write_text("stand-in")
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def test_a_build_prunes_other_hashes_unused_for_a_day(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
        stale = [
            self._file(tmp_path, f"repro_kernels_0123456789abcdef.{ext}", self.TWO_DAYS)
            for ext in ("c", "so")
        ]
        fresh = [
            self._file(tmp_path, f"repro_kernels_fedcba9876543210.{ext}") for ext in ("c", "so")
        ]
        # A concurrent builder's mkstemp output, however old, is not a cached build.
        building = self._file(tmp_path, "tmpq8z1w3rk.so", self.TWO_DAYS)
        _cc._build_library()
        assert not any(path.exists() for path in stale)
        assert all(path.exists() for path in fresh) and building.exists()
        current = _cc._library_path()
        assert current.exists() and current.with_suffix(".c").exists()

        # A load refreshes the build's mtime, so a tree in use never looks stale.
        stamp = time.time() - self.TWO_DAYS
        os.utime(current, (stamp, stamp))
        _cc._build_library()
        assert time.time() - current.stat().st_mtime < 3600

    def test_a_build_removed_before_dlopen_is_built_again(self, tmp_path, monkeypatch):
        built = _cc._library_path()
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
        shutil.copy(built, _cc._library_path())
        real_cdll = ctypes.CDLL
        loads = []

        def pruned_first(name, *args, **kwargs):
            if not loads:
                os.unlink(name)  # a concurrent prune wins the race to dlopen
            loads.append(name)
            return real_cdll(name, *args, **kwargs)

        monkeypatch.setattr(_cc.ctypes, "CDLL", pruned_first)
        assert _cc._build_library() is not None
        assert len(loads) == 2 and _cc._library_path().exists()


# --------------------------------------------------------------------------- #
# Compiled connectivity engine plumbing
# --------------------------------------------------------------------------- #
class TestCompiledDeltaEngine:
    def _ops(self):
        if not repro.compiled.available():
            pytest.skip("no repro.compiled provider on this host")
        return repro.compiled.require_ops()

    def test_requires_positive_radius(self):
        from repro.compiled.engine import CompiledDeltaEngine

        with pytest.raises(ValueError, match="radius"):
            CompiledDeltaEngine(self._ops(), 4, 0.0)
