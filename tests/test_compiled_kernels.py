"""Kernel-level parity and provider-selection tests for :mod:`repro.compiled`.

Two layers below the backend-equivalence property suites:

* **kernel parity** — every provider's apply/flood/labels kernels must equal
  the numpy references exactly (positions bit-for-bit, labels up to the
  partition).  The pure-python provider always runs, so the kernel *logic*
  is pinned even on hosts with neither numba nor a C toolchain; whatever
  compiled provider is active is exercised through the same oracle.
* **provider selection** — the ``REPRO_COMPILED_PROVIDER`` probe: graceful
  unavailability (``auto`` keeps resolving to ``batched``, explicit
  ``compiled`` fails with an actionable error), the one-time no-numba
  warning, and the ``BlockDrawStepper.next_draws`` stream-alignment
  contract the compiled drivers rely on.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiled
from repro.compiled import api, kernels_py
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

    @settings(max_examples=max_examples(20), deadline=None)
    @given(side=st.integers(1, 8), n_trials=st.integers(1, 4),
           k=st.integers(1, 10), n_steps=st.integers(1, 6), seed=seeds)
    def test_flood_r0_matches_numpy_over_steps(
        self, ops, side, n_trials, k, n_steps, seed
    ):
        """Epoch-table flooding ≡ label-based flooding, with table reuse."""
        rng = np.random.default_rng(seed)
        n_nodes = side * side
        table = np.zeros(n_trials * n_nodes, dtype=np.int64)
        informed_c = rng.random((n_trials, k)) < 0.3
        informed_ref = informed_c.copy()
        for step in range(n_steps):
            positions = rng.integers(0, side, size=(n_trials, k, 2))
            counts = ops.flood_r0(
                positions, informed_c, table, side, n_nodes, step + 1
            )
            labels = batched_visibility_labels(positions, 0.0)
            informed_ref = flood_informed_batch(informed_ref, labels)
            assert np.array_equal(informed_c, informed_ref)
            assert np.array_equal(counts, informed_ref.sum(axis=1))


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
            for s in range(draws.shape[1]):
                bulk_pos = apply(bulk_pos, draws[:, s])
                ref_pos = reference.step(ref_pos, active)
                remaining -= 1
            assert np.array_equal(bulk_pos, ref_pos)
            if active.size > 1 and data.draw(st.booleans(), label="compact"):
                active = active[1:]
                ref_pos = ref_pos[1:]
                bulk_pos = bulk_pos[1:]


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
        with pytest.raises(RuntimeError, match=r"\[compiled\]"):
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
            resolve_process_backend,
            run_process_replications,
        )

        provider_env("none")
        process = make_process("frog", n_nodes=49, n_agents=4, max_steps=40)
        assert resolve_process_backend(process, "auto") == "batched"
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

    def test_cc_fallback_warns_once_about_missing_numba(self, provider_env):
        try:
            import numba  # noqa: F401

            pytest.skip("numba is installed; the no-numba warning cannot fire")
        except ImportError:
            pass
        provider_env("auto")
        if repro.compiled.provider_name() != "cc":
            pytest.skip("no C toolchain on this host")
        repro.compiled.reset_probe()
        with pytest.warns(RuntimeWarning, match="bundled"):
            repro.compiled.require_ops()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.compiled.require_ops()  # second call: silent


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
