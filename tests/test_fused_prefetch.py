"""The fused ``r = 0`` driver's draw helper thread.

While the native kernel runs one draw block, the driver draws the next one
on a helper thread (:meth:`BlockDrawStepper.prefetch`).  These tests pin:

* **when the helper runs** — the decision function against the process's
  CPU share, including a pool worker's share of ``usable // jobs``;
* **the block budget** — 1 MiB per trial block, still capped at 128 steps;
* **bit-for-bit results** across many buffer swaps, under a shortened
  interpreter switch interval;
* **errors and lifetime** — an exception raised on the helper reaches the
  caller, and no thread outlives the run;
* **the phase timers** ``repro_sim_phase_seconds_total``.
"""

from __future__ import annotations

import itertools
import sys
import threading
from unittest import mock

import numpy as np
import pytest

import repro.compiled
from repro.compiled import driver
from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.exec.executor import SweepExecutor, _init_pool_worker, execution_override
from repro.grid.lattice import Grid2D
from repro.grid.obstacles import ObstacleGrid
from repro.mobility import kernels, make_mobility
from repro.obs.metrics import global_registry

requires_block_driver = pytest.mark.skipif(
    repro.compiled.provider_name() != "cc",
    reason="the fused block driver needs the cc provider",
)

#: (registry name, config kwargs) of every model that draws blocks.
DRAWING_MODELS = (
    ("random_walk", {}),
    ("obstacle_walk", {"domain": None}),
    ("brownian", {"sigma": 1.3}),
)


def _config(name: str, kwargs: dict, side: int, k: int, horizon: int) -> BroadcastConfig:
    if "domain" in kwargs:
        kwargs = {"domain": ObstacleGrid.with_wall(side, gap_width=2)}
    return BroadcastConfig(
        n_nodes=side * side, n_agents=k, radius=0.0, max_steps=horizon,
        mobility=name, mobility_kwargs=kwargs,
    )


def _helper_forced():
    """Patches that start the helper at every block that leaves steps after it."""
    return (
        mock.patch.object(driver, "PREFETCH_MIN_DRAWS", 0),
        mock.patch.object(driver, "cpu_share", lambda: 2),
    )


def _phase_seconds() -> dict[str, float]:
    return {
        dict(metric.labels)["phase"]: metric.value
        for metric in global_registry().collect()
        if metric.name == "repro_sim_phase_seconds_total"
        and dict(metric.labels).get("loop") == "batched_broadcast"
    }


# --------------------------------------------------------------------------- #
# When the helper runs
# --------------------------------------------------------------------------- #
class TestHelperDecision:
    def test_threshold_steps_left_and_spare_cpu(self, monkeypatch):
        monkeypatch.setattr(driver, "_CPU_SHARE", None)
        monkeypatch.setattr(driver, "usable_cpus", lambda: 2)
        assert driver.prefetch_wanted(driver.PREFETCH_MIN_DRAWS, 1)
        assert not driver.prefetch_wanted(driver.PREFETCH_MIN_DRAWS - 1, 1)
        assert not driver.prefetch_wanted(driver.PREFETCH_MIN_DRAWS, 0)
        monkeypatch.setattr(driver, "usable_cpus", lambda: 1)
        assert not driver.prefetch_wanted(driver.PREFETCH_MIN_DRAWS, 1)

    @pytest.mark.parametrize("cpus", [2, 4, 8])
    def test_pool_worker_share(self, monkeypatch, cpus):
        """A worker of ``jobs = usable CPUs`` runs no helper; of ``jobs <= CPUs / 2`` it does."""
        monkeypatch.setattr(driver, "_CPU_SHARE", None)
        monkeypatch.setattr(driver, "usable_cpus", lambda: cpus)
        draws = driver.PREFETCH_MIN_DRAWS
        _init_pool_worker(cpus)
        assert driver.cpu_share() == 1 and not driver.prefetch_wanted(draws, 1)
        for jobs in range(1, cpus // 2 + 1):
            _init_pool_worker(jobs)
            assert driver.cpu_share() == cpus // jobs and driver.prefetch_wanted(draws, 1)
        _init_pool_worker(4 * cpus)
        assert driver.cpu_share() == 1

    @requires_block_driver
    def test_pool_sweep_equals_inline(self):
        """A fused sweep above the draw threshold through a pool of two equals
        ``jobs=1``.  Each worker records its CPU share; where it is 2 or more
        (4+ usable CPUs), the workers run the helper thread in a forked or
        spawned process."""
        assert 2 * kernels.BLOCK_STEPS * 1024 >= driver.PREFETCH_MIN_DRAWS  # units of 2 trials
        config = BroadcastConfig(n_nodes=128 * 128, n_agents=1024, radius=0.0, max_steps=600)
        runs = {}
        for jobs in (1, 2):
            executor = SweepExecutor(jobs=jobs, chunk_size=2)
            with execution_override(executor):
                if jobs == 2:
                    share = executor._pool_instance().submit(driver.cpu_share).result(timeout=60)
                _, results = run_broadcast_replications(config, 4, seed=7, backend="compiled")
            report = executor.execution_report()
            assert report.pool_rebuilds == 0 and not report.degraded
            runs[jobs] = [(r.broadcast_time, r.n_steps, r.informed_curve.tolist()) for r in results]
        print(f"pool worker CPU share at jobs=2: {share} (usable CPUs: {driver.usable_cpus()})")
        assert share == max(1, driver.usable_cpus() // 2)
        assert driver._CPU_SHARE is None  # the parent keeps its affinity count
        assert runs[1] == runs[2]


# --------------------------------------------------------------------------- #
# The block budget
# --------------------------------------------------------------------------- #
class TestBlockBudget:
    @pytest.mark.parametrize(
        "name, k, steps",
        [
            ("random_walk", 2048, 128),
            ("random_walk", 4096, 64),
            ("obstacle_walk", 2048, 128),
            ("obstacle_walk", 4096, 64),
            ("brownian", 512, 128),
            ("brownian", 4096, 16),
        ],
    )
    def test_block_steps(self, name, k, steps):
        grid = Grid2D(64)
        kwargs = {"obstacle_walk": {"domain": ObstacleGrid.with_wall(64, gap_width=2)},
                  "brownian": {"sigma": 1.3}}.get(name, {})
        stepper = make_mobility(name, grid, **kwargs).batch_stepper(
            k, [np.random.default_rng(0)]
        )
        draws = stepper.next_draws(np.arange(1), 1000)
        assert draws.shape[1] == steps
        assert draws.nbytes <= kernels.BLOCK_BYTES

    @requires_block_driver
    @pytest.mark.parametrize("name, kwargs", DRAWING_MODELS)
    def test_many_swaps_bit_for_bit(self, name, kwargs):
        """Blocks of a few steps, so the buffers swap dozens of times per run,
        under a switch interval short enough to interleave the two threads
        at almost every bytecode."""
        config = _config(name, kwargs, side=20, k=16, horizon=400)
        _, serial = run_broadcast_replications(config, 3, seed=11, backend="serial")
        prefetched = []
        real_prefetch = kernels.BlockDrawStepper.prefetch

        def counting(self, active):
            prefetched.append(threading.current_thread() is not threading.main_thread())
            return real_prefetch(self, active)

        interval = sys.getswitchinterval()
        min_draws, share = _helper_forced()
        try:
            sys.setswitchinterval(1e-6)
            with min_draws, share, mock.patch.object(kernels, "BLOCK_BYTES", 512), \
                    mock.patch.object(kernels.BlockDrawStepper, "prefetch", counting):
                _, compiled = run_broadcast_replications(config, 3, seed=11, backend="compiled")
        finally:
            sys.setswitchinterval(interval)
        assert len(prefetched) >= 10 and all(prefetched)
        for a, b in zip(serial, compiled):
            assert (a.broadcast_time, a.n_steps, a.n_informed) == (
                b.broadcast_time, b.n_steps, b.n_informed
            )
            assert np.array_equal(a.informed_curve, b.informed_curve)


# --------------------------------------------------------------------------- #
# Errors, thread lifetime and the phase timers
# --------------------------------------------------------------------------- #
@requires_block_driver
class TestHelperLifetime:
    def test_helper_exception_reaches_the_caller(self):
        """A draw that fails on the helper thread raises from the runner, and
        the helper thread is gone when it does."""
        n_trials = 3
        failed_on = []
        real_init = kernels.BlockDrawStepper.__init__

        def init(self, rngs, draw, *args, **kwargs):
            calls = itertools.count(1)

            def failing(rng, block):
                # Calls 1..n_trials fill the first block on the main thread,
                # and the helper's first prefetch makes the next n_trials.
                if next(calls) == n_trials + 2:
                    failed_on.append(threading.current_thread() is threading.main_thread())
                    raise RuntimeError("draw failed")
                return draw(rng, block)

            real_init(self, rngs, failing, *args, **kwargs)

        config = _config("random_walk", {}, side=30, k=8, horizon=600)
        threads = threading.active_count()
        min_draws, share = _helper_forced()
        with min_draws, share, mock.patch.object(kernels.BlockDrawStepper, "__init__", init):
            with pytest.raises(RuntimeError, match="draw failed"):
                run_broadcast_replications(config, n_trials, seed=5, backend="compiled")
        assert failed_on == [False]
        assert threading.active_count() == threads

    def test_phase_timers(self):
        """Every fused run advances ``kernel`` and ``draws``; only a helper run
        advances ``draw_wait``."""
        config = _config("random_walk", {}, side=30, k=8, horizon=600)
        before = _phase_seconds()
        run_broadcast_replications(config, 2, seed=3, backend="compiled")  # below the threshold
        below = _phase_seconds()
        assert below["kernel"] > before.get("kernel", 0.0)
        assert below["draws"] > before.get("draws", 0.0)
        assert below["draw_wait"] == before.get("draw_wait", 0.0)
        prefetch_seconds = []
        timed_prefetch = driver._timed_prefetch

        def recording(*args):
            prefetch_seconds.append(timed_prefetch(*args))
            return prefetch_seconds[-1]

        min_draws, share = _helper_forced()
        with min_draws, share, mock.patch.object(driver, "_timed_prefetch", recording):
            run_broadcast_replications(config, 2, seed=3, backend="compiled")
        helped = _phase_seconds()
        assert prefetch_seconds
        assert helped["kernel"] > below["kernel"]
        assert helped["draws"] - below["draws"] > sum(prefetch_seconds)  # plus the main thread's
        assert helped["draw_wait"] > below["draw_wait"]
