"""The benchmark's workloads: inputs made from a seed, one pass of operations.

Each workload is a closed loop driven by one caller: :meth:`Workload.operations`
lists pass ``index``'s operations, the caller runs them in order, and every
operation returns a digest of its output that the benchmark compares with
the numpy reference path (``REPRO_COMPILED_PROVIDER=none``,
``connectivity="recompute"``, no executor) for the same seed.

``repro`` is imported only inside :meth:`Workload.prepare`, so ``run.py``
reads this table without importing the program under test.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from functools import partial
from typing import Any, Callable

#: ``suite-tiny``: a pass runs E1..E17 for ``SUITE_SEEDS`` seeds, and the
#: passes of a run cycle through ``SUITE_VARIANTS`` such seed sets.  The
#: tiny-scale experiments stop at random completion times, so one seed's
#: time moves 14% (interquartile) with the seed.  Short passes over
#: different seeds give a run both many passes and eight seeds.
SUITE_SEEDS = 2
SUITE_VARIANTS = 4

#: ``headline-r0``: n = 512^2 nodes at three agent counts.  Every trial runs
#: exactly ``max_steps`` steps (about a quarter of the smallest broadcast
#: time measured), so the work of a pass does not depend on the seed.
HEADLINE_POINTS = ((262144, 256, 0.0, 12000), (262144, 1024, 0.0, 5500), (262144, 4096, 0.0, 2400))
HEADLINE_REPLICATIONS = 4

#: ``sparse-radius``: n = 10^4, k = 100 (r_c = 10), radii below r_c, each
#: capped at about half its smallest measured broadcast time.
SPARSE_POINTS = (
    (10000, 100, 0.5, 1280),
    (10000, 100, 1.0, 880),
    (10000, 100, 2.0, 880),
    (10000, 100, 4.0, 560),
    (10000, 100, 6.0, 300),
)
SPARSE_REPLICATIONS = 8

#: ``sweep-dispatch``: single-trial units of tiny r = 0 broadcasts, run
#: inline: over a pool of two workers (three busy processes on two CPUs) the
#: pass time spread 27-32% between runs.  Twenty resume passes make reads
#: about half of a pass.
SWEEP_NODES = 256
SWEEP_AGENTS = tuple(range(8, 24))
SWEEP_REPLICATIONS = 8
SWEEP_RESUMES = 20
SWEEP_JOBS = 1


def results_digest(results: list[Any]) -> str:
    """Digest of each trial's ``broadcast_time``, ``n_steps`` and ``informed_curve``."""
    import numpy as np

    digest = hashlib.sha256()
    for result in results:
        digest.update(np.asarray([result.broadcast_time, result.n_steps], dtype=np.int64).tobytes())
        digest.update(np.asarray(result.informed_curve, dtype=np.int64).tobytes())
    return digest.hexdigest()


def agent_steps(results: list[Any]) -> int:
    """Sum over trials of ``n_steps * k``."""
    return sum(int(result.n_steps) * int(result.config.n_agents) for result in results)


class Workload:
    """One workload: ``prepare`` builds the inputs, ``operations`` lists a pass."""

    name = ""
    #: Passes ``index`` and ``index + variants`` run the same operations.
    variants = 1

    def prepare(self, seed: int, toy: bool, reference: bool) -> None:
        raise NotImplementedError

    def operations(self, index: int) -> list[tuple[str, Callable[[], dict[str, Any]]]]:
        """Pass ``index``: ``(name, call)`` pairs; each call returns at least a digest."""
        raise NotImplementedError

    def reference(self) -> dict[str, str]:
        """Digest per operation name on the reference path, for every variant."""
        digests = {}
        for index in range(self.variants):
            digests.update({name: call()["digest"] for name, call in self.operations(index)})
            self.finish_pass()
        return digests

    def finish_pass(self) -> None:
        """Untimed clean-up after a pass."""

    def close(self) -> None:
        """Release what ``prepare`` created."""


class SuiteTiny(Workload):
    """E1..E17 through ``run_experiment`` at ``tiny`` scale, for several seeds."""

    name = "suite-tiny"

    def prepare(self, seed: int, toy: bool, reference: bool) -> None:
        import repro.compiled
        from repro import experiments

        repro.compiled.available()
        self._experiments = experiments
        self.ids = ["E1", "E12"] if toy else experiments.available_experiments()
        self.variants = 1 if toy else SUITE_VARIANTS
        per_pass = 1 if toy else SUITE_SEEDS
        self.seeds = [
            [seed * 1000 + variant * per_pass + j for j in range(per_pass)]
            for variant in range(self.variants)
        ]
        self.connectivity = "recompute" if reference else None
        self.resolved = {
            "backend": "auto",
            "connectivity": self.connectivity or "auto",
            "provider": repro.compiled.provider_name() or "none",
            "dispatch": "none",
        }

    def operations(self, index: int) -> list[tuple[str, Callable[[], dict[str, Any]]]]:
        return [
            (f"{eid}@{seed}", partial(self._run, eid, seed))
            for seed in self.seeds[index % self.variants]
            for eid in self.ids
        ]

    def _run(self, eid: str, seed: int) -> dict[str, Any]:
        report = self._experiments.run_experiment(
            eid, scale="tiny", seed=seed, connectivity=self.connectivity
        )
        digest = hashlib.sha256(report.render().encode("utf-8")).hexdigest()
        return {"digest": digest, "resolved": self.resolved}


class BroadcastPoints(Workload):
    """``run_broadcast_replications`` at fixed sweep points under default ``auto``."""

    def __init__(self, name: str, points: tuple, replications: int, toy_points: tuple) -> None:
        self.name = name
        self._points = points
        self._replications = replications
        self._toy_points = toy_points

    def prepare(self, seed: int, toy: bool, reference: bool) -> None:
        import repro.compiled
        from repro.core import BroadcastConfig, runner

        repro.compiled.available()
        self._runner = runner
        points = self._toy_points if toy else self._points
        self.replications = 2 if toy else self._replications
        self.configs = [
            BroadcastConfig(n_nodes=n, n_agents=k, radius=r, max_steps=steps)
            for n, k, r, steps in points
        ]
        self.labels = [f"n={c.n_nodes},k={c.n_agents},r={c.radius:g}" for c in self.configs]
        self.seeds = [seed * 1000 + i for i in range(len(self.configs))]
        self.connectivity = "recompute" if reference else None
        provider = repro.compiled.provider_name() or "none"
        self.resolved = [
            {
                "backend": runner.resolve_backend(config),
                "connectivity": runner.resolve_connectivity(config, self.connectivity),
                "provider": provider,
                "dispatch": "none",
            }
            for config in self.configs
        ]

    def operations(self, index: int) -> list[tuple[str, Callable[[], dict[str, Any]]]]:
        return [(label, partial(self._run, i)) for i, label in enumerate(self.labels)]

    def _run(self, index: int) -> dict[str, Any]:
        _summary, results = self._runner.run_broadcast_replications(
            self.configs[index],
            self.replications,
            seed=self.seeds[index],
            connectivity=self.connectivity,
        )
        return {
            "digest": results_digest(results),
            "agent_steps": agent_steps(results),
            "resolved": self.resolved[index],
        }


class SweepDispatch(Workload):
    """A resumable sweep of single-trial units through ``SweepExecutor``.

    A pass is one fresh dispatch into an empty store (lease claim/release,
    ``put``) followed by resume passes, each from a fresh executor on that
    store (``store.get`` and ``unit_key``).
    """

    name = "sweep-dispatch"

    def prepare(self, seed: int, toy: bool, reference: bool) -> None:
        import repro.compiled
        from repro.analysis.sweep import ParameterSweep
        from repro.core import BroadcastConfig, runner
        from repro.exec import SweepExecutor

        repro.compiled.available()
        self._config_class = BroadcastConfig
        self._executor_class = SweepExecutor
        self._runner = runner
        self.seed = seed
        nodes, agents = (64, (2, 3)) if toy else (SWEEP_NODES, SWEEP_AGENTS)
        self.replications = 4 if toy else SWEEP_REPLICATIONS
        self.resumes = 1 if toy else SWEEP_RESUMES
        self.sweep = ParameterSweep("n_agents", list(agents), {"n_nodes": nodes, "radius": 0.0})
        self._stores: list[str] = []
        first = self.config(next(iter(self.sweep)))
        self.resolved = {
            "backend": runner.resolve_backend(first),
            "connectivity": runner.resolve_connectivity(first),
            "provider": repro.compiled.provider_name() or "none",
            "dispatch": "none",
        }
        if not reference:
            # The store belongs on tmpfs, to keep the shared disk's latency out
            # of the measurement, but the benchmark writes only inside its own
            # directory: fsync returns at once, as it does on tmpfs.
            os.fsync = _fsync_as_on_tmpfs
            # Executor construction is part of set-up.
            store = tempfile.mkdtemp(prefix="setup-store-")
            with SweepExecutor(jobs=SWEEP_JOBS, chunk_size=1, store=store) as executor:
                self.resolved["dispatch"] = executor.dispatch
            self._stores.append(store)

    def config(self, point: Any) -> Any:
        return self._config_class(**point.as_kwargs())

    def operations(self, index: int) -> list[tuple[str, Callable[[], dict[str, Any]]]]:
        # Flush what earlier passes left for the disk (the removed stores),
        # so that writing it back does not overlap the timed pass.
        os.sync()
        store = tempfile.mkdtemp(prefix="store-")
        self._stores.append(store)
        ops = [("fresh", partial(self._dispatch, store, True))]
        ops += [
            (f"resume{i}", partial(self._dispatch, store, False))
            for i in range(1, self.resumes + 1)
        ]
        return ops

    def _dispatch(self, store: str, fresh: bool) -> dict[str, Any]:
        with self._executor_class(jobs=SWEEP_JOBS, chunk_size=1, store=store) as executor:
            points = executor.run_sweep(self.sweep, self.config, self.replications, seed=self.seed)
            report = executor.execution_report()
            busy = executor.metrics.get("repro_exec_unit_seconds")
            dispatch = executor.dispatch
        results = [result for _point, _summary, point_results in points for result in point_results]
        return {
            "digest": summaries_digest(summary for _point, summary, _results in points),
            "agent_steps": agent_steps(results) if fresh else 0,
            "resolved": dict(self.resolved, dispatch=dispatch),
            "units_executed": report.executed,
            "retries": report.retries,
            "requeues": report.requeues,
            "pool_rebuilds": report.pool_rebuilds,
            "worker_busy_s": float(busy.sum) if busy is not None else 0.0,
        }

    def reference(self) -> dict[str, str]:
        from repro.util.rng import spawn_rngs

        points = list(self.sweep)
        summaries = [
            self._runner.run_broadcast_replications(
                self.config(point), self.replications, seed=rng, connectivity="recompute"
            )[0]
            for rng, point in zip(spawn_rngs(self.seed, len(points)), points)
        ]
        digest = summaries_digest(summaries)
        names = ["fresh"] + [f"resume{i}" for i in range(1, self.resumes + 1)]
        return {name: digest for name in names}

    def finish_pass(self) -> None:
        for store in self._stores:
            shutil.rmtree(store, ignore_errors=True)
        self._stores.clear()

    def close(self) -> None:
        self.finish_pass()


def _fsync_as_on_tmpfs(fd: int) -> None:
    """``os.fsync`` on tmpfs: nothing to write back."""


def summaries_digest(summaries: Any) -> str:
    """Digest of every sweep point's per-trial summary values."""
    import numpy as np

    digest = hashlib.sha256()
    for summary in summaries:
        digest.update(np.asarray(summary.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        SuiteTiny(),
        BroadcastPoints(
            "headline-r0",
            HEADLINE_POINTS,
            HEADLINE_REPLICATIONS,
            toy_points=((4096, 16, 0.0, 200), (4096, 64, 0.0, 200)),
        ),
        BroadcastPoints(
            "sparse-radius",
            SPARSE_POINTS,
            SPARSE_REPLICATIONS,
            toy_points=((900, 25, 0.5, 100), (900, 25, 2.0, 100)),
        ),
        SweepDispatch(),
    )
}
