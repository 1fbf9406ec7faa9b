#!/usr/bin/env python
"""Benchmark the serial vs batched vs compiled replication backends.

Eight modes:

* default — times ``run_broadcast_replications`` on a fixed
  replication-heavy workload (64 replications of a broadcast on an
  ~10^4-node grid with ~10^2 agents at r = 0, the paper's sparse regime)
  under both backends and writes the record to ``BENCH_PR1.json``.  This is
  the first point of the repo's performance trajectory.
* ``--matrix`` — times a mobility-model x backend matrix (lazy walk,
  simple walk, Brownian, waypoint, jump, obstacle wall) and writes the
  per-scenario records to ``BENCH_PR2.json``: the second point of the
  trajectory, demonstrating that every mobility kernel runs on the batched
  backend.
* ``--jobs-matrix`` — times a multi-point sweep through the sharded
  executor at jobs x backend combinations and writes the records to
  ``BENCH_PR3.json``: the third point of the trajectory, demonstrating
  process-level sweep sharding on top of both backends.  The record keeps
  the host's usable core count — speedups are only meaningful relative to
  it.
* ``--connectivity`` — times the per-step component labelling of the
  simulation loop under the recompute vs incremental connectivity engines
  (identical lazy-walk trajectories, serial and batched), plus the
  end-to-end batched broadcast run under both engines, and writes the
  record to ``BENCH_PR4.json``: the fourth point of the trajectory.
* ``--dissemination`` — times the dissemination process kernels (frog,
  predator–prey, cover time, infection) under the serial vs batched process
  drivers at the paper's ``n = 10^4`` sparse scale and writes the record to
  ``BENCH_PR5.json``: the fifth point of the trajectory, demonstrating that
  every Section-4 by-product runs on the batched backend.
* ``--compiled`` — times the compiled backend against batched over a
  mobility x connectivity x dissemination matrix at the paper's
  ``n = 10^4`` scale, plus one large compiled-only trial with ``10^5``
  agents, and writes the record to ``BENCH_PR7.json``: the sixth point of
  the trajectory.  Every compiled kernel is warmed up on a throwaway trial
  first so the timings measure steady state; the warmup (JIT/C-build) time
  is recorded separately as ``compile_seconds``.  Requires a
  :mod:`repro.compiled` provider (numba or the bundled C kernels).
* ``--streaming`` — measures buffered vs streaming replication aggregation
  over a multi-point sweep (wall clock and tracemalloc peak memory, with the
  scalar statistics asserted to agree) and writes the record to
  ``BENCH_PR8.json``: the seventh point of the trajectory, demonstrating the
  O(1)-per-sweep-point memory of ``aggregate="streaming"``.
* ``--throughput`` — measures dispatch-layer throughput (work units per
  second) on a many-tiny-units sweep across the inline, pool and remote
  dispatch modes at batch sizes 1/8/32 (``--pool-chunk`` for the pool,
  ``--claim-batch`` for HTTP workers) and writes the record to
  ``BENCH_PR10.json``: the eighth point of the trajectory, demonstrating
  the batched claim/push protocol, keep-alive transport, group-committed
  store writes and chunk-amortized pool dispatch.
* ``--check FILE`` — perf-regression gate: re-runs the workload family of a
  committed record (at ``--quick`` size in CI) and fails if the measured
  speedups regress below ``--check-tolerance`` times the committed ones.
  Jobs-matrix rows are skipped when the committed ``cpus_usable`` differs
  from the current host's, since process-level scaling is meaningless
  across different core counts.

Every measurement checks that all execution paths produce bit-for-bit
identical per-trial broadcast times before recording anything.

Usage::

    PYTHONPATH=src python scripts/bench_backends.py                  # full PR1 workload
    PYTHONPATH=src python scripts/bench_backends.py --matrix         # full PR2 matrix
    PYTHONPATH=src python scripts/bench_backends.py --jobs-matrix    # full PR3 matrix
    PYTHONPATH=src python scripts/bench_backends.py --connectivity   # full PR4 workload
    PYTHONPATH=src python scripts/bench_backends.py --dissemination  # full PR5 workload
    PYTHONPATH=src python scripts/bench_backends.py --compiled       # full PR7 workload
    PYTHONPATH=src python scripts/bench_backends.py --streaming      # full PR8 workload
    PYTHONPATH=src python scripts/bench_backends.py --quick          # smoke test
    PYTHONPATH=src python scripts/bench_backends.py --quick --check BENCH_PR3.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.connectivity.batched import batched_visibility_labels
from repro.connectivity.incremental import DeltaConnectivityEngine, labels_equivalent
from repro.connectivity.visibility import visibility_components
from repro.core.batched import _build_mobility, _initial_state
from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.exec import SweepExecutor, execution_override
from repro.grid.obstacles import ObstacleGrid
from repro.util.rng import spawn_rngs


def time_backend(
    config: BroadcastConfig, n_replications: int, seed: int, backend: str
) -> tuple[float, np.ndarray]:
    """Wall-clock seconds and per-trial broadcast times for one backend."""
    start = time.perf_counter()
    summary, _ = run_broadcast_replications(config, n_replications, seed=seed, backend=backend)
    elapsed = time.perf_counter() - start
    return elapsed, summary.values


def _measure(config: BroadcastConfig, n_replications: int, seed: int) -> dict:
    """Serial-vs-batched timing record for one configuration."""
    serial_time, serial_values = time_backend(config, n_replications, seed, "serial")
    batched_time, batched_values = time_backend(config, n_replications, seed, "batched")
    if not np.array_equal(serial_values, batched_values):
        raise AssertionError("backends disagree: batched backend is not bit-for-bit serial")
    completed = serial_values[serial_values >= 0]
    return {
        "serial_seconds": serial_time,
        "batched_seconds": batched_time,
        "speedup": serial_time / batched_time if batched_time else float("inf"),
        "bitwise_identical": True,
        "mean_broadcast_time": float(completed.mean()) if completed.size else None,
        "completion_rate": float(completed.size / serial_values.size),
    }


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def run_benchmark(
    n_nodes: int = 10_000,
    n_agents: int = 100,
    radius: float = 0.0,
    n_replications: int = 64,
    seed: int = 2024,
    max_steps: int | None = None,
) -> dict:
    """Run the serial-vs-batched comparison and return the result record."""
    config = BroadcastConfig(
        n_nodes=n_nodes, n_agents=n_agents, radius=radius, max_steps=max_steps
    )
    record = {
        "benchmark": "broadcast_replications_serial_vs_batched",
        "workload": {
            "n_nodes": n_nodes,
            "n_agents": n_agents,
            "radius": radius,
            "n_replications": n_replications,
            "seed": seed,
            "max_steps": max_steps,
        },
    }
    record.update(_measure(config, n_replications, seed))
    record.update(_environment())
    return record


def matrix_scenarios(quick: bool = False) -> dict[str, dict]:
    """The mobility-model x backend matrix workloads.

    Each entry describes one scenario: the mobility model (with kwargs), the
    grid/agent sizes and the replication count.  ``quick`` shrinks every
    scenario to a smoke-test size.
    """
    if quick:
        side, k, reps, max_steps = 24, 12, 4, 2000
    else:
        side, k, reps, max_steps = 100, 100, 32, None
    gap_width = max(2, side // 25)
    wall = ObstacleGrid.with_wall(side, gap_width=gap_width)
    scenarios = {
        "lazy_walk": {"mobility": "random_walk", "mobility_kwargs": {}},
        # r = 0 would never complete under the simple rule: always-move walks
        # on the bipartite grid preserve coordinate parity, so opposite-parity
        # agents cannot co-locate.  Radius 1 removes the parity obstruction.
        "simple_walk": {
            "mobility": "random_walk",
            "mobility_kwargs": {"rule": "simple"},
            "radius": 1.0,
        },
        "brownian": {"mobility": "brownian", "mobility_kwargs": {"sigma": 1.0}},
        "waypoint": {"mobility": "waypoint", "mobility_kwargs": {}},
        "jump": {"mobility": "jump", "mobility_kwargs": {"jump_radius": 2}},
        "obstacle_wall": {
            "mobility": "obstacle_walk",
            "mobility_kwargs": {"domain": wall},
            "domain_spec": {"side": side, "gap_width": gap_width},
        },
    }
    for scenario in scenarios.values():
        scenario.setdefault("n_nodes", side * side)
        scenario.setdefault("n_agents", k)
        scenario.setdefault("radius", 0.0)
        scenario.setdefault("n_replications", reps)
        scenario.setdefault("max_steps", max_steps)
    return scenarios


def run_matrix(quick: bool = False, seed: int = 2024) -> dict:
    """Run the mobility-model x backend matrix and return the result record."""
    records = {}
    for name, spec in matrix_scenarios(quick).items():
        config = BroadcastConfig(
            n_nodes=spec["n_nodes"],
            n_agents=spec["n_agents"],
            radius=spec["radius"],
            max_steps=spec["max_steps"],
            mobility=spec["mobility"],
            mobility_kwargs=spec["mobility_kwargs"],
        )
        entry = {
            "workload": {
                "mobility": spec["mobility"],
                "mobility_kwargs": {
                    key: value
                    for key, value in spec["mobility_kwargs"].items()
                    if key != "domain"
                },
                "n_nodes": spec["n_nodes"],
                "n_agents": spec["n_agents"],
                "radius": spec["radius"],
                "n_replications": spec["n_replications"],
                "max_steps": spec["max_steps"],
                "seed": seed,
            },
        }
        if "domain_spec" in spec:
            entry["workload"]["domain"] = spec["domain_spec"]
        entry.update(_measure(config, spec["n_replications"], seed))
        records[name] = entry
        print(
            f"{name:14s} serial {entry['serial_seconds']:7.2f} s   "
            f"batched {entry['batched_seconds']:7.2f} s   "
            f"speedup {entry['speedup']:5.2f}x"
        )
    record = {
        "benchmark": "mobility_backend_matrix",
        "scenarios": records,
        "max_speedup_non_lazy": max(
            entry["speedup"] for name, entry in records.items() if name != "lazy_walk"
        ),
    }
    record.update(_environment())
    return record


def jobs_matrix_workload(quick: bool = False) -> dict:
    """The multi-point sweep the ``--jobs-matrix`` mode shards.

    Small-scale sweep points (the paper's sparse r = 0 regime) with enough
    replications per point that each point decomposes into several work
    units.
    """
    if quick:
        return {
            "n_nodes": 16 * 16,
            "agent_counts": [4, 8],
            "n_replications": 4,
            "max_steps": 400,
            "chunk_size": 2,
        }
    return {
        "n_nodes": 32 * 32,
        "agent_counts": [16, 32, 64, 128],
        "n_replications": 32,
        "max_steps": None,
        "chunk_size": 4,
    }


def _time_sweep_jobs(
    configs: list[BroadcastConfig],
    n_replications: int,
    seed: int,
    backend: str,
    jobs: int,
    chunk_size: int,
) -> tuple[float, np.ndarray]:
    """Wall-clock seconds + concatenated per-trial values for one sweep pass.

    ``jobs == 0`` means the pre-executor in-process path (no override).
    """
    start = time.perf_counter()
    values = []
    if jobs == 0:
        for config in configs:
            summary, _ = run_broadcast_replications(
                config, n_replications, seed=seed, backend=backend
            )
            values.append(summary.values)
    else:
        with execution_override(SweepExecutor(jobs=jobs, chunk_size=chunk_size)):
            for config in configs:
                summary, _ = run_broadcast_replications(
                    config, n_replications, seed=seed, backend=backend
                )
                values.append(summary.values)
    elapsed = time.perf_counter() - start
    return elapsed, np.concatenate(values)


def run_jobs_matrix(quick: bool = False, seed: int = 2024) -> dict:
    """Run the jobs x backend sharding matrix and return the result record."""
    workload = jobs_matrix_workload(quick)
    configs = [
        BroadcastConfig(
            n_nodes=workload["n_nodes"],
            n_agents=k,
            radius=0.0,
            max_steps=workload["max_steps"],
        )
        for k in workload["agent_counts"]
    ]
    n_replications = workload["n_replications"]
    chunk_size = workload["chunk_size"]
    job_counts = (1, 2) if quick else (1, 2, 4)

    reference, reference_values = _time_sweep_jobs(
        configs, n_replications, seed, "serial", 0, chunk_size
    )

    matrix: dict[str, dict[str, dict]] = {}
    for backend in ("serial", "batched"):
        matrix[backend] = {}
        base_seconds = None
        for jobs in job_counts:
            elapsed, values = _time_sweep_jobs(
                configs, n_replications, seed, backend, jobs, chunk_size
            )
            if not np.array_equal(values, reference_values):
                raise AssertionError(
                    f"sharded sweep ({backend}, jobs={jobs}) is not bit-for-bit "
                    "identical to the pre-executor serial path"
                )
            if jobs == 1:
                base_seconds = elapsed
            entry = {
                "seconds": elapsed,
                "bitwise_identical": True,
                "speedup_vs_jobs1": base_seconds / elapsed if elapsed else float("inf"),
            }
            matrix[backend][f"jobs{jobs}"] = entry
            print(
                f"{backend:8s} jobs={jobs}  {elapsed:7.2f} s   "
                f"x{entry['speedup_vs_jobs1']:5.2f} vs jobs=1"
            )
    record = {
        "benchmark": "sweep_executor_jobs_backend_matrix",
        "workload": {**workload, "seed": seed, "job_counts": list(job_counts)},
        "pre_executor_serial_seconds": reference,
        "matrix": matrix,
        "max_speedup_serial": max(
            entry["speedup_vs_jobs1"] for entry in matrix["serial"].values()
        ),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpus_total": os.cpu_count(),
        "note": (
            "process sharding can only scale up to the usable core count; "
            "on a single-core host every jobs>1 row degenerates to ~1x"
        ),
    }
    record.update(_environment())
    return record


def connectivity_workload(quick: bool = False) -> dict:
    """The sparse long-run scenario the ``--connectivity`` mode measures.

    The paper's regime of interest: ``k`` well below the percolation
    threshold on an ``n = 10^4``-node grid (lazy walks), where broadcast
    takes thousands of steps and the per-step connectivity work dominates
    the loop.  Measured at ``r = 0`` (same-cell meetings) and ``r = 1``.
    """
    if quick:
        return {
            "n_nodes": 32 * 32,
            "n_agents": 12,
            "radii": [0.0, 1.0],
            "steps": 120,
            "batch_trials": 8,
            "end_to_end_replications": 4,
            "end_to_end_serial_replications": 2,
            "end_to_end_max_steps": 400,
            "repeats": 2,
        }
    return {
        "n_nodes": 10_000,
        "n_agents": 50,
        "radii": [0.0, 1.0],
        "steps": 2000,
        "batch_trials": 64,
        "end_to_end_replications": 32,
        "end_to_end_serial_replications": 8,
        "end_to_end_max_steps": 4000,
        "repeats": 3,
    }


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs (noise suppression)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _serial_trajectory(config: BroadcastConfig, n_steps: int, seed: int) -> tuple[list, int]:
    """A serial lazy-walk position trajectory and the grid side."""
    grid, mobility = _build_mobility(config)
    rng = np.random.default_rng(seed)
    state = mobility.init_state(config.n_agents, rng)
    positions = mobility.initial_positions(config.n_agents, rng)
    trajectory = []
    for _ in range(n_steps):
        trajectory.append(positions.copy())
        positions = mobility.step(positions, rng, state)
    return trajectory, grid.side


def _batched_trajectory(
    config: BroadcastConfig, n_trials: int, n_steps: int, seed: int
) -> tuple[list, np.ndarray, int]:
    """A batched lazy-walk trajectory, its active-trial index and grid side."""
    grid, mobility = _build_mobility(config)
    rngs = spawn_rngs(seed, n_trials)
    states, positions, _ = _initial_state(mobility, config, rngs, with_source=True)
    stepper = mobility.batch_stepper(config.n_agents, rngs, states)
    active = np.arange(n_trials)
    trajectory = []
    for _ in range(n_steps):
        trajectory.append(positions.copy())
        positions = stepper.step(positions, active)
    return trajectory, active, grid.side


def run_connectivity(quick: bool = False, seed: int = 2024) -> dict:
    """Benchmark recompute vs incremental connectivity and return the record.

    The *step loop* measurements drive both engines over identical
    pre-generated trajectories — exactly the per-step labelling work the
    simulation loop performs, isolated from mobility and flooding — and the
    end-to-end measurement times the full batched broadcast run under both
    engines (bitwise-identical results asserted).
    """
    workload = connectivity_workload(quick)
    k = workload["n_agents"]
    repeats = workload["repeats"]
    radii_records: dict[str, dict] = {}
    for radius in workload["radii"]:
        config = BroadcastConfig(
            n_nodes=workload["n_nodes"],
            n_agents=k,
            radius=radius,
            max_steps=workload["end_to_end_max_steps"],
        )
        entry: dict = {}

        trajectory, side = _serial_trajectory(config, workload["steps"], seed)
        engine = DeltaConnectivityEngine(k, radius, side)
        for positions in trajectory:
            if not labels_equivalent(
                engine.step(positions), visibility_components(positions, radius)
            ):
                raise AssertionError("incremental labels diverge from recompute")
        recompute = _best_of(
            lambda: [visibility_components(p, radius) for p in trajectory], repeats
        )

        def run_engine() -> None:
            fresh = DeltaConnectivityEngine(k, radius, side)
            for positions in trajectory:
                fresh.step(positions)

        incremental = _best_of(run_engine, repeats)
        entry["serial_step_loop"] = {
            "recompute_seconds": recompute,
            "incremental_seconds": incremental,
            "speedup": recompute / incremental if incremental else float("inf"),
            "partitions_identical": True,
        }

        batch, active, side = _batched_trajectory(
            config, workload["batch_trials"], workload["steps"] // 4, seed
        )
        recompute_b = _best_of(
            lambda: [batched_visibility_labels(p, radius) for p in batch], repeats
        )

        def run_engine_batched() -> None:
            fresh = DeltaConnectivityEngine(
                k, radius, side, n_trials=workload["batch_trials"]
            )
            for positions in batch:
                fresh.step(positions, active)

        incremental_b = _best_of(run_engine_batched, repeats)
        entry["batched_step_loop"] = {
            "recompute_seconds": recompute_b,
            "incremental_seconds": incremental_b,
            "speedup": recompute_b / incremental_b if incremental_b else float("inf"),
        }

        for backend, reps_key in (
            ("batched", "end_to_end_replications"),
            ("serial", "end_to_end_serial_replications"),
        ):
            reps = workload[reps_key]
            start = time.perf_counter()
            _, results_rec = run_broadcast_replications(
                config, reps, seed=seed, backend=backend, connectivity="recompute"
            )
            e2e_recompute = time.perf_counter() - start
            start = time.perf_counter()
            _, results_inc = run_broadcast_replications(
                config, reps, seed=seed, backend=backend, connectivity="incremental"
            )
            e2e_incremental = time.perf_counter() - start
            values_rec = [res.broadcast_time for res in results_rec]
            values_inc = [res.broadcast_time for res in results_inc]
            if values_rec != values_inc:
                raise AssertionError(
                    "incremental connectivity changed simulation results"
                )
            entry[f"end_to_end_{backend}"] = {
                "n_replications": reps,
                "recompute_seconds": e2e_recompute,
                "incremental_seconds": e2e_incremental,
                "speedup": e2e_recompute / e2e_incremental if e2e_incremental else float("inf"),
                "bitwise_identical": True,
            }
        entry["step_loop_speedup"] = entry["serial_step_loop"]["speedup"]
        radii_records[f"r{radius:g}"] = entry
        print(
            f"r={radius:g}: step-loop serial {entry['serial_step_loop']['speedup']:5.2f}x  "
            f"batched {entry['batched_step_loop']['speedup']:5.2f}x  "
            f"end-to-end batched {entry['end_to_end_batched']['speedup']:5.2f}x  "
            f"serial {entry['end_to_end_serial']['speedup']:5.2f}x"
        )

    record = {
        "benchmark": "connectivity_engine_step_loop",
        "workload": {**workload, "mobility": "random_walk", "seed": seed},
        "radii": radii_records,
        "min_step_loop_speedup": min(
            entry["step_loop_speedup"] for entry in radii_records.values()
        ),
        "min_step_loop_speedup_batched": min(
            entry["batched_step_loop"]["speedup"] for entry in radii_records.values()
        ),
    }
    record.update(_environment())
    return record


def dissemination_scenarios(quick: bool = False) -> dict[str, dict]:
    """The dissemination process-kernel workloads (one per kernel).

    Horizons are capped so each scenario measures a bounded step loop; the
    bitwise-equality assertions hold regardless of completion.
    """
    if quick:
        return {
            "frog": {"process": "frog", "kwargs": {"n_nodes": 576, "n_agents": 12, "max_steps": 300}, "n_replications": 4},
            "predator_prey": {
                "process": "predator_prey",
                "kwargs": {"n_nodes": 576, "n_predators": 8, "n_preys": 8, "max_steps": 300},
                "n_replications": 4,
            },
            "cover": {"process": "cover", "kwargs": {"side": 24, "n_walkers": 8, "max_steps": 600}, "n_replications": 4},
            "infection": {"process": "infection", "kwargs": {"n_nodes": 576, "n_agents": 12, "max_steps": 600}, "n_replications": 4},
        }
    return {
        "frog": {
            "process": "frog",
            "kwargs": {"n_nodes": 10_000, "n_agents": 100, "max_steps": 4000},
            "n_replications": 16,
        },
        "predator_prey": {
            "process": "predator_prey",
            "kwargs": {"n_nodes": 10_000, "n_predators": 100, "n_preys": 100, "max_steps": 4000},
            "n_replications": 16,
        },
        "cover": {
            "process": "cover",
            "kwargs": {"side": 100, "n_walkers": 100, "max_steps": 30_000},
            "n_replications": 32,
        },
        "infection": {
            "process": "infection",
            "kwargs": {"n_nodes": 10_000, "n_agents": 100, "max_steps": 8000},
            "n_replications": 32,
        },
    }


def run_dissemination(quick: bool = False, seed: int = 2024) -> dict:
    """Benchmark the process kernels serial-vs-batched and return the record.

    Every scenario asserts three-way bitwise equality before recording:
    serial vs batched (both at the auto-resolved connectivity engine) and
    batched recompute vs batched incremental.
    """
    from repro.dissemination.kernels import make_process, run_process_replications

    records: dict[str, dict] = {}
    for name, spec in dissemination_scenarios(quick).items():
        process = make_process(spec["process"], **spec["kwargs"])
        reps = spec["n_replications"]

        start = time.perf_counter()
        serial_summary, _ = run_process_replications(
            process, reps, seed=seed, backend="serial"
        )
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batched_summary, _ = run_process_replications(
            process, reps, seed=seed, backend="batched"
        )
        batched_seconds = time.perf_counter() - start
        if not np.array_equal(serial_summary.values, batched_summary.values):
            raise AssertionError(
                f"{name}: batched process driver is not bit-for-bit serial"
            )
        recompute_summary, _ = run_process_replications(
            process, reps, seed=seed, backend="batched", connectivity="recompute"
        )
        incremental_summary, _ = run_process_replications(
            process, reps, seed=seed, backend="batched", connectivity="incremental"
        )
        if not np.array_equal(recompute_summary.values, incremental_summary.values):
            raise AssertionError(
                f"{name}: incremental connectivity changed process results"
            )
        completed = serial_summary.completed_values
        records[name] = {
            "workload": {**spec, "seed": seed},
            "serial_seconds": serial_seconds,
            "batched_seconds": batched_seconds,
            "speedup": serial_seconds / batched_seconds if batched_seconds else float("inf"),
            "bitwise_identical": True,
            "engines_identical": True,
            "completion_rate": float(completed.size / serial_summary.values.size),
            "mean_time": float(completed.mean()) if completed.size else None,
        }
        print(
            f"{name:14s} serial {serial_seconds:7.2f} s   "
            f"batched {batched_seconds:7.2f} s   "
            f"speedup {records[name]['speedup']:5.2f}x"
        )
    speedups = sorted(entry["speedup"] for entry in records.values())
    record = {
        "benchmark": "dissemination_process_backends",
        "scenarios": records,
        # The acceptance bar: at least two processes must clear a healthy
        # batched speedup at n = 10^4, so the second-best is the headline.
        "second_best_speedup": speedups[-2] if len(speedups) >= 2 else speedups[-1],
    }
    record.update(_environment())
    return record


def compiled_scenarios(quick: bool = False) -> dict[str, dict]:
    """The compiled-vs-batched matrix: mobility x connectivity x process.

    Broadcast scenarios cover the three compiled mobility kernels at
    ``r = 0`` (the fused flood driver) and the compiled labels kernel and
    engine at ``r = 1`` (recompute and incremental); the ``frog`` scenario
    covers a dissemination process driver.  ``quick`` shrinks everything to
    a smoke-test size.
    """
    if quick:
        side, k, reps, max_steps = 24, 12, 4, 2000
    else:
        side, k, reps, max_steps = 100, 100, 16, None
    gap_width = max(2, side // 25)
    wall = ObstacleGrid.with_wall(side, gap_width=gap_width)
    scenarios: dict[str, dict] = {
        "lazy_r0": {"mobility": "random_walk", "mobility_kwargs": {}},
        "brownian_r0": {"mobility": "brownian", "mobility_kwargs": {"sigma": 1.0}},
        "obstacle_r0": {
            "mobility": "obstacle_walk",
            "mobility_kwargs": {"domain": wall},
            "domain_spec": {"side": side, "gap_width": gap_width},
        },
        "lazy_r1_recompute": {
            "mobility": "random_walk",
            "mobility_kwargs": {},
            "radius": 1.0,
            "connectivity": "recompute",
            "max_steps": 2000 if quick else 4000,
        },
        "lazy_r1_incremental": {
            "mobility": "random_walk",
            "mobility_kwargs": {},
            "radius": 1.0,
            "connectivity": "incremental",
            "max_steps": 2000 if quick else 4000,
        },
        "frog": {
            "process": "frog",
            "kwargs": {
                "n_nodes": side * side,
                "n_agents": k,
                "max_steps": 300 if quick else 4000,
            },
        },
    }
    for scenario in scenarios.values():
        if "process" in scenario:
            scenario.setdefault("n_replications", reps // 2 if not quick else reps)
            continue
        scenario.setdefault("n_nodes", side * side)
        scenario.setdefault("n_agents", k)
        scenario.setdefault("radius", 0.0)
        scenario.setdefault("connectivity", None)
        scenario.setdefault("n_replications", reps)
        scenario.setdefault("max_steps", max_steps)
    return scenarios


def _time_broadcast(
    config: BroadcastConfig,
    n_replications: int,
    seed: int,
    backend: str,
    connectivity: str | None,
) -> tuple[float, np.ndarray]:
    """Like :func:`time_backend`, with an explicit connectivity engine."""
    start = time.perf_counter()
    summary, _ = run_broadcast_replications(
        config, n_replications, seed=seed, backend=backend, connectivity=connectivity
    )
    return time.perf_counter() - start, summary.values


def _warmup_compiled(seed: int) -> float:
    """Run one tiny throwaway trial per compiled kernel family.

    Triggers every JIT compilation (numba provider) or shared-object build
    (C provider) outside the timed region so the measurements below see
    steady state.  Returns the wall-clock seconds spent; with a warm
    on-disk cache this is near zero.
    """
    from repro.dissemination.kernels import make_process, run_process_replications

    start = time.perf_counter()
    wall = ObstacleGrid.with_wall(12, gap_width=2)
    tiny = [
        {"mobility": "random_walk", "mobility_kwargs": {}, "radius": 0.0},
        {"mobility": "brownian", "mobility_kwargs": {"sigma": 1.0}, "radius": 0.0},
        {"mobility": "obstacle_walk", "mobility_kwargs": {"domain": wall}, "radius": 0.0},
        {"mobility": "random_walk", "mobility_kwargs": {}, "radius": 1.0},
    ]
    for spec in tiny:
        config = BroadcastConfig(
            n_nodes=144, n_agents=6, radius=spec["radius"], max_steps=50,
            mobility=spec["mobility"], mobility_kwargs=spec["mobility_kwargs"],
        )
        for connectivity in (None,) if spec["radius"] == 0.0 else ("recompute", "incremental"):
            run_broadcast_replications(
                config, 1, seed=seed, backend="compiled", connectivity=connectivity
            )
    process = make_process("frog", n_nodes=144, n_agents=6, max_steps=50)
    run_process_replications(process, 1, seed=seed, backend="compiled")
    return time.perf_counter() - start


def _large_compiled_trial(seed: int) -> dict:
    """One completed broadcast trial with 10^5 agents on the compiled backend.

    A dense regime (k = 10^5 agents on a 500x500 grid) so the trial
    completes in few steps: the point is that a trial at this agent count
    runs at all — the batched backend's per-step allocation overhead makes
    it painful — not its asymptotic time.
    """
    config = BroadcastConfig(
        n_nodes=500 * 500, n_agents=100_000, radius=0.0, max_steps=100_000
    )
    start = time.perf_counter()
    summary, results = run_broadcast_replications(config, 1, seed=seed, backend="compiled")
    elapsed = time.perf_counter() - start
    result = results[0]
    if not result.completed:
        raise AssertionError("large compiled trial did not complete broadcast")
    return {
        "workload": {
            "n_nodes": config.n_nodes,
            "n_agents": config.n_agents,
            "radius": 0.0,
            "n_replications": 1,
            "seed": seed,
        },
        "completed": True,
        "broadcast_time": int(summary.values[0]),
        "n_steps": int(result.n_steps),
        "seconds": elapsed,
    }


def run_compiled(quick: bool = False, seed: int = 2024) -> dict:
    """Benchmark the compiled backend against batched and return the record.

    Every scenario asserts bitwise equality between the batched and
    compiled backends before recording.  Requires a compiled provider;
    raises the provider's RuntimeError otherwise.
    """
    import repro.compiled
    from repro.dissemination.kernels import make_process, run_process_replications

    repro.compiled.require_ops()
    compile_seconds = _warmup_compiled(seed)

    records: dict[str, dict] = {}
    for name, spec in compiled_scenarios(quick).items():
        reps = spec["n_replications"]
        if "process" in spec:
            process = make_process(spec["process"], **spec["kwargs"])
            start = time.perf_counter()
            batched_summary, _ = run_process_replications(
                process, reps, seed=seed, backend="batched"
            )
            batched_seconds = time.perf_counter() - start
            start = time.perf_counter()
            compiled_summary, _ = run_process_replications(
                process, reps, seed=seed, backend="compiled"
            )
            compiled_seconds = time.perf_counter() - start
            batched_values = batched_summary.values
            compiled_values = compiled_summary.values
            workload = {
                "process": spec["process"],
                "kwargs": spec["kwargs"],
                "n_replications": reps,
                "seed": seed,
            }
        else:
            config = BroadcastConfig(
                n_nodes=spec["n_nodes"],
                n_agents=spec["n_agents"],
                radius=spec["radius"],
                max_steps=spec["max_steps"],
                mobility=spec["mobility"],
                mobility_kwargs=spec["mobility_kwargs"],
            )
            batched_seconds, batched_values = _time_broadcast(
                config, reps, seed, "batched", spec["connectivity"]
            )
            compiled_seconds, compiled_values = _time_broadcast(
                config, reps, seed, "compiled", spec["connectivity"]
            )
            workload = {
                "mobility": spec["mobility"],
                "mobility_kwargs": {
                    key: value
                    for key, value in spec["mobility_kwargs"].items()
                    if key != "domain"
                },
                "n_nodes": spec["n_nodes"],
                "n_agents": spec["n_agents"],
                "radius": spec["radius"],
                "connectivity": spec["connectivity"],
                "n_replications": reps,
                "max_steps": spec["max_steps"],
                "seed": seed,
            }
            if "domain_spec" in spec:
                workload["domain"] = spec["domain_spec"]
        if not np.array_equal(batched_values, compiled_values):
            raise AssertionError(
                f"{name}: compiled backend is not bit-for-bit identical to batched"
            )
        records[name] = {
            "workload": workload,
            "batched_seconds": batched_seconds,
            "compiled_seconds": compiled_seconds,
            "speedup": batched_seconds / compiled_seconds if compiled_seconds else float("inf"),
            "bitwise_identical": True,
        }
        print(
            f"{name:20s} batched {batched_seconds:7.2f} s   "
            f"compiled {compiled_seconds:7.2f} s   "
            f"speedup {records[name]['speedup']:5.2f}x"
        )

    record = {
        "benchmark": "compiled_backend_step_loops",
        "provider": repro.compiled.provider_name(),
        "compile_seconds": compile_seconds,
        "scenarios": records,
        "max_speedup": max(entry["speedup"] for entry in records.values()),
    }
    if not quick:
        record["large_trial"] = _large_compiled_trial(seed)
        print(
            f"large trial (k=10^5)  compiled {record['large_trial']['seconds']:7.2f} s   "
            f"broadcast_time {record['large_trial']['broadcast_time']}"
        )
    record.update(_environment())
    return record


def streaming_workload(quick: bool = False) -> dict:
    """The multi-point sweep the ``--streaming`` mode aggregates two ways.

    Enough replications per point (with frontier/informed curves buffered by
    the default path) that the retained per-trial data dominates the
    buffered peak, making the memory comparison meaningful.
    """
    if quick:
        return {
            "n_nodes": 16 * 16,
            "agent_counts": [4, 8],
            "n_replications": 16,
            "max_steps": 400,
            "chunk_size": 4,
        }
    return {
        "n_nodes": 32 * 32,
        "agent_counts": [8, 16, 32, 64],
        "n_replications": 64,
        "max_steps": 2000,
        "chunk_size": 8,
    }


def _sweep_with_aggregate(
    workload: dict, seed: int, aggregate: str
) -> tuple[list, float, int]:
    """One full ``run_sweep`` pass; returns (rows, seconds, tracemalloc peak)."""
    from repro.analysis.sweep import ParameterSweep

    sweep = ParameterSweep(
        parameter="n_agents", values=workload["agent_counts"], fixed={}
    )
    def factory(point) -> BroadcastConfig:
        return BroadcastConfig(
            n_nodes=workload["n_nodes"],
            n_agents=point.value,
            radius=0.0,
            max_steps=workload["max_steps"],
        )
    tracemalloc.start()
    start = time.perf_counter()
    with SweepExecutor(
        jobs=1, chunk_size=workload["chunk_size"], aggregate=aggregate
    ) as executor:
        rows = executor.run_sweep(
            sweep, factory, workload["n_replications"], seed, label="streaming-bench"
        )
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return rows, elapsed, peak


def run_streaming(quick: bool = False, seed: int = 2024) -> dict:
    """Benchmark buffered vs streaming sweep aggregation and return the record.

    Streaming must reproduce the buffered scalar statistics (counts exactly,
    means to floating-point tolerance) while retaining far less memory —
    ``memory_ratio`` (buffered peak / streaming peak) is the headline the
    ``--check`` gate guards.
    """
    workload = streaming_workload(quick)
    buffered_rows, buffered_seconds, buffered_peak = _sweep_with_aggregate(
        workload, seed, "buffered"
    )
    streaming_rows, streaming_seconds, streaming_peak = _sweep_with_aggregate(
        workload, seed, "streaming"
    )
    for (point, summary, _), (_, streaming_summary, results) in zip(
        buffered_rows, streaming_rows
    ):
        if results != []:
            raise AssertionError("streaming sweep materialised per-trial results")
        if summary.n_completed != streaming_summary.n_completed:
            raise AssertionError(
                f"k={point.value}: streaming completion count diverged"
            )
        if summary.n_completed and not np.isclose(
            summary.mean, streaming_summary.mean, rtol=1e-9
        ):
            raise AssertionError(f"k={point.value}: streaming mean diverged")
    record = {
        "benchmark": "streaming_aggregation_memory",
        "workload": {**workload, "seed": seed},
        "buffered_seconds": buffered_seconds,
        "streaming_seconds": streaming_seconds,
        "buffered_peak_bytes": buffered_peak,
        "streaming_peak_bytes": streaming_peak,
        "memory_ratio": buffered_peak / streaming_peak if streaming_peak else float("inf"),
        "statistics_agree": True,
    }
    record.update(_environment())
    print(
        f"buffered : {buffered_seconds:7.2f} s   peak {buffered_peak / 1e6:8.2f} MB\n"
        f"streaming: {streaming_seconds:7.2f} s   peak {streaming_peak / 1e6:8.2f} MB\n"
        f"memory ratio {record['memory_ratio']:5.2f}x  (statistics agree)"
    )
    return record


def throughput_workload(quick: bool = False) -> dict:
    """The many-tiny-units sweep the ``--throughput`` mode times.

    One replication per work unit (``chunk_size = 1``) on a deliberately
    tiny broadcast (8 nodes, 1 agent at r = 1, 4 steps), so each unit
    executes in a fraction of a millisecond and the per-unit dispatch
    overhead — HTTP round trips, store fsyncs, pool submissions — dominates
    wall clock.  That is exactly the regime the batched claim/push protocol,
    the group-committed store writes and the chunk-amortized pool dispatch
    were built for.  The full-mode replication count is high enough that a
    timed pass runs a few hundred milliseconds even at the fastest mode:
    worker wake-up latency at pass start amortizes away instead of
    dominating the measurement.
    """
    base = {
        "n_nodes": 8,
        "n_agents": 1,
        "radius": 1.0,
        "max_steps": 4,
        "chunk_size": 1,
        "batch_sizes": [1, 8, 32],
        "workers": 2,
        "jobs": 2,
    }
    base["n_replications"] = 128 if quick else 512
    return base


def _throughput_scratch() -> str:
    """A scratch directory for the throughput stores, RAM-backed if possible.

    The throughput mode measures *dispatch-plane* amortization — HTTP round
    trips, batching, per-future IPC — so the store lives on tmpfs when the
    host offers one: on rotational/journaled storage the per-record fsync
    (identical at every batch size) dominates wall clock and compresses the
    very ratios the mode exists to expose.  Every measured mode uses the
    same backing, so comparisons stay apples-to-apples.
    """
    for base in ("/dev/shm",):
        if os.path.isdir(base) and os.access(base, os.W_OK):
            return tempfile.mkdtemp(prefix="repro-throughput-", dir=base)
    return tempfile.mkdtemp(prefix="repro-throughput-")


def _throughput_config(workload: dict) -> BroadcastConfig:
    return BroadcastConfig(
        n_nodes=workload["n_nodes"],
        n_agents=workload["n_agents"],
        radius=workload["radius"],
        max_steps=workload["max_steps"],
    )


def _timed_throughput_run(
    executor: SweepExecutor, workload: dict, seed: int
) -> tuple[float, np.ndarray]:
    """Warm the dispatch path, then time three full sweeps; keep the best.

    The warmup run (two replications at a shifted seed, so its unit keys
    never collide with the measured sweeps') spins up the process pool or
    lets HTTP workers register and complete a claim/push round — one-time
    setup costs that would otherwise pollute a units-per-second measurement.
    The timed passes use different seeds (fresh unit keys each, so a resume
    store never short-circuits a later pass) and the fastest one wins:
    scheduler jitter on a shared host only ever slows a pass down, and the
    first pass after a mode switch routinely pays residual noise from the
    previous mode's process teardown.
    """
    config = _throughput_config(workload)
    time.sleep(0.3)  # let the previous mode's processes fully drain
    with execution_override(executor):
        run_broadcast_replications(config, 2, seed=seed + 1)
        elapsed = float("inf")
        summary = None
        for offset in (0, 2, 4):
            start = time.perf_counter()
            result, _ = run_broadcast_replications(
                config, workload["n_replications"], seed=seed + offset
            )
            elapsed = min(elapsed, time.perf_counter() - start)
            if summary is None:
                summary = result
    return elapsed, summary.values


def _run_throughput_inline(workload: dict, seed: int) -> tuple[float, np.ndarray]:
    with SweepExecutor(jobs=1, chunk_size=workload["chunk_size"]) as executor:
        return _timed_throughput_run(executor, workload, seed)


def _run_throughput_pool(
    workload: dict, seed: int, pool_chunk: int
) -> tuple[float, np.ndarray]:
    tmp = _throughput_scratch()
    try:
        with SweepExecutor(
            jobs=workload["jobs"],
            chunk_size=workload["chunk_size"],
            store=tmp,
            pool_chunk=pool_chunk,
        ) as executor:
            return _timed_throughput_run(executor, workload, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_throughput_remote(
    workload: dict, seed: int, claim_batch: int
) -> tuple[float, np.ndarray]:
    """One remote-dispatch measurement against real ``repro worker`` processes.

    Workers run as subprocesses (not threads): in-process workers would
    share the GIL with the coordinator and cap measured throughput at the
    contention point rather than the transport's — and subprocesses are
    what ``--dispatch remote`` actually serves in production.
    """
    tmp = _throughput_scratch()
    executor = SweepExecutor(
        dispatch="remote",
        chunk_size=workload["chunk_size"],
        store=tmp,
        lease_ttl=30.0,
    )
    procs = []
    try:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--coordinator", executor.coordinator.address,
                    "--claim-batch", str(claim_batch),
                    "--poll", "0.02",
                    "--idle-cap", "0.02",
                    "--worker-id", f"bench-{claim_batch}-{index}",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
            )
            for index in range(workload["workers"])
        ]
        elapsed, values = _timed_throughput_run(executor, workload, seed)
        executor.coordinator.finish()
        for proc in procs:
            proc.wait(timeout=60)
        return elapsed, values
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        executor.close()
        shutil.rmtree(tmp, ignore_errors=True)


def run_throughput(quick: bool = False, seed: int = 2024) -> dict:
    """Benchmark dispatch throughput across batch sizes and return the record.

    Every mode's per-trial values are asserted bit-for-bit identical to the
    inline (``--jobs 1``) reference before anything is recorded.  The two
    headline ratios the ``--check`` gate guards:

    * ``remote_batch_speedup`` — units/sec of the HTTP worker path at the
      largest claim batch over batch 1 (same worker count);
    * ``pool_chunk_speedup`` — units/sec of the process pool at the largest
      ``pool_chunk`` over chunk 1 (same job count).
    """
    workload = throughput_workload(quick)
    units = workload["n_replications"] // workload["chunk_size"]
    batch_sizes = workload["batch_sizes"]

    inline_seconds, reference = _run_throughput_inline(workload, seed)
    inline_entry = {
        "seconds": inline_seconds,
        "units_per_second": units / inline_seconds if inline_seconds else float("inf"),
    }
    print(f"inline            {inline_entry['units_per_second']:8.1f} units/s")

    def entry_for(elapsed: float, values: np.ndarray, label: str) -> dict:
        if not np.array_equal(values, reference):
            raise AssertionError(
                f"{label}: dispatch path is not bit-for-bit identical to inline"
            )
        return {
            "seconds": elapsed,
            "units_per_second": units / elapsed if elapsed else float("inf"),
            "bitwise_identical": True,
        }

    # Remote runs before pool: its batch-speedup ratio is the tighter gate,
    # and the first measurements after the inline warmup see the least
    # residual scheduler noise from other modes' process churn.
    remote: dict[str, dict] = {}
    for batch in batch_sizes:
        elapsed, values = _run_throughput_remote(workload, seed, batch)
        remote[f"batch{batch}"] = entry_for(elapsed, values, f"remote batch={batch}")
        print(
            f"remote batch={batch:<4d} {remote[f'batch{batch}']['units_per_second']:8.1f} units/s"
        )

    pool: dict[str, dict] = {}
    for chunk in batch_sizes:
        elapsed, values = _run_throughput_pool(workload, seed, chunk)
        pool[f"chunk{chunk}"] = entry_for(elapsed, values, f"pool chunk={chunk}")
        print(
            f"pool   chunk={chunk:<4d} {pool[f'chunk{chunk}']['units_per_second']:8.1f} units/s"
        )

    largest = batch_sizes[-1]
    record = {
        "benchmark": "sweep_throughput_batching",
        "workload": {**workload, "seed": seed, "units": units},
        "inline": inline_entry,
        "pool": pool,
        "remote": remote,
        "remote_batch_speedup": (
            remote[f"batch{largest}"]["units_per_second"]
            / remote["batch1"]["units_per_second"]
        ),
        "pool_chunk_speedup": (
            pool[f"chunk{largest}"]["units_per_second"]
            / pool["chunk1"]["units_per_second"]
        ),
    }
    record.update(_environment())
    print(
        f"remote batch speedup (batch {largest} vs 1): "
        f"{record['remote_batch_speedup']:5.2f}x\n"
        f"pool chunk speedup   (chunk {largest} vs 1): "
        f"{record['pool_chunk_speedup']:5.2f}x"
    )
    return record


# --------------------------------------------------------------------------- #
# Perf-regression gate (--check)
# --------------------------------------------------------------------------- #
def check_against(record_path: Path, quick: bool, tolerance: float, seed: int) -> list[str]:
    """Re-measure a committed record's workload family and list regressions.

    ``tolerance`` is the fraction of the committed speedup the measurement
    must reach (CI re-runs at ``--quick`` size on shared runners, so the
    default is deliberately generous — the gate catches collapses, not
    jitter).  Jobs-matrix per-row comparisons are skipped when the committed
    ``cpus_usable`` differs from this host's.
    """
    committed = json.loads(Path(record_path).read_text())
    kind = committed.get("benchmark")
    failures: list[str] = []
    if kind == "sweep_executor_jobs_backend_matrix":
        measured = run_jobs_matrix(quick=quick, seed=seed)

        def jobs1_ratio(record: dict) -> float:
            serial = record["matrix"]["serial"]["jobs1"]["seconds"]
            batched = record["matrix"]["batched"]["jobs1"]["seconds"]
            return serial / batched if batched else float("inf")

        committed_ratio = jobs1_ratio(committed)
        measured_ratio = jobs1_ratio(measured)
        floor = committed_ratio * tolerance
        print(
            f"batched-vs-serial speedup: measured {measured_ratio:.2f}x, "
            f"committed {committed_ratio:.2f}x, floor {floor:.2f}x"
        )
        if measured_ratio < floor:
            failures.append(
                f"batched-vs-serial speedup regressed: {measured_ratio:.2f}x "
                f"< {floor:.2f}x ({tolerance:.0%} of committed {committed_ratio:.2f}x)"
            )
        if committed.get("cpus_usable") != measured.get("cpus_usable"):
            print(
                f"skipping jobs-scaling rows: committed cpus_usable="
                f"{committed.get('cpus_usable')} vs current "
                f"{measured.get('cpus_usable')}"
            )
        else:
            for backend, rows in committed["matrix"].items():
                for jobs_key, row in rows.items():
                    if jobs_key not in measured["matrix"].get(backend, {}):
                        print(f"{backend}/{jobs_key}: not measured at this size, skipped")
                        continue
                    got = measured["matrix"][backend][jobs_key]["speedup_vs_jobs1"]
                    want = row["speedup_vs_jobs1"] * tolerance
                    print(f"{backend}/{jobs_key}: measured {got:.2f}x, floor {want:.2f}x")
                    if got < want:
                        failures.append(
                            f"{backend}/{jobs_key} jobs-scaling regressed: "
                            f"{got:.2f}x < {want:.2f}x"
                        )
    elif kind == "broadcast_replications_serial_vs_batched":
        measured = (
            run_benchmark(
                n_nodes=32 * 32, n_agents=16, n_replications=8, seed=seed, max_steps=2000
            )
            if quick
            else run_benchmark(seed=seed)
        )
        floor = committed["speedup"] * tolerance
        print(
            f"batched speedup: measured {measured['speedup']:.2f}x, floor {floor:.2f}x"
        )
        if measured["speedup"] < floor:
            failures.append(
                f"batched speedup regressed: {measured['speedup']:.2f}x < {floor:.2f}x"
            )
    elif kind == "dissemination_process_backends":
        measured = run_dissemination(quick=quick, seed=seed)
        for name, row in committed["scenarios"].items():
            if name not in measured["scenarios"]:
                print(f"{name}: not measured at this size, skipped")
                continue
            got = measured["scenarios"][name]["speedup"]
            floor = row["speedup"] * tolerance
            print(f"dissemination/{name}: measured {got:.2f}x, floor {floor:.2f}x")
            if got < floor:
                failures.append(
                    f"dissemination/{name} batched speedup regressed: "
                    f"{got:.2f}x < {floor:.2f}x"
                )
    elif kind == "connectivity_engine_step_loop":
        measured = run_connectivity(quick=quick, seed=seed)
        for field, label in (
            ("min_step_loop_speedup", "serial"),
            ("min_step_loop_speedup_batched", "batched"),
        ):
            if field not in committed:
                continue
            floor = committed[field] * tolerance
            got = measured[field]
            print(
                f"connectivity {label} step-loop speedup: "
                f"measured {got:.2f}x, floor {floor:.2f}x"
            )
            if got < floor:
                failures.append(
                    f"connectivity {label} step-loop speedup regressed: "
                    f"{got:.2f}x < {floor:.2f}x"
                )
    elif kind == "compiled_backend_step_loops":
        import repro.compiled

        if not repro.compiled.available():
            print(
                "no compiled provider on this host; skipping compiled perf check "
                f"against {record_path}"
            )
            return failures
        measured = run_compiled(quick=quick, seed=seed)
        if measured.get("provider") != committed.get("provider"):
            # Speedups are a property of the provider (only cc carries the
            # fused drivers), so floors across providers are meaningless —
            # like jobs-scaling rows across different core counts.  The
            # re-run above still asserted bitwise equality per scenario.
            print(
                f"skipping speedup floors: committed provider="
                f"{committed.get('provider')} vs current "
                f"{measured.get('provider')} (bitwise equality still checked)"
            )
        else:
            for name, row in committed["scenarios"].items():
                if name not in measured["scenarios"]:
                    print(f"{name}: not measured at this size, skipped")
                    continue
                got = measured["scenarios"][name]["speedup"]
                floor = row["speedup"] * tolerance
                print(f"compiled/{name}: measured {got:.2f}x, floor {floor:.2f}x")
                if got < floor:
                    failures.append(
                        f"compiled/{name} speedup regressed: {got:.2f}x < {floor:.2f}x"
                    )
    elif kind == "streaming_aggregation_memory":
        measured = run_streaming(quick=quick, seed=seed)
        floor = committed["memory_ratio"] * tolerance
        got = measured["memory_ratio"]
        print(f"streaming memory ratio: measured {got:.2f}x, floor {floor:.2f}x")
        if got < floor:
            failures.append(
                f"streaming aggregation memory ratio regressed: "
                f"{got:.2f}x < {floor:.2f}x"
            )
    elif kind == "sweep_throughput_batching":
        measured = run_throughput(quick=quick, seed=seed)
        for field, label in (
            ("remote_batch_speedup", "remote batched claim/push"),
            ("pool_chunk_speedup", "pool chunked dispatch"),
        ):
            floor = committed[field] * tolerance
            got = measured[field]
            print(f"{label} speedup: measured {got:.2f}x, floor {floor:.2f}x")
            if got < floor:
                failures.append(
                    f"{label} speedup regressed: {got:.2f}x < {floor:.2f}x"
                )
    else:
        failures.append(f"unknown benchmark kind {kind!r} in {record_path}")
    return failures


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-nodes", type=int, default=10_000)
    parser.add_argument("--n-agents", type=int, default=100)
    parser.add_argument("--radius", type=float, default=0.0)
    parser.add_argument("--replications", type=int, default=64)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="run the mobility-model x backend matrix instead of the single "
        "PR1 workload (default output: repo-root BENCH_PR2.json)",
    )
    parser.add_argument(
        "--jobs-matrix",
        action="store_true",
        help="run the sharded-executor jobs x backend matrix on a multi-point "
        "sweep (default output: repo-root BENCH_PR3.json)",
    )
    parser.add_argument(
        "--connectivity",
        action="store_true",
        help="run the recompute-vs-incremental connectivity engine comparison "
        "on the sparse long-run scenario (default output: repo-root "
        "BENCH_PR4.json)",
    )
    parser.add_argument(
        "--dissemination",
        action="store_true",
        help="run the dissemination process-kernel serial-vs-batched "
        "comparison (frog, predator-prey, cover, infection; default output: "
        "repo-root BENCH_PR5.json)",
    )
    parser.add_argument(
        "--compiled",
        action="store_true",
        help="run the compiled-vs-batched backend matrix (mobility x "
        "connectivity x frog process, plus one large compiled-only trial; "
        "requires a repro.compiled provider; default output: repo-root "
        "BENCH_PR7.json)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="run the buffered-vs-streaming aggregation comparison on a "
        "multi-point sweep (wall clock + tracemalloc peak memory; default "
        "output: repo-root BENCH_PR8.json)",
    )
    parser.add_argument(
        "--throughput",
        action="store_true",
        help="run the dispatch-throughput comparison (inline/pool/remote at "
        "batch sizes 1/8/32 on a many-tiny-units sweep; default output: "
        "repo-root BENCH_PR10.json)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="RECORD",
        help="perf-regression gate: re-run the workload family of the given "
        "committed record (honours --quick) and exit non-zero if speedups "
        "regress below --check-tolerance times the committed values; "
        "jobs-matrix scaling rows are skipped when cpus_usable differs",
    )
    parser.add_argument(
        "--check-tolerance",
        type=float,
        default=0.35,
        metavar="FRACTION",
        help="fraction of the committed speedup --check requires "
        "(default: 0.35 — generous on purpose: CI re-measures a smaller "
        "workload on noisy shared runners, so the gate catches collapses, "
        "not jitter)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON record (default: repo-root BENCH_PR1.json, "
        "BENCH_PR2.json with --matrix, or BENCH_PR3.json with --jobs-matrix; "
        "with --quick the default is to not write a file)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke workload (used by the benchmark suite); does not overwrite "
        "the default output unless --output is given explicitly",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        if (
            args.matrix or args.jobs_matrix or args.connectivity
            or args.dissemination or args.compiled or args.streaming
            or args.throughput or args.output
        ):
            parser.error(
                "--check re-runs the workload family of the given record; it "
                "cannot be combined with --matrix/--jobs-matrix/--connectivity/"
                "--dissemination/--compiled/--streaming/--throughput or --output"
            )
        failures = check_against(
            args.check, quick=args.quick, tolerance=args.check_tolerance, seed=args.seed
        )
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            sys.exit(1)
        print(f"perf check against {args.check} passed")
        return {"check": str(args.check), "passed": True}

    exclusive = [
        args.matrix, args.jobs_matrix, args.connectivity, args.dissemination,
        args.compiled, args.streaming, args.throughput,
    ]
    if sum(exclusive) > 1:
        parser.error(
            "--matrix, --jobs-matrix, --connectivity, --dissemination, "
            "--compiled, --streaming and --throughput are mutually exclusive"
        )
    if any(exclusive):
        mode = (
            "--matrix"
            if args.matrix
            else "--jobs-matrix"
            if args.jobs_matrix
            else "--connectivity"
            if args.connectivity
            else "--dissemination"
            if args.dissemination
            else "--compiled"
            if args.compiled
            else "--streaming" if args.streaming else "--throughput"
        )
        ignored = {
            "--n-nodes": args.n_nodes != 10_000,
            "--n-agents": args.n_agents != 100,
            "--radius": args.radius != 0.0,
            "--replications": args.replications != 64,
            "--max-steps": args.max_steps is not None,
        }
        if any(ignored.values()):
            flags = ", ".join(name for name, hit in ignored.items() if hit)
            parser.error(
                f"{flags} only apply to the single-workload mode; the {mode} "
                "scenarios are fixed (use --quick for the small variant)"
            )
    if args.matrix:
        record = run_matrix(quick=args.quick, seed=args.seed)
    elif args.jobs_matrix:
        record = run_jobs_matrix(quick=args.quick, seed=args.seed)
    elif args.connectivity:
        record = run_connectivity(quick=args.quick, seed=args.seed)
    elif args.dissemination:
        record = run_dissemination(quick=args.quick, seed=args.seed)
    elif args.compiled:
        record = run_compiled(quick=args.quick, seed=args.seed)
    elif args.streaming:
        record = run_streaming(quick=args.quick, seed=args.seed)
    elif args.throughput:
        record = run_throughput(quick=args.quick, seed=args.seed)
    elif args.quick:
        record = run_benchmark(
            n_nodes=32 * 32, n_agents=16, radius=args.radius,
            n_replications=8, seed=args.seed, max_steps=2000,
        )
    else:
        record = run_benchmark(
            n_nodes=args.n_nodes, n_agents=args.n_agents, radius=args.radius,
            n_replications=args.replications, seed=args.seed, max_steps=args.max_steps,
        )

    if not any(exclusive):
        print(
            f"serial  : {record['serial_seconds']:8.2f} s\n"
            f"batched : {record['batched_seconds']:8.2f} s\n"
            f"speedup : {record['speedup']:8.2f}x  (bit-for-bit identical results)"
        )
    output = args.output
    if output is None and not args.quick:
        if args.throughput:
            name = "BENCH_PR10.json"
        elif args.streaming:
            name = "BENCH_PR8.json"
        elif args.compiled:
            name = "BENCH_PR7.json"
        elif args.dissemination:
            name = "BENCH_PR5.json"
        elif args.connectivity:
            name = "BENCH_PR4.json"
        elif args.jobs_matrix:
            name = "BENCH_PR3.json"
        elif args.matrix:
            name = "BENCH_PR2.json"
        else:
            name = "BENCH_PR1.json"
        output = Path(__file__).resolve().parent.parent / name
    if output is not None:
        output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {output}")
    return record


if __name__ == "__main__":
    main()
