"""Registry mapping experiment identifiers to their ``run`` functions."""

from __future__ import annotations

from typing import Callable

from repro.analysis.report import ExperimentReport
from repro.core.runner import backend_override, connectivity_override
from repro.exec import SweepExecutor, execution_override
from repro.experiments import (
    e01_broadcast_vs_k,
    e02_broadcast_vs_n,
    e03_radius_insensitivity,
    e04_island_sizes,
    e05_meeting_probability,
    e06_frontier_speed,
    e07_frog_model,
    e08_gossip_time,
    e09_coverage_time,
    e10_cover_time,
    e11_predator_prey,
    e12_wang_refutation,
    e13_percolation,
    e14_above_percolation,
    e15_walk_range,
    e16_dense_baseline,
    e17_barriers,
)
from repro.util.rng import SeedLike

_MODULES = {
    "E1": e01_broadcast_vs_k,
    "E2": e02_broadcast_vs_n,
    "E3": e03_radius_insensitivity,
    "E4": e04_island_sizes,
    "E5": e05_meeting_probability,
    "E6": e06_frontier_speed,
    "E7": e07_frog_model,
    "E8": e08_gossip_time,
    "E9": e09_coverage_time,
    "E10": e10_cover_time,
    "E11": e11_predator_prey,
    "E12": e12_wang_refutation,
    "E13": e13_percolation,
    "E14": e14_above_percolation,
    "E15": e15_walk_range,
    "E16": e16_dense_baseline,
    "E17": e17_barriers,
}


def available_experiments() -> list[str]:
    """Identifiers of all registered experiments, in numeric order."""
    return sorted(_MODULES, key=lambda eid: int(eid[1:]))


def experiment_description(experiment_id: str) -> str:
    """Human-readable title of the experiment."""
    module = _module_for(experiment_id)
    return str(module.TITLE)


def _module_for(experiment_id: str):
    experiment_id = experiment_id.upper()
    try:
        return _MODULES[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {available_experiments()}"
        ) from exc


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    seed: SeedLike = 0,
    backend: str | None = None,
    connectivity: str | None = None,
    jobs: int = 1,
    resume: str | None = None,
    chunk_size: int | None = None,
    retries: int = 0,
    unit_timeout: float | None = None,
) -> ExperimentReport:
    """Run the experiment with the given id at the given scale.

    ``backend`` (``"serial"``, ``"batched"``, ``"compiled"`` or ``"auto"``)
    forces every replication run inside the experiment onto that backend via
    :func:`repro.core.runner.backend_override`; ``None`` leaves each run at
    ``"auto"``, the fastest backend its configuration and host support.
    Backends are bit-for-bit interchangeable (``"compiled"`` requires a
    :mod:`repro.compiled` provider on the host).  ``connectivity``
    (``"recompute"``, ``"incremental"`` or ``"auto"``) does the same for
    the component-labelling engine via
    :func:`repro.core.runner.connectivity_override`; engines are bit-for-bit
    interchangeable, so this is purely a performance knob.

    ``jobs``, ``resume`` and ``chunk_size`` configure the sharded executor
    (see ``docs/PARALLEL.md``): ``jobs > 1`` fans replication chunks out
    over worker processes, ``resume`` names a result-store directory whose
    completed work units are skipped, and ``chunk_size`` overrides the
    default replications-per-unit.  ``retries`` grants every work unit that
    many re-executions after a failure, and ``unit_timeout`` caps a unit's
    wall clock (pooled execution only) — since units are deterministic, a
    retried run still reports bit-for-bit identical results.  The defaults
    (``1``/``None``/``None``/``0``/``None``) keep the classic in-process
    path; either way the report is bit-for-bit identical.
    """
    module = _module_for(experiment_id)
    runner: Callable[..., ExperimentReport] = module.run
    executor = SweepExecutor.from_options(
        jobs=jobs, chunk_size=chunk_size, store=resume,
        retries=retries, unit_timeout=unit_timeout,
    )
    with backend_override(backend), connectivity_override(connectivity), \
            execution_override(executor):
        return runner(scale=scale, seed=seed)
