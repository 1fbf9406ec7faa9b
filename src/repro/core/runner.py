"""Replication runner: repeat a stochastic experiment and summarise it.

All headline quantities of the paper are "with high probability" statements,
so every experiment is replicated with independent random streams and the
harness reports means, medians and bootstrap confidence intervals.

Replications can be executed by two interchangeable backends selected via
the ``backend`` argument (or the config's ``backend`` field):

* ``"serial"`` — one :class:`~repro.core.simulation.BroadcastSimulation` /
  :class:`~repro.core.gossip.GossipSimulation` per trial;
* ``"batched"`` — all trials advance together as one vectorised system
  (:mod:`repro.core.batched`), typically an order of magnitude faster on
  replication-heavy workloads;
* ``"compiled"`` — the batched loop with its per-step hot kernels compiled
  (:mod:`repro.compiled`); raises when no provider (numba or the bundled C
  kernels) is available on the host;
* ``"auto"`` — the fastest backend the configuration and host support,
  resolved jointly with the connectivity engine by one policy
  (:func:`auto_pair`): compiled when a provider is available, else batched,
  else serial.

All backends consume identical per-trial random streams (derived with
:func:`repro.util.rng.spawn_rngs`) and return bit-for-bit identical results,
so the choice is purely a performance knob.  See ``docs/PERFORMANCE.md``
and ``docs/COMPILED.md``.

Orthogonally to the backend, an active
:func:`repro.exec.execution_override` shards every replication run into
(sweep-point × replication-chunk) work units executed in process or over a
process pool — with per-trial streams re-derived deterministically, so the
sharded path is also bit-for-bit identical to the plain one.  Because each
unit is a pure function of its spec, the executor may also retry, time out,
requeue (after a worker crash) or lease-steal any unit without changing a
single result bit; runs interrupted by worker failure complete with the
records a fault-free run would produce.  See ``docs/PARALLEL.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.analysis.statistics import ReplicationAggregate

from repro.connectivity.visibility import effective_radius
from repro.core.config import (
    BroadcastConfig,
    GossipConfig,
    check_backend,
    check_connectivity,
)
from repro.core.gossip import GossipResult, GossipSimulation
from repro.core.simulation import BroadcastResult, BroadcastSimulation
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ReplicationSummary:
    """Summary of a replicated scalar measurement (e.g. broadcast times)."""

    values: np.ndarray
    n_replications: int
    n_completed: int

    @property
    def completion_rate(self) -> float:
        """Fraction of replications that completed within the horizon."""
        if self.n_replications == 0:
            return 0.0
        return self.n_completed / self.n_replications

    @property
    def completed_values(self) -> np.ndarray:
        """Values of the completed replications only."""
        return self.values[self.values >= 0]

    @property
    def mean(self) -> float:
        """Mean over completed replications (NaN if none completed)."""
        vals = self.completed_values
        return float(vals.mean()) if vals.size else float("nan")

    @property
    def median(self) -> float:
        """Median over completed replications (NaN if none completed)."""
        vals = self.completed_values
        return float(np.median(vals)) if vals.size else float("nan")

    @property
    def std(self) -> float:
        """Standard deviation over completed replications (NaN if none)."""
        vals = self.completed_values
        return float(vals.std(ddof=1)) if vals.size > 1 else 0.0 if vals.size else float("nan")

    @property
    def min(self) -> float:
        """Minimum over completed replications."""
        vals = self.completed_values
        return float(vals.min()) if vals.size else float("nan")

    @property
    def max(self) -> float:
        """Maximum over completed replications."""
        vals = self.completed_values
        return float(vals.max()) if vals.size else float("nan")


class StreamingReplicationSummary:
    """The :class:`ReplicationSummary` face over a streaming aggregate.

    Exposes the same scalar statistics (``mean``, ``median``, ``std``,
    ``min``, ``max``, ``n_replications``, ``n_completed``,
    ``completion_rate``) computed from a mergeable
    :class:`~repro.analysis.statistics.ReplicationAggregate` instead of a
    buffered value array.  ``median`` is a sketch quantile, accurate to the
    sketch's relative accuracy; counts, min and max are exact.  The
    per-trial arrays were never materialised — that is the point of
    streaming — so :attr:`values` and :attr:`completed_values` raise.
    """

    def __init__(self, aggregate: "ReplicationAggregate") -> None:
        self._aggregate = aggregate

    @property
    def aggregate(self) -> "ReplicationAggregate":
        """The underlying mergeable aggregate."""
        return self._aggregate

    @property
    def n_replications(self) -> int:
        return self._aggregate.n_total

    @property
    def n_completed(self) -> int:
        return self._aggregate.n_completed

    @property
    def completion_rate(self) -> float:
        return self._aggregate.completion_rate

    @property
    def mean(self) -> float:
        return self._aggregate.mean

    @property
    def median(self) -> float:
        return self._aggregate.median

    @property
    def std(self) -> float:
        return self._aggregate.std

    @property
    def min(self) -> float:
        return self._aggregate.min

    @property
    def max(self) -> float:
        return self._aggregate.max

    @property
    def values(self) -> np.ndarray:
        raise RuntimeError(
            "per-trial values are not kept under aggregate='streaming'; "
            "use the scalar statistics, or rerun with the default buffered "
            "aggregation (per-trial records also remain in the result store "
            "when one is configured)"
        )

    @property
    def completed_values(self) -> np.ndarray:
        raise RuntimeError(
            "per-trial values are not kept under aggregate='streaming'; "
            "use the scalar statistics, or rerun with the default buffered "
            "aggregation (per-trial records also remain in the result store "
            "when one is configured)"
        )


def summarise_values(
    values: Sequence[float], aggregate: str = "buffered"
) -> ReplicationSummary | StreamingReplicationSummary:
    """Build a replication summary from raw values (``-1`` = incomplete).

    ``aggregate="buffered"`` (default) keeps the value array and returns the
    classic :class:`ReplicationSummary` — bit-for-bit the historical
    behaviour.  ``aggregate="streaming"`` folds the values through a
    mergeable :class:`~repro.analysis.statistics.ReplicationAggregate` and
    returns the :class:`StreamingReplicationSummary` face instead.
    """
    if aggregate not in ("buffered", "streaming"):
        raise ValueError(
            f"aggregate must be 'buffered' or 'streaming', got {aggregate!r}"
        )
    if aggregate == "streaming":
        from repro.analysis.statistics import ReplicationAggregate

        total = ReplicationAggregate()
        for value in values:
            total.add(float(value))
        return StreamingReplicationSummary(total)
    arr = np.asarray(list(values), dtype=np.float64)
    return ReplicationSummary(
        values=arr,
        n_replications=arr.size,
        n_completed=int(np.count_nonzero(arr >= 0)),
    )


def replicate(
    factory: Callable[[np.random.Generator], float],
    n_replications: int,
    seed: SeedLike = None,
) -> ReplicationSummary:
    """Run ``factory(rng)`` with independent streams and summarise the results.

    ``factory`` must return a scalar measurement (``-1`` meaning "did not
    complete").  Under an active :func:`repro.exec.execution_override` the
    trials are sharded into work units (module-level factories run in worker
    processes; unpicklable factories fall back to in-process chunks) and
    inherit the executor's retry/timeout/crash-recovery policy.
    """
    from repro.exec.executor import map_replications

    n_replications = check_positive_int(n_replications, "n_replications")
    values = [float(v) for v in map_replications(factory, n_replications, seed)]
    return summarise_values(values)


#: Process-wide backend override installed by :func:`backend_override`.
_BACKEND_OVERRIDE: Optional[str] = None


@contextmanager
def backend_override(backend: Optional[str]) -> Iterator[None]:
    """Force every replication run in the ``with`` block onto ``backend``.

    This is how the command line's ``--backend`` flag reaches experiments
    that build their configs internally: the override takes precedence over
    each config's ``backend`` field (but not over an explicit ``backend``
    argument passed to a ``run_*_replications`` call).  ``None`` is a no-op;
    ``"auto"`` re-enables per-config auto-selection.  As with an explicit
    argument, forcing ``"batched"`` onto an unsupported configuration raises
    rather than silently falling back — use ``"auto"`` to pick the batched
    path only where it applies.
    """
    global _BACKEND_OVERRIDE
    if backend is not None:
        check_backend(backend)
    previous = _BACKEND_OVERRIDE
    _BACKEND_OVERRIDE = backend
    try:
        yield
    finally:
        _BACKEND_OVERRIDE = previous


def current_backend_override() -> Optional[str]:
    """The backend forced by an enclosing :func:`backend_override`, if any.

    Exposed for runners outside this module (e.g. the dissemination
    process-kernel runner) that must honour the CLI's ``--backend`` flag.
    """
    return _BACKEND_OVERRIDE


#: Process-wide connectivity override installed by :func:`connectivity_override`.
_CONNECTIVITY_OVERRIDE: Optional[str] = None


@contextmanager
def connectivity_override(connectivity: Optional[str]) -> Iterator[None]:
    """Force every simulation in the ``with`` block onto a connectivity engine.

    Mirrors :func:`backend_override`: this is how the command line's
    ``--connectivity`` flag reaches experiments that build their configs
    internally.  The override takes precedence over each config's
    ``connectivity`` field (but not over an explicit ``connectivity``
    argument passed to a ``run_*_replications`` call).  ``None`` is a no-op;
    ``"auto"`` re-enables per-config auto-selection.
    """
    global _CONNECTIVITY_OVERRIDE
    if connectivity is not None:
        check_connectivity(connectivity)
    previous = _CONNECTIVITY_OVERRIDE
    _CONNECTIVITY_OVERRIDE = connectivity
    try:
        yield
    finally:
        _CONNECTIVITY_OVERRIDE = previous


def current_connectivity_override() -> Optional[str]:
    """The engine forced by an enclosing :func:`connectivity_override`, if any."""
    return _CONNECTIVITY_OVERRIDE


#: The numpy backends (serial, batched) keep the incremental engine below
#: this effective radius; from here up the recompute path's bucket-level
#: candidate expansion wins, since cells span several nodes and the edge
#: set grows dense.
NUMPY_INCREMENTAL_BELOW = 2


def auto_pair(
    backend: str,
    connectivity: str,
    radius: float,
    *,
    batchable: bool = True,
    labels: bool = True,
    process: bool = False,
) -> tuple[str, str]:
    """The ``auto`` policy: resolve backend × connectivity as one pair.

    ``backend`` and ``connectivity`` are the requested choices; explicit
    ones come back unchanged, ``"auto"`` ones are resolved against the
    effective radius ``r_eff = ⌊radius⌋``
    (:func:`~repro.connectivity.visibility.effective_radius`), to the
    fastest pair measured (with the bundled C provider):

    =============================  =========================  =========================
    run                            compiled provider          no provider
    =============================  =========================  =========================
    ``r_eff = 0``                  compiled × incremental     batched × incremental
    ``r_eff = 1``                  compiled × incremental     batched × incremental
    ``r_eff >= 2``                 compiled × incremental     batched × recompute
    label process, ``r_eff = 0``   batched × incremental      batched × incremental
    =============================  =========================  =========================

    Under compiled, ``r_eff = 0`` runs the fused block driver where it
    applies, else the compiled epoch flood or labels kernel, and from
    ``r_eff = 1`` up the compiled engine
    (:class:`~repro.compiled.engine.CompiledDeltaEngine`): one compiled
    ``labels_batch`` call per step, which beats every numpy engine.
    Process kernels (``process=True``) keep their own mobility draws and
    applies, so at ``r_eff = 0`` compiled would only swap the numpy
    same-cell engine for the compiled labels kernel, which measured slower
    — unless recompute is requested, which compiled runs faster.
    An unbatchable configuration (``batchable=False``) resolves ``auto`` to
    serial; serial and batched, explicit or resolved, follow the numpy
    column.  Runs that consume no component labels (``labels=False``) have
    no engine to maintain and resolve to ``"recompute"``.
    """
    r_eff = effective_radius(radius)
    if backend == "auto":
        from repro.compiled import available as compiled_available

        if not batchable:
            backend = "serial"
        elif not compiled_available():
            backend = "batched"
        elif process and labels and r_eff == 0 and connectivity != "recompute":
            backend = "batched"
        else:
            backend = "compiled"
    if connectivity == "auto":
        if not labels:
            connectivity = "recompute"
        elif backend == "compiled":
            connectivity = "incremental"
        else:
            connectivity = "incremental" if r_eff < NUMPY_INCREMENTAL_BELOW else "recompute"
    return backend, connectivity


def resolve_pair(
    config: BroadcastConfig | GossipConfig,
    backend: Optional[str] = None,
    connectivity: Optional[str] = None,
) -> tuple[str, str]:
    """The ``(backend, connectivity)`` pair a run of ``config`` executes.

    Each request is the explicit argument if given, else the active
    :func:`backend_override` / :func:`connectivity_override`, else the
    config's field; :func:`auto_pair` resolves whatever is left at
    ``"auto"``.  Only configurations the batched backend supports resolve
    to batched or compiled.  An explicit ``"batched"``/``"compiled"``
    request for an unsupported configuration (or, for ``"compiled"``, a
    host without any provider) raises when the runner is invoked, rather
    than silently falling back.
    """
    from repro.connectivity.incremental import supports_incremental_connectivity

    if backend is None:
        backend = _BACKEND_OVERRIDE
    if connectivity is None:
        connectivity = _CONNECTIVITY_OVERRIDE
    backend = check_backend(backend if backend is not None else config.backend)
    connectivity = check_connectivity(
        connectivity if connectivity is not None else config.connectivity
    )
    batchable = True
    if backend == "auto":
        from repro.core.batched import supports_batched_broadcast, supports_batched_gossip

        if isinstance(config, BroadcastConfig):
            batchable = supports_batched_broadcast(config)
        else:
            batchable = supports_batched_gossip(config)
    return auto_pair(
        backend,
        connectivity,
        config.radius,
        batchable=batchable,
        labels=supports_incremental_connectivity(config),
    )


def resolve_backend(
    config: BroadcastConfig | GossipConfig, backend: Optional[str] = None
) -> str:
    """The backend (``"serial"``, ``"batched"`` or ``"compiled"``) a run executes.

    The backend half of :func:`resolve_pair`, with ``backend`` overriding
    the config's field.
    """
    return resolve_pair(config, backend)[0]


def resolve_connectivity(
    config: BroadcastConfig | GossipConfig, connectivity: Optional[str] = None
) -> str:
    """The engine (``"recompute"`` or ``"incremental"``) a run executes.

    The connectivity half of :func:`resolve_pair`, with ``connectivity``
    overriding the config's field: ``"auto"`` depends on the backend the
    run resolves to (see :func:`auto_pair`).  Both engines produce
    bit-for-bit identical simulation results, so the choice is purely a
    performance knob.
    """
    return resolve_pair(config, connectivity=connectivity)[1]


def check_rng_streams(rng_streams: Optional[Sequence], n_replications: int) -> None:
    """Validate an explicit per-trial stream list against the trial count."""
    if rng_streams is not None and len(rng_streams) != n_replications:
        raise ValueError(
            f"rng_streams must hold exactly {n_replications} generators, "
            f"got {len(rng_streams)}"
        )


def run_broadcast_replications(
    config: BroadcastConfig,
    n_replications: int,
    seed: SeedLike = None,
    backend: Optional[str] = None,
    *,
    connectivity: Optional[str] = None,
    rng_streams: Optional[Sequence[np.random.Generator]] = None,
) -> tuple[ReplicationSummary, list[BroadcastResult]]:
    """Run ``n_replications`` broadcast simulations and summarise ``T_B``.

    ``backend`` selects ``"serial"``, ``"batched"``, ``"compiled"`` or
    ``"auto"`` execution (default: the config's ``backend`` field); all
    backends produce bit-for-bit identical results for identical seeds.
    ``connectivity`` selects ``"recompute"``, ``"incremental"`` or ``"auto"`` component
    labelling the same way (default: the config's ``connectivity`` field);
    engines too are bit-for-bit interchangeable.

    ``rng_streams`` supplies one explicit generator per trial in place of
    :func:`~repro.util.rng.spawn_rngs` derivation — this is how executor
    work units run a chunk of the trial range on exactly the streams the
    full run would use.  When it is absent and a
    :func:`repro.exec.execution_override` is active, the run is sharded
    through the active :class:`~repro.exec.SweepExecutor`.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    resolved, engine = resolve_pair(config, backend, connectivity)
    if rng_streams is None:
        from repro.exec.executor import current_executor

        executor = current_executor()
        if executor is not None:
            return executor.run_replications(
                "broadcast", config, n_replications, seed,
                backend=resolved,
                connectivity=engine,
            )
    if resolved in ("batched", "compiled"):
        from repro.core.batched import run_broadcast_replications_batched

        return run_broadcast_replications_batched(
            config, n_replications, seed,
            rng_streams=rng_streams, connectivity=engine,
            compiled=resolved == "compiled",
        )
    rngs = rng_streams if rng_streams is not None else spawn_rngs(seed, n_replications)
    results = [
        BroadcastSimulation(config, rng=rng, connectivity=engine).run() for rng in rngs
    ]
    summary = summarise_values([res.broadcast_time for res in results])
    return summary, results


def run_gossip_replications(
    config: GossipConfig,
    n_replications: int,
    seed: SeedLike = None,
    backend: Optional[str] = None,
    *,
    connectivity: Optional[str] = None,
    rng_streams: Optional[Sequence[np.random.Generator]] = None,
) -> tuple[ReplicationSummary, list[GossipResult]]:
    """Run ``n_replications`` gossip simulations and summarise ``T_G``.

    ``backend`` selects ``"serial"``, ``"batched"``, ``"compiled"`` or
    ``"auto"`` execution (default: the config's ``backend`` field); all
    backends produce bit-for-bit identical results for identical seeds.
    ``connectivity``,
    ``rng_streams`` and the executor interception behave as in
    :func:`run_broadcast_replications`.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    resolved, engine = resolve_pair(config, backend, connectivity)
    if rng_streams is None:
        from repro.exec.executor import current_executor

        executor = current_executor()
        if executor is not None:
            return executor.run_replications(
                "gossip", config, n_replications, seed,
                backend=resolved,
                connectivity=engine,
            )
    if resolved in ("batched", "compiled"):
        from repro.core.batched import run_gossip_replications_batched

        return run_gossip_replications_batched(
            config, n_replications, seed,
            rng_streams=rng_streams, connectivity=engine,
            compiled=resolved == "compiled",
        )
    rngs = rng_streams if rng_streams is not None else spawn_rngs(seed, n_replications)
    results = [
        GossipSimulation(config, rng=rng, connectivity=engine).run() for rng in rngs
    ]
    summary = summarise_values([res.gossip_time for res in results])
    return summary, results
