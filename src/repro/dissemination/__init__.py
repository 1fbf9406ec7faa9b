"""Dissemination processes as kernels: the paper's broadcast and gossip and
the derived processes studied in its Section 4.

Every process is defined once as a batch-aware *process kernel*
(:mod:`repro.dissemination.kernels`) — ``init_state → step(state, conn, rng)
→ stopped?`` with serial and batched faces — and driven by the shared
replication machinery (``backend="serial"|"batched"|"auto"``,
``connectivity="recompute"|"incremental"|"auto"``, sharded executor).
:class:`BroadcastProcess` and :class:`GossipProcess` run behind
:class:`repro.core.BroadcastSimulation`, :class:`repro.core.GossipSimulation`
and the ``run_*_replications`` runners.  The classic single-trial entry
points of the Section-4 processes remain as thin facades:

* :class:`FrogModelSimulation` — only informed agents move; uninformed agents
  stay at their initial positions until activated.
* :class:`PredatorPreySimulation` — ``k`` predators performing independent
  random walks catch moving preys; the extinction time is bounded by
  ``O(n log^2 n / k)``.
* :func:`multi_walk_cover_time` — cover time of ``k`` independent random
  walks on the grid, bounded by ``O(n log^2 n / k + n log n)``.

The coverage time ``T_C`` of informed agents and the informed frontier are
observables of :class:`BroadcastProcess` (``record_coverage``,
``record_frontier``), and the related work's *infection time* is the
broadcast time itself.
"""

from repro.dissemination.frog import FrogModelSimulation, FrogModelResult
from repro.dissemination.predator_prey import PredatorPreySimulation, PredatorPreyResult
from repro.dissemination.coverage import multi_walk_cover_time, CoverTimeResult
from repro.dissemination.kernels import (
    BroadcastProcess,
    CoverProcess,
    FrogProcess,
    GossipProcess,
    PredatorPreyProcess,
    ProcessKernel,
    available_processes,
    make_process,
    run_process_replications,
    run_process_serial,
)

__all__ = [
    "FrogModelSimulation",
    "FrogModelResult",
    "PredatorPreySimulation",
    "PredatorPreyResult",
    "multi_walk_cover_time",
    "CoverTimeResult",
    "ProcessKernel",
    "BroadcastProcess",
    "GossipProcess",
    "FrogProcess",
    "PredatorPreyProcess",
    "CoverProcess",
    "available_processes",
    "make_process",
    "run_process_replications",
    "run_process_serial",
]
