"""Configuration objects for broadcast and gossip simulations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.util.validation import ValidationError, check_non_negative, check_positive_int


BACKENDS = ("auto", "serial", "batched", "compiled")

CONNECTIVITY_MODES = ("auto", "recompute", "incremental")


def check_backend(backend: str) -> str:
    """Validate a replication-backend name and return it."""
    if backend not in BACKENDS:
        raise ValidationError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def check_connectivity(connectivity: str) -> str:
    """Validate a connectivity-engine name and return it."""
    if connectivity not in CONNECTIVITY_MODES:
        raise ValidationError(
            f"connectivity must be one of {CONNECTIVITY_MODES}, got {connectivity!r}"
        )
    return connectivity


def default_max_steps(n_nodes: int, n_agents: int, safety_factor: float = 60.0) -> int:
    """A generous simulation horizon for the sparse regime.

    Theorem 1 predicts ``T_B = Õ(n / sqrt(k))``; the default horizon is
    ``safety_factor * n / sqrt(k) * max(log n, 1)`` plus a small additive
    floor, so that finite-size runs essentially always complete while runaway
    configurations still terminate.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    n_agents = check_positive_int(n_agents, "n_agents")
    base = safety_factor * n_nodes / math.sqrt(n_agents) * max(math.log(n_nodes), 1.0)
    return int(base) + 1000


@dataclass(frozen=True)
class BroadcastConfig:
    """Configuration of a single-rumor broadcast experiment.

    Attributes
    ----------
    n_nodes:
        Number of grid nodes ``n`` (rounded down to a perfect square).
    n_agents:
        Number of mobile agents ``k``.
    radius:
        Transmission radius ``r`` (Manhattan metric).  ``0`` means agents
        must share a node to communicate.
    source:
        Index of the initially informed agent, or ``None`` to pick an agent
        uniformly at random.
    max_steps:
        Simulation horizon; ``None`` selects :func:`default_max_steps`.
    mobility:
        Name of the mobility model (see :func:`repro.mobility.make_mobility`).
    mobility_kwargs:
        Extra keyword arguments for the mobility model.
    record_frontier:
        Whether to track the rightmost informed position (used by E6).
    record_coverage:
        Whether to track the set of nodes visited by informed agents (T_C).

    A config describes the experiment, not how it runs: the replication
    backend and the connectivity engine are arguments of the runners
    (:func:`repro.core.runner.run_broadcast_replications`), all of them
    bit-for-bit identical.
    """

    n_nodes: int
    n_agents: int
    radius: float = 0.0
    source: Optional[int] = None
    max_steps: Optional[int] = None
    mobility: str = "random_walk"
    mobility_kwargs: Mapping[str, Any] = field(default_factory=dict)
    record_frontier: bool = False
    record_coverage: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        check_positive_int(self.n_agents, "n_agents")
        check_non_negative(self.radius, "radius")
        if self.n_agents < 1:
            raise ValidationError("n_agents must be at least 1")
        if self.source is not None:
            if not (0 <= int(self.source) < self.n_agents):
                raise ValidationError(
                    f"source must lie in [0, {self.n_agents}), got {self.source}"
                )
        if self.max_steps is not None:
            check_positive_int(self.max_steps, "max_steps")

    @property
    def horizon(self) -> int:
        """The effective simulation horizon."""
        if self.max_steps is not None:
            return int(self.max_steps)
        return default_max_steps(self.n_nodes, self.n_agents)


@dataclass(frozen=True)
class GossipConfig:
    """Configuration of a gossip (all-to-all rumor exchange) experiment.

    Every agent starts with its own distinct rumor; the gossip time ``T_G``
    is the first time at which every agent knows every rumor.
    """

    n_nodes: int
    n_agents: int
    radius: float = 0.0
    max_steps: Optional[int] = None
    mobility: str = "random_walk"
    mobility_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int(self.n_nodes, "n_nodes")
        check_positive_int(self.n_agents, "n_agents")
        check_non_negative(self.radius, "radius")
        if self.max_steps is not None:
            check_positive_int(self.max_steps, "max_steps")

    @property
    def horizon(self) -> int:
        """The effective simulation horizon."""
        if self.max_steps is not None:
            return int(self.max_steps)
        return default_max_steps(self.n_nodes, self.n_agents)
