"""Classical push–pull rumor spreading on a static graph.

The Related Work section contrasts mobile networks with the rich literature
on rumor spreading in static graphs (push, pull, push–pull protocols), whose
performance is governed by expansion properties.  This module implements the
synchronous push–pull protocol on an arbitrary ``networkx`` graph so that
examples can contrast "static grid with push–pull" against "mobile sparse
network with flooding".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.rng import RandomState, default_rng
from repro.util.validation import check_positive_int

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class PushPullResult:
    """Outcome of a push–pull rumor-spreading run on a static graph."""

    n_nodes: int
    rounds: int
    completed: bool
    informed_curve: np.ndarray


def push_pull_rounds(
    graph: nx.Graph,
    source: int | None = None,
    max_rounds: int | None = None,
    rng: RandomState | int | None = None,
) -> PushPullResult:
    """Run synchronous push–pull until every node is informed.

    In every round each informed node *pushes* the rumor to a uniformly
    random neighbour and each uninformed node *pulls* from a uniformly random
    neighbour (learning the rumor if that neighbour is informed).

    Isolated nodes can never be informed; in that case the run stops at
    ``max_rounds`` and is reported as incomplete.  ``graph`` needs only the
    ``number_of_nodes``, ``nodes`` and ``neighbors`` methods of a
    ``networkx.Graph``.
    """
    n_nodes = graph.number_of_nodes()
    check_positive_int(n_nodes, "graph.number_of_nodes()")
    rng = default_rng(rng)
    nodes = list(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    neighbors = [list(graph.neighbors(node)) for node in nodes]

    informed = np.zeros(n_nodes, dtype=bool)
    if source is None:
        source_idx = int(rng.integers(0, n_nodes))
    else:
        source_idx = index[source]
    informed[source_idx] = True

    if max_rounds is None:
        max_rounds = 20 * max(int(np.ceil(np.log2(n_nodes + 1))), 1) + n_nodes
    curve = [int(informed.sum())]
    rounds = 0
    while not informed.all() and rounds < max_rounds:
        new_informed = informed.copy()
        for i in range(n_nodes):
            neigh = neighbors[i]
            if not neigh:
                continue
            target = index[neigh[int(rng.integers(0, len(neigh)))]]
            if informed[i]:
                new_informed[target] = True  # push
            elif informed[target]:
                new_informed[i] = True  # pull
        informed = new_informed
        rounds += 1
        curve.append(int(informed.sum()))

    return PushPullResult(
        n_nodes=n_nodes,
        rounds=rounds,
        completed=bool(informed.all()),
        informed_curve=np.asarray(curve, dtype=np.int64),
    )
