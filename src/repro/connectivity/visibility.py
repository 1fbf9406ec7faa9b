"""Construction of the visibility graph ``G_t(r)`` and its components.

Two agents are adjacent in ``G_t(r)`` iff their Manhattan distance at time
``t`` is at most the transmission radius ``r``.  The special case ``r = 0``
(agents must share a node) is handled by grouping identical positions, which
is both exact and faster than the general path.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.connectivity.spatial_hash import neighbor_pairs
from repro.connectivity.unionfind import UnionFind

if TYPE_CHECKING:
    import networkx as nx


def effective_radius(radius: float) -> int:
    """The integer radius ``⌊r⌋`` that ``G_t(r)`` actually depends on.

    Manhattan distances between integer grid positions are integers, so
    ``d <= r`` holds exactly when ``d <= ⌊r⌋``: ``G_t(r)`` and ``G_t(⌊r⌋)``
    are the same graph.  Path decisions and labelling calls use this value;
    configurations and results keep the radius the user gave.
    """
    return math.floor(radius)


def position_group_key(positions: np.ndarray) -> np.ndarray:
    """Scalar keys whose equality groups identical ``(x, y)`` rows.

    Accepts ``(k, 2)`` or batched ``(R, k, 2)`` integer positions; in the
    batched form, rows of different trials never share a key.  Keys preserve
    the lexicographic order of ``(trial, x, y)``, so ``np.unique`` inverse
    labels over them match labels computed per trial.  Encoding to a scalar
    keeps grouping sort-based and avoids the much slower structured-dtype
    ``np.unique(..., axis=0)``.
    """
    x = positions[..., 0]
    y = positions[..., 1]
    x0, y0 = x.min(), y.min()
    height = y.max() - y0 + 1
    key = (x - x0) * height + (y - y0)
    if positions.ndim == 3:
        width = x.max() - x0 + 1
        key = key + np.arange(positions.shape[0], dtype=np.int64)[:, None] * (width * height)
    return key


def same_cell_labels(
    positions: np.ndarray, side: int, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Same-cell component labels of ``G_t(0)`` via one scatter/gather pass.

    For ``r = 0`` the components are exactly the groups of agents sharing a
    grid node.  Instead of sorting the node keys, write every agent's flat
    index into a node-indexed table and read it back: all agents of a node
    read the same (last-written) index, which therefore labels the group.
    Any duplicate-write outcome yields the same partition, and only keys
    written in the same call are ever read, so a persistent ``scratch``
    table can be reused across steps without clearing — this is the
    allocation-free fast path of the incremental connectivity engine.

    Parameters
    ----------
    positions:
        ``(k, 2)`` or batched ``(R, k, 2)`` integer coordinates in
        ``[0, side)``.
    side:
        Grid side defining the node key space (``side * side`` per trial).
    scratch:
        Optional persistent int64 work table with at least
        ``R * side * side`` entries; allocated per call when omitted.

    Returns
    -------
    numpy.ndarray
        Labels shaped like ``positions`` without the coordinate axis.  Two
        agents share a label iff they are in the same trial and on the same
        node; labels of different trials never collide.  Labels are group
        representatives, not compressed to ``0 .. C-1`` — the same partition
        as :func:`visibility_components` at ``r = 0``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    single = positions.ndim == 2
    if single:
        positions = positions[None]
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError(
            f"positions must have shape (k, 2) or (R, k, 2), got {positions.shape}"
        )
    n_trials, k = positions.shape[:2]
    n_cells = side * side
    if n_trials * k == 0:
        labels = np.empty((n_trials, k), dtype=np.int64)
        return labels[0] if single else labels
    key = (
        positions[..., 0] * side
        + positions[..., 1]
        + (np.arange(n_trials, dtype=np.int64) * n_cells)[:, None]
    ).ravel()
    if scratch is None:
        scratch = np.empty(n_trials * n_cells, dtype=np.int64)
    elif scratch.shape[0] < n_trials * n_cells:
        raise ValueError(
            f"scratch must hold at least {n_trials * n_cells} entries, "
            f"got {scratch.shape[0]}"
        )
    scratch[key] = np.arange(n_trials * k, dtype=np.int64)
    labels = scratch[key].reshape(n_trials, k)
    return labels[0] if single else labels


def visibility_edges(
    positions: np.ndarray, radius: float, metric: str = "manhattan"
) -> np.ndarray:
    """Edge list ``(m, 2)`` of the visibility graph at the given positions."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (k, 2), got {positions.shape}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return neighbor_pairs(positions, radius, metric=metric)


def visibility_components(
    positions: np.ndarray, radius: float, metric: str = "manhattan"
) -> np.ndarray:
    """Dense component labels (length ``k``) of the visibility graph ``G_t(r)``.

    Agents in the same connected component share a label; labels are
    contiguous integers starting at 0.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (k, 2), got {positions.shape}")
    k = positions.shape[0]
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if radius == 0:
        # Agents co-located on the same node form a clique; group by node.
        _, labels = np.unique(position_group_key(positions), return_inverse=True)
        return labels.astype(np.int64, copy=False)
    uf = UnionFind(k)
    uf.union_batch(visibility_edges(positions, radius, metric=metric))
    return uf.labels()


def visibility_graph(
    positions: np.ndarray, radius: float, metric: str = "manhattan"
) -> nx.Graph:
    """The visibility graph as a ``networkx.Graph`` (one node per agent).

    Primarily intended as a test oracle and for small-scale inspection; the
    simulation core uses :func:`visibility_components` directly.  Needs
    ``networkx``, which is a test-oracle dependency, not one of the
    package's own.
    """
    import networkx as nx

    positions = np.asarray(positions, dtype=np.int64)
    graph = nx.Graph()
    graph.add_nodes_from(range(positions.shape[0]))
    for a, b in visibility_edges(positions, radius, metric=metric):
        graph.add_edge(int(a), int(b))
    return graph
