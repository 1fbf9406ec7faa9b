"""Property-based checks of the baseline models.

The dense model's single-hop exchange marks the informed agents' nodes and
informs every agent within ``R`` of a mark through an L1 distance transform.
The reference here is the exchange it replaced: enumerate every pair within
``R`` and inform each uninformed end of a pair with an informed one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.dense_model import _single_hop_exchange
from repro.connectivity.spatial_hash import neighbor_pairs

from tests.strategies import dense_exchanges, max_examples


def pair_exchange(positions: np.ndarray, informed: np.ndarray, radius: float) -> np.ndarray:
    """The single-hop exchange by pair enumeration, O(k·R²) per round."""
    new_informed = informed.copy()
    pairs = neighbor_pairs(positions, radius)
    if pairs.size:
        a, b = pairs[:, 0], pairs[:, 1]
        new_informed[b[informed[a]]] = True
        new_informed[a[informed[b]]] = True
    return new_informed


@pytest.mark.property
@given(case=dense_exchanges())
@settings(
    deadline=None,
    max_examples=max_examples(150),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_dilation_exchange_equals_pair_exchange(case):
    positions, informed, radius, side = case
    before = informed.copy()
    got = _single_hop_exchange(positions, informed, radius, side)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, pair_exchange(positions, before, radius))
    np.testing.assert_array_equal(informed, before)


@pytest.mark.parametrize("side", [1, 2, 5, 8])
def test_one_corner_reaches_every_distance(side):
    """One informed agent in a corner, an agent on every node: each radius up
    to the diameter informs exactly the nodes within it."""
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    positions = np.stack([xs.ravel(), ys.ravel()], axis=1)
    informed = np.zeros(len(positions), dtype=bool)
    informed[0] = True
    for radius in range(2 * side):
        got = _single_hop_exchange(positions, informed, float(radius), side)
        np.testing.assert_array_equal(got, positions.sum(axis=1) <= radius)
        np.testing.assert_array_equal(got, pair_exchange(positions, informed, float(radius)))


@pytest.mark.parametrize("radius", [0.0, 64.0, float("inf")])
def test_no_informed_agent_informs_no_one(radius):
    positions = np.array([[0, 0], [3, 3], [3, 3]])
    informed = np.zeros(3, dtype=bool)
    assert not _single_hop_exchange(positions, informed, radius, side=4).any()
