"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.connectivity.spatial_hash import neighbor_pairs
from repro.connectivity.unionfind import UnionFind
from repro.connectivity.visibility import visibility_components
from repro.core.protocol import flood_informed, flood_rumors
from repro.grid.geometry import chebyshev_distance, euclidean_distance, manhattan_distance, pairwise_manhattan
from repro.grid.lattice import Grid2D
from repro.grid.tessellation import Tessellation
from repro.mobility.kernels import lazy_step, simple_step

from strategies import point_sets as point_sets_strategy, points

# --------------------------------------------------------------------------- #
# Strategies (shared shapes live in tests/strategies.py)
# --------------------------------------------------------------------------- #
point_sets = point_sets_strategy(max_coord=30)


# --------------------------------------------------------------------------- #
# Geometry
# --------------------------------------------------------------------------- #
class TestGeometryProperties:
    @given(a=points, b=points)
    def test_manhattan_symmetry(self, a, b):
        assert manhattan_distance(a, b) == manhattan_distance(b, a)

    @given(a=points, b=points, c=points)
    def test_manhattan_triangle_inequality(self, a, b, c):
        assert manhattan_distance(a, c) <= manhattan_distance(a, b) + manhattan_distance(b, c)

    @given(a=points)
    def test_identity_of_indiscernibles(self, a):
        assert manhattan_distance(a, a) == 0
        assert chebyshev_distance(a, a) == 0
        assert euclidean_distance(a, a) == 0

    @given(a=points, b=points)
    def test_metric_ordering(self, a, b):
        che = float(chebyshev_distance(a, b))
        euc = float(euclidean_distance(a, b))
        man = float(manhattan_distance(a, b))
        assert che <= euc + 1e-9 <= man + 1e-9 or (che <= euc + 1e-9 and euc <= man + 1e-9)

    @given(pts=point_sets)
    def test_pairwise_matrix_symmetric_zero_diagonal(self, pts):
        mat = pairwise_manhattan(pts)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)


# --------------------------------------------------------------------------- #
# Grid indexing
# --------------------------------------------------------------------------- #
class TestGridProperties:
    @given(side=st.integers(1, 40), x=st.integers(0, 200), y=st.integers(0, 200))
    def test_node_id_roundtrip(self, side, x, y):
        grid = Grid2D(side)
        x, y = x % side, y % side
        nid = grid.node_id(np.array([x, y]))
        assert grid.coords(nid).tolist() == [x, y]
        assert 0 <= nid < grid.n_nodes

    @given(side=st.integers(2, 30), x=st.integers(0, 100), y=st.integers(0, 100))
    def test_neighbors_symmetric(self, side, x, y):
        grid = Grid2D(side)
        node = (x % side, y % side)
        for neighbor in grid.neighbors(node):
            assert node in grid.neighbors(neighbor)

    @given(side=st.integers(2, 20), cell_side=st.integers(1, 25))
    def test_tessellation_covers_grid(self, side, cell_side):
        grid = Grid2D(side)
        tess = Tessellation(grid, cell_side)
        pts = np.array(list(grid.iter_nodes()))
        cells = np.atleast_1d(tess.cell_of(pts))
        assert cells.min() >= 0
        assert cells.max() < tess.n_cells
        # occupancy over all nodes sums to n
        assert tess.occupancy(pts).sum() == grid.n_nodes


# --------------------------------------------------------------------------- #
# Union-find
# --------------------------------------------------------------------------- #
class TestUnionFindProperties:
    @given(
        n=st.integers(2, 40),
        unions=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    def test_component_count_and_labels_consistent(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            uf.union(a % n, b % n)
        labels = uf.labels()
        assert len(set(labels.tolist())) == uf.n_components
        sizes = np.bincount(labels)
        assert sizes.sum() == n
        # component_size agrees with label counts
        for i in range(n):
            assert uf.component_size(i) == sizes[labels[i]]

    @given(
        n=st.integers(2, 30),
        unions=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40),
    )
    def test_connectivity_is_equivalence(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            uf.union(a % n, b % n)
        # reflexive, symmetric by construction; check against labels
        labels = uf.labels()
        for a, b in unions:
            assert labels[a % n] == labels[b % n]


# --------------------------------------------------------------------------- #
# Spatial hash and visibility graph
# --------------------------------------------------------------------------- #
class TestConnectivityProperties:
    @settings(deadline=None)
    @given(pts=point_sets, radius=st.integers(0, 8))
    def test_neighbor_pairs_match_brute_force(self, pts, radius):
        pairs = neighbor_pairs(pts, radius)
        dists = pairwise_manhattan(pts)
        expected = {
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if dists[i, j] <= radius
        }
        assert {(int(a), int(b)) for a, b in pairs} == expected

    @settings(deadline=None)
    @given(pts=point_sets, radius=st.integers(0, 8))
    def test_components_respect_edges(self, pts, radius):
        labels = visibility_components(pts, radius)
        dists = pairwise_manhattan(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if dists[i, j] <= radius:
                    assert labels[i] == labels[j]

    @settings(deadline=None)
    @given(pts=point_sets)
    def test_radius_monotonicity_of_components(self, pts):
        # Increasing the radius can only merge components, never split them.
        small = visibility_components(pts, 1)
        large = visibility_components(pts, 3)
        k = len(pts)
        for i in range(k):
            for j in range(k):
                if small[i] == small[j]:
                    assert large[i] == large[j]


# --------------------------------------------------------------------------- #
# Flooding protocol
# --------------------------------------------------------------------------- #
class TestProtocolProperties:
    @given(
        k=st.integers(1, 40),
        data=st.data(),
    )
    def test_flood_informed_fixpoint_and_monotone(self, k, data):
        informed = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        labels = np.array(
            data.draw(st.lists(st.integers(0, max(1, k // 3)), min_size=k, max_size=k))
        )
        _, labels = np.unique(labels, return_inverse=True)
        result = flood_informed(informed, labels)
        # monotone
        assert np.all(result[informed])
        # idempotent
        assert np.array_equal(flood_informed(result, labels), result)
        # total informed count never decreases
        assert result.sum() >= informed.sum()

    @given(
        k=st.integers(1, 20),
        m=st.integers(1, 6),
        data=st.data(),
    )
    def test_flood_rumors_preserves_component_knowledge(self, k, m, data):
        rumors = np.array(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=m, max_size=m),
                    min_size=k,
                    max_size=k,
                )
            )
        )
        labels = np.array(
            data.draw(st.lists(st.integers(0, max(1, k // 2)), min_size=k, max_size=k))
        )
        _, labels = np.unique(labels, return_inverse=True)
        result = flood_rumors(rumors, labels)
        for label in np.unique(labels):
            members = labels == label
            assert np.array_equal(
                rumors[members].any(axis=0), result[members].any(axis=0)
            )
            # all members identical after flooding
            assert np.all(result[members] == result[members][0])


# --------------------------------------------------------------------------- #
# Random walk steps
# --------------------------------------------------------------------------- #
class TestWalkProperties:
    @settings(deadline=None)
    @given(
        side=st.integers(2, 40),
        k=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_lazy_step_stays_inside_and_moves_at_most_one(self, side, k, seed):
        grid = Grid2D(side)
        rng = np.random.default_rng(seed)
        positions = grid.random_positions(k, rng)
        new = lazy_step(grid, positions, rng)
        assert np.all(grid.contains(new))
        assert np.all(np.abs(new - positions).sum(axis=1) <= 1)

    @settings(deadline=None)
    @given(
        side=st.integers(2, 40),
        k=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_simple_step_always_moves_exactly_one(self, side, k, seed):
        grid = Grid2D(side)
        rng = np.random.default_rng(seed)
        positions = grid.random_positions(k, rng)
        new = simple_step(grid, positions, rng)
        assert np.all(grid.contains(new))
        assert np.all(np.abs(new - positions).sum(axis=1) == 1)
