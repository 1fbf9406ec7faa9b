"""Cell tessellation of the grid used in the proof of Theorem 1.

The upper-bound argument tessellates ``G_n`` into square cells of side
``ℓ = sqrt(14 n log^3 n / (c3 k))`` and tracks, cell by cell, when the rumor
first reaches the cell ("the cell is *reached*", its first informed visitor
being the *explorer*).  The :class:`Tessellation` class provides the mapping
from agent positions to cells, cell adjacency, and per-cell reach-time
tracking used by :mod:`repro.core.metrics` and experiment E6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.grid.lattice import Grid2D
from repro.util.validation import check_positive_int


def paper_cell_side(n_nodes: int, n_agents: int, c3: float = 1.0) -> float:
    """Cell side ``ℓ = sqrt(14 n log^3 n / (c3 k))`` from the proof of Theorem 1.

    ``c3`` is the (unspecified) constant of Lemma 3; the default of 1.0 is a
    convenient normalisation for finite-size experiments.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    n_agents = check_positive_int(n_agents, "n_agents")
    if c3 <= 0:
        raise ValueError(f"c3 must be positive, got {c3}")
    log_n = max(math.log(n_nodes), 1.0)
    return math.sqrt(14.0 * n_nodes * log_n**3 / (c3 * n_agents))


@dataclass
class CellReachRecord:
    """Bookkeeping of when each tessellation cell was first reached."""

    reach_times: np.ndarray
    explorer: np.ndarray

    @property
    def all_reached(self) -> bool:
        """True when every cell has been visited by an informed agent."""
        return bool(np.all(self.reach_times >= 0))

    @property
    def n_reached(self) -> int:
        """Number of cells already reached."""
        return int(np.count_nonzero(self.reach_times >= 0))


class Tessellation:
    """Partition of a :class:`Grid2D` into square cells of a given side.

    Cells are indexed by ``cell_id = cx * cells_per_side + cy`` where
    ``cx = x // cell_side`` (and likewise for ``y``).  The rightmost cells
    may be narrower when ``side`` is not a multiple of ``cell_side``.
    """

    def __init__(self, grid: Grid2D, cell_side: int) -> None:
        self._grid = grid
        self._cell_side = check_positive_int(cell_side, "cell_side")
        self._cells_per_side = math.ceil(grid.side / self._cell_side)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_paper(cls, grid: Grid2D, n_agents: int, c3: float = 1.0) -> "Tessellation":
        """Tessellation with the cell side used in the proof of Theorem 1.

        The theoretical cell side is clipped to ``[1, grid.side]`` so that
        finite-size experiments always obtain a valid tessellation.
        """
        ell = paper_cell_side(grid.n_nodes, n_agents, c3=c3)
        cell_side = int(min(max(1, round(ell)), grid.side))
        return cls(grid, cell_side)

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._grid

    @property
    def cell_side(self) -> int:
        """Side length of each (interior) cell."""
        return self._cell_side

    @property
    def cells_per_side(self) -> int:
        """Number of cells per row/column of the tessellation."""
        return self._cells_per_side

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        return self._cells_per_side * self._cells_per_side

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Tessellation(side={self._grid.side}, cell_side={self._cell_side}, "
            f"n_cells={self.n_cells})"
        )

    # ------------------------------------------------------------------ #
    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Cell identifier(s) of ``(x, y)`` position(s)."""
        pts = np.asarray(positions, dtype=np.int64)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, 2)
        if np.any((pts < 0) | (pts >= self._grid.side)):
            raise ValueError("position outside the grid")
        cx = pts[:, 0] // self._cell_side
        cy = pts[:, 1] // self._cell_side
        ids = cx * self._cells_per_side + cy
        return int(ids[0]) if single else ids

    def cell_coords(self, cell_ids: np.ndarray) -> np.ndarray:
        """``(cx, cy)`` coordinates of cell identifier(s)."""
        ids = np.asarray(cell_ids, dtype=np.int64)
        single = ids.ndim == 0
        ids = np.atleast_1d(ids)
        if np.any((ids < 0) | (ids >= self.n_cells)):
            raise ValueError("cell id outside the tessellation")
        coords = np.stack([ids // self._cells_per_side, ids % self._cells_per_side], axis=1)
        return coords[0] if single else coords

    def cell_center(self, cell_id: int) -> np.ndarray:
        """Grid coordinates of (approximately) the centre node of a cell."""
        cx, cy = self.cell_coords(cell_id)
        x = min(int(cx) * self._cell_side + self._cell_side // 2, self._grid.side - 1)
        y = min(int(cy) * self._cell_side + self._cell_side // 2, self._grid.side - 1)
        return np.array([x, y], dtype=np.int64)

    def adjacent_cells(self, cell_id: int) -> list[int]:
        """Identifiers of the (up to 4) cells sharing a side with ``cell_id``."""
        cx, cy = self.cell_coords(cell_id)
        out: list[int] = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = int(cx) + dx, int(cy) + dy
            if 0 <= nx < self._cells_per_side and 0 <= ny < self._cells_per_side:
                out.append(nx * self._cells_per_side + ny)
        return out

    def occupancy(self, positions: np.ndarray) -> np.ndarray:
        """Number of agents in each cell (length ``n_cells`` array)."""
        cells = np.atleast_1d(self.cell_of(positions))
        return np.bincount(cells, minlength=self.n_cells)

    # ------------------------------------------------------------------ #
    def new_reach_record(self) -> CellReachRecord:
        """Fresh record with all cells marked unreached (time ``-1``)."""
        return CellReachRecord(
            reach_times=np.full(self.n_cells, -1, dtype=np.int64),
            explorer=np.full(self.n_cells, -1, dtype=np.int64),
        )

    def update_reach_record(
        self,
        record: CellReachRecord,
        positions: np.ndarray,
        informed: np.ndarray,
        time: int,
    ) -> CellReachRecord:
        """Mark cells currently hosting informed agents as reached at ``time``.

        The first informed agent observed in an unreached cell becomes the
        cell's *explorer*, mirroring the terminology of the proof.
        """
        informed = np.asarray(informed, dtype=bool)
        if not informed.any():
            return record
        informed_idx = np.flatnonzero(informed)
        cells = np.atleast_1d(self.cell_of(np.asarray(positions)[informed_idx]))
        for agent, cell in zip(informed_idx, cells):
            if record.reach_times[cell] < 0:
                record.reach_times[cell] = time
                record.explorer[cell] = agent
        return record
