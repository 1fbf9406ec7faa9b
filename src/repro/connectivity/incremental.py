"""Incremental maintenance of visibility-graph components across steps.

Rebuilding ``G_t(r)`` from scratch at every step costs a full spatial-hash
construction, a full candidate-pair expansion and a full union–find pass,
even though agents move at most one grid cell per step and the edge set of
the sparse regime changes only at the margin.  The
:class:`DeltaConnectivityEngine` maintains the structures across steps
instead:

* the spatial hash is a **persistent per-cell occupancy table** updated by
  moved-agent bucket deltas: decrement the cells the movers left, increment
  the cells they entered — unmoved agents cost nothing, and the key space
  is never swept;
* candidate pairs are generated **only around moved agents**, in two
  stages: an occupancy *screen* (pure table gathers over each mover's
  neighbour cells) keeps only movers that actually have someone nearby — a
  few percent in the sparse regime — and the pair *expansion* then runs on
  that small candidate set against the members of their cells;
* the fresh incident pairs are diffed against the stored edge set into
  *added* and *removed* edges (an edge between two unmoved agents can never
  appear or disappear), and most steps short-circuit right there because
  the movers kept exactly their edges;
* added edges are **unioned into the existing component forest**;
* removed edges trigger a **bounded recompute**: only the label groups that
  lost an edge are dissolved into singletons and re-unioned from their
  surviving incident edges — components untouched by a deletion enter the
  union collapsed to their representative and keep their labels.

Labels are *component representatives*: every agent is labelled with the
smallest flat point index of its connected component.  That is a different
labelling scheme from :func:`repro.connectivity.visibility.visibility_components`
(which compresses labels to ``0 .. C-1``), but it induces exactly the same
partition — and the flooding step of :mod:`repro.core.protocol` depends only
on the partition, so simulations driven by either engine produce bit-for-bit
identical results.  The property suite
(``tests/test_properties_incremental.py``) asserts both the partition
equality per step and the end-to-end result equality.

The ``r = 0`` radius takes the same-cell fast path
(:func:`repro.connectivity.visibility.same_cell_labels`): components of
``G_t(0)`` are exactly the groups of co-located agents, labelled by one
scatter/gather through a persistent node table — no sort, no pairs, no
union–find.

Batched operation
-----------------
One engine instance serves a whole batch of ``R`` replications: the flat
point space is ``N = n_trials * n_agents`` and every trial's cell keys live
in a private column block of the key space, so no candidate pair can cross
trials.  The batched simulation loop compacts finished trials out of its
``(R', k, 2)`` position tensor; the engine keeps per-point state for *all*
trials and is addressed with the loop's ``active`` trial indices, so
finished trials simply freeze (their points stop moving and cost nothing)
and compaction needs no state surgery.

Configurations whose cell-key space would exceed
:data:`SAME_CELL_TABLE_LIMIT` entries (huge grids times many trials) fall
back to per-step recomputation behind the same interface — identical
results, no persistent tables.

Preconditions
-------------
Positions must be integer coordinates inside ``[0, side)``; every built-in
mobility model guarantees this.  The engine validates moved coordinates on
the general path and raises on out-of-range input.  Only the Manhattan
metric is supported (the metric the simulation core uses throughout).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.connectivity.spatial_hash import _ragged_arange
from repro.connectivity.visibility import position_group_key, same_cell_labels
from repro.util.validation import check_positive_int

#: Largest persistent direct-addressed table (entries) the engine keeps —
#: the r = 0 node table and the r > 0 per-cell occupancy tables.
#: Configurations whose key space exceeds it fall back to per-step
#: recomputation behind the same interface.
SAME_CELL_TABLE_LIMIT = 1 << 24


class DeltaConnectivityEngine:
    """Maintain component labels of ``G_t(r)`` across a simulation step loop.

    Parameters
    ----------
    n_agents:
        Agents per trial (``k``).
    radius:
        Transmission radius ``r`` (Manhattan metric).
    side:
        Grid side; coordinates must lie in ``[0, side)``.
    n_trials:
        Number of replications sharing this engine (1 for a serial
        simulation).

    Use :meth:`step` once per simulated time step, *before* the agents move,
    exactly where the recompute path would call ``visibility_components`` /
    ``batched_visibility_labels``.  Steps must be consecutive: the engine
    diffs each call's positions against the previous call's.
    """

    def __init__(self, n_agents: int, radius: float, side: int, n_trials: int = 1) -> None:
        self._k = check_positive_int(n_agents, "n_agents")
        self._side = check_positive_int(side, "side")
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self._radius = float(radius)
        self._n_trials = check_positive_int(n_trials, "n_trials")
        self._n = self._n_trials * self._k

        if self._radius == 0:
            table_entries = self._n_trials * self._side * self._side
            self._scratch: Optional[np.ndarray] = (
                np.empty(table_entries, dtype=np.int64)
                if table_entries <= SAME_CELL_TABLE_LIMIT
                else None
            )
            return

        # ---- general (r > 0) state: fixed cell-key geometry -------------- #
        self._cell_side = max(int(np.ceil(self._radius)), 1)
        n_cells = (self._side - 1) // self._cell_side + 1
        # One slack row/column on each side of every trial's block so the
        # neighbourhood offsets never wrap into another cell row or another
        # trial's block.
        self._key_width = n_cells + 2
        self._col_stride = n_cells + 2
        # Neighbour cells that can actually contain a partner within the
        # radius: with cell side ``ceil(r)``, axis-adjacent cells require
        # r >= 1 (points one cell apart differ by >= 1 in a coordinate) and
        # diagonal cells require r >= 2 (>= 1 in both coordinates).
        if self._radius >= 2:
            offsets = [(0, -1), (0, 1), (-1, -1), (-1, 0), (-1, 1), (1, -1), (1, 0), (1, 1)]
        elif self._radius >= 1:
            offsets = [(0, -1), (0, 1), (-1, 0), (1, 0)]
        else:
            offsets = []
        #: Non-self neighbour cell offsets in key space (self cell handled
        #: separately by the occupancy screen).
        self._nbr_off = np.array(
            [dx * self._key_width + dy for dx, dy in offsets], dtype=np.int64
        )
        #: All cells a pair partner can be in, self cell first.
        self._all_off = np.concatenate([np.zeros(1, dtype=np.int64), self._nbr_off])

        key_space = (self._n_trials * self._col_stride + 1) * self._key_width + 2
        self._fallback = key_space > SAME_CELL_TABLE_LIMIT or self._n >= (1 << 31)
        self._initialised = False
        if self._fallback:
            return
        self._all_live = False
        self._pos = np.zeros((self._n, 2), dtype=np.int64)
        #: Cell key per point (with cell side 1 this doubles as an injective
        #: position key, so change detection is one compare).
        self._keys = np.zeros(self._n, dtype=np.int64)
        #: Fused position key for change detection when cells span several
        #: nodes; -1 marks never-seen points.  Unused when cell side is 1.
        self._poskey = np.full(self._n, -1, dtype=np.int64)
        self._labels = np.arange(self._n, dtype=np.int64)
        self._live = np.zeros(self._n, dtype=bool)
        #: Per-point key-space base (trial column block), fixed at init.
        trials = np.repeat(np.arange(self._n_trials, dtype=np.int64), self._k)
        self._key_base = (trials * self._col_stride + 1) * self._key_width + 1
        if self._cell_side == 1:
            # Epoch-stamped presence tables: scattering every active point's
            # (epoch * N + id) in forward and reverse id order leaves the
            # max and min resident id per cell; entries below the current
            # epoch base are stale and read as "empty", so the tables are
            # never cleared.
            self._present_max = np.zeros(key_space, dtype=np.int64)
            self._present_min = np.zeros(key_space, dtype=np.int64)
            self._epoch = 0
        else:
            #: Persistent per-cell occupancy counts, maintained by bucket
            #: deltas of the agents that changed cell.
            self._cell_count = np.zeros(key_space, dtype=np.int64)
        #: Scratch tables: cell marker for member scans, point/label markers,
        #: compact-id map and identity label map.  All restored after use.
        self._cell_mark = np.zeros(key_space, dtype=bool)
        self._mark = np.zeros(self._n, dtype=bool)
        self._mark2 = np.zeros(self._n, dtype=bool)
        self._label_map = np.arange(self._n, dtype=np.int64)
        self._compact = np.zeros(self._n, dtype=np.int64)
        #: Current edge set encoded as ``lo * N + hi``, sorted ascending.
        self._edge_keys = np.empty(0, dtype=np.int64)
        self._serial_ids = np.arange(self._k, dtype=np.int64) if self._n_trials == 1 else None

    # ------------------------------------------------------------------ #
    @property
    def radius(self) -> float:
        """Transmission radius the engine maintains components for."""
        return self._radius

    @property
    def n_edges(self) -> int:
        """Number of edges currently stored (general path only)."""
        if self._radius == 0 or self._fallback:
            raise AttributeError("this engine mode does not store edges")
        return int(self._edge_keys.size)

    def reset(self) -> None:
        """Forget all state; the next :meth:`step` performs a full rebuild."""
        if self._radius == 0 or self._fallback:
            return
        self._initialised = False
        self._all_live = False
        self._live[:] = False
        self._keys[:] = 0
        self._labels = np.arange(self._n, dtype=np.int64)
        self._edge_keys = np.empty(0, dtype=np.int64)
        if self._cell_side == 1:
            pass  # presence tables go stale by epoch; nothing to clear
        else:
            self._poskey[:] = -1
            self._cell_count[:] = 0

    # ------------------------------------------------------------------ #
    def step(self, positions: np.ndarray, active: Optional[np.ndarray] = None) -> np.ndarray:
        """Labels for the current step's positions.

        Parameters
        ----------
        positions:
            ``(k, 2)`` positions (single-trial engines) or ``(R', k, 2)``
            positions of the still-active trials (batched engines).
        active:
            For batched engines: the original trial index of each row of
            ``positions``, ascending.  Defaults to all trials.  The active
            set may only ever shrink between calls (trials that finish drop
            out), mirroring the batched loop's compaction.

        Returns
        -------
        numpy.ndarray
            ``(k,)`` labels for single-trial input, else ``(R', k)`` labels.
            Two agents share a label iff they are in the same trial and the
            same component; labels of different trials never collide.
        """
        positions = np.asarray(positions, dtype=np.int64)
        single = positions.ndim == 2
        if single:
            positions = positions[None]
        if positions.ndim != 3 or positions.shape[1:] != (self._k, 2):
            raise ValueError(
                f"positions must have shape (R', {self._k}, 2) or ({self._k}, 2), "
                f"got {positions.shape}"
            )
        if active is not None:
            active = np.asarray(active, dtype=np.int64)
            if active.shape != (positions.shape[0],):
                raise ValueError("active must hold one trial index per position row")

        if self._radius == 0:
            if self._scratch is not None:
                labels = same_cell_labels(positions, self._side, scratch=self._scratch)
            else:
                # Table would exceed SAME_CELL_TABLE_LIMIT: group by the
                # scalar (trial, x, y) key instead — same partition, one sort.
                key = position_group_key(positions)
                _, inverse = np.unique(key.ravel(), return_inverse=True)
                labels = inverse.reshape(positions.shape[:2]).astype(np.int64, copy=False)
            return labels[0] if single else labels

        if self._fallback:
            labels = self._recompute_labels(positions)
            return labels[0] if single else labels

        if active is None:
            active = np.arange(positions.shape[0], dtype=np.int64)
        self._advance(positions, active)
        if single:
            # Copy: later repairs update the internal array in place, and a
            # returned view would mutate under a caller holding old labels
            # (the batched branch below copies through its fancy index).
            return self._labels[: self._k].copy()
        return self._labels.reshape(self._n_trials, self._k)[active]

    def _recompute_labels(self, positions: np.ndarray) -> np.ndarray:
        """Per-step recomputation for key spaces too large for the tables."""
        from repro.connectivity.batched import batched_visibility_labels

        return batched_visibility_labels(positions, self._radius)

    # ------------------------------------------------------------------ #
    # General path (r > 0)
    # ------------------------------------------------------------------ #
    def _flat_ids(self, active: np.ndarray) -> np.ndarray:
        if self._serial_ids is not None and active.size == 1 and active[0] == 0:
            return self._serial_ids
        return (active[:, None] * self._k + np.arange(self._k, dtype=np.int64)).ravel()

    def _cell_key_of(self, ids: np.ndarray, flat_pos: np.ndarray) -> np.ndarray:
        """Cell keys of the given flat point ids at the given positions."""
        base = self._key_base[ids]
        if self._cell_side == 1:
            return base + flat_pos[:, 0] * self._key_width + flat_pos[:, 1]
        return (
            base
            + (flat_pos[:, 0] // self._cell_side) * self._key_width
            + flat_pos[:, 1] // self._cell_side
        )

    def _advance(self, positions: np.ndarray, active: np.ndarray) -> None:
        flat_pos = positions.reshape(-1, 2)
        ids = self._flat_ids(active)
        cs1 = self._cell_side == 1

        if not self._initialised:
            self._validate(flat_pos)
            self._live[ids] = True
            self._all_live = ids.size == self._n
            keys = self._cell_key_of(ids, flat_pos)
            self._keys[ids] = keys
            if cs1:
                self._stamp_presence(ids, keys)
                cand, cand_keys = self._screen_presence(ids, keys)
            else:
                self._pos[ids] = flat_pos
                self._poskey[ids] = flat_pos[:, 0] * self._side + flat_pos[:, 1]
                cells, counts = np.unique(keys, return_counts=True)
                self._cell_count[cells] += counts
                cand, cand_keys = self._screen_counts(ids, keys)
            self._initialised = True
            added = self._expand_pairs(cand, cand_keys)
            self._edge_keys = added
            if added.size:
                self._relabel(added, dissolved=None, removed=None)
            return

        if not self._all_live and not self._live[ids].all():
            raise ValueError("active includes a trial the engine has never seen")

        if cs1:
            # With one node per cell the key is an injective position key:
            # change detection, bucket update and screen all run on it.
            key_new = self._key_base[ids] + flat_pos[:, 0] * self._key_width + flat_pos[:, 1]
            changed_mask = key_new != self._keys[ids]
            if not changed_mask.any():
                return
            changed = ids[changed_mask]
            self._validate(flat_pos[changed_mask])
            self._keys[changed] = key_new[changed_mask]
            self._stamp_presence(ids, key_new)
            cand, cand_keys = self._screen_presence(changed, key_new[changed_mask])
        else:
            poskey_new = flat_pos[:, 0] * self._side + flat_pos[:, 1]
            changed_mask = poskey_new != self._poskey[ids]
            if not changed_mask.any():
                return
            changed = ids[changed_mask]
            new_pos = flat_pos[changed_mask]
            self._validate(new_pos)
            self._pos[changed] = new_pos
            self._poskey[changed] = poskey_new[changed_mask]
            new_keys = self._cell_key_of(changed, new_pos)
            old_keys = self._keys[changed]
            moved_cell = new_keys != old_keys
            if moved_cell.any():
                cells, counts = np.unique(old_keys[moved_cell], return_counts=True)
                self._cell_count[cells] -= counts
                cells, counts = np.unique(new_keys[moved_cell], return_counts=True)
                self._cell_count[cells] += counts
                self._keys[changed] = new_keys
            cand, cand_keys = self._screen_counts(changed, new_keys)

        new_inc = self._expand_pairs(cand, cand_keys)
        old_mask = self._incident_mask(changed)
        old_inc = self._edge_keys[old_mask]
        if new_inc.size == old_inc.size and np.array_equal(new_inc, old_inc):
            return  # the moved agents kept exactly their edges: labels stand
        added = new_inc[~_in_sorted(new_inc, old_inc)]
        removed = old_inc[~_in_sorted(old_inc, new_inc)]
        merged = np.concatenate([self._edge_keys[~old_mask], new_inc])
        merged.sort()
        self._edge_keys = merged
        if removed.size:
            self._repair(removed, added)
        elif added.size:
            self._relabel(added, dissolved=None, removed=None)

    def _validate(self, pos: np.ndarray) -> None:
        if pos.size and (pos.min() < 0 or pos.max() >= self._side):
            raise ValueError(f"positions must lie in [0, {self._side}) on both axes")

    def _stamp_presence(self, ids: np.ndarray, keys: np.ndarray) -> None:
        """Refresh the epoch-stamped presence tables for the active points.

        Scattering ascending ``epoch * N + id`` values in forward and
        reverse order leaves the maximum and minimum resident id per cell;
        stale entries from earlier epochs read as "empty" without clearing.
        Frozen trials are never stamped — their agents cannot pair with an
        active trial's movers anyway.
        """
        self._epoch += 1
        values = ids + self._epoch * self._n
        self._present_max[keys] = values
        self._present_min[keys[::-1]] = values[::-1]

    def _screen_presence(
        self, changed: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Movers with company in reach (presence-table screen, cell side 1)."""
        crowded = self._present_min[keys] != self._present_max[keys]
        floor = self._epoch * self._n
        for off in self._nbr_off:
            crowded |= self._present_max[keys + off] >= floor
        return changed[crowded], keys[crowded]

    def _screen_counts(
        self, changed: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Movers with company in reach (occupancy-count screen)."""
        company = self._cell_count[keys]
        for off in self._nbr_off:
            company = company + self._cell_count[keys + off]
        crowded = company > 1  # the mover itself counts once
        return changed[crowded], keys[crowded]

    def _expand_pairs(self, cand: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Sorted encoded edges at the current positions incident to ``cand``.

        Collects the members of every cell a candidate pair can live in
        (mark-table scan), expands candidate x member pairs per cell, and
        filters by distance where cells span several nodes.  Pairs between
        two candidates are found twice and deduplicated.
        """
        empty = np.empty(0, dtype=np.int64)
        if cand.size == 0 or self._n < 2:
            return empty
        target_cells = (keys[:, None] + self._all_off[None, :]).ravel()
        self._cell_mark[target_cells] = True
        # Never-seen points keep cell key 0, which is outside every real
        # block, so scanning the full key array is safe.
        member_mask = self._cell_mark[self._keys]
        if not self._all_live:
            member_mask &= self._live
        members = np.flatnonzero(member_mask)
        self._cell_mark[target_cells] = False
        if members.size < 2:
            return empty
        # Expand candidate x member pairs per target cell via a sorted
        # member index (small: only cells near candidates are involved).
        member_keys = self._keys[members]
        order = np.argsort(member_keys)
        members = members[order]
        member_keys = member_keys[order]
        lo = np.searchsorted(member_keys, target_cells, side="left")
        hi = np.searchsorted(member_keys, target_cells, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        b = members[np.repeat(lo, counts) + _ragged_arange(counts)]
        a = cand[np.repeat(np.arange(target_cells.size), counts) // self._all_off.size]
        keep = a != b
        a, b = a[keep], b[keep]
        if not a.size:
            return empty
        if self._cell_side > 1:
            # Multi-node cells: members can exceed the radius.  With cell
            # side 1 every reachable cell is within Manhattan distance 1 by
            # construction, so no filter is needed there.
            pa, pb = self._pos[a], self._pos[b]
            dist = np.abs(pa[:, 0] - pb[:, 0]) + np.abs(pa[:, 1] - pb[:, 1])
            close = dist <= self._radius
            a, b = a[close], b[close]
            if not a.size:
                return empty
        enc = np.minimum(a, b) * self._n + np.maximum(a, b)
        return np.unique(enc)

    def _incident_mask(self, points: np.ndarray) -> np.ndarray:
        """Mask over the stored edges: which are incident to ``points``."""
        if self._edge_keys.size == 0:
            return np.zeros(0, dtype=bool)
        ea, eb = np.divmod(self._edge_keys, self._n)
        self._mark[points] = True
        mask = self._mark[ea] | self._mark[eb]
        self._mark[points] = False
        return mask

    def _repair(self, removed: np.ndarray, added: np.ndarray) -> None:
        """Bounded recompute of the label groups that lost an edge.

        Only components containing an endpoint of a removed edge are
        dissolved into singletons and re-unioned from their surviving
        incident edges; every other component enters the union as a single
        collapsed node and keeps its representative.
        """
        rem_a, rem_b = np.divmod(removed, self._n)
        dissolved = np.unique(self._labels[np.concatenate([rem_a, rem_b])])
        self._mark[dissolved] = True
        ea, eb = np.divmod(self._edge_keys, self._n)
        touched = self._mark[self._labels[ea]] | self._mark[self._labels[eb]]
        self._mark[dissolved] = False
        union_edges = np.concatenate([self._edge_keys[touched], added])
        self._relabel(union_edges, dissolved=dissolved, removed=removed)

    def _relabel(
        self,
        edge_keys: np.ndarray,
        dissolved: Optional[np.ndarray],
        removed: Optional[np.ndarray],
    ) -> None:
        """Re-derive labels over the bounded universe the change can reach.

        The universe is the endpoints of the unioned (and removed) edges
        plus the representatives of their components; every untouched
        component enters as one collapsed node.  A dissolved component's
        members are all endpoints of its removed or surviving incident edges
        (each member had at least one incident edge, now removed or kept),
        so they are all in the universe and get their labels set directly —
        a split assigns different labels per member.  Everyone else is
        relabelled through a representative map applied in one gather.

        Union-by-minimum keeps the invariant that every component's label is
        its smallest flat point id — the same label a from-scratch
        minimum-representative pass would assign.
        """
        pieces = list(np.divmod(edge_keys, self._n))
        if removed is not None:
            pieces.extend(np.divmod(removed, self._n))
        points = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        if points.size == 0:
            return
        point_labels = self._labels[points]
        # Deduplicate through the scratch marker: flatnonzero returns the
        # universe already sorted, and avoids a length-dependent sort.
        scratch = self._mark2
        scratch[points] = True
        scratch[point_labels] = True
        universe = np.flatnonzero(scratch)
        scratch[universe] = False
        # Compact ids via the persistent map (pure gathers, no searching);
        # only entries written here are read, so no clearing is needed.
        compact = self._compact
        compact[universe] = np.arange(universe.size, dtype=np.int64)
        # Seed forest over the compact universe: dissolved points start as
        # singletons, everyone else collapses onto its representative.
        seed = self._labels[universe]
        if dissolved is not None:
            self._mark[dissolved] = True
            is_dissolved = self._mark[seed]
            seed = np.where(is_dissolved, universe, seed)
        parent = compact[seed]
        if edge_keys.size:
            a = compact[pieces[0]]
            b = compact[pieces[1]]
            # Pointer-jumping union by minimum root, as in
            # UnionFind.union_batch but restricted to the compact universe
            # (this runs on every topology change).  ``universe`` is sorted,
            # so the minimum compact root is the minimum point id.
            while True:
                ra = _chase(parent, a)
                rb = _chase(parent, b)
                diff = ra != rb
                if not diff.any():
                    break
                lo = np.minimum(ra[diff], rb[diff])
                hi = np.maximum(ra[diff], rb[diff])
                parent[hi] = lo
                a, b = lo, hi
        # Compress the (shallow) compact forest and map roots back to ids.
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        new_rep = universe[parent]
        if dissolved is not None:
            # Direct-set the dissolved components' members (all in the
            # universe), then clear the marks.
            member = self._mark[point_labels]
            self._labels[points[member]] = new_rep[compact[points[member]]]
            self._mark[dissolved] = False
        # Relabel whole untouched-but-merged components through their
        # representative: one scatter into the persistent identity map, one
        # gather over the labels, one scatter to restore the identity.
        remap = self._label_map
        remap[universe] = new_rep
        self._labels = remap[self._labels]
        remap[universe] = universe


def _chase(parent: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Roots of ``elements`` in the parent forest, with path halving."""
    roots = np.array(elements, dtype=np.int64, copy=True)
    while True:
        step = parent[roots]
        if np.array_equal(step, roots):
            return roots
        parent[roots] = parent[step]
        roots = parent[roots]


def _in_sorted(values: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in the sorted array ``sorted_ref``."""
    if sorted_ref.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_ref, values)
    np.minimum(idx, sorted_ref.size - 1, out=idx)
    return sorted_ref[idx] == values


def incremental_reference_labels(positions: np.ndarray, radius: float) -> np.ndarray:
    """One-shot engine labels for a static position set (test/bench helper).

    Builds a fresh :class:`DeltaConnectivityEngine` and runs a single step;
    useful to compare the engine's labelling against
    :func:`~repro.connectivity.visibility.visibility_components` without
    driving a trajectory.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (k, 2), got {positions.shape}")
    if positions.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    side = int(positions.max()) + 1 if positions.size else 1
    engine = DeltaConnectivityEngine(positions.shape[0], radius, max(side, 1))
    return engine.step(positions)


def labels_equivalent(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label arrays describe the same partition of the agents.

    The incremental engine labels components by representative point id
    while the recompute path compresses labels to ``0 .. C-1``; both are
    valid inputs to the flooding step, which only depends on the partition.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    _, inv_a = np.unique(a, return_inverse=True)
    _, inv_b = np.unique(b, return_inverse=True)
    # Same partition iff the joint grouping refines neither side.
    joint = inv_a * (inv_b.max() + 1) + inv_b
    return bool(np.unique(joint).size == np.unique(inv_a).size == np.unique(inv_b).size)


__all__ = [
    "DeltaConnectivityEngine",
    "incremental_reference_labels",
    "labels_equivalent",
    "SAME_CELL_TABLE_LIMIT",
]
