"""Loop-level reference kernels of the compiled backend.

These are the *source of truth* for every compiled hot kernel: plain-Python
loop implementations written in the restricted style a C translation
follows line for line (no fancy indexing, no Python objects, out-parameters
instead of allocation-heavy returns).  Both providers share them:

* the **cc** provider is a line-for-line C translation
  (:mod:`repro.compiled._csrc`), property-tested against these references;
* the **python** provider runs them uncompiled — far too slow for real
  workloads, but always importable, which is what lets the test suite pin
  the kernel *logic* even on hosts without a C toolchain.

Semantics contracts (each mirrors an existing numpy kernel):

* ``apply_lazy`` == :func:`repro.mobility.kernels.apply_lazy_choices`;
* ``apply_masked`` == :func:`repro.mobility.kernels.apply_masked_choices`;
* ``apply_brownian`` == ``BrownianMobility._apply`` (round-half-to-even via
  ``np.rint``, billiard reflection into ``[0, side - 1]``);
* ``labels_batch`` induces exactly the partition of
  :func:`repro.connectivity.batched.batched_visibility_labels` (Manhattan
  metric), with the *min flat agent index + trial offset* as representative
  — non-dense but non-negative and cross-trial distinct, which is all the
  flooding/label consumers require.
"""

from __future__ import annotations

import numpy as np

#: Proposal displacements, row i = proposal i (stay, +x, -x, +y, -y).
_PROP_DX = np.array([0, 1, -1, 0, 0], dtype=np.int64)
_PROP_DY = np.array([0, 0, 0, 1, -1], dtype=np.int64)


def apply_lazy(side, positions, choice, out):
    """Lazy-walk proposal application over an ``(R, k, 2)`` tensor."""
    n_trials, k = positions.shape[0], positions.shape[1]
    for r in range(n_trials):
        for i in range(k):
            c = choice[r, i]
            x = positions[r, i, 0]
            y = positions[r, i, 1]
            nx = x + _PROP_DX[c]
            ny = y + _PROP_DY[c]
            if nx < 0 or nx >= side or ny < 0 or ny >= side:
                nx = x
                ny = y
            out[r, i, 0] = nx
            out[r, i, 1] = ny


def apply_masked(side, free_mask, positions, choice, out):
    """Masked proposal application (obstacle walk) over ``(R, k, 2)``.

    ``free_mask`` is the flattened ``(side * side,)`` uint8 mask,
    ``free_mask[x * side + y] != 0`` meaning node ``(x, y)`` is free.
    """
    n_trials, k = positions.shape[0], positions.shape[1]
    for r in range(n_trials):
        for i in range(k):
            c = choice[r, i]
            x = positions[r, i, 0]
            y = positions[r, i, 1]
            nx = x + _PROP_DX[c]
            ny = y + _PROP_DY[c]
            if nx < 0 or nx >= side or ny < 0 or ny >= side or free_mask[nx * side + ny] == 0:
                nx = x
                ny = y
            out[r, i, 0] = nx
            out[r, i, 1] = ny


def _reflect(value, side):
    """Billiard reflection of one coordinate into ``[0, side - 1]``."""
    if side == 1:
        return np.int64(0)
    period = 2 * (side - 1)
    m = value % period
    if m < 0:
        m += period
    if m >= side:
        m = period - m
    return m


def apply_brownian(side, positions, displacement, out):
    """Rounded-Gaussian displacement with boundary reflection, batch-wide."""
    n_trials, k = positions.shape[0], positions.shape[1]
    for r in range(n_trials):
        for i in range(k):
            for d in range(2):
                # np.rint rounds half to even; so does round-half-even here.
                step = np.int64(np.rint(displacement[r, i, d]))
                out[r, i, d] = _reflect(positions[r, i, d] + step, side)


def _uf_find(parent, i):
    """Union-find root with full path compression."""
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        nxt = parent[i]
        parent[i] = root
        i = nxt
    return root


def _uf_union(parent, rank, a, b):
    ra = _uf_find(parent, a)
    rb = _uf_find(parent, b)
    if ra == rb:
        return
    if rank[ra] < rank[rb]:
        parent[ra] = rb
    elif rank[ra] > rank[rb]:
        parent[rb] = ra
    else:
        parent[rb] = ra
        rank[ra] += 1


def _min_label_pass(parent, minid, base, k, row, out_labels):
    """Assign ``base + min component member`` as every agent's label."""
    for i in range(k):
        minid[i] = k
    for i in range(k):
        root = _uf_find(parent, i)
        if i < minid[root]:
            minid[root] = i
    for i in range(k):
        out_labels[row, i] = base + minid[parent[i]]


#: Below this many entries ``_radix_sort`` insertion-sorts instead.
_SMALL_SORT = 32


def _radix_sort(key, order, tmp_key, tmp_order, count, max_key):
    """Stable LSD radix sort of ``(key, order)`` pairs by key, in place.

    One 8-bit digit per pass (``count`` holds the 256-slot histogram),
    ping-ponging through ``tmp_key``/``tmp_order``; a pass whose digit is
    the same for every entry is skipped.  Keys lie in ``[0, max_key]``.
    Pairs that arrive in ``order`` order leave with equal keys still in
    that order.  Below ``_SMALL_SORT`` entries an (equally stable)
    insertion sort beats the 256-slot passes.
    """
    n = key.shape[0]
    if n < _SMALL_SORT:
        for i in range(1, n):
            moving_key = key[i]
            moving_order = order[i]
            j = i
            while j > 0 and key[j - 1] > moving_key:
                key[j] = key[j - 1]
                order[j] = order[j - 1]
                j -= 1
            key[j] = moving_key
            order[j] = moving_order
        return
    src_key, src_order, dst_key, dst_order = key, order, tmp_key, tmp_order
    swapped = False
    shift = 0
    while shift < 64 and (max_key >> shift) > 0:
        for d in range(256):
            count[d] = 0
        for i in range(n):
            count[(src_key[i] >> shift) & 255] += 1
        if count[(src_key[0] >> shift) & 255] != n:
            total = 0
            for d in range(256):
                c = count[d]
                count[d] = total
                total += c
            for i in range(n):
                d = (src_key[i] >> shift) & 255
                dst_key[count[d]] = src_key[i]
                dst_order[count[d]] = src_order[i]
                count[d] += 1
            src_key, dst_key = dst_key, src_key
            src_order, dst_order = dst_order, src_order
            swapped = not swapped
        shift += 8
    if swapped:
        for i in range(n):
            key[i] = src_key[i]
            order[i] = src_order[i]


def labels_batch(positions, radius, out_labels):
    """Fused cell-key build + radix sort + candidate sweep + union-find, per trial.

    Produces, for every trial ``r``, labels where two agents share a value
    iff they lie within Manhattan distance ``radius`` transitively; the
    shared value is ``r * k + (min flat index of the component)``.  Each
    trial's agents are radix-sorted by cell key; the same cell is scanned
    forward in the sorted run, and each of the four forward-neighbour cells
    through a cursor that only moves forward (targets grow with the key).
    """
    n_trials, k = positions.shape[0], positions.shape[1]
    key = np.empty(k, dtype=np.int64)
    order = np.empty(k, dtype=np.int64)
    tmp_key = np.empty(k, dtype=np.int64)
    tmp_order = np.empty(k, dtype=np.int64)
    count = np.empty(256, dtype=np.int64)
    parent = np.empty(k, dtype=np.int64)
    rank = np.zeros(k, dtype=np.int64)
    minid = np.empty(k, dtype=np.int64)
    offsets = np.empty(4, dtype=np.int64)
    cursor = np.empty(4, dtype=np.int64)
    cell = np.int64(1) if radius <= 0 else np.int64(np.ceil(radius))
    for r in range(n_trials):
        xmin = positions[r, 0, 0]
        ymin = positions[r, 0, 1]
        ymax = positions[r, 0, 1]
        for i in range(1, k):
            if positions[r, i, 0] < xmin:
                xmin = positions[r, i, 0]
            if positions[r, i, 1] < ymin:
                ymin = positions[r, i, 1]
            if positions[r, i, 1] > ymax:
                ymax = positions[r, i, 1]
        max_key = np.int64(0)
        if radius <= 0:
            # Exact-position grouping: sort by node key, label runs.
            width = ymax - ymin + 1
            for i in range(k):
                key[i] = (positions[r, i, 0] - xmin) * width + (positions[r, i, 1] - ymin)
                order[i] = i
                if key[i] > max_key:
                    max_key = key[i]
            _radix_sort(key, order, tmp_key, tmp_order, count, max_key)
            start = 0
            while start < k:
                stop = start + 1
                while stop < k and key[stop] == key[start]:
                    stop += 1
                lo = order[start]  # stable sort: a run starts at its min member
                for s in range(start, stop):
                    out_labels[r, order[s]] = r * k + lo
                start = stop
            continue
        # r > 0: bucket into cells of side >= radius; only the same cell and
        # the four forward-neighbour cells can hold a within-radius partner.
        width = (ymax - ymin) // cell + 3
        for i in range(k):
            cx = (positions[r, i, 0] - xmin) // cell
            cy = (positions[r, i, 1] - ymin) // cell
            key[i] = cx * width + cy + 1
            order[i] = i
            if key[i] > max_key:
                max_key = key[i]
        _radix_sort(key, order, tmp_key, tmp_order, count, max_key)
        for i in range(k):
            parent[i] = i
            rank[i] = 0
        # Forward neighbour cells: +y, +x-y, +x, +x+y in key space.
        offsets[0] = 1
        offsets[1] = width - 1
        offsets[2] = width
        offsets[3] = width + 1
        for o in range(4):
            cursor[o] = 0
        for si in range(k):
            i = order[si]
            xi = positions[r, i, 0]
            yi = positions[r, i, 1]
            # Same cell: forward half of the sorted run.
            sj = si + 1
            while sj < k and key[sj] == key[si]:
                j = order[sj]
                dist = abs(xi - positions[r, j, 0]) + abs(yi - positions[r, j, 1])
                if dist <= radius:
                    _uf_union(parent, rank, i, j)
                sj += 1
            for o in range(4):
                target = key[si] + offsets[o]
                sj = cursor[o]
                while sj < k and key[sj] < target:
                    sj += 1
                cursor[o] = sj
                while sj < k and key[sj] == target:
                    j = order[sj]
                    dist = abs(xi - positions[r, j, 0]) + abs(yi - positions[r, j, 1])
                    if dist <= radius:
                        _uf_union(parent, rank, i, j)
                    sj += 1
        # Compress everything so the label pass can read parent[i] directly.
        for i in range(k):
            parent[i] = _uf_find(parent, i)
        _min_label_pass(parent, minid, r * k, k, r, out_labels)
