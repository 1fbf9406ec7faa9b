"""C sources of the ``cc`` provider.

One translation unit, compiled once per source hash by
:mod:`repro.compiled._cc` into a cached shared object.  Every function is a
line-for-line translation of the reference kernels in
:mod:`repro.compiled.kernels_py` (property-tested against them), plus one
cc-only extension the pure-Python provider does not carry:
``repro_broadcast_r0_block``, the fused multi-step broadcast driver for the
paper's sparse ``r = 0`` regime (flood + count + completion detection +
mobility apply for a whole pre-drawn block of steps in one call).  It runs
trial-major over one ``n_nodes``-byte mark table shared by all trials, and
reads the int32 (or Brownian float64) draw block in place through its
trial stride.  The mobility applies read int32 proposal choices too.

Everything is single-threaded by construction (determinism is part of the
backend contract); numerical semantics match numpy exactly — ``rint`` under
the default FE_TONEAREST mode is round-half-to-even like ``np.rint``, and
the reflection uses a non-negative modulo like ``np.mod``.
"""

from __future__ import annotations

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

typedef int64_t i64;
typedef uint8_t u8;

static const i64 PROP_DX[5] = {0, 1, -1, 0, 0};
static const i64 PROP_DY[5] = {0, 0, 0, 1, -1};

/* ------------------------------------------------------------------ */
/* mobility apply kernels                                             */
/* ------------------------------------------------------------------ */

void repro_apply_lazy(i64 n, i64 side, const i64 *pos, const int32_t *choice, i64 *out)
{
    for (i64 i = 0; i < n; i++) {
        i64 c = choice[i];
        i64 x = pos[2 * i], y = pos[2 * i + 1];
        i64 nx = x + PROP_DX[c], ny = y + PROP_DY[c];
        if (nx < 0 || nx >= side || ny < 0 || ny >= side) { nx = x; ny = y; }
        out[2 * i] = nx;
        out[2 * i + 1] = ny;
    }
}

void repro_apply_masked(i64 n, i64 side, const u8 *free_mask,
                        const i64 *pos, const int32_t *choice, i64 *out)
{
    for (i64 i = 0; i < n; i++) {
        i64 c = choice[i];
        i64 x = pos[2 * i], y = pos[2 * i + 1];
        i64 nx = x + PROP_DX[c], ny = y + PROP_DY[c];
        if (nx < 0 || nx >= side || ny < 0 || ny >= side ||
            !free_mask[nx * side + ny]) { nx = x; ny = y; }
        out[2 * i] = nx;
        out[2 * i + 1] = ny;
    }
}

static i64 reflect1(i64 v, i64 side)
{
    if (side == 1) return 0;
    i64 period = 2 * (side - 1);
    i64 m = v % period;
    if (m < 0) m += period;
    if (m >= side) m = period - m;
    return m;
}

void repro_apply_brownian(i64 n, i64 side, const i64 *pos, const double *disp, i64 *out)
{
    for (i64 i = 0; i < 2 * n; i++)
        out[i] = reflect1(pos[i] + (i64)rint(disp[i]), side);
}

/* ------------------------------------------------------------------ */
/* fused r = 0 broadcast driver                                       */
/* ------------------------------------------------------------------ */

static void clear_marks(i64 k, i64 side, const i64 *p, u8 *marks)
{
    for (i64 i = 0; i < k; i++) marks[p[2 * i] * side + p[2 * i + 1]] = 0;
}

/*
 * Fused multi-step r = 0 broadcast driver.  Runs up to `steps` iterations
 * of flood -> count -> completion check -> mobility apply entirely in C,
 * consuming pre-drawn mobility blocks, trial-major: each trial runs its
 * steps (or until it completes) before the next starts, so its positions,
 * marks and draws stay in cache (trials are independent).  `marks` is one
 * n_nodes-byte table shared by every trial: a step sets the marks at the
 * informed agents' cells, reads them, and clears them (in the move loop,
 * which visits every agent's cell), so it is all-zero on entry and return.
 * apply_kind: 0 none (static), 1 lazy, 2 masked, 3 brownian.  `ichoice` is
 * the int32 draw block (lazy/masked), `fdisp` the double block (brownian);
 * each trial's (steps, k[, 2]) slice is contiguous and starts
 * `draw_stride` elements after the previous trial's.  `done_at` and the
 * (steps, A) record `counts_out` must arrive filled with -1; the steps
 * after a trial completed keep their -1.  Returns the number of steps the
 * longest-running trial ran (short of `steps` only when all completed).
 */
i64 repro_broadcast_r0_block(i64 A, i64 k, i64 side, i64 steps, i64 apply_kind,
                             const u8 *free_mask, const int32_t *ichoice,
                             const double *fdisp, i64 draw_stride,
                             i64 *pos, u8 *informed, u8 *marks,
                             i64 *done_at, i64 *counts_out)
{
    i64 longest = 0;
    for (i64 a = 0; a < A; a++) {
        i64 *p = pos + a * k * 2;
        u8 *inf = informed + a * k;
        i64 s = 0;
        while (s < steps) {
            for (i64 i = 0; i < k; i++)
                if (inf[i]) marks[p[2 * i] * side + p[2 * i + 1]] = 1;
            i64 cnt = 0;
            for (i64 i = 0; i < k; i++) {
                u8 m = marks[p[2 * i] * side + p[2 * i + 1]];
                inf[i] = m;
                cnt += m;
            }
            counts_out[s * A + a] = cnt;
            if (cnt == k) {
                /* Completed this step: record and stop advancing the trial
                 * (its pre-drawn block entries are simply never read, which
                 * leaves every generator exactly where the per-step loop
                 * would leave it). */
                done_at[a] = s++;
                clear_marks(k, side, p, marks);
                break;
            }
            if (apply_kind == 1 || apply_kind == 2) {
                const int32_t *ch = ichoice + a * draw_stride + s * k;
                for (i64 i = 0; i < k; i++) {
                    i64 x = p[2 * i], y = p[2 * i + 1];
                    marks[x * side + y] = 0;
                    i64 c = ch[i];
                    i64 nx = x + PROP_DX[c], ny = y + PROP_DY[c];
                    if (nx < 0 || nx >= side || ny < 0 || ny >= side ||
                        (apply_kind == 2 && !free_mask[nx * side + ny])) {
                        nx = x; ny = y;
                    }
                    p[2 * i] = nx;
                    p[2 * i + 1] = ny;
                }
            } else {
                clear_marks(k, side, p, marks);
                if (apply_kind == 3) {
                    const double *d = fdisp + a * draw_stride + s * k * 2;
                    for (i64 i = 0; i < 2 * k; i++)
                        p[i] = reflect1(p[i] + (i64)rint(d[i]), side);
                }
            }
            s++;
        }
        if (s > longest) longest = s;
    }
    return longest;
}

/* ------------------------------------------------------------------ */
/* component labelling                                                */
/* ------------------------------------------------------------------ */

typedef struct { i64 key; i64 idx; } KeyIdx;

/*
 * Stable LSD radix sort of ki[0..n) by key (0 <= key <= max_key), one
 * 8-bit digit per pass, ping-ponging through tmp (n more entries).  The
 * entries arrive in idx order, so equal keys stay sorted by idx.  A pass
 * whose digit is the same for every entry is skipped; below SMALL_SORT
 * entries a (equally stable) insertion sort beats the 256-slot passes.
 */
#define SMALL_SORT 32

static void radix_sort_keys(KeyIdx *ki, KeyIdx *tmp, i64 n, i64 max_key)
{
    if (n < SMALL_SORT) {
        for (i64 i = 1; i < n; i++) {
            KeyIdx e = ki[i];
            i64 j = i;
            while (j > 0 && ki[j - 1].key > e.key) { ki[j] = ki[j - 1]; j--; }
            ki[j] = e;
        }
        return;
    }
    i64 count[256];
    KeyIdx *src = ki, *dst = tmp;
    for (int shift = 0; shift < 64 && (max_key >> shift) > 0; shift += 8) {
        for (int d = 0; d < 256; d++) count[d] = 0;
        for (i64 i = 0; i < n; i++) count[(src[i].key >> shift) & 255]++;
        if (count[(src[0].key >> shift) & 255] == n) continue;
        i64 sum = 0;
        for (int d = 0; d < 256; d++) { i64 c = count[d]; count[d] = sum; sum += c; }
        for (i64 i = 0; i < n; i++) dst[count[(src[i].key >> shift) & 255]++] = src[i];
        KeyIdx *t = src; src = dst; dst = t;
    }
    if (src != ki)
        for (i64 i = 0; i < n; i++) ki[i] = src[i];
}

static i64 uf_find(i64 *parent, i64 i)
{
    i64 root = i;
    while (parent[root] != root) root = parent[root];
    while (parent[i] != root) { i64 nxt = parent[i]; parent[i] = root; i = nxt; }
    return root;
}

static void uf_union(i64 *parent, i64 *rank_, i64 a, i64 b)
{
    i64 ra = uf_find(parent, a), rb = uf_find(parent, b);
    if (ra == rb) return;
    if (rank_[ra] < rank_[rb]) parent[ra] = rb;
    else if (rank_[ra] > rank_[rb]) parent[rb] = ra;
    else { parent[rb] = ra; rank_[ra]++; }
}

static void min_label_pass(i64 *parent, i64 *minid, i64 base, i64 k, i64 *out)
{
    for (i64 i = 0; i < k; i++) minid[i] = k;
    for (i64 i = 0; i < k; i++) {
        i64 root = uf_find(parent, i);
        if (i < minid[root]) minid[root] = i;
    }
    for (i64 i = 0; i < k; i++) out[i] = base + minid[parent[i]];
}

/*
 * Batched component labels: for every trial, two agents share a label iff
 * they are connected in G_t(radius) under the Manhattan metric; the label
 * is trial * k + (min flat index of the component).  Each trial's agents
 * are radix-sorted by cell key; the same cell is scanned forward in the
 * sorted run, and each of the four forward-neighbour cells through a
 * cursor that only moves forward (the targets grow with the key).
 * The scratch (2k KeyIdx, then parent/rank/minid of k i64 each) is
 * allocated per call, so concurrent calls share nothing.  Returns 0, or -1
 * when the scratch cannot be allocated (labels untouched).
 */
i64 repro_labels_batch(i64 n_trials, i64 k, const i64 *pos, double radius, i64 *labels)
{
    if (n_trials <= 0 || k <= 0) return 0;
    KeyIdx *ki = malloc((size_t)k * (2 * sizeof(KeyIdx) + 3 * sizeof(i64)));
    if (ki == NULL) return -1;
    i64 *parent = (i64 *)(ki + 2 * k), *rank_ = parent + k, *minid = rank_ + k;
    i64 cell = radius <= 0 ? 1 : (i64)ceil(radius);
    for (i64 r = 0; r < n_trials; r++) {
        const i64 *p = pos + r * k * 2;
        i64 *lab = labels + r * k;
        i64 xmin = p[0], ymin = p[1], ymax = p[1];
        for (i64 i = 1; i < k; i++) {
            if (p[2 * i] < xmin) xmin = p[2 * i];
            if (p[2 * i + 1] < ymin) ymin = p[2 * i + 1];
            if (p[2 * i + 1] > ymax) ymax = p[2 * i + 1];
        }
        i64 max_key = 0;
        if (radius <= 0) {
            i64 width = ymax - ymin + 1;
            for (i64 i = 0; i < k; i++) {
                i64 key = (p[2 * i] - xmin) * width + (p[2 * i + 1] - ymin);
                ki[i].key = key;
                ki[i].idx = i;
                if (key > max_key) max_key = key;
            }
            radix_sort_keys(ki, ki + k, k, max_key);
            i64 start = 0;
            while (start < k) {
                i64 stop = start + 1;
                while (stop < k && ki[stop].key == ki[start].key) stop++;
                i64 lo = ki[start].idx; /* stable sort: first is min */
                for (i64 s = start; s < stop; s++) lab[ki[s].idx] = r * k + lo;
                start = stop;
            }
            continue;
        }
        i64 width = (ymax - ymin) / cell + 3;
        for (i64 i = 0; i < k; i++) {
            i64 cx = (p[2 * i] - xmin) / cell;
            i64 cy = (p[2 * i + 1] - ymin) / cell;
            i64 key = cx * width + cy + 1;
            ki[i].key = key;
            ki[i].idx = i;
            if (key > max_key) max_key = key;
        }
        radix_sort_keys(ki, ki + k, k, max_key);
        for (i64 i = 0; i < k; i++) { parent[i] = i; rank_[i] = 0; }
        i64 offs[4], cursor[4] = {0, 0, 0, 0};
        offs[0] = 1; offs[1] = width - 1; offs[2] = width; offs[3] = width + 1;
        for (i64 si = 0; si < k; si++) {
            i64 i = ki[si].idx;
            i64 xi = p[2 * i], yi = p[2 * i + 1];
            for (i64 sj = si + 1; sj < k && ki[sj].key == ki[si].key; sj++) {
                i64 j = ki[sj].idx;
                i64 dist = llabs(xi - p[2 * j]) + llabs(yi - p[2 * j + 1]);
                if ((double)dist <= radius) uf_union(parent, rank_, i, j);
            }
            for (int o = 0; o < 4; o++) {
                i64 target = ki[si].key + offs[o];
                i64 sj = cursor[o];
                while (sj < k && ki[sj].key < target) sj++;
                cursor[o] = sj;
                for (; sj < k && ki[sj].key == target; sj++) {
                    i64 j = ki[sj].idx;
                    i64 dist = llabs(xi - p[2 * j]) + llabs(yi - p[2 * j + 1]);
                    if ((double)dist <= radius) uf_union(parent, rank_, i, j);
                }
            }
        }
        for (i64 i = 0; i < k; i++) parent[i] = uf_find(parent, i);
        min_label_pass(parent, minid, r * k, k, lab);
    }
    free(ki);
    return 0;
}
"""
