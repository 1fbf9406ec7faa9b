"""C sources of the ``cc`` provider.

One translation unit, compiled once per source hash by
:mod:`repro.compiled._cc` into a cached shared object.  The apply and
labels kernels are line-for-line translations of the reference kernels in
:mod:`repro.compiled.kernels_py` (property-tested against them); the
mobility applies read int32 proposal choices.  On top of them sit the
cc-only *native block kinds*, which the pure-Python provider does not
carry: each runs a whole block of steps of one ``r_eff = 0`` process in one
call, trial-major over one ``n_nodes``-byte mark table shared by all trials
(``flood_r0``, ``clear_marks``), with shared moves (``move_unmark`` for the
lazy, masked and Brownian draw blocks, read in place through their trial
stride; ``lazy_move`` for per-trial lazy tapes).  The kinds are the
broadcast without and with its frontier and coverage observables
(``repro_broadcast_r0_block``, ``repro_broadcast_r0_observed_block``), the
Frog model (``repro_frog_r0_block``), predator–prey
(``repro_predator_prey_r0_block``) and the lazy cover process
(``repro_cover_lazy_block``); they are tested against the serial loops
through the backend-equivalence properties.

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
/* native r = 0 block kinds                                           */
/* ------------------------------------------------------------------ */

/*
 * Every kind runs up to `steps` steps of A independent trials in one call,
 * trial-major: each trial runs its steps (or until it is done) before the
 * next starts, so its state stays in cache.  `marks` is one n_nodes-byte
 * table shared by every trial: a step sets the marks at some agents'
 * cells, reads them and clears them, so it is all-zero on entry and
 * return.  `done_at` (A) and the (steps, A) record `counts_out` arrive
 * filled with -1; a trial done at block step s gets done_at = s and keeps
 * -1 in the steps after it.  A done trial stops before its move: its unread
 * draws leave every generator where the per-step loop would.  Each kind
 * returns the steps its longest-running trial ran (short of `steps` only
 * when every trial is done).
 *
 * Block-draw kinds read the int32 (lazy, masked) or double (brownian) draw
 * block in place: each trial's (steps, k[, 2]) slice is contiguous and
 * starts `draw_stride` elements after the previous trial's.  apply_kind:
 * 0 none (static), 1 lazy, 2 masked, 3 brownian.  Tape kinds read the lazy
 * proposals of trial rows[a] from its `width`-entry row of `tape`, from
 * cursor[rows[a]] on, one per moving agent in walker order, and leave the
 * cursor after the last one read.
 */

static void clear_marks(i64 k, i64 side, const i64 *p, u8 *marks)
{
    for (i64 i = 0; i < k; i++) marks[p[2 * i] * side + p[2 * i + 1]] = 0;
}

/* Flood at r = 0: mark the informed agents' cells, then inform every agent
 * on a marked cell.  Returns the informed count; the marks stay set. */
static inline i64 flood_r0(i64 k, i64 side, const i64 *p, u8 *inf, u8 *marks)
{
    for (i64 i = 0; i < k; i++)
        if (inf[i]) marks[p[2 * i] * side + p[2 * i + 1]] = 1;
    i64 cnt = 0;
    for (i64 i = 0; i < k; i++) {
        u8 m = marks[p[2 * i] * side + p[2 * i + 1]];
        inf[i] = m;
        cnt += m;
    }
    return cnt;
}

/* Move every agent one step of apply_kind and clear the mark at its cell.
 * The step's draws start `base` elements into the block, at block step s. */
static inline void move_unmark(i64 k, i64 side, i64 apply_kind, const u8 *free_mask,
                               const int32_t *ichoice, const double *fdisp, i64 base,
                               i64 s, i64 *p, u8 *marks)
{
    if (apply_kind == 1 || apply_kind == 2) {
        const int32_t *ch = ichoice + base + s * k;
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
            const double *d = fdisp + base + s * k * 2;
            for (i64 i = 0; i < 2 * k; i++)
                p[i] = reflect1(p[i] + (i64)rint(d[i]), side);
        }
    }
}

/* One lazy proposal c of the agent at p: its target, unless off the grid. */
static inline void lazy_move(i64 side, i64 c, i64 *p)
{
    i64 nx = p[0] + PROP_DX[c], ny = p[1] + PROP_DY[c];
    if (nx >= 0 && nx < side && ny >= 0 && ny < side) { p[0] = nx; p[1] = ny; }
}

/* The unobserved broadcast: flood -> count -> completion -> move. */
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
            i64 cnt = flood_r0(k, side, p, inf, marks);
            counts_out[s * A + a] = cnt;
            if (cnt == k) {
                done_at[a] = s++;
                clear_marks(k, side, p, marks);
                break;
            }
            move_unmark(k, side, apply_kind, free_mask, ichoice, fdisp, a * draw_stride, s,
                        p, marks);
            s++;
        }
        if (s > longest) longest = s;
    }
    return longest;
}

/*
 * The broadcast with its observables.  `frontier` (A), unless NULL, is each
 * trial's rightmost informed column so far, recorded after every step in
 * the (steps, A) `frontier_out`.  `visited` (A, n_nodes), unless NULL, is
 * each trial's table of the nodes its informed agents occupied, and
 * `n_visited` (A) its count.  `btime` and `ctime` (A) hold the broadcast
 * and coverage times, counted from t0 at block step 0, or -1.  A trial is
 * done once it is broadcast and, when coverage is recorded, covered.
 */
i64 repro_broadcast_r0_observed_block(i64 A, i64 k, i64 side, i64 steps, i64 apply_kind,
                                      const u8 *free_mask, const int32_t *ichoice,
                                      const double *fdisp, i64 draw_stride,
                                      i64 *pos, u8 *informed, u8 *marks, i64 t0, i64 *btime,
                                      i64 *frontier, i64 *frontier_out, u8 *visited,
                                      i64 *n_visited, i64 *ctime,
                                      i64 *done_at, i64 *counts_out)
{
    i64 n_nodes = side * side, longest = 0;
    for (i64 a = 0; a < A; a++) {
        i64 *p = pos + a * k * 2;
        u8 *inf = informed + a * k;
        u8 *vis = visited ? visited + a * n_nodes : NULL;
        i64 s = 0;
        while (s < steps) {
            i64 cnt = flood_r0(k, side, p, inf, marks);
            counts_out[s * A + a] = cnt;
            if (frontier) {
                for (i64 i = 0; i < k; i++)
                    if (inf[i] && p[2 * i] > frontier[a]) frontier[a] = p[2 * i];
                frontier_out[s * A + a] = frontier[a];
            }
            if (cnt == k && btime[a] < 0) btime[a] = t0 + s;
            if (vis) {
                for (i64 i = 0; i < k; i++) {
                    i64 node = p[2 * i] * side + p[2 * i + 1];
                    if (inf[i] && !vis[node]) { vis[node] = 1; n_visited[a]++; }
                }
                if (n_visited[a] == n_nodes && ctime[a] < 0) ctime[a] = t0 + s;
            }
            if (btime[a] >= 0 && (!vis || ctime[a] >= 0)) {
                done_at[a] = s++;
                clear_marks(k, side, p, marks);
                break;
            }
            move_unmark(k, side, apply_kind, free_mask, ichoice, fdisp, a * draw_stride, s,
                        p, marks);
            s++;
        }
        if (s > longest) longest = s;
    }
    return longest;
}

/* The Frog model: flood and count as the broadcast does, then only the
 * informed agents move. */
i64 repro_frog_r0_block(i64 A, i64 k, i64 side, i64 steps, const int32_t *tape, i64 width,
                        const i64 *rows, i64 *cursor, i64 *pos, u8 *informed, u8 *marks,
                        i64 *done_at, i64 *counts_out)
{
    i64 longest = 0;
    for (i64 a = 0; a < A; a++) {
        i64 *p = pos + a * k * 2;
        u8 *inf = informed + a * k;
        const int32_t *tp = tape + rows[a] * width;
        i64 c = cursor[rows[a]], s = 0;
        while (s < steps) {
            i64 cnt = flood_r0(k, side, p, inf, marks);
            counts_out[s * A + a] = cnt;
            clear_marks(k, side, p, marks);
            if (cnt == k) {
                done_at[a] = s++;
                break;
            }
            for (i64 i = 0; i < k; i++)
                if (inf[i]) lazy_move(side, tp[c++], p + 2 * i);
            s++;
        }
        cursor[rows[a]] = c;
        if (s > longest) longest = s;
    }
    return longest;
}

/*
 * Predator-prey.  A trial's first kp agents are the predators and the m
 * after them the preys.  A living prey on a predator's cell dies; then the
 * predators move and, with preys_move, the living preys.  The record is
 * the living preys; a trial is done when none lives.
 */
i64 repro_predator_prey_r0_block(i64 A, i64 kp, i64 m, i64 side, i64 steps, i64 preys_move,
                                 const int32_t *tape, i64 width, const i64 *rows,
                                 i64 *cursor, i64 *pos, u8 *alive, u8 *marks,
                                 i64 *done_at, i64 *counts_out)
{
    i64 longest = 0;
    for (i64 a = 0; a < A; a++) {
        i64 *p = pos + a * (kp + m) * 2, *q = p + 2 * kp;
        u8 *live = alive + a * m;
        const int32_t *tp = tape + rows[a] * width;
        i64 c = cursor[rows[a]], s = 0;
        while (s < steps) {
            for (i64 i = 0; i < kp; i++) marks[p[2 * i] * side + p[2 * i + 1]] = 1;
            i64 cnt = 0;
            for (i64 j = 0; j < m; j++) {
                if (live[j] && marks[q[2 * j] * side + q[2 * j + 1]]) live[j] = 0;
                cnt += live[j];
            }
            clear_marks(kp, side, p, marks);
            counts_out[s * A + a] = cnt;
            if (cnt == 0) {
                done_at[a] = s++;
                break;
            }
            for (i64 i = 0; i < kp; i++) lazy_move(side, tp[c++], p + 2 * i);
            if (preys_move)
                for (i64 j = 0; j < m; j++)
                    if (live[j]) lazy_move(side, tp[c++], q + 2 * j);
            s++;
        }
        cursor[rows[a]] = c;
        if (s > longest) longest = s;
    }
    return longest;
}

/*
 * The lazy cover process: every walker moves one lazy step and marks its
 * node in the trial's n_nodes-byte `visited` table.  The record is the
 * count `n_visited` (A); a trial is done once every node is visited.
 */
i64 repro_cover_lazy_block(i64 A, i64 k, i64 side, i64 steps, const int32_t *ichoice,
                           i64 draw_stride, i64 *pos, u8 *visited, i64 *n_visited,
                           i64 *done_at, i64 *counts_out)
{
    i64 n_nodes = side * side, longest = 0;
    for (i64 a = 0; a < A; a++) {
        i64 *p = pos + a * k * 2;
        u8 *vis = visited + a * n_nodes;
        i64 s = 0;
        while (s < steps) {
            const int32_t *ch = ichoice + a * draw_stride + s * k;
            for (i64 i = 0; i < k; i++) {
                lazy_move(side, ch[i], p + 2 * i);
                i64 node = p[2 * i] * side + p[2 * i + 1];
                if (!vis[node]) { vis[node] = 1; n_visited[a]++; }
            }
            counts_out[s * A + a] = n_visited[a];
            if (n_visited[a] == n_nodes) {
                done_at[a] = s++;
                break;
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
