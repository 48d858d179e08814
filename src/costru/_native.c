/* Native library of costru: the compiled Kruskal kernel, one entry per
 * spanning-tree oracle question, and numpy's SeedSequence state words.
 *
 * Every Kruskal entry runs the rule of kruskal_rows_py, the Python
 * reference in tests/kruskal_reference.py that the property tests compare
 * each entry with byte for byte, on keys it builds from the oracle's own
 * inputs: per row, take the edges whose key is < +inf (never +inf or NaN)
 * in increasing key order, ties to the lower index (-0.0 == 0.0), skip
 * cycles, stop at n_nodes - 1 edges.
 *
 *   forest_rows      w (m, E); key -w where w > 0.  Writes the 0/1 rows of
 *                    the chosen edges.  A non-finite weight is an error.
 *   perturbed_forest_rows
 *                    theta (E,), z (m, E), eps; forest_rows on the tilt
 *                    w = theta + eps * z, rounded as numpy rounds it (the
 *                    library is built with -ffp-contract=off, so no fused
 *                    multiply-add).  Writes the per-edge counts of chosen
 *                    edges over the m rows, then each row's value, the sum
 *                    of its chosen w in selection order: E + m doubles.
 *   split_rows       eff (m, E), d (E,) or (m, E) (row stride 0 or E); key
 *                    min(eff, d), NaN when either is NaN.  Writes the
 *                    (m, E) rows of y (chosen, eff <= d), then those of z
 *                    (chosen, otherwise).  A row with fewer than
 *                    n_nodes - 1 edges is an error.
 *   completion_rows  y (E,), d (K, E); key -inf where y > 0.5, else d.
 *                    The picks of a row after its first n_first, n_first
 *                    being the number of y > 0.5, are its completion: the
 *                    entry writes their costs in selection order as the
 *                    rows of a packed (K, n_nodes - 1 - n_first) array at
 *                    the start of out, and their 0/1 (K, E) rows from
 *                    out + K * (n_nodes - 1).  Returns n_first.  A row
 *                    that leaves a y edge out is a cycle error, one with
 *                    fewer than n_nodes - 1 edges a disconnected error,
 *                    and a cycle in any row comes first.
 *
 * Arrays are C-contiguous; the Python wrappers check shapes and dtypes.
 * Every Kruskal entry returns a negative status on error (see below), with
 * its output rows unspecified.
 *
 *   seed_state       the four uint64 words of numpy's SeedSequence
 *                    .generate_state(4, np.uint64) for its n assembled
 *                    entropy words (uint32), which native.seed_state
 *                    assembles as SeedSequence.get_assembled_entropy does.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    NO_MEMORY = -1,    /* no workspace */
    BAD_GRAPH = -2,    /* n_nodes < 1 or an endpoint outside [0, n_nodes) */
    NON_FINITE = -3,   /* forest_rows: a weight is NaN or infinite */
    DISCONNECTED = -4, /* a row has fewer than n_nodes - 1 edges */
    CYCLE = -5,        /* completion_rows: the y edges contain a cycle */
};

typedef struct {
    double key;
    int64_t edge;
} item;

enum { RUN = 16 };

/* Per-call workspace, so that calls from several threads never share it. */
typedef struct {
    const int64_t *ends;
    int64_t n_nodes;
    item *items, *tmp;
    int64_t *parent, *picks;
} workspace;

static int open_workspace(workspace *ws, const int64_t *ends, int64_t n_edges,
                          int64_t n_nodes) {
    if (n_nodes < 1) return BAD_GRAPH;
    for (int64_t e = 0; e < 2 * n_edges; e++)
        if (ends[e] < 0 || ends[e] >= n_nodes) return BAD_GRAPH;
    ws->ends = ends;
    ws->n_nodes = n_nodes;
    ws->items = malloc((size_t)(2 * n_edges + 1) * sizeof(item));
    ws->parent = malloc((size_t)(2 * n_nodes) * sizeof(int64_t));
    if (ws->items == NULL || ws->parent == NULL) {
        free(ws->items);
        free(ws->parent);
        return NO_MEMORY;
    }
    ws->tmp = ws->items + n_edges;
    ws->picks = ws->parent + n_nodes;
    return 0;
}

static void close_workspace(workspace *ws) {
    free(ws->items);
    free(ws->parent);
}

static int64_t find(int64_t *parent, int64_t x) {
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/* Stable sort of a[0, n) by key: insertion sort on runs of RUN items, then
 * bottom-up merges between a and tmp (n items each). */
static void sort_items(item *a, item *tmp, int64_t n) {
    for (int64_t lo = 0; lo < n; lo += RUN) {
        int64_t hi = lo + RUN < n ? lo + RUN : n;
        for (int64_t i = lo + 1; i < hi; i++) {
            item x = a[i];
            int64_t j = i;
            for (; j > lo && x.key < a[j - 1].key; j--) a[j] = a[j - 1];
            a[j] = x;
        }
    }
    item *src = a, *dst = tmp;
    for (int64_t width = RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) dst[k++] = src[j].key < src[i].key ? src[j++] : src[i++];
            while (i < mid) dst[k++] = src[i++];
            while (j < hi) dst[k++] = src[j++];
        }
        item *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a) memcpy(a, src, (size_t)n * sizeof(item));
}

/* Kruskal on the n items in ws->items: writes the chosen edges to picks in
 * selection order and returns their count. */
static int64_t select_edges(workspace *ws, int64_t n, int64_t *picks) {
    int64_t count = 0, *parent = ws->parent;
    sort_items(ws->items, ws->tmp, n);
    for (int64_t v = 0; v < ws->n_nodes; v++) parent[v] = v;
    for (int64_t i = 0; i < n && count < ws->n_nodes - 1; i++) {
        int64_t edge = ws->items[i].edge;
        int64_t ru = find(parent, ws->ends[2 * edge]);
        int64_t rv = find(parent, ws->ends[2 * edge + 1]);
        if (ru != rv) {
            parent[ru] = rv;
            picks[count++] = edge;
        }
    }
    return count;
}

int64_t forest_rows(const double *w, const int64_t *ends, int64_t m, int64_t n_edges,
                    int64_t n_nodes, double *out) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes);
    if (status != 0) return status;
    for (int64_t r = 0; r < m && status == 0; r++) {
        const double *wr = w + r * n_edges;
        double *row = out + r * n_edges;
        int64_t n = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            if (!isfinite(wr[e])) status = NON_FINITE;
            if (wr[e] > 0.0) ws.items[n++] = (item){-wr[e], e};
            row[e] = 0.0;
        }
        int64_t count = select_edges(&ws, n, ws.picks);
        for (int64_t i = 0; i < count; i++) row[ws.picks[i]] = 1.0;
    }
    close_workspace(&ws);
    return status;
}

int64_t perturbed_forest_rows(const double *theta, const double *z, double eps,
                              const int64_t *ends, int64_t m, int64_t n_edges,
                              int64_t n_nodes, double *out) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes);
    if (status != 0) return status;
    double *counts = out, *values = out + n_edges;
    for (int64_t e = 0; e < n_edges; e++) counts[e] = 0.0;
    for (int64_t r = 0; r < m && status == 0; r++) {
        const double *zr = z + r * n_edges;
        int64_t n = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            double w = theta[e] + eps * zr[e];
            if (!isfinite(w)) status = NON_FINITE;
            if (w > 0.0) ws.items[n++] = (item){-w, e};
        }
        int64_t count = select_edges(&ws, n, ws.picks);
        double value = 0.0;
        for (int64_t i = 0; i < count; i++) {
            int64_t e = ws.picks[i];
            counts[e] += 1.0;
            value += theta[e] + eps * zr[e];
        }
        values[r] = value;
    }
    close_workspace(&ws);
    return status;
}

int64_t split_rows(const double *eff, const double *d, int64_t d_stride,
                   const int64_t *ends, int64_t m, int64_t n_edges, int64_t n_nodes,
                   double *yz) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes);
    if (status != 0) return status;
    for (int64_t r = 0; r < m && status == 0; r++) {
        const double *er = eff + r * n_edges, *dr = d + r * d_stride;
        double *yr = yz + r * n_edges, *zr = yz + (m + r) * n_edges;
        int64_t n = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            double key = isnan(er[e]) || isnan(dr[e]) ? NAN : dr[e] < er[e] ? dr[e] : er[e];
            if (key < INFINITY) ws.items[n++] = (item){key, e};
            yr[e] = zr[e] = 0.0;
        }
        int64_t count = select_edges(&ws, n, ws.picks);
        if (count != n_nodes - 1) status = DISCONNECTED;
        for (int64_t i = 0; i < count; i++) {
            int64_t e = ws.picks[i];
            if (er[e] <= dr[e]) yr[e] = 1.0;
            else zr[e] = 1.0;
        }
    }
    close_workspace(&ws);
    return status;
}

int64_t completion_rows(const double *y, const double *d, const int64_t *ends,
                        int64_t k_rows, int64_t n_edges, int64_t n_nodes, double *out) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes);
    if (status != 0) return status;
    int64_t n_first = 0;
    for (int64_t e = 0; e < n_edges; e++) n_first += y[e] > 0.5;
    for (int64_t r = 0; r < k_rows && status != CYCLE; r++) {
        const double *dr = d + r * n_edges;
        double *costs = out + r * (n_nodes - 1 - n_first);
        double *zr = out + k_rows * (n_nodes - 1) + r * n_edges;
        int64_t n = 0, taken_y = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            double key = y[e] > 0.5 ? -INFINITY : dr[e];
            if (key < INFINITY) ws.items[n++] = (item){key, e};
            zr[e] = 0.0;
        }
        int64_t count = select_edges(&ws, n, ws.picks);
        for (int64_t i = 0; i < count; i++) taken_y += y[ws.picks[i]] > 0.5;
        if (taken_y != n_first) status = CYCLE;
        else if (count != n_nodes - 1) status = DISCONNECTED;
        for (int64_t i = n_first; i < count; i++) {
            costs[i - n_first] = dr[ws.picks[i]];
            zr[ws.picks[i]] = 1.0;
        }
    }
    close_workspace(&ws);
    return status != 0 ? status : n_first;
}

/* numpy/random/bit_generator.pyx: SeedSequence with its default pool of
 * four words, then generate_state(8) viewed as four little-endian uint64. */
enum { POOL = 4, XSHIFT = 16 };
static const uint32_t INIT_A = 0x43b0d7e5, MULT_A = 0x931e8875;
static const uint32_t INIT_B = 0x8b51f9dd, MULT_B = 0x58f38ded;
static const uint32_t MIX_MULT_L = 0xca01f9dd, MIX_MULT_R = 0x4973f715;

static uint32_t hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> XSHIFT);
}

static uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    return result ^ (result >> XSHIFT);
}

void seed_state(const uint32_t *entropy, int64_t n, uint64_t *state) {
    /* mix_entropy: hash the first words into the pool (zeros where the
     * entropy is shorter than the pool), mix the pool, then mix in each
     * remaining word. */
    uint32_t pool[POOL], hash_const = INIT_A;
    for (int i = 0; i < POOL; i++) pool[i] = hashmix(i < n ? entropy[i] : 0, &hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst) pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = POOL; src < n; src++)
        for (int dst = 0; dst < POOL; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash_const));
    uint32_t words[2 * POOL];
    hash_const = INIT_B;
    for (int i = 0; i < 2 * POOL; i++) {
        uint32_t value = pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        words[i] = value ^ (value >> XSHIFT);
    }
    for (int i = 0; i < POOL; i++)
        state[i] = (uint64_t)words[2 * i] | (uint64_t)words[2 * i + 1] << 32;
}
