/* Native library of costru: the compiled Kruskal kernel, one entry per
 * spanning-tree oracle question, numpy's PCG64 stream seeded as numpy's
 * SeedSequence seeds it, the in-place Adam step, and the fused
 * coordination pass.  numpy seeds and draws a stream's ordinary draws
 * itself; the library draws the Monte-Carlo tilts from the same stream.
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
 *                    theta (E,), a stream's n_entropy entropy words,
 *                    eps; draws z (m, E) row by row from the stream with
 *                    numpy's own standard normal sampler, so z equals
 *                    Generator.standard_normal((m, E)) bit for bit, then
 *                    runs forest_rows on the tilt w = theta + eps * z,
 *                    rounded as numpy rounds it (the library is built with
 *                    -ffp-contract=off, so no fused multiply-add).  Writes
 *                    the per-edge mean of the chosen edges over the m rows
 *                    (count / m): E doubles.
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
 * Every entry that draws takes a stream's assembled entropy words (uint32),
 * which native.entropy assembles as SeedSequence.get_assembled_entropy
 * does, and seeds PCG64 from them as numpy's SeedSequence and PCG64 do.
 *
 *   raw_fill, normal_fill
 *                    n raw 64-bit words, or n standard normals, of the
 *                    stream of n_entropy entropy words: numpy's
 *                    PCG64.random_raw(n) and Generator.standard_normal(n).
 *   adam_step        one bias-corrected Adam update, in place, of the
 *                    rows (w, g, m, v) of a (4, n) state: the weights w
 *                    and the moments m and v from the gradient g, with
 *                    numpy's operations in numpy's order; the caller passes
 *                    the bias corrections 1 - beta**t.  A non-finite
 *                    gradient is an error, and then nothing is written.
 *   perturbed_adam_pass
 *                    trainer.coordination_pass's steps on a spanning-tree
 *                    oracle, in one call: for each epoch and slot, theta =
 *                    F w; the mean of perturbed_forest_rows on the stream
 *                    of key (..., epoch, slot); g = mean - mu; the gradient
 *                    F^T g; adam_step with t = t0 + step + 1, t0 being the
 *                    state's earlier steps.  The products go
 *                    through numpy's own cblas_dgemv and cblas_ddot, called
 *                    as numpy's matmul calls them, so that they round as
 *                    numpy's do.  Returns a negative status on error, and
 *                    writes the number of steps done, the index of the
 *                    failed one, to *step.
 *
 * Each stream's PCG64 state lives on the stack of the call that draws from
 * it, so calls from several threads never share one.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    NO_MEMORY = -1,    /* no workspace */
    BAD_GRAPH = -2,    /* n_nodes < 1 or an endpoint outside [0, n_nodes) */
    NON_FINITE = -3,   /* a weight or tilt is NaN or infinite */
    DISCONNECTED = -4, /* a row has fewer than n_nodes - 1 edges */
    CYCLE = -5,        /* completion_rows: the y edges contain a cycle */
    BAD_GRADIENT = -6, /* an Adam gradient is NaN or infinite */
};

/* numpy/random/bitgen.h.  distributions.h, which declares the sampler,
 * includes Python.h, so both are declared here. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* From numpy's libnpyrandom.a, which the build links. */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

/* numpy/random/src/pcg64: PCG64, a 128-bit LCG with the XSL-RR output,
 * advanced before each output; next_uint32 hands out the low half of a
 * 64-bit output and buffers the high half, as numpy's does. */
typedef unsigned __int128 u128;
#define PCG_MULTIPLIER (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64;

static void pcg64_step(pcg64 *rng) { rng->state = rng->state * PCG_MULTIPLIER + rng->inc; }

static uint64_t pcg64_next64(void *st) {
    pcg64 *rng = st;
    pcg64_step(rng);
    uint64_t xored = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (xored >> rot) | (xored << ((64 - rot) & 63));
}

static uint32_t pcg64_next32(void *st) {
    pcg64 *rng = st;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t next = pcg64_next64(st);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st) {
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* pcg64_set_seed on generate_state(4, np.uint64): words 0-1 are the
 * initial state and words 2-3 the stream, high word first. */
static bitgen_t pcg64_stream(pcg64 *rng, const uint64_t *words) {
    u128 initstate = (u128)words[0] << 64 | words[1];
    u128 initseq = (u128)words[2] << 64 | words[3];
    rng->state = 0;
    rng->inc = initseq << 1 | 1;
    pcg64_step(rng);
    rng->state += initstate;
    pcg64_step(rng);
    rng->has_uint32 = 0;
    rng->uinteger = 0;
    return (bitgen_t){rng, pcg64_next64, pcg64_next32, pcg64_next_double, pcg64_next64};
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

/* SeedSequence's pool and hash constant partway through mix_entropy. */
typedef struct {
    uint32_t pool[POOL], hash_const;
} entropy_pool;

static void mix_word(entropy_pool *ep, uint32_t word) {
    for (int dst = 0; dst < POOL; dst++)
        ep->pool[dst] = mix(ep->pool[dst], hashmix(word, &ep->hash_const));
}

/* mix_entropy: hash the first words into the pool (zeros where the entropy
 * is shorter than the pool), mix the pool, then mix in each remaining
 * word; more words may follow through mix_word. */
static void mix_entropy(entropy_pool *ep, const uint32_t *entropy, int64_t n) {
    ep->hash_const = INIT_A;
    for (int i = 0; i < POOL; i++) ep->pool[i] = hashmix(i < n ? entropy[i] : 0, &ep->hash_const);
    for (int src = 0; src < POOL; src++)
        for (int dst = 0; dst < POOL; dst++)
            if (src != dst)
                ep->pool[dst] = mix(ep->pool[dst], hashmix(ep->pool[src], &ep->hash_const));
    for (int64_t src = POOL; src < n; src++) mix_word(ep, entropy[src]);
}

static void pool_state(const entropy_pool *ep, uint64_t *state) {
    uint32_t words[2 * POOL], hash_const = INIT_B;
    for (int i = 0; i < 2 * POOL; i++) {
        uint32_t value = ep->pool[i % POOL] ^ hash_const;
        hash_const *= MULT_B;
        value *= hash_const;
        words[i] = value ^ (value >> XSHIFT);
    }
    for (int i = 0; i < POOL; i++)
        state[i] = (uint64_t)words[2 * i] | (uint64_t)words[2 * i + 1] << 32;
}

/* SeedSequence(...).generate_state(4, np.uint64) of n entropy words. */
static void seed_words(const uint32_t *entropy, int64_t n, uint64_t *words) {
    entropy_pool ep;
    mix_entropy(&ep, entropy, n);
    pool_state(&ep, words);
}

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
            ws.items[n] = (item){-wr[e], e};
            n += wr[e] > 0.0;
            row[e] = 0.0;
        }
        int64_t count = select_edges(&ws, n, ws.picks);
        for (int64_t i = 0; i < count; i++) row[ws.picks[i]] = 1.0;
    }
    close_workspace(&ws);
    return status;
}

/* The mean over the m rows of the forests of the tilts theta + eps * z[r],
 * z drawn row by row from the stream of words into the (E,) buffer z. */
static int mean_forest(workspace *ws, const double *theta, const uint64_t *words,
                       double eps, int64_t m, int64_t n_edges, double *z, double *mean) {
    pcg64 rng;
    bitgen_t stream = pcg64_stream(&rng, words);
    int status = 0;
    for (int64_t e = 0; e < n_edges; e++) mean[e] = 0.0;
    for (int64_t r = 0; r < m && status == 0; r++) {
        random_standard_normal_fill(&stream, n_edges, z);
        int64_t n = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            double w = theta[e] + eps * z[e];
            if (!isfinite(w)) status = NON_FINITE;
            /* Written always and kept when w > 0: a tilt's sign is a coin
             * flip that a branch would mispredict. */
            ws->items[n] = (item){-w, e};
            n += w > 0.0;
        }
        int64_t count = select_edges(ws, n, ws->picks);
        for (int64_t i = 0; i < count; i++) mean[ws->picks[i]] += 1.0;
    }
    for (int64_t e = 0; e < n_edges; e++) mean[e] /= (double)m;
    return status;
}

int64_t perturbed_forest_rows(const double *theta, const uint32_t *entropy, int64_t n_entropy,
                              double eps, const int64_t *ends, int64_t m, int64_t n_edges,
                              int64_t n_nodes, double *out) {
    workspace ws;
    uint64_t words[POOL];
    int status = open_workspace(&ws, ends, n_edges, n_nodes);
    if (status != 0) return status;
    seed_words(entropy, n_entropy, words);
    double *z = malloc((size_t)(n_edges > 0 ? n_edges : 1) * sizeof(double));
    status = z == NULL ? NO_MEMORY : mean_forest(&ws, theta, words, eps, m, n_edges, z, out);
    free(z);
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

void raw_fill(const uint32_t *entropy, int64_t n_entropy, int64_t n, uint64_t *out) {
    pcg64 rng;
    uint64_t words[POOL];
    seed_words(entropy, n_entropy, words);
    bitgen_t stream = pcg64_stream(&rng, words);
    for (int64_t i = 0; i < n; i++) out[i] = stream.next_raw(stream.state);
}

void normal_fill(const uint32_t *entropy, int64_t n_entropy, int64_t n, double *out) {
    pcg64 rng;
    uint64_t words[POOL];
    seed_words(entropy, n_entropy, words);
    bitgen_t stream = pcg64_stream(&rng, words);
    random_standard_normal_fill(&stream, n, out);
}

/* trainer.adam_step's numpy expressions, element by element, on the rows
 * of state (4, n): w, g, m, v.
 *   m = beta1 * m + (1 - beta1) * g
 *   v = beta2 * v + (1 - beta2) * g * g
 *   w = w - lr * (m / bias1) / (sqrt(v / bias2) + eps)   */
int64_t adam_step(double *state, int64_t n, double lr, double beta1, double beta2,
                  double eps, double bias1, double bias2) {
    double *w = state, *g = state + n, *m = state + 2 * n, *v = state + 3 * n;
    for (int64_t i = 0; i < n; i++)
        if (!isfinite(g[i])) return BAD_GRADIENT;
    for (int64_t i = 0; i < n; i++) {
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
        v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
        w[i] = w[i] - lr * (m[i] / bias1) / (sqrt(v[i] / bias2) + eps);
    }
    return 0;
}

/* numpy's ILP64 cblas_dgemv and cblas_ddot, whose addresses the caller
 * passes in that order. */
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                         const double *a, int64_t lda, const double *x, int64_t incx,
                         double beta, double *y, int64_t incy);
typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx, const double *y,
                          int64_t incy);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

/* np.matmul(F, x) for a C-contiguous F (E, p), or np.matmul(F.T, x) when
 * transposed, into out, one entry per row of the product's (rows, cols)
 * matrix, with numpy's dispatch: ddot added to 0.0 for one row, dgemv for
 * more rows and columns (column-major on F, row-major on F.T), and
 * otherwise numpy's own loop, 0 plus each a * x in order. */
static void matvec(void *const *blas, const double *f, int64_t n_edges, int64_t p,
                   int transposed, const double *x, double *out) {
    int64_t rows = transposed ? p : n_edges, cols = transposed ? n_edges : p;
    int64_t row_stride = transposed ? 1 : p, col_stride = transposed ? p : 1;
    if (rows == 1 && cols > 0) {
        double sum = 0.0;
        sum += ((ddot_fn)blas[1])(cols, f, col_stride, x, 1);
        out[0] = sum;
    } else if (rows > 1 && cols > 1) {
        ((dgemv_fn)blas[0])(transposed ? ROW_MAJOR : COL_MAJOR, TRANS, cols, rows, 1.0, f, p,
                            x, 1, 0.0, out, 1);
    } else {
        for (int64_t i = 0; i < rows; i++) {
            out[i] = 0.0;
            for (int64_t j = 0; j < cols; j++) out[i] += f[i * row_stride + j * col_stride] * x[j];
        }
    }
}

/* A step index as SeedSequence's entropy words: its low word, then its
 * high word when that is not zero. */
static void mix_index(entropy_pool *ep, int64_t index) {
    mix_word(ep, (uint32_t)index);
    if ((uint64_t)index >> 32) mix_word(ep, (uint32_t)((uint64_t)index >> 32));
}

int64_t perturbed_adam_pass(const double *const *features, const double *const *targets,
                            int64_t n_slots, int64_t n_epochs, int64_t p,
                            const uint32_t *entropy, int64_t n_entropy, double eps, int64_t m,
                            const int64_t *ends, int64_t n_edges, int64_t n_nodes,
                            double *adam, int64_t t0, double lr, double beta1,
                            double beta2, double eps_adam, void *const *blas, int64_t *step) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes);
    int64_t t = 0;
    *step = 0;
    if (status != 0) return status;
    double *theta = malloc((size_t)(3 * n_edges + 1) * sizeof(double));
    if (theta == NULL) {
        close_workspace(&ws);
        return NO_MEMORY;
    }
    double *z = theta + n_edges, *g = z + n_edges, *w = adam, *gradient = adam + p;
    entropy_pool key;
    mix_entropy(&key, entropy, n_entropy);
    for (; t < n_epochs * n_slots; t++) {
        int64_t slot = t % n_slots;
        entropy_pool ep = key;
        uint64_t words[POOL];
        mix_index(&ep, t / n_slots);
        mix_index(&ep, slot);
        pool_state(&ep, words);
        matvec(blas, features[slot], n_edges, p, 0, w, theta);
        status = mean_forest(&ws, theta, words, eps, m, n_edges, z, g);
        if (status != 0) break;
        for (int64_t e = 0; e < n_edges; e++) g[e] -= targets[slot][e];
        matvec(blas, features[slot], n_edges, p, 1, g, gradient);
        status = (int)adam_step(adam, p, lr, beta1, beta2, eps_adam,
                                1.0 - pow(beta1, (double)(t0 + t + 1)),
                                1.0 - pow(beta2, (double)(t0 + t + 1)));
        if (status != 0) break;
    }
    free(theta);
    close_workspace(&ws);
    *step = t;
    return status;
}
