/* Native library of costru, seven entries: the compiled Kruskal kernel's
 * forest_rows, split_rows and completion_sums, one per spanning-tree oracle
 * question; normal_fill, the normals of numpy's PCG64 stream seeded as
 * numpy's SeedSequence seeds it; adam_step, the in-place Adam step; and the
 * fused coordination and decomposition passes, perturbed_adam_pass and
 * perturbed_split_pass.  numpy seeds and draws a stream's ordinary draws
 * itself; the library draws the Monte-Carlo tilts from the same stream.
 *
 * Every Kruskal entry chooses the edge set of the rule of kruskal_rows_py,
 * the Python reference in tests/kruskal_reference.py that the property
 * tests compare each entry with byte for byte, on keys it builds from the
 * oracle's own inputs: per row, take the edges whose key is < +inf (never
 * +inf or NaN) in increasing key order, ties to the lower index (-0.0 ==
 * 0.0), skip cycles, stop at n_nodes - 1 edges.
 *
 *   forest_rows      w (m, E); key -w where w > 0.  Writes the 0/1 rows of
 *                    the chosen edges.  When a row's positive edges close
 *                    no cycle, the rule takes them all: they are chosen in
 *                    index order, without a sort.  A non-finite weight is
 *                    an error.
 *   split_rows       eff (m, E), d (E,) or (m, E) (row stride 0 or E); key
 *                    min(eff, d), NaN when either is NaN.  Writes the
 *                    (m, E) rows of y (chosen, eff <= d), then those of z
 *                    (chosen, otherwise).  A row with fewer than
 *                    n_nodes - 1 edges is an error.
 *   completion_sums  ys (n, E), d (K, E): the (n, K) costs of the cheapest
 *                    spanning completions of each forest under each row of
 *                    d.  A forest's own edges (y > 0.5) go first, in index
 *                    order, whatever they cost; a cycle among them is an
 *                    error.  Then the row's other edges follow the rule
 *                    above on the keys d; each row is sorted once.  A
 *                    completion's costs are summed in selection order, in
 *                    numpy's pairwise order, as costs.sum(axis=1) sums
 *                    them.  The first forest with an error returns it: a
 *                    cycle, else a row with fewer than n_nodes - 1 edges.
 *
 * Arrays are C-contiguous; the Python wrappers check shapes and dtypes.
 * Every Kruskal entry returns a negative status on error (see below), with
 * its output rows unspecified.
 *
 * Every entry that draws takes a stream's assembled entropy words (uint32),
 * which native.entropy assembles as SeedSequence.get_assembled_entropy
 * does, and seeds PCG64 from them as numpy's SeedSequence and PCG64 do.
 * The normals are numpy's own sampler's, Generator.standard_normal bit for
 * bit, and a tilt theta + eps * z rounds as numpy rounds it (the library
 * is built with -ffp-contract=off, so no fused multiply-add).  The
 * sampler's fast path, which ends about 99.3 % of draws, runs inline, on
 * numpy's own tables and with the sign put in without a branch; the wedge
 * and the tail are numpy's own code (see "numpy's standard normal sampler"
 * below).
 *
 *   normal_fill      n standard normals of the stream of n_entropy entropy
 *                    words: numpy's Generator.standard_normal(n).
 *                    Returns 1 when the fast path ran inline, 0 when the
 *                    tables failed their first-use check and every draw
 *                    was numpy's own fill's (the same numbers, slower).
 *   adam_step        one bias-corrected Adam update, in place, of the
 *                    rows (w, g, m, v) of a (4, n) state: the weights w
 *                    and the moments m and v from the gradient g, with
 *                    numpy's operations in numpy's order; the caller passes
 *                    the bias corrections 1 - beta**t.  A non-finite
 *                    gradient is an error, and then nothing is written.
 *   perturbed_adam_pass
 *                    trainer.coordination_pass's steps on a spanning-tree
 *                    oracle, in one call: for each epoch and slot, theta =
 *                    F w; the mean of forest_rows on the m tilts theta +
 *                    eps * z, z being the normals of the stream of key
 *                    (..., epoch, slot); g = mean - mu; the gradient F^T g;
 *                    adam_step with t = t0 + step + 1, t0 being the
 *                    state's earlier steps.  Only this entry calls numpy's
 *                    own cblas_dgemv and cblas_ddot, as numpy's matmul
 *                    calls them, so that the products round as numpy's do.
 *                    Writes the number of steps done, the index of the
 *                    failed one, to *step.
 *   perturbed_split_pass
 *                    trainer.decomposition_pass on a spanning-tree oracle,
 *                    in one call: for each slot s, the scores theta (row s
 *                    of thetas (S, E), which the caller computes); the
 *                    (m, E) normals z of the stream of key (..., s); the
 *                    tilts theta + eps * z; split_rows on the effective
 *                    costs c - kappa * tilt against d; the per-edge count
 *                    of stage-one edges over m.  A non-finite theta or
 *                    tilt is an error; writes the failed slot to *step.
 *
 * Both passes may start one helper thread, which draws the normals of the
 * coming steps while the calling thread runs Kruskal, the products and
 * Adam (see "The normals of a pass" below); they run inline when the
 * caller passes threaded = 0 or pthread_create fails.  The helper is
 * joined before the pass returns, so a pass is still one blocking call:
 * Ctrl-C waits for it.
 *
 * Each stream's PCG64 state lives on the stack of the thread that draws
 * from it, so calls from several threads never share one.
 */
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    NO_MEMORY = -1,    /* no workspace */
    BAD_GRAPH = -2,    /* n_nodes < 1 or an endpoint outside [0, n_nodes) */
    NON_FINITE = -3,   /* a weight or tilt is NaN or infinite */
    DISCONNECTED = -4, /* a row has fewer than n_nodes - 1 edges */
    CYCLE = -5,        /* completion_sums: a forest's own edges contain a cycle */
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
double random_standard_normal(bitgen_t *bitgen_state);
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);

/* numpy/random/src/pcg64: PCG64, a 128-bit LCG with the XSL-RR output,
 * advanced before each output; next_uint32 hands out the low half of a
 * 64-bit output and buffers the high half, as numpy's does.  The bitgen_t
 * of a stream hands out a word handed back to it (has_word) before the
 * next output, and counts its 64-bit outputs (calls). */
typedef unsigned __int128 u128;
#define PCG_MULTIPLIER (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

typedef struct {
    u128 state, inc;
    int has_uint32, has_word;
    uint32_t uinteger;
    uint64_t word;
    int64_t calls;
} pcg64;

static void pcg64_step(pcg64 *rng) { rng->state = rng->state * PCG_MULTIPLIER + rng->inc; }

static uint64_t pcg64_next64(pcg64 *rng) {
    pcg64_step(rng);
    uint64_t xored = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return (xored >> rot) | (xored << ((64 - rot) & 63));
}

static uint64_t stream_next64(void *st) {
    pcg64 *rng = st;
    rng->calls++;
    if (rng->has_word) {
        rng->has_word = 0;
        return rng->word;
    }
    return pcg64_next64(rng);
}

static uint32_t stream_next32(void *st) {
    pcg64 *rng = st;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t next = stream_next64(st);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double stream_next_double(void *st) {
    return (double)(stream_next64(st) >> 11) * (1.0 / 9007199254740992.0);
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
    rng->has_uint32 = rng->has_word = 0;
    rng->uinteger = 0;
    rng->word = 0;
    rng->calls = 0;
    return (bitgen_t){rng, stream_next64, stream_next32, stream_next_double, stream_next64};
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

/* numpy's standard normal sampler (random_standard_normal) is a ziggurat of
 * 256 layers.  Each try takes one word r: idx = r & 0xff, sign bit 8, rabs
 * bits 9-60, and x = rabs * wi[idx], negated when the sign bit is set.  When
 * rabs < ki[idx], about 99.3 % of words, x is the draw (the fast path);
 * otherwise numpy tests the wedge or draws the tail with next_double
 * (exp, log1p) and may start again on a new word.  numpy's fill costs
 * several times its PCG64 words: its "if (sign) x = -x" is a branch that
 * mispredicts half the time, and every word is a call through the
 * bitgen_t's function pointer.  So ziggurat_fill runs the fast path inline,
 * on pcg64_next64 called directly and with the sign put in by XOR of the
 * sign bit (which flips what -x flips, 0.0 included), and hands every other
 * word back to the stream for numpy's own random_standard_normal, which
 * takes that word first and then the stream's next ones: the wedge, the
 * tail and the words they use are numpy's.  The draws are numpy's fill's
 * bit for bit, and so is the stream's state after them.
 *
 * numpy exports neither table, so read_tables reads them off numpy's
 * sampler once, on a stream that hands out a chosen word first and then
 * PCG64's words, so that numpy's rejection loop ends; a draw that took one
 * word took the fast path.  ki[i] is the smallest rabs whose word leaves
 * the fast path, by binary search, and wi[i] the draw of the word of
 * rabs = 1, which must take the fast path in every layer that has one
 * (numpy's layer 1 has none: ki[1] = 0).  Then the inlined fill must
 * equal numpy's fill on a fixed stream, draws and state; if it does not,
 * which only another layout of numpy's sampler could cause, every fill is
 * numpy's own. */
enum { LAYERS = 256, CHECK_BLOCK = 1024, CHECK_BLOCKS = 64 };
#define RABS_BITS 52

static uint64_t ki[LAYERS];
static double wi[LAYERS];
static int inlined;
static pthread_once_t tables_once = PTHREAD_ONCE_INIT;

static void ziggurat_fill(bitgen_t *stream, int64_t n, double *out) {
    pcg64 *rng = stream->state;
    for (int64_t i = 0; i < n; i++) {
        uint64_t r = pcg64_next64(rng);
        uint64_t idx = r & 0xff, rabs = r >> 9 & (((uint64_t)1 << RABS_BITS) - 1);
        if (rabs < ki[idx]) {
            double x = (double)(int64_t)rabs * wi[idx];
            uint64_t bits;
            memcpy(&bits, &x, sizeof bits);
            bits ^= (r & 0x100) << 55;
            memcpy(out + i, &bits, sizeof bits);
        } else {
            rng->word = r;
            rng->has_word = 1;
            out[i] = random_standard_normal(stream);
        }
    }
}

/* numpy's draw from a stream whose next word is word; *calls its words. */
static double probe(bitgen_t *stream, uint64_t word, int64_t *calls) {
    pcg64 *rng = stream->state;
    rng->word = word;
    rng->has_word = 1;
    rng->calls = 0;
    double x = random_standard_normal(stream);
    *calls = rng->calls;
    return x;
}

static void read_tables(void) {
    static const uint64_t probe_words[POOL] = {1, 2, 3, 4}, check_words[POOL] = {5, 6, 7, 8};
    pcg64 rng, a, b;
    bitgen_t stream = pcg64_stream(&rng, probe_words);
    int64_t calls;
    int same = 1;
    for (uint64_t i = 0; i < LAYERS; i++) {
        uint64_t lo = 0, hi = (uint64_t)1 << RABS_BITS;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe(&stream, mid << 9 | i, &calls);
            if (calls > 1) hi = mid;
            else lo = mid + 1;
        }
        ki[i] = lo;
        wi[i] = probe(&stream, (uint64_t)1 << 9 | i, &calls);
        same = same && (ki[i] == 0 || calls == 1);
    }
    bitgen_t numpys = pcg64_stream(&a, check_words), ours = pcg64_stream(&b, check_words);
    double want[CHECK_BLOCK], got[CHECK_BLOCK];
    for (int k = 0; k < CHECK_BLOCKS && same; k++) {
        random_standard_normal_fill(&numpys, CHECK_BLOCK, want);
        ziggurat_fill(&ours, CHECK_BLOCK, got);
        same = memcmp(want, got, sizeof want) == 0;
    }
    inlined = same && a.state == b.state && a.has_uint32 == b.has_uint32
              && a.uinteger == b.uinteger;
}

/* n normals of the stream of a mixed pool: generate_state(4, np.uint64),
 * PCG64 seeded from it, then numpy's sampler, its fast path inlined when
 * the tables passed their check. */
static void fill_from(const entropy_pool *ep, int64_t n, double *out) {
    uint64_t words[POOL];
    pcg64 rng;
    pool_state(ep, words);
    bitgen_t stream = pcg64_stream(&rng, words);
    pthread_once(&tables_once, read_tables);
    if (inlined) ziggurat_fill(&stream, n, out);
    else random_standard_normal_fill(&stream, n, out);
}

typedef struct {
    double key;
    int64_t edge;
} item;

enum { RUN = 16 };

/* Per-call workspace, so that calls from several threads never share it,
 * with a buffer of n_buffer doubles for the caller. */
typedef struct {
    const int64_t *ends;
    int64_t n_nodes;
    item *items, *tmp;
    int64_t *parent, *picks;
    double *buffer;
} workspace;

static int open_workspace(workspace *ws, const int64_t *ends, int64_t n_edges,
                          int64_t n_nodes, int64_t n_buffer) {
    if (n_nodes < 1) return BAD_GRAPH;
    for (int64_t e = 0; e < 2 * n_edges; e++)
        if (ends[e] < 0 || ends[e] >= n_nodes) return BAD_GRAPH;
    ws->ends = ends;
    ws->n_nodes = n_nodes;
    /* One block: the items and tmp, parent and picks, then the buffer. */
    ws->items = malloc((size_t)(2 * n_edges + 1) * sizeof(item)
                       + (size_t)(2 * n_nodes) * sizeof(int64_t)
                       + (size_t)n_buffer * sizeof(double));
    if (ws->items == NULL) return NO_MEMORY;
    ws->tmp = ws->items + n_edges;
    ws->parent = (int64_t *)(ws->items + 2 * n_edges + 1);
    ws->picks = ws->parent + n_nodes;
    ws->buffer = (double *)(ws->picks + n_nodes);
    return 0;
}

static void close_workspace(workspace *ws) { free(ws->items); }

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

/* The rule's forest on the keys -w of the edges with w > 0: writes its
 * edges to ws->picks and their number to *count.  When the positive edges
 * close no cycle, the rule takes them all, so they are the forest, picked
 * in index order without a sort; at the first cycle, select_edges sorts
 * them and picks in selection order.  Both callers read the picks as a
 * set.  A non-finite w is an error, and then nothing is chosen. */
static int forest(workspace *ws, const double *w, int64_t n_edges, int64_t *count) {
    int status = 0;
    int64_t n = 0, *parent = ws->parent;
    for (int64_t e = 0; e < n_edges; e++) {
        if (!isfinite(w[e])) status = NON_FINITE;
        /* Written always and kept when w > 0: a tilt's sign is a coin
         * flip that a branch would mispredict. */
        ws->items[n] = (item){-w[e], e};
        n += w[e] > 0.0;
    }
    *count = 0;
    if (status != 0) return status;
    for (int64_t v = 0; v < ws->n_nodes; v++) parent[v] = v;
    for (int64_t i = 0; i < n; i++) {
        int64_t edge = ws->items[i].edge;
        int64_t ru = find(parent, ws->ends[2 * edge]);
        int64_t rv = find(parent, ws->ends[2 * edge + 1]);
        if (ru == rv) {
            *count = select_edges(ws, n, ws->picks);
            return 0;
        }
        parent[ru] = rv;
        /* Edges 0..i close no cycle, so i < n_nodes - 1. */
        ws->picks[i] = edge;
    }
    *count = n;
    return 0;
}

int64_t forest_rows(const double *w, const int64_t *ends, int64_t m, int64_t n_edges,
                    int64_t n_nodes, double *out) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes, 0);
    if (status != 0) return status;
    for (int64_t r = 0; r < m && status == 0; r++) {
        double *row = out + r * n_edges;
        int64_t count;
        for (int64_t e = 0; e < n_edges; e++) row[e] = 0.0;
        status = forest(&ws, w + r * n_edges, n_edges, &count);
        for (int64_t i = 0; i < count; i++) row[ws.picks[i]] = 1.0;
    }
    close_workspace(&ws);
    return status;
}

/* Kruskal on the keys min(eff, d) of one row, NaN when either is NaN:
 * writes the chosen edges to ws->picks and returns DISCONNECTED when they
 * do not span the graph.  A chosen edge goes to stage one when eff <= d. */
static int split_row(workspace *ws, const double *eff, const double *d, int64_t n_edges,
                     int64_t *count) {
    int64_t n = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        double key = isnan(eff[e]) || isnan(d[e]) ? NAN : d[e] < eff[e] ? d[e] : eff[e];
        if (key < INFINITY) ws->items[n++] = (item){key, e};
    }
    *count = select_edges(ws, n, ws->picks);
    return *count == ws->n_nodes - 1 ? 0 : DISCONNECTED;
}

int64_t split_rows(const double *eff, const double *d, int64_t d_stride,
                   const int64_t *ends, int64_t m, int64_t n_edges, int64_t n_nodes,
                   double *yz) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes, 0);
    if (status != 0) return status;
    for (int64_t r = 0; r < m && status == 0; r++) {
        const double *er = eff + r * n_edges, *dr = d + r * d_stride;
        double *yr = yz + r * n_edges, *zr = yz + (m + r) * n_edges;
        int64_t count;
        for (int64_t e = 0; e < n_edges; e++) yr[e] = zr[e] = 0.0;
        status = split_row(&ws, er, dr, n_edges, &count);
        for (int64_t i = 0; i < count; i++) {
            int64_t e = ws.picks[i];
            if (er[e] <= dr[e]) yr[e] = 1.0;
            else zr[e] = 1.0;
        }
    }
    close_workspace(&ws);
    return status;
}

/* numpy's pairwise summation of n doubles (DOUBLE_pairwise_sum), which
 * its add.reduce adds to 0.0: blocks of at most 128 in eight interleaved
 * partial sums, halved recursively at multiples of eight above that. */
static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; i++) sum += a[i];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) sum += a[i];
        return sum;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

int64_t completion_sums(const double *ys, int64_t n_ys, const double *d, int64_t k_rows,
                        const int64_t *ends, int64_t n_edges, int64_t n_nodes, double *out) {
    workspace ws;
    int status = open_workspace(&ws, ends, n_edges, n_nodes, n_nodes);
    if (status != 0) return status;
    /* Each row's edges of cost < +inf, sorted once by (cost, index), and
     * the costs of a completion, in selection order. */
    item *sorted = malloc((size_t)(k_rows * n_edges + 1) * sizeof(item));
    int64_t *lengths = malloc((size_t)(k_rows + 1) * sizeof(int64_t));
    double *costs = ws.buffer;
    if (sorted == NULL || lengths == NULL) status = NO_MEMORY;
    for (int64_t r = 0; r < k_rows && status == 0; r++) {
        const double *dr = d + r * n_edges;
        int64_t n = 0;
        for (int64_t e = 0; e < n_edges; e++)
            if (dr[e] < INFINITY) ws.items[n++] = (item){dr[e], e};
        sort_items(ws.items, ws.tmp, n);
        memcpy(sorted + r * n_edges, ws.items, (size_t)n * sizeof(item));
        lengths[r] = n;
    }
    /* The union-find of a forest's own edges, which each row's completion
     * copies and continues. */
    int64_t *forest = ws.picks, *parent = ws.parent;
    for (int64_t k = 0; k < n_ys && status == 0; k++) {
        const double *y = ys + k * n_edges;
        int64_t n_first = 0;
        for (int64_t v = 0; v < n_nodes; v++) forest[v] = v;
        for (int64_t e = 0; e < n_edges && status == 0; e++) {
            if (!(y[e] > 0.5)) continue;
            int64_t ru = find(forest, ends[2 * e]), rv = find(forest, ends[2 * e + 1]);
            if (ru == rv) status = CYCLE;
            else forest[ru] = rv;
            n_first++;
        }
        for (int64_t r = 0; r < k_rows && status == 0; r++) {
            const item *rest = sorted + r * n_edges;
            int64_t n = 0;
            memcpy(parent, forest, (size_t)n_nodes * sizeof(int64_t));
            for (int64_t j = 0; j < lengths[r] && n_first + n < n_nodes - 1; j++) {
                int64_t edge = rest[j].edge;
                if (y[edge] > 0.5) continue;
                int64_t ru = find(parent, ends[2 * edge]), rv = find(parent, ends[2 * edge + 1]);
                if (ru != rv) {
                    parent[ru] = rv;
                    costs[n++] = rest[j].key;
                }
            }
            if (n_first + n != n_nodes - 1) status = DISCONNECTED;
            out[k * k_rows + r] = 0.0;
            out[k * k_rows + r] += pairwise_sum(costs, n);
        }
    }
    free(sorted);
    free(lengths);
    close_workspace(&ws);
    return status;
}

int64_t normal_fill(const uint32_t *entropy, int64_t n_entropy, int64_t n, double *out) {
    entropy_pool ep;
    mix_entropy(&ep, entropy, n_entropy);
    fill_from(&ep, n, out);
    return inlined;
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

/* The normals of a pass, step by step: step s draws count standard normals
 * from the stream of the key's entropy followed by (s / n_slots, s % n_slots)
 * when by_epoch, else by s.  No stream depends on the pass's results, so a
 * helper thread draws ahead of the caller into a ring of DEPTH steps while
 * the caller runs Kruskal, the products and Adam; a step's normals are the
 * same whoever draws them.  The caller never waits for the helper: a step
 * that the helper has not drawn yet, the caller draws itself, into a
 * buffer of its own, so a helper that gets no CPU costs little.  Without
 * the helper the caller draws every step that way.
 *
 * drawn is the helper's count: drawn > s means that the ring's slot of step
 * s holds step s, since the helper draws consecutive steps and jumps only
 * to the caller's position.  used is the caller's: the steps before it are
 * released, and the helper draws step t only while t < used + DEPTH, so it
 * never overwrites a slot that the caller reads.  When the ring is full
 * the helper spins briefly, then posts the count it waits for (half the
 * ring free) as wanted and sleeps; the caller wakes it once used reaches
 * wanted.  Sequentially consistent atomics make the helper's check of used
 * and the caller's check of wanted see at least one of the two writes. */
enum { DEPTH = 16, SPIN = 64 };

typedef struct {
    entropy_pool key;
    int64_t n_slots, n_steps, count;
    int by_epoch, threaded;
    double *own, *ring;
    _Atomic int64_t drawn, used, wanted; /* wanted: the helper's target, else INT64_MAX */
    _Atomic int stop;
    pthread_mutex_t lock;
    pthread_cond_t wake;
    pthread_t helper;
} normals;

static void relax(void) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

static void draw_step(const normals *src, int64_t s, double *out) {
    entropy_pool ep = src->key;
    if (src->by_epoch) mix_index(&ep, s / src->n_slots);
    mix_index(&ep, s % src->n_slots);
    fill_from(&ep, src->count, out);
}

/* The helper waits until used reaches target or the pass stops. */
static void wait_for_used(normals *src, int64_t target) {
    for (int i = 0; i < SPIN; i++) {
        if (atomic_load(&src->used) >= target || atomic_load(&src->stop)) return;
        relax();
    }
    pthread_mutex_lock(&src->lock);
    atomic_store(&src->wanted, target);
    while (atomic_load(&src->used) < target && !atomic_load(&src->stop))
        pthread_cond_wait(&src->wake, &src->lock);
    atomic_store(&src->wanted, INT64_MAX);
    pthread_mutex_unlock(&src->lock);
}

static void *draw_ahead(void *arg) {
    normals *src = arg;
    int64_t s = 0;
    while (!atomic_load(&src->stop)) {
        int64_t used = atomic_load(&src->used);
        if (s < used) s = used; /* the caller has drawn these itself */
        if (s >= src->n_steps) break;
        if (s - used >= DEPTH) {
            wait_for_used(src, s - DEPTH / 2 + 1);
            continue;
        }
        draw_step(src, s, src->ring + (s % DEPTH) * src->count);
        atomic_store(&src->drawn, ++s);
    }
    return NULL;
}

/* Opens the frame of a fused pass: its workspace, with n_buffer doubles of
 * its own followed by the normals' buffers, and the normals of n_steps
 * steps of count each.  Starts the helper when threaded and pthread_create
 * succeeds; otherwise the caller draws every step.  Leaves nothing open
 * when it fails. */
static int open_pass(workspace *ws, normals *src, const int64_t *ends, int64_t n_edges,
                     int64_t n_nodes, int64_t n_buffer, const uint32_t *entropy,
                     int64_t n_entropy, int by_epoch, int64_t n_slots, int64_t n_steps,
                     int64_t count, int threaded) {
    threaded = threaded && n_steps > 1;
    int status = open_workspace(ws, ends, n_edges, n_nodes,
                                n_buffer + (threaded ? DEPTH + 1 : 1) * count);
    if (status != 0) return status;
    mix_entropy(&src->key, entropy, n_entropy);
    src->by_epoch = by_epoch;
    src->n_slots = n_slots;
    src->n_steps = n_steps;
    src->count = count;
    src->threaded = 0;
    src->own = ws->buffer + n_buffer;
    src->ring = src->own + count;
    if (!threaded) return 0;
    atomic_init(&src->drawn, 0);
    atomic_init(&src->used, 0);
    atomic_init(&src->wanted, INT64_MAX);
    atomic_init(&src->stop, 0);
    if (pthread_mutex_init(&src->lock, NULL) != 0) return 0;
    if (pthread_cond_init(&src->wake, NULL) == 0) {
        if (pthread_create(&src->helper, NULL, draw_ahead, src) == 0) {
            src->threaded = 1;
            return 0;
        }
        pthread_cond_destroy(&src->wake);
    }
    pthread_mutex_destroy(&src->lock);
    return 0;
}

/* Step s's normals, valid until release_step(src, s). */
static const double *step_normals(normals *src, int64_t s) {
    if (src->threaded && atomic_load(&src->drawn) > s) return src->ring + (s % DEPTH) * src->count;
    draw_step(src, s, src->own);
    return src->own;
}

static void release_step(normals *src, int64_t s) {
    if (!src->threaded) return;
    atomic_store(&src->used, s + 1);
    if (atomic_load(&src->wanted) <= s + 1) {
        pthread_mutex_lock(&src->lock);
        pthread_cond_signal(&src->wake);
        pthread_mutex_unlock(&src->lock);
    }
}

/* Stops and joins the helper and frees the workspace, on every return
 * path of a pass that open_pass opened. */
static void close_pass(workspace *ws, normals *src) {
    if (src->threaded) {
        atomic_store(&src->stop, 1);
        pthread_mutex_lock(&src->lock);
        pthread_cond_signal(&src->wake);
        pthread_mutex_unlock(&src->lock);
        pthread_join(src->helper, NULL);
        pthread_cond_destroy(&src->wake);
        pthread_mutex_destroy(&src->lock);
    }
    close_workspace(ws);
}

int64_t perturbed_adam_pass(const double *const *features, const double *const *targets,
                            int64_t n_slots, int64_t n_epochs, int64_t p,
                            const uint32_t *entropy, int64_t n_entropy, double eps, int64_t m,
                            const int64_t *ends, int64_t n_edges, int64_t n_nodes,
                            double *adam, int64_t t0, double lr, double beta1,
                            double beta2, double eps_adam, void *const *blas,
                            int64_t threaded, int64_t *step) {
    workspace ws;
    normals src;
    int64_t t = 0, count;
    int status = open_pass(&ws, &src, ends, n_edges, n_nodes, 3 * n_edges, entropy, n_entropy,
                           1, n_slots, n_epochs * n_slots, m * n_edges, (int)threaded);
    *step = 0;
    if (status != 0) return status;
    double *theta = ws.buffer, *tilt = theta + n_edges, *g = tilt + n_edges;
    double *w = adam, *gradient = adam + p;
    for (; t < n_epochs * n_slots; t++) {
        int64_t slot = t % n_slots;
        matvec(blas, features[slot], n_edges, p, 0, w, theta);
        const double *z = step_normals(&src, t);
        for (int64_t e = 0; e < n_edges; e++) g[e] = 0.0;
        for (int64_t r = 0; r < m && status == 0; r++) {
            for (int64_t e = 0; e < n_edges; e++) tilt[e] = theta[e] + eps * z[r * n_edges + e];
            status = forest(&ws, tilt, n_edges, &count);
            for (int64_t i = 0; i < count; i++) g[ws.picks[i]] += 1.0;
        }
        release_step(&src, t);
        if (status != 0) break;
        for (int64_t e = 0; e < n_edges; e++) g[e] /= (double)m;
        for (int64_t e = 0; e < n_edges; e++) g[e] -= targets[slot][e];
        matvec(blas, features[slot], n_edges, p, 1, g, gradient);
        status = (int)adam_step(adam, p, lr, beta1, beta2, eps_adam,
                                1.0 - pow(beta1, (double)(t0 + t + 1)),
                                1.0 - pow(beta2, (double)(t0 + t + 1)));
        if (status != 0) break;
    }
    close_pass(&ws, &src);
    *step = t;
    return status;
}

int64_t perturbed_split_pass(const double *thetas, const double *const *first,
                             const double *const *second, int64_t n_slots,
                             const uint32_t *entropy, int64_t n_entropy, double kappa,
                             double eps, int64_t m, const int64_t *ends, int64_t n_edges,
                             int64_t n_nodes, int64_t threaded, double *out, int64_t *step) {
    workspace ws;
    normals src;
    int64_t s = 0, count;
    int status = open_pass(&ws, &src, ends, n_edges, n_nodes, m * n_edges, entropy, n_entropy,
                           0, n_slots, n_slots, m * n_edges, (int)threaded);
    *step = 0;
    if (status != 0) return status;
    double *eff = ws.buffer;
    for (; s < n_slots; s++) {
        const double *theta = thetas + s * n_edges, *c = first[s], *d = second[s];
        double *mean = out + s * n_edges;
        for (int64_t e = 0; e < n_edges; e++)
            if (!isfinite(theta[e])) status = NON_FINITE;
        if (status != 0) break;
        const double *z = step_normals(&src, s);
        for (int64_t r = 0; r < m; r++)
            for (int64_t e = 0; e < n_edges; e++) {
                double tilt = theta[e] + eps * z[r * n_edges + e];
                if (!isfinite(tilt)) status = NON_FINITE;
                eff[r * n_edges + e] = c[e] - kappa * tilt;
            }
        release_step(&src, s);
        if (status != 0) break;
        for (int64_t e = 0; e < n_edges; e++) mean[e] = 0.0;
        for (int64_t r = 0; r < m && status == 0; r++) {
            const double *er = eff + r * n_edges;
            status = split_row(&ws, er, d, n_edges, &count);
            for (int64_t i = 0; i < count; i++)
                mean[ws.picks[i]] += er[ws.picks[i]] <= d[ws.picks[i]];
        }
        if (status != 0) break;
        for (int64_t e = 0; e < n_edges; e++) mean[e] /= (double)m;
    }
    close_pass(&ws, &src);
    *step = s;
    return status;
}
