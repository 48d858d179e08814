/* Compiled form of spanning_tree._kruskal_rows_py: the same rules and picks.
 *
 * Row r of the (m, n_edges) keys: take the edges whose key is < +inf (never
 * +inf or NaN) in increasing key order, ties to the lower index, skip
 * cycles, stop at n_nodes - 1 edges.  Row r of the (m, n_nodes) output,
 * zeroed by the caller, gets the taken edges in selection order and their
 * count in its last column.  Returns 0, -1 when out of memory, -2 when
 * n_nodes < 1 or an endpoint lies outside [0, n_nodes).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    double key;
    int64_t edge;
} item;

enum { RUN = 16 };

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

int kruskal_rows(const double *keys, const int64_t *ends, int64_t m,
                 int64_t n_edges, int64_t n_nodes, int64_t *out) {
    if (n_nodes < 1) return -2;
    for (int64_t e = 0; e < 2 * n_edges; e++)
        if (ends[e] < 0 || ends[e] >= n_nodes) return -2;
    item *items = malloc((size_t)(2 * n_edges + 1) * sizeof(item));
    int64_t *parent = malloc((size_t)n_nodes * sizeof(int64_t));
    if (items == NULL || parent == NULL) {
        free(items);
        free(parent);
        return -1;
    }
    for (int64_t r = 0; r < m; r++) {
        const double *key = keys + r * n_edges;
        int64_t *row = out + r * n_nodes, n = 0, count = 0;
        for (int64_t e = 0; e < n_edges; e++)
            if (key[e] < INFINITY) items[n++] = (item){key[e], e};
        sort_items(items, items + n_edges, n);
        for (int64_t v = 0; v < n_nodes; v++) parent[v] = v;
        for (int64_t i = 0; i < n && count < n_nodes - 1; i++) {
            int64_t ru = find(parent, ends[2 * items[i].edge]);
            int64_t rv = find(parent, ends[2 * items[i].edge + 1]);
            if (ru != rv) {
                parent[ru] = rv;
                row[count++] = items[i].edge;
            }
        }
        row[n_nodes - 1] = count;
    }
    free(items);
    free(parent);
    return 0;
}
