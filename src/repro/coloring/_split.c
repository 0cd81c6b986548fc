/* Level-synchronous Euler split of a regular bipartite multigraph.
 *
 * The compiled body of repro.coloring.euler._split_levels.  The NumPy
 * split there is the reference, and this kernel returns the same
 * colour prefixes bit for bit.
 *
 * Per level, edge e has the key (sub*N + node)*d + rank on each side,
 * and the keys of a side are a permutation of [0, E).  The kernel
 * names every edge by its left key k: the partner at its left copy,
 * sigma, is then k ^ 1, and the partner at its right copy, pi, is the
 * left key of the edge whose right key is its right key ^ 1.
 * tau(k) = pi(k) ^ 1 steps two edges along a cycle of the copy graph.
 * Scanning edges in ascending id order, the first unvisited edge e is
 * the least edge of its tau-orbit O and of pi(O), so one walk marks O
 * lower and pi(O) upper: exactly the halves the NumPy split picks by
 * comparing orbit minima.
 *
 * Nothing the caller passes is trusted: the shape, node ids,
 * regularity, every key and the closing of every walk are checked, and
 * a violation returns a nonzero code before any memory is touched out
 * of range.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    SPLIT_OK = 0,
    SPLIT_BAD_SHAPE = 1,   /* E != N * D, or 2**levels does not divide D */
    SPLIT_NODE_RANGE = 2,  /* a node id outside [0, N) */
    SPLIT_NOT_REGULAR = 3, /* a node with more than D edges, or a key twice */
    SPLIT_OPEN_WALK = 4,   /* a walk that revisits an edge or never closes */
    SPLIT_NO_MEMORY = 5,
};

enum { UNSEEN = 0, LOWER = 1, UPPER = 2 };

/* key[e] = node[e]*degree + the number of edges f < e at node[e]: the
 * rank the stable sort gives. */
static int first_keys(const int64_t *node, int64_t num_edges,
                      int64_t num_nodes, int64_t degree, int32_t *key,
                      int32_t *count)
{
    memset(count, 0, (size_t)num_nodes * sizeof *count);
    for (int64_t e = 0; e < num_edges; e++) {
        int64_t u = node[e];
        if (u < 0 || u >= num_nodes)
            return SPLIT_NODE_RANGE;
        if (count[u] == degree)
            return SPLIT_NOT_REGULAR;
        key[e] = (int32_t)(u * degree + count[u]++);
    }
    return SPLIT_OK;
}

/* pi[k] for every left key k.  Fails unless kl and kr are both
 * permutations of [0, E). */
static int pair_right(const int32_t *kl, const int32_t *kr,
                      int64_t num_edges, int32_t *pi, int32_t *to_left)
{
    size_t words = (size_t)num_edges * sizeof(int32_t);
    memset(pi, 0xff, words);
    memset(to_left, 0xff, words);
    for (int64_t e = 0; e < num_edges; e++) {
        int32_t a = kl[e], b = kr[e];
        if (a < 0 || a >= num_edges || b < 0 || b >= num_edges
            || pi[a] >= 0 || to_left[b] >= 0)
            return SPLIT_NOT_REGULAR;
        pi[a] = b;
        to_left[b] = a;
    }
    for (int64_t k = 0; k < num_edges; k++)
        pi[k] = to_left[pi[k] ^ 1];
    return SPLIT_OK;
}

int split_levels(const int64_t *left, const int64_t *right,
                 int64_t num_edges, int64_t num_nodes, int64_t degree,
                 int32_t levels, int32_t *sub)
{
    if (num_edges <= 0 || num_edges > INT32_MAX || num_nodes <= 0
        || degree <= 0 || num_edges / degree != num_nodes
        || num_edges % degree != 0 || levels < 0 || levels > 30
        || degree % ((int64_t)1 << levels) != 0)
        return SPLIT_BAD_SHAPE;
    size_t words = (size_t)num_edges * sizeof(int32_t);
    int32_t *kl = malloc(words), *kr = malloc(words);
    int32_t *pi = malloc(words), *to_left = malloc(words);
    int32_t *count = malloc((size_t)num_nodes * sizeof(int32_t));
    uint8_t *mark = malloc((size_t)num_edges);
    int status = SPLIT_NO_MEMORY;
    if (!kl || !kr || !pi || !to_left || !count || !mark)
        goto done;
    if ((status = first_keys(left, num_edges, num_nodes, degree, kl,
                             count))
        || (status = first_keys(right, num_edges, num_nodes, degree, kr,
                                count)))
        goto done;
    memset(sub, 0, words);
    /* half = the edge count of one subgraph after this level's split. */
    for (int64_t half = num_edges / 2; levels-- > 0; half /= 2) {
        if ((status = pair_right(kl, kr, num_edges, pi, to_left)))
            goto done;
        memset(mark, UNSEEN, (size_t)num_edges);
        int64_t steps = 0;
        for (int64_t e = 0; e < num_edges; e++) {
            int32_t k = kl[e];
            if (mark[k] == UNSEEN) {
                int32_t f = k;
                do {
                    int32_t g = pi[f];
                    if (mark[f] != UNSEEN || mark[g] != UNSEEN
                        || ++steps > num_edges) {
                        status = SPLIT_OPEN_WALK;
                        goto done;
                    }
                    mark[f] = LOWER;
                    mark[g] = UPPER;
                    f = g ^ 1;
                } while (f != k);
            }
            /* The next level's key: each copy sent one edge to each
             * half, so (sub*N + node)*(d/2) + (rank >> 1) in the new
             * subgraph, which is this sum. */
            int32_t upper = mark[k] == UPPER;
            int32_t offset = (int32_t)((sub[e] + upper) * half);
            kl[e] = (k >> 1) + offset;
            kr[e] = (kr[e] >> 1) + offset;
            sub[e] = (sub[e] << 1) | upper;
        }
    }
done:
    free(kl);
    free(kr);
    free(pi);
    free(to_left);
    free(count);
    free(mark);
    return status;
}
