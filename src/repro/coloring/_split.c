/* Depth-first Euler split of a regular bipartite multigraph.
 *
 * The compiled body of repro.coloring.euler._split_levels, and of the
 * two planner entry points beside it.  The NumPy split there is the
 * reference, and this kernel returns the same colour prefixes bit for
 * bit.
 *
 * A subgraph of a level is a block of B contiguous slots, and slot k
 * of a block holds the edge whose left key (node*d + rank within the
 * subgraph) is k, as the pair {edge id, right key}.  The partner at an
 * edge's left copy, sigma, is then the slot k ^ 1, and the partner at
 * its right copy, pi, is the slot whose right key is its right key ^ 1.
 * tau(k) = pi(k) ^ 1 steps two edges along a cycle of the copy graph,
 * so a walk from slot f visits one alternate-edge class O, and the
 * other class pi(O) is O ^ 1: every slot pair (2j, 2j+1) of the cycle
 * has one slot on each side.  The side holding the least edge id of
 * the cycle takes the lower half, which is the orbit-label rule of the
 * NumPy split, so the result does not depend on where a walk starts.
 *
 * Per block: one checked scatter inverts the right keys, one gather
 * builds pi, one walk per cycle marks each pair's lower slot, and one
 * sequential pass moves the lower slots to the first half of the block
 * and the upper slots to the second.  Both keys of an edge halve there
 * (each copy sent one edge to each half), so the two halves are again
 * blocks of this form, and the kernel recurses on them depth first:
 * deep levels run on blocks that fit in cache.
 *
 * The planner's two colourings (paper Sections VI and VII) have a
 * power-of-two degree and keys in closed form, and each has an entry
 * point that builds the plan arrays in the call that splits:
 *
 *   split_rows    the bank colouring of a row-wise step.  Row r's bank
 *                 graph is its own component, so each row is split as
 *                 one block of m slots, in cache, with the colours the
 *                 stacked graph gets; then s = colour*w + c mod w and
 *                 t[r*m + s] = gamma[r, c].
 *   split_global  the row multigraph of the three-step decomposition.
 *                 Element i is the edge with left key i; after the
 *                 split, delta and gamma3 are scattered from the
 *                 colours as repro.core.scheduler._from_colours does.
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
    SPLIT_NOT_PERMUTATION = 6, /* a row of gamma is no permutation */
};

/* A pair's flag before its walk; afterwards the flag is the parity of
 * the pair's lower slot. */
enum { UNSEEN = 2 };

typedef struct {
    int32_t id;    /* the edge */
    int32_t right; /* its right key within the block */
} slot_t;

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

/* Split the block of `size` slots at `cur`, whose edges all carry the
 * colour prefix `prefix`, `levels` more times and write each edge's
 * final prefix to `sub`.  `spare` is a block of the same size, and
 * `flag` has one byte per slot pair. */
static int split_block(int32_t *sub, slot_t *cur, slot_t *spare,
                       uint8_t *flag, size_t size, int32_t levels,
                       int32_t prefix)
{
    if (levels == 0) {
        for (size_t k = 0; k < size; k++)
            sub[cur[k].id] = prefix;
        return SPLIT_OK;
    }
    size_t half = size / 2;
    /* The spare block holds pi, then the inverse of the right keys,
     * which the walks reuse for the slots of one cycle. */
    int32_t *pi = (int32_t *)spare, *inv = pi + size, *cycle = inv;
    memset(inv, 0xff, size * sizeof *inv);
    for (size_t k = 0; k < size; k++) {
        uint32_t r = (uint32_t)cur[k].right;
        if (r >= size || inv[r] >= 0)
            return SPLIT_NOT_REGULAR;
        inv[r] = (int32_t)k;
    }
    for (size_t k = 0; k < size; k++)
        pi[k] = inv[cur[k].right ^ 1];
    memset(flag, UNSEEN, half);
    for (size_t j = 0; j < half; j++) {
        if (flag[j] != UNSEEN)
            continue;
        /* Walk tau from slot 2j: side A is the visited slots f, side B
         * their partners f ^ 1.  Each pair is marked with its A
         * parity, and flipped afterwards if B holds the least id. */
        int32_t first = (int32_t)(2 * j), f = first;
        int32_t least_a = INT32_MAX, least_b = INT32_MAX;
        size_t length = 0;
        do {
            if (flag[f >> 1] != UNSEEN)
                return SPLIT_OPEN_WALK;
            flag[f >> 1] = (uint8_t)(f & 1);
            cycle[length++] = f;
            if (cur[f].id < least_a)
                least_a = cur[f].id;
            if (cur[f ^ 1].id < least_b)
                least_b = cur[f ^ 1].id;
            f = pi[f] ^ 1;
        } while (f != first);
        if (least_b < least_a)
            for (size_t i = 0; i < length; i++)
                flag[cycle[i] >> 1] ^= 1;
    }
    /* De-interleave into the spare block; pi and the cycle are spent.
     * Each copy sent one edge to each half, so key >> 1 is the edge's
     * key in its half. */
    for (size_t j = 0; j < half; j++) {
        const slot_t *lower = cur + 2 * j + flag[j];
        const slot_t *upper = cur + ((2 * j + flag[j]) ^ 1);
        spare[j] = (slot_t){lower->id, lower->right >> 1};
        spare[half + j] = (slot_t){upper->id, upper->right >> 1};
    }
    int status = split_block(sub, spare, cur, flag, half, levels - 1,
                             prefix << 1);
    if (status == SPLIT_OK)
        status = split_block(sub, spare + half, cur + half, flag + half / 2,
                             half, levels - 1, prefix << 1 | 1);
    return status;
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
    size_t slots = (size_t)num_edges * sizeof(slot_t);
    slot_t *cur = malloc(slots), *spare = malloc(slots);
    int32_t *count = malloc((size_t)num_nodes * sizeof(int32_t));
    uint8_t *flag = malloc((size_t)num_edges / 2 + 1);
    int status = SPLIT_NO_MEMORY;
    if (!cur || !spare || !count || !flag)
        goto done;
    /* The first keys go to the spare block; both are permutations of
     * [0, E) once first_keys accepts them. */
    int32_t *kl = (int32_t *)spare, *kr = kl + num_edges;
    if ((status = first_keys(left, num_edges, num_nodes, degree, kl,
                             count))
        || (status = first_keys(right, num_edges, num_nodes, degree, kr,
                                count)))
        goto done;
    for (int64_t e = 0; e < num_edges; e++)
        cur[kl[e]] = (slot_t){(int32_t)e, kr[e]};
    status = split_block(sub, cur, spare, flag, (size_t)num_edges, levels,
                         0);
done:
    free(cur);
    free(spare);
    free(count);
    free(flag);
    return status;
}

/* Store the row-wise schedule's entries in the caller's index width. */
#define WRITE_SCHEDULE(T)                                                 \
    do {                                                                  \
        T *srow = (T *)s + r * m, *trow = (T *)t + r * m;                 \
        for (int64_t c = 0; c < m; c++)                                   \
            trow[c] = (T)g[0];                                            \
        for (int64_t c = 0, lane = 0; c < m; c++) {                       \
            int64_t slot = (int64_t)sub[c] * width + lane;                \
            srow[c] = (T)slot;                                            \
            trow[slot] = (T)g[c];                                         \
            if (++lane == width)                                          \
                lane = 0;                                                 \
        }                                                                 \
    } while (0)

/* The row-wise schedule of `rows` row permutations gamma (rows x m)
 * at width w = `width`: each row's bank multigraph (edge c from bank
 * c mod w to bank gamma[r, c] mod w, degree d = m/w = 2**levels) is
 * coloured by the split, and s and t, of `itemsize` bytes per entry,
 * are written row by row.  Edge c of a row has left key
 * (c mod w)*d + c div w and right key bank*d + the number of earlier
 * edges into its bank, the keys of the stacked graph less r*m.  An
 * improper colouring (a broken split) leaves a slot of t unhit, which
 * keeps gamma[r, 0]. */
int split_rows(const int64_t *gamma, int64_t rows, int64_t m,
               int64_t width, int32_t levels, int32_t itemsize, void *s,
               void *t)
{
    if (rows <= 0 || m <= 0 || width <= 0 || levels < 0 || levels > 30
        || m % width != 0 || m / width != (int64_t)1 << levels
        || (itemsize != 1 && itemsize != 2 && itemsize != 4)
        || (itemsize < 4 && m > (int64_t)1 << (8 * itemsize)))
        return SPLIT_BAD_SHAPE;
    int64_t degree = m / width;
    slot_t *cur = malloc((size_t)m * sizeof(slot_t));
    slot_t *spare = malloc((size_t)m * sizeof(slot_t));
    int32_t *sub = malloc((size_t)m * sizeof(int32_t));
    int32_t *count = malloc((size_t)width * sizeof(int32_t));
    uint8_t *seen = malloc((size_t)m);
    uint8_t *flag = malloc((size_t)m / 2 + 1);
    int status = SPLIT_NO_MEMORY;
    if (!cur || !spare || !sub || !count || !seen || !flag)
        goto done;
    status = SPLIT_OK;
    for (int64_t r = 0; r < rows && status == SPLIT_OK; r++) {
        const int64_t *g = gamma + r * m;
        memset(seen, 0, (size_t)m);
        memset(count, 0, (size_t)width * sizeof *count);
        for (int64_t c = 0, lane = 0, rank = 0; c < m; c++) {
            uint64_t v = (uint64_t)g[c];
            if (v >= (uint64_t)m || seen[v]) {
                status = SPLIT_NOT_PERMUTATION;
                goto done;
            }
            seen[v] = 1;
            /* A permutation sends d edges into each bank, so every
             * right key is below m. */
            int64_t bank = (int64_t)(v % (uint64_t)width);
            cur[lane * degree + rank] = (slot_t){
                (int32_t)c, (int32_t)(bank * degree + count[bank]++)};
            if (++lane == width) {
                lane = 0;
                rank++;
            }
        }
        status = split_block(sub, cur, spare, flag, (size_t)m, levels, 0);
        if (status != SPLIT_OK)
            break;
        if (itemsize == 1)
            WRITE_SCHEDULE(uint8_t);
        else if (itemsize == 2)
            WRITE_SCHEDULE(uint16_t);
        else
            WRITE_SCHEDULE(uint32_t);
    }
done:
    free(cur);
    free(spare);
    free(sub);
    free(count);
    free(seen);
    free(flag);
    return status;
}

/* The global colouring of the three-step decomposition of p, a
 * permutation of n = m*m elements with m = 2**levels: element i is the
 * edge from source row i div m to destination row p[i] div m, with
 * left key i and right key p[i] div m * m + the number of earlier
 * elements bound for that row.  Writes colours[i], then
 * delta[colour*m + i div m] = p[i] div m and
 * gamma3[p[i] div m * m + colour] = p[i] mod m. */
int split_global(const int64_t *p, int64_t m, int32_t levels,
                 int64_t *colours, int64_t *delta, int64_t *gamma3)
{
    if (levels < 0 || levels > 15 || m != (int64_t)1 << levels)
        return SPLIT_BAD_SHAPE;
    int64_t n = m * m, low = m - 1;
    slot_t *cur = malloc((size_t)n * sizeof(slot_t));
    slot_t *spare = malloc((size_t)n * sizeof(slot_t));
    int32_t *sub = malloc((size_t)n * sizeof(int32_t));
    int32_t *count = calloc((size_t)m, sizeof(int32_t));
    uint8_t *flag = malloc((size_t)n / 2 + 1);
    int status = SPLIT_NO_MEMORY;
    if (!cur || !spare || !sub || !count || !flag)
        goto done;
    for (int64_t i = 0; i < n; i++) {
        uint64_t v = (uint64_t)p[i];
        if (v >= (uint64_t)n) {
            status = SPLIT_NODE_RANGE;
            goto done;
        }
        int64_t row = (int64_t)(v >> levels);
        if (count[row] == m) {
            status = SPLIT_NOT_REGULAR;
            goto done;
        }
        cur[i] = (slot_t){(int32_t)i, (int32_t)(row * m + count[row]++)};
    }
    status = split_block(sub, cur, spare, flag, (size_t)n, levels, 0);
    if (status != SPLIT_OK)
        goto done;
    for (int64_t i = 0; i < n; i++) {
        int64_t k = sub[i], v = p[i];
        colours[i] = k;
        delta[k * m + (i >> levels)] = v >> levels;
        gamma3[(v & ~low) + k] = v & low;
    }
done:
    free(cur);
    free(spare);
    free(sub);
    free(count);
    free(flag);
    return status;
}
