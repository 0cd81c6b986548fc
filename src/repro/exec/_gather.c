/* One bounds-checked gather pass for the sealed executor.
 *
 * The compiled body of repro.exec.sealed: for each of `rows` payloads,
 * out[walk(v)] = src[index[v]] for v = 0 .. n-1.  The walk is an
 * odometer over `ndim` axes, outermost first: axis t counts to
 * shape[t] and moves the output by stride[t] elements.  A plain gather
 * is the one-axis walk (n, 1); a tiled layout's walk visits its
 * outputs tile by tile, so the tiled gather is one pass with no
 * temporary.  The innermost axis always has stride 1 (a tile holds
 * the low output bits), so each inner loop writes contiguously.  The
 * NumPy gather in sealed.py is the reference, and this kernel writes
 * the same bytes.
 *
 * Nothing the caller passes is trusted to be in range: every index
 * gets one unsigned compare against n (a negative index is refused,
 * never wrapped), and a walk whose axes do not multiply to n, whose
 * farthest output lies past n - 1 or whose innermost axis is strided
 * is refused before any byte is written.  Prefetching made the random gather slower, and int32
 * indices aliased with the output stream; both are left out.
 */

#include <stdint.h>
#include <string.h>

enum {
    GATHER_OK = -1,        /* any other result >= 0: the bad position */
    GATHER_BAD_ARGS = -2,  /* item size, axis count or walk refused */
};

#define MAX_AXES 64

/* One row: the bytes of element index[v] of src go to element walk(v)
 * of dst.  Returns GATHER_OK or the first v whose index is not below
 * n. */
#define DEFINE_WALK(SIZE)                                                 \
    static int64_t walk_##SIZE(const char *src, char *dst, int64_t n,    \
                               const int64_t *index, int32_t ndim,        \
                               const int64_t *shape,                      \
                               const int64_t *stride)                     \
    {                                                                     \
        int64_t count[MAX_AXES] = {0};                                    \
        int64_t inner = shape[ndim - 1], base = 0;                        \
        for (int64_t v = 0; v < n; v += inner) {                          \
            const int64_t *idx = index + v;                               \
            char *out = dst + base * SIZE;                                \
            for (int64_t j = 0; j < inner; j++) {                         \
                uint64_t i = (uint64_t)idx[j];                            \
                if (i >= (uint64_t)n)                                     \
                    return v + j;                                         \
                memcpy(out + j * SIZE, src + i * SIZE, SIZE);             \
            }                                                             \
            for (int32_t t = ndim - 2; t >= 0; t--) {                     \
                base += stride[t];                                        \
                if (++count[t] < shape[t])                                \
                    break;                                                \
                base -= stride[t] * shape[t];                             \
                count[t] = 0;                                             \
            }                                                             \
        }                                                                 \
        return GATHER_OK;                                                 \
    }

DEFINE_WALK(1)
DEFINE_WALK(2)
DEFINE_WALK(4)
DEFINE_WALK(8)
DEFINE_WALK(16)

/* Whether the walk visits exactly n outputs, all inside [0, n), with
 * a contiguous innermost axis. */
static int walk_in_range(int64_t n, int32_t ndim, const int64_t *shape,
                         const int64_t *stride)
{
    if (ndim < 1 || ndim > MAX_AXES || stride[ndim - 1] != 1)
        return 0;
    int64_t visits = 1, farthest = 0;
    for (int32_t t = 0; t < ndim; t++) {
        if (shape[t] < 1 || shape[t] > n || stride[t] < 0
            || stride[t] > n || visits > n / shape[t])
            return 0;
        visits *= shape[t];
        farthest += (shape[t] - 1) * stride[t];
        if (farthest >= n)
            return 0;
    }
    return visits == n;
}

/* Gather `rows` payloads of n items of `item_size` bytes.  Row r of the
 * source starts src_row_stride bytes after row r - 1 and its items are
 * contiguous; the output rows are contiguous and back to back.
 * `walk` holds shape[0..ndim) then stride[0..ndim).  Returns
 * GATHER_OK, GATHER_BAD_ARGS, or the first visit position whose index
 * is out of range (the output is then partly written). */
int64_t gather_rows(const char *src, int64_t src_row_stride, char *dst,
                    int64_t rows, int64_t n, const int64_t *index,
                    int32_t ndim, const int64_t *walk, int32_t item_size)
{
    if (rows < 0 || n < 0)
        return GATHER_BAD_ARGS;
    if (rows == 0 || n == 0)
        return GATHER_OK;
    const int64_t *shape = walk, *stride = walk + (ndim > 0 ? ndim : 0);
    if (!walk_in_range(n, ndim, shape, stride))
        return GATHER_BAD_ARGS;
    int64_t (*row)(const char *, char *, int64_t, const int64_t *,
                   int32_t, const int64_t *, const int64_t *);
    switch (item_size) {
    case 1: row = walk_1; break;
    case 2: row = walk_2; break;
    case 4: row = walk_4; break;
    case 8: row = walk_8; break;
    case 16: row = walk_16; break;
    default: return GATHER_BAD_ARGS;
    }
    int64_t row_bytes = n * item_size;
    for (int64_t r = 0; r < rows; r++) {
        int64_t bad = row(src + r * src_row_stride, dst + r * row_bytes,
                          n, index, ndim, shape, stride);
        if (bad != GATHER_OK)
            return bad;
    }
    return GATHER_OK;
}
