/*
 * The batched PIPE kernel's window sweep as one compiled loop.
 *
 * For every stacked query row r and proteome column c this computes the
 * exact int16 window sum
 *
 *     sum(score_rows[stacked[r + t], c + t] for t in range(w))
 *
 * compares it against the (integer) threshold and writes only the hits,
 * as flat indices r * total_cols + c, into a caller-owned buffer.  It is
 * the tile loop of repro.ppi.kernels.BatchedNumpyKernel._sweep_stacked
 * (score matrix -> doubling partial sums -> threshold -> hits) without the
 * intermediate matrices: the sums live in vector registers, so a sweep
 * reads each score row slice from L1 and writes nothing but hits.
 *
 * Bit-exact with the numpy body by construction: every sum is an integer
 * sum of at most w terms, and the caller only passes score rows whose
 * w * max|score| fits int16, so no partial sum can overflow.  Hit order
 * is unspecified (the caller sorts cells).
 *
 * Reentrant: the function keeps its state on the stack and writes only to
 * the caller's buffer, so any number of threads may run it at once (the
 * caller drops the GIL around it).
 *
 * Built on first use by repro.ppi._native with the system C compiler,
 * e.g.  cc -O3 -shared -fPIC -std=gnu11 -x c _sweep.c -o sweep.so
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Columns per tile: 20 score rows x (TILE + w) int16 stay in L1/L2 while
 * every query row sweeps them. */
#define TILE 1024
/* Vectors summed side by side: eight accumulators per inner step. */
#define UNROLL 8

typedef int16_t v16x16 __attribute__((vector_size(32)));
typedef int16_t v16x8 __attribute__((vector_size(16)));

/*
 * Scalar sums of query row r over columns [from, to): the tail of a tile,
 * and the rare vector block that holds a hit.  Appends hits past `n`
 * (storing at most `cap`) and returns the new count.
 */
static inline int64_t scan_scalar(
    const int16_t *rows, int64_t stride, int64_t total_cols,
    const uint8_t *q, int64_t r, int64_t w, int16_t thr,
    int64_t from, int64_t to, int64_t *hits, int64_t cap, int64_t n)
{
    for (int64_t c = from; c < to; c++) {
        int32_t sum = 0;
        for (int64_t t = 0; t < w; t++)
            sum += rows[q[t] * stride + c + t];
        if (sum >= thr) {
            if (n < cap)
                hits[n] = r * total_cols + c;
            n++;
        }
    }
    return n;
}

/*
 * One sweep body per vector type.  The auto-vectoriser is not trusted
 * with this nest (it interchanges the t/c loops into a scalar inner
 * loop); GCC vector types pin the shape: for each query row and each
 * UNROLL-vector column block, w unaligned loads per vector, summed in
 * registers, then one compare against the threshold.  Hits are rare, so
 * a block that holds one is summed again scalar to find its columns; the
 * accumulators never leave the registers.  Full vector loads stop at the
 * last full block of a tile and the tile's tail columns are summed
 * scalar, so no load reaches past column total_cols + w - 2, the last
 * pad column of score_rows.
 */
#define DEFINE_SWEEP(NAME, VEC, ATTR)                                          \
    ATTR static int64_t NAME(                                                  \
        const int16_t *rows, int64_t stride, int64_t total_cols,               \
        const uint8_t *stacked, int64_t n_rows, int64_t w, int16_t thr,        \
        int64_t *hits, int64_t cap)                                            \
    {                                                                          \
        enum { LANES = sizeof(VEC) / sizeof(int16_t), STEP = UNROLL * LANES }; \
        int64_t n = 0;                                                         \
        for (int64_t c0 = 0; c0 < total_cols; c0 += TILE) {                    \
            int64_t end = total_cols - c0 < TILE ? total_cols : c0 + TILE;     \
            int64_t blocks_end = c0 + (end - c0) / STEP * STEP;                \
            for (int64_t r = 0; r < n_rows; r++) {                             \
                const uint8_t *q = stacked + r;                                \
                for (int64_t c = c0; c < blocks_end; c += STEP) {              \
                    VEC acc[UNROLL] = {0};                                     \
                    for (int64_t t = 0; t < w; t++) {                          \
                        const int16_t *src = rows + q[t] * stride + c + t;     \
                        for (int u = 0; u < UNROLL; u++) {                     \
                            VEC x;                                             \
                            memcpy(&x, src + u * LANES, sizeof x);             \
                            acc[u] += x;                                       \
                        }                                                      \
                    }                                                          \
                    VEC any = acc[0] >= thr;                                   \
                    for (int u = 1; u < UNROLL; u++)                           \
                        any |= acc[u] >= thr;                                  \
                    uint64_t words[sizeof(VEC) / 8], seen = 0;                 \
                    memcpy(words, &any, sizeof words);                         \
                    for (size_t k = 0; k < sizeof words / 8; k++)              \
                        seen |= words[k];                                      \
                    if (seen)                                                  \
                        n = scan_scalar(rows, stride, total_cols, q, r, w,     \
                                        thr, c, c + STEP, hits, cap, n);       \
                }                                                              \
                n = scan_scalar(rows, stride, total_cols, q, r, w, thr,        \
                                blocks_end, end, hits, cap, n);                \
            }                                                                  \
        }                                                                      \
        return n;                                                              \
    }

DEFINE_SWEEP(sweep_vec16, v16x8, )

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_AVX2_BODY 1
DEFINE_SWEEP(sweep_avx2, v16x16, __attribute__((target("avx2"))))

static int has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}
#endif

/*
 * Hits of the exact window sweep of `n_rows` query rows (`stacked` holds
 * n_rows + w - 1 residue codes, each a row index of `rows`) against
 * `total_cols` proteome columns.  `rows` has a row stride of `stride`
 * int16 elements and at least total_cols + w - 1 columns.  Stores at most
 * `cap` hits and returns the true count: a caller seeing more than `cap`
 * runs the pass again with a buffer of exactly that size.
 *
 * repro_sweep_hits runs the widest body this CPU supports;
 * repro_sweep_hits_vec16 always runs the portable 16-byte body (the one
 * every other CPU gets), so both can be checked on one host.
 */
int64_t repro_sweep_hits_vec16(
    const int16_t *rows, int64_t stride, int64_t total_cols,
    const uint8_t *stacked, int64_t n_rows, int64_t w, int64_t threshold,
    int64_t *hits, int64_t cap)
{
    if (threshold > INT16_MAX)
        return 0; /* no int16 sum reaches it */
    int16_t thr = threshold < INT16_MIN ? INT16_MIN : (int16_t)threshold;
    return sweep_vec16(rows, stride, total_cols, stacked, n_rows, w, thr,
                       hits, cap);
}

int64_t repro_sweep_hits(
    const int16_t *rows, int64_t stride, int64_t total_cols,
    const uint8_t *stacked, int64_t n_rows, int64_t w, int64_t threshold,
    int64_t *hits, int64_t cap)
{
#ifdef HAVE_AVX2_BODY
    if (threshold <= INT16_MAX && has_avx2()) {
        int16_t thr = threshold < INT16_MIN ? INT16_MIN : (int16_t)threshold;
        return sweep_avx2(rows, stride, total_cols, stacked, n_rows, w, thr,
                          hits, cap);
    }
#endif
    return repro_sweep_hits_vec16(rows, stride, total_cols, stacked, n_rows,
                                  w, threshold, hits, cap);
}

/* The body repro_sweep_hits dispatches to on this CPU. */
const char *repro_sweep_isa(void)
{
#ifdef HAVE_AVX2_BODY
    if (has_avx2())
        return "avx2";
    return "sse2";
#else
    return "vec16";
#endif
}
