/*
 * The PIPE kernel's two compiled loops: the batched window sweep and the
 * fused result block.
 *
 * The window sweep.  For every stacked query row r and proteome column c
 * this computes the exact int16 window sum
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
 * The result block (repro_result_block, at the end of this file) is the
 * product, box filter and per-protein maximum of
 * repro.ppi.pipe.PipeEngine._score_group, touching only the windows near
 * a match; its own comment says why it is bit-exact.
 *
 * Reentrant: both entry points keep their state on the stack and write
 * only to the caller's buffers, so any number of threads may run them at
 * once (the caller drops the GIL around each call).
 *
 * Built on first use by repro.ppi._native with the system C compiler,
 * e.g.  cc -O3 -shared -fPIC -std=gnu11 -ffp-contract=off -x c _sweep.c
 *       -o sweep.so
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


/*
 * The fused PIPE result block, filtered and reduced in one pass.
 *
 * Candidate k's result block is H = M_k E: M_k its n_win x proteome match
 * rows (CSR `rows` / `proteins` / `weights`, weight 1.0 for the binary
 * predicate when `weights` is NULL), E the problem's evidence (CSR
 * `ev_*`, n_cols columns, protein b owning [bounds[b], bounds[b + 1])).
 * Its score for protein b is the maximum over that block of H's box mean
 * as scipy.ndimage.uniform_filter(mode="constant") computes it: a
 * running mean of size 2r + 1 down the window axis, then one along each
 * block row.  This writes max(second running sum) / size per (k, b).
 *
 * Bit-exact with ndimage by construction, given integer, non-negative
 * evidence and weights (the caller checks the evidence once):
 *
 * - First pass.  Every running sum ndimage forms over integers is an
 *   exact integer below 2^53, so it equals the direct sum of the 2r + 1
 *   rows around a window, and a window with no match within r is exactly
 *   0.0 all along.  Only the windows within r of a match are kept (`nw`
 *   of them); each match adds its evidence row to them, in any order,
 *   into the transposed buffer T (column c's nw windows contiguous).
 *   Each sum is then divided by size, as ndimage writes its output.
 * - Second pass.  ndimage's own running sum per block row, in its order:
 *   tmp = 0.0 + x[0] + ... + x[r], then tmp += x[l + r] - x[l - r - 1],
 *   positions outside the block reading 0.0.  The rows are independent,
 *   so the loop runs across T's nw contiguous rows at once; each lane
 *   does exactly the scalar operations (build with -ffp-contract=off).
 * - Maximum.  Division by a positive constant is monotone, so
 *   max(tmp / size) == max(tmp) / size: one division per (k, b).  Every
 *   row starts at a sum of non-negative terms, so the maximum is >= 0.0,
 *   the value of every window and block column nothing reaches.
 *
 * Scratch is the caller's: `work` holds (n_cols + 3) * nw doubles for
 * every candidate (T, a zero row, the running sums and their maxima),
 * `index` n_win slots and `touched` n_cols bytes.  Returns 0, or
 * -1 - k when candidate k needs more than `work_cap` doubles (nothing
 * past its maxima row is written then).
 */
static const double *column(const double *work, const uint8_t *touched,
                            const double *zero, int64_t c, int64_t nw)
{
    return touched[c] ? work + c * nw : zero;
}

int64_t repro_result_block(
    int64_t n_cand, int64_t n_win, int64_t radius,
    const int64_t *rows, const int32_t *proteins, const double *weights,
    const int32_t *ev_indptr, const int32_t *ev_indices, const double *ev_data,
    int64_t n_cols, const int64_t *bounds, int64_t n_blocks,
    double *work, int64_t work_cap, int64_t *index, uint8_t *touched,
    double *out)
{
    const double size = (double)(2 * radius + 1);
    for (int64_t k = 0; k < n_cand; k++) {
        const int64_t *row = rows + k * n_win;
        double *maxima = out + k * n_blocks;
        for (int64_t b = 0; b < n_blocks; b++)
            maxima[b] = 0.0;
        /* Number the windows within r of a match, in order. */
        for (int64_t j = 0; j < n_win; j++)
            index[j] = -1;
        for (int64_t i = 0; i < n_win; i++) {
            if (row[i + 1] == row[i])
                continue;
            int64_t hi = i + radius < n_win ? i + radius : n_win - 1;
            for (int64_t j = i > radius ? i - radius : 0; j <= hi; j++)
                index[j] = 0;
        }
        int64_t nw = 0;
        for (int64_t j = 0; j < n_win; j++)
            if (index[j] == 0)
                index[j] = nw++;
        if (nw == 0)
            continue;
        if ((n_cols + 3) * nw > work_cap)
            return -1 - k;
        double *zero = work + n_cols * nw, *tmp = zero + nw, *peak = tmp + nw;
        memset(zero, 0, nw * sizeof *zero);
        memset(touched, 0, n_cols);

        /* First pass, scattered: a column is zeroed when first touched;
         * an untouched column reads as the zero row. */
        for (int64_t i = 0; i < n_win; i++) {
            if (row[i + 1] == row[i])
                continue;
            int64_t lo = i > radius ? i - radius : 0;
            int64_t hi = i + radius < n_win ? i + radius : n_win - 1;
            int64_t first = index[lo], span = hi - lo + 1;
            for (int64_t e = row[i]; e < row[i + 1]; e++) {
                int32_t p = proteins[e];
                double weight = weights ? weights[e] : 1.0;
                for (int32_t f = ev_indptr[p]; f < ev_indptr[p + 1]; f++) {
                    int64_t c = ev_indices[f];
                    double *col = work + c * nw;
                    if (!touched[c]) {
                        memset(col, 0, nw * sizeof *col);
                        touched[c] = 1;
                    }
                    double x = weight * ev_data[f];
                    for (int64_t t = 0; t < span; t++)
                        col[first + t] += x;
                }
            }
        }
        for (int64_t c = 0; c < n_cols; c++) {
            if (!touched[c])
                continue;
            double *col = work + c * nw;
            for (int64_t q = 0; q < nw; q++)
                col[q] = col[q] / size;
        }

        /* Second pass and maximum, block by block. */
        for (int64_t b = 0; b < n_blocks; b++) {
            int64_t lo = bounds[b], width = bounds[b + 1] - lo;
            int any = 0;
            for (int64_t c = lo; c < lo + width; c++)
                any |= touched[c];
            if (!any)
                continue; /* every row of the block is 0.0 */
            double *restrict sum = tmp, *restrict best = peak;
            for (int64_t q = 0; q < nw; q++)
                sum[q] = 0.0;
            for (int64_t l = 0; l <= radius && l < width; l++) {
                const double *restrict x =
                    column(work, touched, zero, lo + l, nw);
                for (int64_t q = 0; q < nw; q++)
                    sum[q] += x[q];
            }
            for (int64_t q = 0; q < nw; q++)
                best[q] = sum[q];
            for (int64_t l = 1; l < width; l++) {
                const double *restrict in =
                    l + radius < width
                        ? column(work, touched, zero, lo + l + radius, nw)
                        : zero;
                const double *restrict gone =
                    l > radius
                        ? column(work, touched, zero, lo + l - radius - 1, nw)
                        : zero;
                for (int64_t q = 0; q < nw; q++) {
                    sum[q] += in[q] - gone[q];
                    best[q] = best[q] > sum[q] ? best[q] : sum[q];
                }
            }
            double top = 0.0;
            for (int64_t q = 0; q < nw; q++)
                top = top > best[q] ? top : best[q];
            maxima[b] = top / size;
        }
    }
    return 0;
}
