/*
 * Compiled kernels for csq, loaded through ctypes (no Python API): the
 * embed stages, the draw of the sparse Gaussian operator, then the l1 sums
 * and the two steps of each chunk of the all-pairs query (at the end of
 * the file, integer and byte work only).
 *
 * Each embed kernel performs exactly the floating-point operations of the
 * numpy kernel it mirrors, in the same order per output value, so results
 * are bit-identical to that kernel. That holds only when the compiler neither
 * contracts a*b + c into a fused multiply-add nor reassociates: build with
 * -ffp-contract=off and without -ffast-math. csq_draw_sparse draws the
 * operator through NumPy's public bit generator interface and NumPy's own
 * normal draw, in the order of the numpy loop, so it gives that loop's
 * matrix and leaves the generator in that loop's state.
 *
 * Points are handled in tiles of TILE points, stored feature-major: row f
 * of point j (0 <= j < TILE) of a tile sits at f * TILE + j, and the lanes
 * past the last point of a partial tile hold zeros. A tiled block of b
 * points is its tiles one after another, tile p0 / TILE starting at
 * p0 * rows. A block's outputs are one row per point: a CSQD record of
 * ceil(p * width / 8) bytes, a CSQC record of ceil(m / 8) bytes of code
 * bits and a peak.
 *
 * csq_embed_block embeds a block tile by tile, in one tile of working
 * memory that it takes and gives back itself, reading the rows from memory
 * or with pread from a file, and measuring each row as it loads it;
 * csq_precondition, csq_project and csq_quantize run one stage over a
 * block, and csq_records the record writer, so that each can be checked
 * on its own. A kernel that allocates returns NO_MEMORY, having written
 * nothing, when the allocation fails.
 *
 * On x86-64 with glibc the embed stages and the l1 sum loop are CLONES: the
 * compiler builds each twice, for baseline x86-64 and for AVX2, with every
 * static helper inlined into both (flatten), and the dynamic loader's
 * resolver picks the AVX2 build once, when the library loads, on a CPU
 * that has it. The AVX2 build runs the projection and the quantizer on
 * vectors of four doubles, the baseline build on vectors of two (see
 * TILE_STAGES). AVX2 does not imply FMA and the flags forbid contraction,
 * so both builds round every operation alike: IEEE add, multiply and
 * compare give the same results in 128- and 256-bit lanes, and the bytes
 * do not depend on the build that ran. Elsewhere, with a compiler without
 * target_clones, or with -DCSQ_NO_CLONES, CLONES is empty and there is one
 * baseline build; csq_isa says which one runs.
 */

#define _POSIX_C_SOURCE 200809L

#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

/* The clones need the dynamic loader's ifunc support, which glibc has. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute) && \
    !defined(CSQ_NO_CLONES)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default"), flatten))
#define HAS_CLONES 1
#endif
#endif
#ifndef CLONES
#define CLONES
#define HAS_CLONES 0
#endif

/* 1 when the cloned kernels run their AVX2 build, 0 when they run the
   baseline one; the resolver picks by the same CPU test. */
int csq_isa(void)
{
#if HAS_CLONES
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

#define TILE 16

/* What csq_quantize and csq_embed_block return besides 0 (success) and,
   for a failed read, minus its errno. */
enum { NO_MEMORY = 1, END_OF_FILE = 2 };

/* W doubles (vdW), loaded and stored without an alignment requirement,
   and the W 64-bit lane masks a comparison of them gives (viW); either may
   alias the doubles of a tile. Two fill an SSE2 register, four an AVX2
   one. */
typedef double vd2 __attribute__((vector_size(16), aligned(8), may_alias));
typedef int64_t vi2 __attribute__((vector_size(16), aligned(8), may_alias));
typedef double vd4 __attribute__((vector_size(32), aligned(8), may_alias));
typedef int64_t vi4 __attribute__((vector_size(32), aligned(8), may_alias));

/* Rows of a tile that stay in the first-level cache together. */
#define CHUNK 128

/* Nanoseconds of the monotonic clock, for the stage timings. */
static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* One butterfly stage over rows 0..rows-1 of a tile: for each aligned
   group of 2h rows, row i becomes x_i + x_{i+h} and row i + h becomes
   x_i - x_{i+h}. */
static void butterflies(double *restrict x, int64_t rows, int64_t h)
{
    for (int64_t g = 0; g < rows; g += 2 * h) {
        for (int64_t i = g; i < g + h; i++) {
            double *restrict lo = x + i * TILE, *restrict hi = x + (i + h) * TILE;
            for (int j = 0; j < TILE; j++) {
                const double a = lo[j], c = hi[j];
                lo[j] = a + c;
                hi[j] = a - c;
            }
        }
    }
}

/* The doubles of a little-endian file, in the host's byte order. */
static void from_little_endian(double *x, int64_t count)
{
    const uint16_t probe = 1;
    uint8_t first;
    memcpy(&first, &probe, 1);
    if (first)
        return;
    for (int64_t i = 0; i < count; i++) {
        uint8_t b[8];
        uint64_t v = 0;
        memcpy(b, x + i, 8);
        for (int k = 7; k >= 0; k--)
            v = v << 8 | b[k];
        memcpy(x + i, &v, 8);
    }
}

/* Read size bytes at offset of the file open as fd into buf, resuming
   after a signal or a short read: 0, END_OF_FILE when the file ends
   first, or minus the errno of a failed read. */
static int read_at(int fd, void *buf, int64_t size, int64_t offset)
{
    char *at = buf;
    while (size > 0) {
        const ssize_t got = pread(fd, at, (size_t)size, (off_t)offset);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return -errno;
        }
        if (got == 0)
            return END_OF_FILE;
        at += got;
        size -= got;
        offset += got;
    }
    return 0;
}

/*
 * As Projection.precondition and fwht_inplace, for a tile whose rows
 * 0..n-1 hold x * signs[f] (load_tile): the padding rows n..n_pad-1 get
 * 0.0 * signs[f], and every point goes through the butterfly stages h =
 * 1, 2, 4, ..., n_pad / 2 (see butterflies), followed by one
 * multiplication by 1/sqrt(n_pad), correctly rounded as Python's
 * 1.0 / math.sqrt(n_pad). Nothing happens when signs is NULL (n_pad
 * equals n).
 */
static void transform_tile(int64_t n, const double *restrict signs,
                           int64_t n_pad, double *restrict tile)
{
    if (!signs)
        return;
    for (int64_t f = n; f < n_pad; f++)
        for (int j = 0; j < TILE; j++)
            tile[f * TILE + j] = 0.0 * signs[f];
    /* Stage h pairs rows within aligned groups of 2h rows, so running the
       stages with 2h <= CHUNK chunk by chunk (in cache) before the wider
       ones gives every butterfly the operands it has in stage order. Each
       butterfly writes its sum and difference back in place, the values
       the ping-pong buffers of fwht_inplace hold. */
    const int64_t chunk = n_pad < CHUNK ? n_pad : CHUNK;
    for (int64_t c0 = 0; c0 < n_pad; c0 += chunk)
        for (int64_t h = 1; h < chunk; h *= 2)
            butterflies(tile + c0 * TILE, chunk, h);
    for (int64_t h = chunk; h < n_pad; h *= 2)
        butterflies(tile, n_pad, h);
    const double scale = 1.0 / sqrt((double)n_pad);
    for (int64_t e = 0; e < n_pad * TILE; e++)
        tile[e] *= scale;
}

/* Terms of one leaf of NumPy's pairwise sum; PW_BLOCKSIZE in NumPy. */
#define PAIRWISE 128
/* More than enough levels for the halvings of any row length. */
#define LEVELS 64

/*
 * norms[j] for the lanes j < t of a tile, from the sums of squares of the
 * rows x (t, n) the tile was loaded from: the square root, except NaN for
 * a row with an infinite entry, whose sum is infinite like that of a
 * finite row whose norm overflows (a NaN entry makes the sum NaN).
 */
static void put_norms(const double *restrict sums, const double *restrict x,
                      int64_t t, int64_t n, double *restrict norms)
{
    for (int64_t j = 0; j < t; j++) {
        norms[j] = sqrt(sums[j]);
        for (int64_t f = 0; isinf(norms[j]) && f < n; f++)
            if (isinf(x[j * n + f]))
                norms[j] = NAN;
    }
}

/*
 * load_leafW, load_tileW and tile_peaksW, on vectors of W doubles, each
 * holding one feature of W points (lanes).
 *
 * load_tileW: copy t <= TILE point-major rows x (t, n) into rows 0..n-1
 * of a tile, times signs[f] when signs is not NULL, with zeros in the
 * lanes past t, and measure them on the way: norms[j] gets the l2 norm of
 * row j as np.linalg.norm gives it, or NaN or inf (see put_norms). The
 * norm is the square root of the sum of the row's squares in the order of
 * NumPy's pairwise sum (pairwise_sum in
 * numpy/_core/src/umath/loops_utils.h.src), which np.add.reduce runs over
 * a contiguous row: a part of more than PAIRWISE terms is split after the
 * largest multiple of 8 not above half its length, and the sums of its
 * halves are added, left + right; a leaf of at most PAIRWISE terms keeps
 * eight running sums, sum j taking the terms i = j mod 8 before the last
 * multiple of 8 (the leaves start at multiples of 8), and adds them as
 * ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)) before the rest of its terms
 * in order. The running sums start at 0.0, NumPy's at the first terms:
 * 0.0 plus a square is that square exactly, so the sums are the same, and
 * a leaf of fewer than 8 terms is NumPy's sum in order from 0.0. Every
 * lane does the
 * same operations in the same order, so the W lanes of a vector are W
 * rows' sums. The halves are walked depth first with an explicit stack,
 * so that nothing is recursive and the whole load inlines into the
 * kernel's builds.
 *
 * load_leafW copies and sums the terms lo..lo+len-1 of every lane, W
 * features of W rows at a time, read as W vectors of one row each and
 * transposed into W vectors of one feature each.
 *
 * tile_peaksW: peaks[j] gets the largest magnitude in rows 0..n-1 of lane
 * j < t of a loaded tile, each row's largest |entry| (a NaN entry is
 * passed over; such a row has a NaN norm).
 */
#define TILE_LOAD(W)                                                         \
    static void load_leaf##W(const double *const *rows, int64_t lo,          \
                             int64_t len, const double *restrict signs,      \
                             double *restrict tile, vd##W *restrict sums)    \
    {                                                                        \
        vd##W r[TILE / W][8];                                                \
        for (int g = 0; g < TILE / W; g++)                                   \
            for (int j = 0; j < 8; j++)                                      \
                r[g][j] = (vd##W){0.0};                                      \
        const int64_t body = lo + len - len % 8;                             \
        int64_t f = lo;                                                      \
        for (; f < body; f += 8)                                             \
            for (int q = 0; q < 8 / W; q++)                                  \
                for (int g = 0; g < TILE / W; g++) {                         \
                    vd##W row[W];                                            \
                    for (int i = 0; i < W; i++)                              \
                        row[i] = *(const vd##W *)(rows[g * W + i] + f + q * W); \
                    for (int c = 0; c < W; c++) {                            \
                        const int64_t e = f + q * W + c;                     \
                        vd##W v = {0.0};                                     \
                        for (int i = 0; i < W; i++)                          \
                            v[i] = row[i][c];                                \
                        r[g][q * W + c] += v * v;                            \
                        if (signs)                                           \
                            v = v * signs[e];                                \
                        *(vd##W *)(tile + e * TILE + g * W) = v;             \
                    }                                                        \
                }                                                            \
        for (int g = 0; g < TILE / W; g++)                                   \
            sums[g] = ((r[g][0] + r[g][1]) + (r[g][2] + r[g][3])) +          \
                      ((r[g][4] + r[g][5]) + (r[g][6] + r[g][7]));           \
        for (; f < lo + len; f++)                                            \
            for (int g = 0; g < TILE / W; g++) {                             \
                vd##W v = {0.0};                                             \
                for (int i = 0; i < W; i++)                                  \
                    v[i] = rows[g * W + i][f];                               \
                sums[g] += v * v;                                            \
                if (signs)                                                   \
                    v = v * signs[f];                                        \
                *(vd##W *)(tile + f * TILE + g * W) = v;                     \
            }                                                                \
    }                                                                        \
                                                                             \
    static void load_tile##W(const double *restrict x, int64_t t, int64_t n, \
                             const double *restrict signs,                   \
                             double *restrict tile, double *restrict norms)  \
    {                                                                        \
        /* The lanes past t read row t - 1 and are zeroed below. */          \
        const double *rows[TILE];                                            \
        for (int j = 0; j < TILE; j++)                                       \
            rows[j] = x + (j < t ? j : t - 1) * n;                           \
        /* Level d of the stack: the right half (start, size) of a split     \
           above the current part, and the sums of its left half once they   \
           are known (ready). */                                             \
        int64_t start[LEVELS], size[LEVELS];                                 \
        int ready[LEVELS];                                                   \
        vd##W left[LEVELS][TILE / W], sums[TILE / W];                        \
        int depth = 0;                                                       \
        for (int64_t lo = 0, len = n;;) {                                    \
            for (; len > PAIRWISE; depth++) {                                \
                const int64_t half = len / 2 - len / 2 % 8;                  \
                start[depth] = lo + half;                                    \
                size[depth] = len - half;                                    \
                ready[depth] = 0;                                            \
                len = half;                                                  \
            }                                                                \
            load_leaf##W(rows, lo, len, signs, tile, sums);                  \
            for (; depth > 0 && ready[depth - 1]; depth--)                   \
                for (int g = 0; g < TILE / W; g++)                           \
                    sums[g] = left[depth - 1][g] + sums[g];                  \
            if (depth == 0)                                                  \
                break;                                                       \
            memcpy(left[depth - 1], sums, sizeof sums);                      \
            ready[depth - 1] = 1;                                            \
            lo = start[depth - 1];                                           \
            len = size[depth - 1];                                           \
        }                                                                    \
        double all[TILE];                                                    \
        memcpy(all, sums, sizeof all);                                       \
        put_norms(all, x, t, n, norms);                                      \
        for (int64_t f = 0; t < TILE && f < n; f++)                          \
            for (int64_t j = t; j < TILE; j++)                               \
                tile[f * TILE + j] = 0.0;                                    \
    }                                                                        \
                                                                             \
    static void tile_peaks##W(const double *restrict tile, int64_t n,        \
                              int64_t t, double *restrict peaks)             \
    {                                                                        \
        const vi##W magnitude = (vi##W){0} + INT64_MAX;                      \
        vd##W top[TILE / W];                                                 \
        for (int g = 0; g < TILE / W; g++)                                   \
            top[g] = (vd##W){0.0};                                           \
        for (int64_t f = 0; f < n; f++)                                      \
            for (int g = 0; g < TILE / W; g++) {                             \
                const vd##W a = (vd##W)(                                     \
                    *(const vi##W *)(tile + f * TILE + g * W) & magnitude);  \
                const vi##W more = a > top[g];                               \
                top[g] = (vd##W)(((vi##W)a & more) | ((vi##W)top[g] & ~more)); \
            }                                                                \
        memcpy(peaks, top, (size_t)t * sizeof(double));                      \
    }

TILE_LOAD(2)
TILE_LOAD(4)

/* load_tileW and tile_peaksW at the width of the build that runs: wide is
   csq_isa(), 1 in the AVX2 build and 0 in the baseline one. */
static void load_tile(int wide, const double *restrict x, int64_t t,
                      int64_t n, const double *restrict signs,
                      double *restrict tile, double *restrict norms)
{
    if (wide)
        load_tile4(x, t, n, signs, tile, norms);
    else
        load_tile2(x, t, n, signs, tile, norms);
}

static void tile_peaks(int wide, const double *restrict tile, int64_t n,
                       int64_t t, double *restrict peaks)
{
    if (wide)
        tile_peaks4(tile, n, t, peaks);
    else
        tile_peaks2(tile, n, t, peaks);
}

/* (cur - d) mod len for 0 <= cur < len and 0 < d < len. */
static inline int64_t back(int64_t cur, int64_t d, int64_t len)
{
    return cur >= d ? cur - d : cur - d + len;
}

/*
 * project_tileW and quantize_condense_tileW, on vectors of W doubles.
 *
 * project_tileW: out (rows, TILE) = A x for the CSR matrix A (rows x
 * n_pad) and one tile x, as sparse_matmat: output (i, j) starts at 0.0 and
 * adds x[col] * v for the stored entries of row i in storage order.
 *
 * quantize_condense_tileW: quantize the m samples of every lane of one
 * tile of projections y (m, TILE) as quantize_batch, and condense and
 * pack the codes in the same loop. The filter state lives in ring,
 * reach + 1 rows of TILE doubles with reach = pos[r - 1]; sample i reads row
 * (i - pos[k]) mod (reach + 1) for each tap k and writes row
 * i mod (reach + 1): s = row_0 * w[0], s += row_k * w[k] for the later
 * taps, s += y, the code is +1 when s >= 0.0, and the row becomes s - q.
 * Each lane keeps its running sketch entry, adding kernel[i mod lam] for a
 * code of +1 and subtracting it for -1 (exact in int64, as
 * condense_signs_batch sums), stored as row i / lam of sums (p, TILE)
 * after every lam samples; and its code bits, bit i mod 64 set for a code
 * of +1, stored as row i / 64 of words (ceil(m / 64), TILE) after every 64
 * samples and after the last. peaks[j] gets the largest |y| of lane j
 * (NaN or inf when a sample is not finite) for the t <= TILE lanes that
 * hold points.
 *
 * Every lane gets the same operations whatever W is, so both widths give
 * the same bits. The AVX2 build runs W = 4 and the baseline build W = 2
 * (see wide below): without AVX, GCC keeps 32-byte vectors in memory.
 */
#define TILE_STAGES(W)                                                       \
    static void project_tile##W(const int64_t *restrict offsets,             \
                                const int64_t *restrict cols,                \
                                const double *restrict vals, int64_t rows,   \
                                const double *restrict x,                    \
                                double *restrict out)                        \
    {                                                                        \
        for (int64_t i = 0; i < rows; i++) {                                 \
            vd##W acc[TILE / W];                                             \
            for (int l = 0; l < TILE / W; l++)                               \
                acc[l] = (vd##W){0.0};                                       \
            for (int64_t e = offsets[i]; e < offsets[i + 1]; e++) {          \
                const vd##W *xr = (const vd##W *)(x + cols[e] * TILE);       \
                for (int l = 0; l < TILE / W; l++)                           \
                    acc[l] += xr[l] * vals[e];                               \
            }                                                                \
            vd##W *dst = (vd##W *)(out + i * TILE);                          \
            for (int l = 0; l < TILE / W; l++)                               \
                dst[l] = acc[l];                                             \
        }                                                                    \
    }                                                                        \
                                                                             \
    static void quantize_condense_tile##W(                                   \
        const double *restrict y, int64_t m, int64_t t,                      \
        const int64_t *restrict pos, const double *restrict w, int64_t r,    \
        const int64_t *restrict kernel, int64_t lam, double *restrict ring,  \
        int64_t *restrict sums, int64_t *restrict words,                     \
        double *restrict peaks)                                              \
    {                                                                        \
        const int64_t len = pos[r - 1] + 1;                                  \
        const vd##W zero = {0.0}, one = zero + 1.0, minus_one = zero - 1.0;  \
        const vi##W none = {0}, magnitude = none + INT64_MAX;                \
        vd##W peak[TILE / W];                                                \
        vi##W entry[TILE / W], word[TILE / W];                               \
        memset(ring, 0, (size_t)(len * TILE) * sizeof(double));              \
        for (int l = 0; l < TILE / W; l++) {                                 \
            peak[l] = zero;                                                  \
            entry[l] = word[l] = none;                                       \
        }                                                                    \
        /* cur is i mod len, c is i mod lam. */                              \
        for (int64_t i = 0, cur = 0, c = 0; i < m; i++) {                    \
            vd##W *row = (vd##W *)(ring + cur * TILE);                       \
            const vd##W *src =                                               \
                (const vd##W *)(ring + back(cur, pos[0], len) * TILE);       \
            vd##W s[TILE / W];                                               \
            for (int l = 0; l < TILE / W; l++)                               \
                s[l] = src[l] * w[0];                                        \
            for (int64_t k = 1; k < r; k++) {                                \
                src = (const vd##W *)(ring + back(cur, pos[k], len) * TILE); \
                for (int l = 0; l < TILE / W; l++)                           \
                    s[l] += src[l] * w[k];                                   \
            }                                                                \
            const vi##W weight = none + kernel[c];                           \
            const vi##W bit = none + (int64_t)((uint64_t)1 << (i & 63));     \
            const vd##W *yi = (const vd##W *)(y + i * TILE);                 \
            for (int l = 0; l < TILE / W; l++) {                             \
                const vd##W v = s[l] + yi[l];                                \
                const vi##W up = v >= zero;                                  \
                row[l] = v - (vd##W)(((vi##W)one & up) |                     \
                                     ((vi##W)minus_one & ~up));              \
                /* weight where up is -1 (true), -weight where it is 0. */   \
                entry[l] += (weight ^ ~up) - ~up;                            \
                word[l] |= bit & up;                                         \
                const vd##W a = (vd##W)((vi##W)yi[l] & magnitude);           \
                const vi##W more = (a > peak[l]) | (a != a);                 \
                peak[l] = (vd##W)(((vi##W)a & more) |                        \
                                  ((vi##W)peak[l] & ~more));                 \
            }                                                                \
            if (++c == lam) {                                                \
                vi##W *dst = (vi##W *)(sums + (i / lam) * TILE);             \
                for (int l = 0; l < TILE / W; l++) {                         \
                    dst[l] = entry[l];                                       \
                    entry[l] = none;                                         \
                }                                                            \
                c = 0;                                                       \
            }                                                                \
            if ((i & 63) == 63 || i == m - 1) {                              \
                vi##W *dst = (vi##W *)(words + (i >> 6) * TILE);             \
                for (int l = 0; l < TILE / W; l++) {                         \
                    dst[l] = word[l];                                        \
                    word[l] = none;                                          \
                }                                                            \
            }                                                                \
            cur = cur + 1 == len ? 0 : cur + 1;                              \
        }                                                                    \
        memcpy(peaks, peak, (size_t)t * sizeof(double));                     \
    }

TILE_STAGES(2)
TILE_STAGES(4)

/* project_tileW and quantize_condense_tileW at the width of the build that
   runs:
   wide is csq_isa(), 1 in the AVX2 build and 0 in the baseline one. */
static void project_tile(int wide, const int64_t *restrict offsets,
                         const int64_t *restrict cols,
                         const double *restrict vals, int64_t rows,
                         const double *restrict x, double *restrict out)
{
    if (wide)
        project_tile4(offsets, cols, vals, rows, x, out);
    else
        project_tile2(offsets, cols, vals, rows, x, out);
}

static void quantize_condense_tile(int wide, const double *restrict y,
                                   int64_t m, int64_t t,
                                   const int64_t *restrict pos,
                                   const double *restrict w, int64_t r,
                                   const int64_t *restrict kernel, int64_t lam,
                                   double *restrict ring,
                                   int64_t *restrict sums,
                                   int64_t *restrict words,
                                   double *restrict peaks)
{
    if (wide)
        quantize_condense_tile4(y, m, t, pos, w, r, kernel, lam, ring, sums,
                                words, peaks);
    else
        quantize_condense_tile2(y, m, t, pos, w, r, kernel, lam, ring, sums,
                                words, peaks);
}

/*
 * The CSQD record of p entries read step apart: entry e fills bits
 * e * width .. e * width + width - 1 of out (1 <= width <= 63) in two's
 * complement, bits LSB first, the layout of pack_rows, and the last byte
 * is zero-padded. The entries fit width bits, as condensation sums do.
 */
static void put_record(const int64_t *restrict entries, int64_t step,
                       int64_t p, int64_t width, uint8_t *restrict out)
{
    const uint64_t mask = ((uint64_t)1 << width) - 1;
    /* The pending bits of buf, fewer than 8 at the top of the loop. */
    uint64_t buf = 0;
    int64_t pending = 0;
    for (int64_t e = 0; e < p; e++) {
        const uint64_t v = (uint64_t)entries[e * step] & mask;
        buf |= v << pending;
        /* The bits of v that do not fit buf. */
        const uint64_t rest = pending ? v >> (64 - pending) : 0;
        pending += width;
        if (pending >= 64) {
            for (int k = 0; k < 8; k++)
                *out++ = (uint8_t)(buf >> (8 * k));
            buf = rest;
            pending -= 64;
        }
        for (; pending >= 8; pending -= 8, buf >>= 8)
            *out++ = (uint8_t)buf;
    }
    if (pending)
        *out = (uint8_t)buf;
}

/*
 * Write the rows of the t <= TILE points of a tile from what
 * quantize_condense_tile left: point j's CSQD record of its sums (p, TILE)
 * at records + j * ceil(p * width / 8), and its m code bits from words
 * (ceil(m / 64), TILE) at bits + j * ceil(m / 8), code i in bit i % 8 of
 * byte i / 8 (LSB first, +1 -> 1), the layout of Codes.from_signs.
 */
static void put_tile(const int64_t *restrict sums,
                     const int64_t *restrict words, int64_t t, int64_t m,
                     int64_t p, int64_t width, uint8_t *restrict records,
                     uint8_t *restrict bits)
{
    const int64_t record = (p * width + 7) / 8, nbytes = (m + 7) / 8;
    for (int64_t j = 0; j < t; j++) {
        put_record(sums + j, TILE, p, width, records + j * record);
        uint8_t *restrict out = bits + j * nbytes;
        for (int64_t k = 0; k < nbytes; k++)
            out[k] = (uint8_t)((uint64_t)words[(k >> 3) * TILE + j] >>
                               (8 * (k & 7)));
    }
}

/*
 * Working memory of a kernel call: take_memory gives count doubles
 * starting at a cache line, or NULL when they cannot be allocated, and
 * give_memory takes them back. Tile rows are 128 bytes, and one that
 * straddled three lines would slow every access to it (by about a third,
 * measured on the projection). Memory given back is kept in one of KEPT
 * slots for the calls that follow (the embed path makes one call per
 * block, about 130 pages of memory each at n = 1000): freed to the C
 * library, it was often returned to the system and page-faulted in again
 * by the next call. Only memory of at most KEEP doubles is kept, so the
 * process holds at most KEPT * KEEP doubles (16 MiB) once the calls are
 * over. A slot is taken and filled by atomic exchange, so concurrent calls
 * never share memory. Each block of memory starts with one cache line
 * holding its size in doubles.
 */
#define KEPT 8
#define KEEP (INT64_C(1) << 18)
#define HEAD 8
static double *kept[KEPT];

static double *take_memory(int64_t count)
{
    for (int i = 0; i < KEPT; i++) {
        double *mem = __atomic_exchange_n(&kept[i], NULL, __ATOMIC_ACQUIRE);
        int64_t size = 0;
        if (mem)
            memcpy(&size, mem - HEAD, sizeof size);
        if (size >= count)
            return mem;
        if (mem)
            free(mem - HEAD);
    }
    void *block;
    if (posix_memalign(&block, 64, (size_t)(HEAD + count) * sizeof(double)))
        return NULL;
    memcpy(block, &count, sizeof count);
    return (double *)block + HEAD;
}

static void give_memory(double *mem)
{
    int64_t size;
    memcpy(&size, mem - HEAD, sizeof size);
    for (int i = 0; size <= KEEP && i < KEPT; i++) {
        double *none = NULL;
        if (__atomic_compare_exchange_n(&kept[i], &none, mem, 0,
                                        __ATOMIC_RELEASE, __ATOMIC_RELAXED))
            return;
    }
    free(mem - HEAD);
}

/* Doubles of tile memory for the ring, the sums and the words of
   quantize_condense_tile. */
static int64_t quantize_memory(int64_t m, int64_t len, int64_t p)
{
    return (len + p + (m + 63) / 64) * TILE;
}

/* load_tile and transform_tile over a block of b points x (b, n); out is
   tiled. */
CLONES
void csq_precondition(const double *x, int64_t b, int64_t n,
                      const double *signs, int64_t n_pad, double *out)
{
    const int wide = csq_isa();
    double norms[TILE];
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        double *tile = out + p0 * n_pad;
        load_tile(wide, x + p0 * n, t, n, signs, tile, norms);
        transform_tile(n, signs, n_pad, tile);
    }
}

/* project_tile over a tiled block x of b points; out is tiled. */
CLONES
void csq_project(const int64_t *offsets, const int64_t *cols,
                 const double *vals, int64_t rows, const double *x,
                 int64_t n_pad, int64_t b, double *out)
{
    const int wide = csq_isa();
    for (int64_t p0 = 0; p0 < b; p0 += TILE)
        project_tile(wide, offsets, cols, vals, rows, x + p0 * n_pad,
                     out + p0 * rows);
}

/* quantize_condense_tile and put_tile over a tiled block y of b points,
   with p = m / lam: records (b, ceil(p * width / 8)), bits (b, ceil(m / 8))
   and peaks (b). Returns nonzero, writing nothing, when the working memory
   cannot be allocated. */
CLONES
int csq_quantize(const double *y, int64_t m, int64_t b, const int64_t *pos,
                 const double *w, int64_t r, const int64_t *kernel,
                 int64_t lam, int64_t width, uint8_t *records, uint8_t *bits,
                 double *peaks)
{
    const int64_t len = pos[r - 1] + 1, p = m / lam;
    const int64_t record = (p * width + 7) / 8, nbytes = (m + 7) / 8;
    double *ring = take_memory(quantize_memory(m, len, p));
    if (!ring)
        return NO_MEMORY;
    int64_t *sums = (int64_t *)(ring + len * TILE), *words = sums + p * TILE;
    const int wide = csq_isa();
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        quantize_condense_tile(wide, y + p0 * m, m, t, pos, w, r, kernel, lam,
                               ring, sums, words, peaks + p0);
        put_tile(sums, words, t, m, p, width, records + p0 * record,
                 bits + p0 * nbytes);
    }
    give_memory(ring);
    return 0;
}

/* put_record of each row of the (k, p) entries into out (k, ceil(p *
   width / 8)). */
void csq_records(const int64_t *entries, int64_t k, int64_t p, int64_t width,
                 uint8_t *out)
{
    const int64_t record = (p * width + 7) / 8;
    for (int64_t i = 0; i < k; i++)
        put_record(entries + i * p, 1, p, width, out + i * record);
}

/*
 * Embed b points, one tile at a time: load the tile's rows, measuring
 * them, then precondition, project, and quantize, condense and pack, each
 * as its function above describes. The rows are x (b, n) when fd < 0;
 * otherwise the b rows of n little-endian doubles at byte offset of the
 * file open as fd, which each tile reads with one pread (more after a
 * short read) into a staging area of its working memory. records (b,
 * ceil(p * width / 8)) and bits (b, ceil(m / 8)) get one row per point,
 * peaks (b) the largest |projection| of each point, NaN or inf where the
 * projections of a point overflowed, norms (b) each row's l2 norm (NaN for
 * a row with a non-finite entry, inf for a finite row whose norm
 * overflows; see load_tile) and, unless it is NULL, maxabs (b) each row's
 * largest |entry| (tile_peaks). ns[0] .. ns[3] are increased by the
 * nanoseconds that reading and loading and the three stages took. The
 * tile's working memory is n_pad + m + reach + 1 + p + ceil(m / 64) rows
 * of TILE doubles, and n more when reading a file. Returns 0, NO_MEMORY
 * when that memory cannot be allocated, END_OF_FILE when the file ends
 * before the last row, or minus the errno of a failed read; after a
 * failure the outputs are incomplete.
 */
CLONES
int csq_embed_block(const double *x, int fd, int64_t offset, int64_t b,
                    int64_t n, const double *signs, int64_t n_pad,
                    const int64_t *offsets, const int64_t *cols,
                    const double *vals, int64_t m, const int64_t *pos,
                    const double *w, int64_t r, const int64_t *kernel,
                    int64_t lam, int64_t width, uint8_t *records,
                    uint8_t *bits, double *peaks, double *norms,
                    double *maxabs, int64_t *ns)
{
    const int64_t len = pos[r - 1] + 1, p = m / lam;
    const int64_t record = (p * width + 7) / 8, nbytes = (m + 7) / 8;
    const int64_t tiles = (n_pad + m) * TILE + quantize_memory(m, len, p);
    double *xt = take_memory(tiles + (fd >= 0 ? n * TILE : 0));
    if (!xt)
        return NO_MEMORY;
    double *yt = xt + n_pad * TILE, *ring = yt + m * TILE, *staged = xt + tiles;
    int64_t *sums = (int64_t *)(ring + len * TILE), *words = sums + p * TILE;
    const int wide = csq_isa();
    int status = 0;
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        const int64_t t0 = now_ns();
        const double *rows = staged;
        if (fd < 0) {
            rows = x + p0 * n;
        } else {
            status = read_at(fd, staged, t * n * (int64_t)sizeof(double),
                             offset + p0 * n * (int64_t)sizeof(double));
            if (status)
                break;
            from_little_endian(staged, t * n);
        }
        load_tile(wide, rows, t, n, signs, xt, norms + p0);
        if (maxabs)
            tile_peaks(wide, xt, n, t, maxabs + p0);
        const int64_t t1 = now_ns();
        transform_tile(n, signs, n_pad, xt);
        const int64_t t2 = now_ns();
        project_tile(wide, offsets, cols, vals, m, xt, yt);
        const int64_t t3 = now_ns();
        quantize_condense_tile(wide, yt, m, t, pos, w, r, kernel, lam, ring,
                               sums, words, peaks + p0);
        put_tile(sums, words, t, m, p, width, records + p0 * record,
                 bits + p0 * nbytes);
        const int64_t t4 = now_ns();
        ns[0] += t1 - t0;
        ns[1] += t2 - t1;
        ns[2] += t3 - t2;
        ns[3] += t4 - t3;
    }
    give_memory(xt);
    return status;
}

/*
 * NumPy's public bit generator interface, as numpy/random/bitgen.h declares
 * it: the state and four functions that advance it. It is restated here so
 * that the file needs no NumPy headers or libraries to compile; NumPy
 * keeps this layout as part of its C API.
 */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/*
 * The rows first..rows-1 of the sparse Gaussian matrix of
 * build_sparse_gaussian, drawn from bitgen in the order its numpy loop
 * draws them. Row i takes cols uniforms next_double(state), the doubles
 * Generator.random(cols) gives, and keeps column j when uniform j is below
 * sparsity; then one normal(bitgen) per kept column, in column order,
 * divided by sqrt(sparsity). normal is NumPy's own random_standard_normal,
 * the function Generator.standard_normal calls, so the stream is consumed
 * and the values are rounded exactly as in the loop, whatever the bit
 * generator.
 *
 * The kept columns and values of row i go to col_indices and values from
 * offsets[i] (set by the caller for i = first), and offsets[i + 1] gets
 * the end. A row starts only when capacity - offsets[i] >= cols, so
 * nothing is drawn for a row that might not fit; the return value is the
 * first row not drawn (rows when all were).
 */
int64_t csq_draw_sparse(bitgen_t *bitgen, double (*normal)(bitgen_t *),
                        int64_t first, int64_t rows, int64_t cols,
                        double sparsity, int64_t *offsets,
                        int64_t *col_indices, double *values,
                        int64_t capacity)
{
    const double root = sqrt(sparsity);
    int64_t i = first;
    for (; i < rows; i++) {
        const int64_t start = offsets[i];
        if (capacity - start < cols)
            break;
        int64_t end = start;
        /* Each column index is stored, and kept by moving the end past
           it: the row fits. */
        for (int64_t j = 0; j < cols; j++) {
            col_indices[end] = j;
            end += bitgen->next_double(bitgen->state) < sparsity;
        }
        for (int64_t e = start; e < end; e++)
            values[e] = normal(bitgen) / root;
        offsets[i + 1] = end;
    }
    return i;
}

/*
 * The l1 sum of two sketch rows a and b of p entries of one signed integer
 * type T, the sum over e of |a[e] - b[e]|. The term is max - min in the
 * unsigned type U of T's width, exact whenever the difference fits T
 * (entry_dtype holds bit_width + 1 bits, so sketch entries always do). A
 * block of at most CHUNK_E terms is summed in the accumulator type A
 * before it is added to the 64-bit total, so the sums are exact in int64
 * for any p; int64 rows sum modulo 2**64 as the numpy loop does.
 */
#define L1_SUM(name, T, U, A, CHUNK_E)                                       \
    static uint64_t name(const T *restrict a, const T *restrict b,           \
                         int64_t p)                                          \
    {                                                                        \
        uint64_t total = 0;                                                  \
        for (int64_t e0 = 0; e0 < p; e0 += (CHUNK_E)) {                      \
            const int64_t e1 = p - e0 < (CHUNK_E) ? p : e0 + (CHUNK_E);      \
            A acc = 0;                                                       \
            for (int64_t e = e0; e < e1; e++) {                              \
                const T hi = a[e] > b[e] ? a[e] : b[e];                      \
                const T lo = a[e] > b[e] ? b[e] : a[e];                      \
                acc += (U)((U)hi - (U)lo);                                   \
            }                                                                \
            total += acc;                                                    \
        }                                                                    \
        return total;                                                        \
    }

L1_SUM(l1_i16, int16_t, uint16_t, uint32_t, INT64_C(1) << 16)
L1_SUM(l1_i32, int32_t, uint32_t, uint64_t, INT64_C(1) << 32)
L1_SUM(l1_i64, int64_t, uint64_t, uint64_t, INT64_C(1) << 62)

/*
 * The l1 sum of two rows of p bytes: rows whose columns each span at most
 * 255, less their column minima (csq._native.narrow). GCC turns this plain
 * loop into psadbw, which sums the absolute differences of 16 bytes (32 in
 * the AVX2 build) in one instruction. A block of 2**24 terms sums to less
 * than 2**32.
 */
static uint64_t l1_u8(const uint8_t *restrict a, const uint8_t *restrict b,
                      int64_t p)
{
    const int64_t block = INT64_C(1) << 24;
    uint64_t total = 0;
    for (int64_t e0 = 0; e0 < p; e0 += block) {
        const int64_t e1 = p - e0 < block ? p : e0 + block;
        uint32_t acc = 0;
        for (int64_t e = e0; e < e1; e++)
            acc += (uint32_t)abs(a[e] - b[e]);
        total += acc;
    }
    return total;
}

/*
 * The l1 sums of row i with the n rows from j on, in sums[0..n-1], of the
 * C-ordered (k, p) matrix rows of width (1, 2, 4 or 8) bytes: bytes for
 * width 1, as l1_u8 takes them, else signed integers. The one cloned l1
 * loop of csq_l1_pairs and csq_l1_marks below, which call it a row at a
 * time.
 */
CLONES static void l1_run(const void *rows, int64_t width, int64_t p,
                          int64_t i, int64_t j, int64_t n, uint64_t *sums)
{
#define L1_RUN(T, sum)                                                       \
    {                                                                        \
        const T *const a = (const T *)rows + i * p;                          \
        const T *const b = (const T *)rows + j * p;                          \
        for (int64_t q = 0; q < n; q++)                                      \
            sums[q] = sum(a, b + q * p, p);                                  \
    }
    switch (width) {
    case 1:
        L1_RUN(uint8_t, l1_u8)
        break;
    case 2:
        L1_RUN(int16_t, l1_i16)
        break;
    case 4:
        L1_RUN(int32_t, l1_i32)
        break;
    default:
        L1_RUN(int64_t, l1_i64)
    }
#undef L1_RUN
}

/*
 * l1 sums between sketch rows, for pairwise_l1_blocks: for each i in
 * start..stop-1 and each later row j, in (i, j) order, *sums++ gets the l1
 * sum of rows i and j.
 */
void csq_l1_pairs(const void *rows, int64_t width, int64_t k, int64_t p,
                  int64_t start, int64_t stop, int64_t *sums)
{
    for (int64_t i = start; i < stop; i++) {
        l1_run(rows, width, p, i, i + 1, k - 1 - i, (uint64_t *)sums);
        sums += k - 1 - i;
    }
}

/* Bytes of the number buffers below: 20 digits and a comma fit. */
#define NUM 24
/* Bytes of a text slot: up to TEXT - 1 bytes of text, then its length. */
#define TEXT 32

/* The decimal digits of v >= 0 followed by a comma at out; returns their
   length. */
static int64_t decimal(char *out, int64_t v)
{
    char digits[20];
    int64_t n = 0, len = 0;
    do {
        digits[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    while (n)
        out[len++] = digits[--n];
    out[len++] = ',';
    return len;
}

/* Add one to the number that decimal wrote at out, in place. */
static int64_t increment(char *out, int64_t len)
{
    int64_t d = len - 2;
    while (d >= 0 && out[d] == '9')
        out[d--] = '0';
    if (d >= 0) {
        out[d]++;
        return len;
    }
    memmove(out + 1, out, (size_t)len);
    out[0] = '1';
    return len + 1;
}

/* Pairs whose sums csq_l1_marks takes at a time. */
#define RUN 256

/*
 * The two steps of a chunk of the all-pairs CSV, over rows as csq_l1_pairs
 * takes them.
 *
 * Sums: for each pair (i, j), start <= i < stop, i < j < k, store its l1
 * sum s at *keep++ and set bit s % 8 of byte s / 8 of marks, which has
 * bits <= 2**32 bits; span[0] and span[1] get the least and the largest
 * sum (2**32 and -1 without pairs). Returns 0, or -1 (having stored and
 * marked some sums) at the first sum of bits or more.
 */
int64_t csq_l1_marks(const void *rows, int64_t width, int64_t k, int64_t p,
                     int64_t start, int64_t stop, unsigned char *marks,
                     int64_t bits, uint32_t *keep, int64_t *span)
{
    uint64_t sums[RUN], lo = UINT32_MAX + UINT64_C(1), hi = 0;
    int64_t any = 0;
    for (int64_t i = start; i < stop; i++)
        for (int64_t j = i + 1; j < k; j += RUN) {
            const int64_t n = k - j < RUN ? k - j : RUN;
            l1_run(rows, width, p, i, j, n, sums);
            for (int64_t q = 0; q < n; q++) {
                const uint64_t s = sums[q];
                if (s >= (uint64_t)bits)
                    return -1;
                marks[s >> 3] |= (unsigned char)(1u << (s & 7));
                *keep++ = (uint32_t)s;
                lo = s < lo ? s : lo;
                hi = s > hi ? s : hi;
            }
            any = 1;
        }
    span[0] = (int64_t)lo;
    span[1] = any ? (int64_t)hi : -1;
    return 0;
}

/*
 * Lines: the CSV lines "i,j,<estimate>\n" of count pairs in (i, j), i < j
 * order from pair (i, j) on, among k rows, written to out; sums[q] is the
 * l1 sum of the q-th pair. The estimate of a pair with l1 sum s is the
 * text in slot t = lut[s] of the slot_count TEXT-byte slots: its
 * first slot[TEXT - 1] bytes. Slot 0 is no text. Numbers and texts are
 * copied as fixed-size blocks that may run past the line, so out needs
 * 2 * NUM + TEXT bytes of room beyond it. Returns the bytes written, -1 if
 * they would not fit in capacity, or -2 at the first sum without a text.
 */
int64_t csq_l1_lines(int64_t k, int64_t i, int64_t j, int64_t count,
                     const uint32_t *sums, const int32_t *lut,
                     int64_t lut_size, const unsigned char *slots,
                     int64_t slot_count, char *out, int64_t capacity)
{
    char *o = out, *const end = out + capacity;
    char row[NUM], col[NUM];
    int64_t row_len = decimal(row, i), col_len = decimal(col, j);
    for (int64_t q = 0; q < count; q++) {
        const uint64_t s = sums[q];
        const int64_t t = s < (uint64_t)lut_size ? lut[s] : 0;
        if (t <= 0 || t >= slot_count || slots[t * TEXT + TEXT - 1] >= TEXT)
            return -2;
        if (end - o < 2 * NUM + TEXT + 1)
            return -1;
        memcpy(o, row, NUM);
        o += row_len;
        memcpy(o, col, NUM);
        o += col_len;
        memcpy(o, slots + t * TEXT, TEXT);
        o += slots[t * TEXT + TEXT - 1];
        *o++ = '\n';
        if (++j < k) {
            col_len = increment(col, col_len);
        } else {
            i++;
            j = i + 1;
            row_len = decimal(row, i);
            col_len = decimal(col, j);
        }
    }
    return o - out;
}
