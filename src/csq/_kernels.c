/*
 * Compiled kernels for csq, loaded through ctypes (no Python API): the
 * embed stages, the draw of the sparse Gaussian operator, then the l1 sums
 * and CSV line assembly of the all-pairs query (at the end of the file,
 * integer and byte work only).
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
 * memory that it allocates and frees itself; csq_precondition,
 * csq_project and csq_quantize run one stage over a block, and
 * csq_records the record writer, so that each can be checked on its own.
 * A kernel that allocates returns nonzero, having written nothing, when
 * the allocation fails.
 *
 * On x86-64 with glibc the embed stages and the l1 sums are CLONES: the
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

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

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

/*
 * Copy t <= TILE point-major rows x (t, n) into one tile. The rows are
 * finite: a Dataset checks its vectors when it is made. With signs == NULL
 * the values are copied as they are (n_pad must equal n) and nothing else
 * happens.
 * Otherwise, as Projection.precondition and fwht_inplace: feature f
 * becomes x * signs[f], the padding features 0.0 * signs[f], and every
 * point goes through the butterfly stages h = 1, 2, 4, ..., n_pad / 2
 * (see butterflies), followed by one multiplication by 1/sqrt(n_pad),
 * correctly rounded as Python's 1.0 / math.sqrt(n_pad).
 */
static void precondition_tile(const double *restrict x, int64_t t, int64_t n,
                              const double *restrict signs, int64_t n_pad,
                              double *restrict tile)
{
    for (int64_t f = 0; f < n; f++) {
        double *dst = tile + f * TILE;
        for (int64_t j = 0; j < t; j++) {
            const double v = x[j * n + f];
            dst[j] = signs ? v * signs[f] : v;
        }
        for (int64_t j = t; j < TILE; j++)
            dst[j] = 0.0;
    }
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

/* Doubles of tile memory for the ring, the sums and the words of
   quantize_condense_tile. */
static int64_t quantize_memory(int64_t m, int64_t len, int64_t p)
{
    return (len + p + (m + 63) / 64) * TILE;
}

/* precondition_tile over a block of b points x (b, n); out is tiled. */
CLONES
void csq_precondition(const double *x, int64_t b, int64_t n,
                      const double *signs, int64_t n_pad, double *out)
{
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        precondition_tile(x + p0 * n, t, n, signs, n_pad, out + p0 * n_pad);
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
    double *ring = malloc((size_t)quantize_memory(m, len, p) * sizeof(double));
    if (!ring)
        return 1;
    int64_t *sums = (int64_t *)(ring + len * TILE), *words = sums + p * TILE;
    const int wide = csq_isa();
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        quantize_condense_tile(wide, y + p0 * m, m, t, pos, w, r, kernel, lam,
                               ring, sums, words, peaks + p0);
        put_tile(sums, words, t, m, p, width, records + p0 * record,
                 bits + p0 * nbytes);
    }
    free(ring);
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
 * Embed b points x (b, n), one tile at a time: precondition, project, then
 * quantize, condense and pack, each as its function above describes.
 * records (b, ceil(p * width / 8)) and bits (b, ceil(m / 8)) get one row
 * per point, peaks (b) the largest |projection| of each point, NaN or inf
 * where the projections of a point overflowed. ns[0], ns[1] and ns[2] are
 * increased by the nanoseconds the three stages took. The tile's working
 * memory is n_pad + m + reach + 1 + p + ceil(m / 64) rows of TILE doubles.
 */
CLONES
int csq_embed_block(const double *x, int64_t b, int64_t n,
                    const double *signs, int64_t n_pad,
                    const int64_t *offsets, const int64_t *cols,
                    const double *vals, int64_t m, const int64_t *pos,
                    const double *w, int64_t r, const int64_t *kernel,
                    int64_t lam, int64_t width, uint8_t *records,
                    uint8_t *bits, double *peaks, int64_t *ns)
{
    const int64_t len = pos[r - 1] + 1, p = m / lam;
    const int64_t record = (p * width + 7) / 8, nbytes = (m + 7) / 8;
    const int64_t doubles = (n_pad + m) * TILE + quantize_memory(m, len, p);
    double *xt = malloc((size_t)doubles * sizeof(double));
    if (!xt)
        return 1;
    double *yt = xt + n_pad * TILE, *ring = yt + m * TILE;
    int64_t *sums = (int64_t *)(ring + len * TILE), *words = sums + p * TILE;
    const int wide = csq_isa();
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        const int64_t t0 = now_ns();
        precondition_tile(x + p0 * n, t, n, signs, n_pad, xt);
        const int64_t t1 = now_ns();
        project_tile(wide, offsets, cols, vals, m, xt, yt);
        const int64_t t2 = now_ns();
        quantize_condense_tile(wide, yt, m, t, pos, w, r, kernel, lam, ring,
                               sums, words, peaks + p0);
        put_tile(sums, words, t, m, p, width, records + p0 * record,
                 bits + p0 * nbytes);
        const int64_t t3 = now_ns();
        ns[0] += t1 - t0;
        ns[1] += t2 - t1;
        ns[2] += t3 - t2;
    }
    free(xt);
    return 0;
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
 * l1 sums between sketch rows, for pairwise_l1_blocks. rows is a C-ordered
 * (k, p) matrix of one signed integer type T; for each i in start..stop-1
 * and each later row j, in (i, j) order, *sums++ gets the sum over e of
 * |rows[i][e] - rows[j][e]|. The term is max - min in the unsigned type U
 * of T's width, exact whenever the difference fits T (entry_dtype holds
 * bit_width + 1 bits, so sketch entries always do). A block of at most
 * CHUNK_E terms is summed in the accumulator type A before it is added
 * to the int64 total, so the sums are exact in int64 for any p; int64
 * rows sum modulo 2**64 as the numpy loop does.
 */
#define L1_PAIRS(name, T, U, A, CHUNK_E)                                     \
    CLONES void name(const T *rows, int64_t k, int64_t p, int64_t start,     \
                     int64_t stop, int64_t *sums)                            \
    {                                                                        \
        for (int64_t i = start; i < stop; i++) {                             \
            const T *restrict a = rows + i * p;                              \
            for (int64_t j = i + 1; j < k; j++) {                            \
                const T *restrict b = rows + j * p;                          \
                uint64_t total = 0;                                          \
                for (int64_t e0 = 0; e0 < p; e0 += (CHUNK_E)) {              \
                    const int64_t e1 =                                       \
                        p - e0 < (CHUNK_E) ? p : e0 + (CHUNK_E);             \
                    A acc = 0;                                               \
                    for (int64_t e = e0; e < e1; e++) {                      \
                        const T hi = a[e] > b[e] ? a[e] : b[e];              \
                        const T lo = a[e] > b[e] ? b[e] : a[e];              \
                        acc += (U)((U)hi - (U)lo);                           \
                    }                                                        \
                    total += acc;                                            \
                }                                                            \
                *sums++ = (int64_t)total;                                    \
            }                                                                \
        }                                                                    \
    }

L1_PAIRS(csq_l1_pairs_i8, int8_t, uint8_t, uint32_t, INT64_C(1) << 24)
L1_PAIRS(csq_l1_pairs_i16, int16_t, uint16_t, uint32_t, INT64_C(1) << 16)
L1_PAIRS(csq_l1_pairs_i32, int32_t, uint32_t, uint64_t, INT64_C(1) << 32)
L1_PAIRS(csq_l1_pairs_i64, int64_t, uint64_t, uint64_t, INT64_C(1) << 62)

/* Bytes of the number buffers below: 20 digits and a comma fit. */
#define NUM 24
/* Texts up to this long are copied as one fixed-size block. */
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

/*
 * The CSV lines "i,j,<estimate>\n" of count pairs in (i, j), i < j order,
 * starting at (start, start + 1), among k rows, written to out. The
 * estimate of pair n is text t = lut[sums[n] - lo], the bytes
 * texts[offsets[t]] .. texts[offsets[t + 1] - 1] of the size-byte texts.
 * Numbers and short texts are copied as fixed-size blocks that may run
 * past the line, so out needs 2 * NUM + TEXT bytes of room beyond it.
 * Returns the bytes written, or -1 if they would not fit in capacity.
 */
int64_t csq_pair_lines(const int64_t *sums, int64_t count, int64_t start,
                       int64_t k, int64_t lo, const int32_t *lut,
                       const int64_t *offsets, const char *texts, int64_t size,
                       char *out, int64_t capacity)
{
    char *o = out, *const end = out + capacity;
    char row[NUM], col[NUM];
    int64_t i = start, j = start + 1;
    int64_t row_len = decimal(row, i), col_len = decimal(col, j);
    for (int64_t n = 0; n < count; n++) {
        const int32_t t = lut[sums[n] - lo];
        const char *text = texts + offsets[t];
        const int64_t len = offsets[t + 1] - offsets[t];
        const int fixed = len <= TEXT && offsets[t] + TEXT <= size;
        if (end - o < 2 * NUM + (fixed ? TEXT : len) + 1)
            return -1;
        memcpy(o, row, NUM);
        o += row_len;
        memcpy(o, col, NUM);
        o += col_len;
        if (fixed)
            memcpy(o, text, TEXT);
        else
            memcpy(o, text, (size_t)len);
        o += len;
        *o++ = '\n';
        if (++j == k) {
            i++;
            j = i + 1;
            row_len = decimal(row, i);
            col_len = decimal(col, j);
        } else {
            col_len = increment(col, col_len);
        }
    }
    return o - out;
}
