/*
 * Compiled kernels for csq, loaded through ctypes (no Python API): the
 * embed stages, then the l1 sums and CSV line assembly of the all-pairs
 * query (at the end of the file, integer and byte work only).
 *
 * Each embed kernel performs exactly the floating-point operations of the
 * numpy kernel it mirrors, in the same order per output value, so results
 * are bit-identical to that kernel. That holds only when the compiler neither
 * contracts a*b + c into a fused multiply-add nor reassociates: build with
 * -ffp-contract=off and without -ffast-math.
 *
 * Points are handled in tiles of TILE points, stored feature-major: row f
 * of point j (0 <= j < TILE) of a tile sits at f * TILE + j, and the lanes
 * past the last point of a partial tile hold zeros. A tiled block of b
 * points is its tiles one after another, tile p0 / TILE starting at
 * p0 * rows. Codes are (m, b) row-major, points on the last axis.
 *
 * csq_embed_block embeds a block tile by tile, so the stages'
 * intermediate arrays never exceed one tile; csq_precondition,
 * csq_project and csq_quantize run one stage over a block, so that each
 * can be checked on its own.
 */

#include <stdint.h>
#include <string.h>

#define TILE 16

/* Two doubles, loaded and stored without an alignment requirement, and
   the two 64-bit lane masks a comparison of them gives; either may alias
   the doubles of a tile. */
typedef double vd __attribute__((vector_size(16), aligned(8), may_alias));
typedef int64_t vi __attribute__((vector_size(16), aligned(8), may_alias));
#define LANES (TILE / 2)

/* Rows of a tile that stay in the first-level cache together. */
#define CHUNK 128

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
 * (see butterflies), followed by one multiplication by scale
 * (1/sqrt(n_pad)).
 */
static void precondition_tile(const double *restrict x, int64_t t, int64_t n,
                              const double *restrict signs, int64_t n_pad,
                              double scale, double *restrict tile)
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
    for (int64_t e = 0; e < n_pad * TILE; e++)
        tile[e] *= scale;
}

/*
 * out (rows, TILE) = A x for the CSR matrix A (rows x n_pad) and one tile
 * x, as sparse_matmat: output (i, j) starts at 0.0 and adds x[col] * v for
 * the stored entries of row i in storage order.
 */
static void project_tile(const int64_t *restrict offsets,
                         const int64_t *restrict cols,
                         const double *restrict vals, int64_t rows,
                         const double *restrict x, double *restrict out)
{
    for (int64_t i = 0; i < rows; i++) {
        vd acc[LANES];
        for (int l = 0; l < LANES; l++)
            acc[l] = (vd){0.0, 0.0};
        for (int64_t e = offsets[i]; e < offsets[i + 1]; e++) {
            const vd v = {vals[e], vals[e]};
            const vd *xr = (const vd *)(x + cols[e] * TILE);
            for (int l = 0; l < LANES; l++)
                acc[l] += xr[l] * v;
        }
        vd *dst = (vd *)(out + i * TILE);
        for (int l = 0; l < LANES; l++)
            dst[l] = acc[l];
    }
}

/* (cur - d) mod len for 0 <= cur < len and 0 < d < len. */
static inline int64_t back(int64_t cur, int64_t d, int64_t len)
{
    return cur >= d ? cur - d : cur - d + len;
}

/*
 * Quantize the t <= TILE points of one tile of projections y (m, TILE) as
 * quantize_batch: codes[i * stride + j] gets +1 or -1 and peaks[j] the
 * largest |y| of point j (NaN or inf when a sample is not finite). The
 * filter state lives in ring, reach + 1 rows of TILE doubles with
 * reach = pos[r - 1]; sample i reads row (i - pos[k]) mod (reach + 1) for
 * each tap k and writes row i mod (reach + 1): s = row_0 * w[0],
 * s += row_k * w[k] for the later taps, s += y, the code is +1 when
 * s >= 0.0, and the row becomes s - q.
 */
static void quantize_tile(const double *restrict y, int64_t m, int64_t t,
                          const int64_t *restrict pos,
                          const double *restrict w, int64_t r,
                          double *restrict ring, int8_t *restrict codes,
                          int64_t stride, double *restrict peaks)
{
    const int64_t len = pos[r - 1] + 1;
    const vd one = {1.0, 1.0}, minus_one = {-1.0, -1.0}, zero = {0.0, 0.0};
    const vi magnitude = {INT64_MAX, INT64_MAX};
    vd peak[LANES];
    int8_t q[TILE];
    memset(ring, 0, (size_t)(len * TILE) * sizeof(double));
    for (int l = 0; l < LANES; l++)
        peak[l] = zero;
    /* cur is i mod len. */
    for (int64_t i = 0, cur = 0; i < m; i++, cur = cur + 1 == len ? 0 : cur + 1) {
        vd *row = (vd *)(ring + cur * TILE);
        const vd *src = (const vd *)(ring + back(cur, pos[0], len) * TILE);
        vd s[LANES];
        for (int l = 0; l < LANES; l++)
            s[l] = src[l] * w[0];
        for (int64_t k = 1; k < r; k++) {
            src = (const vd *)(ring + back(cur, pos[k], len) * TILE);
            for (int l = 0; l < LANES; l++)
                s[l] += src[l] * w[k];
        }
        const vd *yi = (const vd *)(y + i * TILE);
        for (int l = 0; l < LANES; l++) {
            const vd v = s[l] + yi[l];
            const vi up = v >= zero;
            row[l] = v - (vd)(((vi)one & up) | ((vi)minus_one & ~up));
            /* +1 where up is -1 (true), -1 where it is 0. */
            const vi code = -(up + up) - 1;
            q[2 * l] = (int8_t)code[0];
            q[2 * l + 1] = (int8_t)code[1];
            const vd a = (vd)((vi)yi[l] & magnitude);
            const vi more = (a > peak[l]) | (a != a);
            peak[l] = (vd)(((vi)a & more) | ((vi)peak[l] & ~more));
        }
        memcpy(codes + i * stride, q, (size_t)t);
    }
    memcpy(peaks, peak, (size_t)t * sizeof(double));
}

/* precondition_tile over a block of b points x (b, n); out is tiled. */
void csq_precondition(const double *x, int64_t b, int64_t n,
                      const double *signs, int64_t n_pad, double scale,
                      double *out)
{
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        precondition_tile(x + p0 * n, t, n, signs, n_pad, scale,
                          out + p0 * n_pad);
    }
}

/* project_tile over a tiled block x of b points; out is tiled. */
void csq_project(const int64_t *offsets, const int64_t *cols,
                 const double *vals, int64_t rows, const double *x,
                 int64_t n_pad, int64_t b, double *out)
{
    for (int64_t p0 = 0; p0 < b; p0 += TILE)
        project_tile(offsets, cols, vals, rows, x + p0 * n_pad, out + p0 * rows);
}

/* quantize_tile over a tiled block y of b points; codes are (m, b) and
   ring holds reach + 1 rows of TILE doubles. */
void csq_quantize(const double *y, int64_t m, int64_t b, const int64_t *pos,
                  const double *w, int64_t r, double *ring, int8_t *codes,
                  double *peaks)
{
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        quantize_tile(y + p0 * m, m, t, pos, w, r, ring, codes + p0, b,
                      peaks + p0);
    }
}

/*
 * Condense and pack the t <= TILE points of one tile of codes (m, TILE):
 * for point j, entries[j * p + e] gets the sum over l < lam of
 * kernel[l] * code[e * lam + l], exact in int64 as condense_signs_batch
 * computes it, and bits[j * nbytes + i / 8] bit i % 8 (LSB first) is set
 * when code i is +1, the layout of Codes.from_signs.
 */
static void condense_tile(const int8_t *restrict codes, int64_t m, int64_t t,
                          const int64_t *restrict kernel, int64_t lam,
                          int64_t *restrict entries, uint8_t *restrict bits)
{
    const int64_t p = m / lam, nbytes = (m + 7) / 8;
    for (int64_t j = 0; j < t; j++) {
        for (int64_t e = 0; e < p; e++) {
            int64_t acc = 0;
            for (int64_t l = 0; l < lam; l++)
                acc += kernel[l] * codes[(e * lam + l) * TILE + j];
            entries[j * p + e] = acc;
        }
        for (int64_t byte = 0; byte < nbytes; byte++) {
            unsigned v = 0;
            for (int64_t i = 8 * byte; i < 8 * byte + 8 && i < m; i++)
                v |= (unsigned)(codes[i * TILE + j] == 1) << (i - 8 * byte);
            bits[j * nbytes + byte] = (uint8_t)v;
        }
    }
}

/*
 * Embed b points x (b, n), one tile at a time: precondition, project,
 * quantize, condense and pack, each as its function above describes.
 * entries (b, m / lam) and bits (b, ceil(m / 8)) get one row per point,
 * peaks (b) the largest |projection| of each point, NaN or inf where the
 * projections of a point overflowed. scratch holds
 * (n_pad + m + reach + 1) * TILE doubles followed by m * TILE bytes.
 */
void csq_embed_block(const double *x, int64_t b, int64_t n,
                     const double *signs, int64_t n_pad, double scale,
                     const int64_t *offsets, const int64_t *cols,
                     const double *vals, int64_t m, const int64_t *pos,
                     const double *w, int64_t r, const int64_t *kernel,
                     int64_t lam, double *scratch, int64_t *entries,
                     uint8_t *bits, double *peaks)
{
    const int64_t len = pos[r - 1] + 1;
    double *xt = scratch, *yt = xt + n_pad * TILE, *ring = yt + m * TILE;
    int8_t *codes = (int8_t *)(ring + len * TILE);
    for (int64_t p0 = 0; p0 < b; p0 += TILE) {
        const int64_t t = b - p0 < TILE ? b - p0 : TILE;
        precondition_tile(x + p0 * n, t, n, signs, n_pad, scale, xt);
        project_tile(offsets, cols, vals, m, xt, yt);
        quantize_tile(yt, m, t, pos, w, r, ring, codes, TILE, peaks + p0);
        condense_tile(codes, m, t, kernel, lam, entries + p0 * (m / lam),
                      bits + p0 * ((m + 7) / 8));
    }
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
    void name(const T *rows, int64_t k, int64_t p, int64_t start,            \
              int64_t stop, int64_t *sums)                                   \
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
