/* The compiled inner loops of the package, over the CSR/CSC arrays of a
 * DualSparseMatrix and the entry lines of Matrix Market files: alias-table
 * draws, whole blocks of solver steps, the sums of squares of the
 * termination checks, the CSC order of a matrix, and the formatting and
 * parsing of entry lines. Each has a numpy twin that runs when this file
 * cannot be built.
 *
 * alias_draws emits the same indices as sampling.sample_block's numpy path,
 * bit for bit: the same SplitMix64 counter-mode stream, the same conversion
 * to uniform doubles and the same cell and coin arithmetic.
 *
 * block_steps runs a block of already-sampled line indices through the steps
 * of REK, one after the other: a column step on z (rop_step), then a row step
 * on x (rk_step) toward b_i - z_i. RK and ROP are the same function with the
 * other half left out: a NULL z aims the row steps at b_i, a NULL x leaves
 * only the column steps. The operations and their order are those of the
 * per-step path in kaczmarz.solvers: for each k, read the row target, then
 * rop_step, then rk_step. Each step's axpy is held back and done just before
 * the next step's dot on the same vector, and after the last step, which
 * changes no operation's inputs: z_i is read once the column step before it
 * has finished. When the held-back line and the next line on a vector are
 * both full (as many stored entries as the vector has), their indices are
 * 0 .. size-1 in order, so the axpy and the dot run as one loop over v[q]
 * with no index gather; any other pair runs the gathered axpy, then the dot.
 * Only the dot products can round differently from the Python steps, whose
 * dots go through BLAS: here they sum left to right over the stored
 * entries, and the file is compiled with -ffp-contract=off, so the iterates
 * do not depend on which BLAS kernel the host would pick.
 * Every index of a half that runs is checked before any vector is touched:
 * block_steps returns the number of stored entries its steps visited, or -1,
 * with x and z unchanged, when an index lies outside its range.
 *
 * check_sums forms each entry of A x and A^T z in the order the numpy
 * products do (each row's entries left to right, each column's top to
 * bottom), so those vectors are the same bits, and sums every sum of squares
 * left to right.
 *
 * csc_scatter builds the column-major arrays by one counting pass over the
 * row-major ones, the same arrays as DualSparseMatrix's argsort, and in the
 * same pass the squared row and column norms, the same bits as its numpy
 * fallback's bincounts over the entries' squares (squares above the double
 * range are inf there and here).
 *
 * format_lines and parse_entries are the per-entry text work of
 * kaczmarz.mmio. format_lines writes the bytes of Python's
 * "%d %d %.17g\n" % (i, j, v) (or "%.17g\n" % v), which like snprintf
 * rounds correctly. parse_entries reads only a strict grammar and returns -1
 * ("not mine") on anything else, so that mmio's numpy reader, with its own
 * error messages, sees every other file; its values are those of strtod and
 * numpy, which also round correctly. Indices are converted by hand. A value
 * is converted by one long double product or quotient with an exact power of
 * ten where that decides the correctly rounded result (a value from 1e-11 to
 * 1e17 to print, or a decimal of at most 19 digits times 10^-27 .. 10^27 to
 * read, unless it lies next to a tie); snprintf and strtod convert the rest.
 * Both functions return -1 when the C locale's decimal point is not ".",
 * since snprintf and strtod follow LC_NUMERIC.
 */

#include <float.h>
#include <locale.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15u

/* Decimal conversions by long double arithmetic need the x87 format: a
 * 64-bit significand, stored in the first 8 bytes. Elsewhere snprintf and
 * strtod do all of them. */
#if LDBL_MANT_DIG == 64 && defined(__x86_64__)
#define FAST_DECIMAL 1
#else
#define FAST_DECIMAL 0
#endif

static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
}

/* Uniform double in [0, 1) from draw number k (1-based) of stream `seed`. */
static double uniform(uint64_t seed, uint64_t k)
{
    return (double)(mix64(seed + k * GOLDEN) >> 11) * 0x1p-53;
}

/* `count` draws from an alias table of `size` >= 1 cells, taking draws
 * counter+1 .. counter+2*count of the stream: one uniform picks the cell, the
 * next flips the accept/alias coin. */
void alias_draws(uint64_t seed, uint64_t counter, int64_t size,
                 const double *prob, const int64_t *alias, int64_t count,
                 int64_t *out)
{
    for (int64_t k = 0; k < count; k++) {
        uint64_t draw = counter + 2 * (uint64_t)k;
        int64_t cell = (int64_t)(uniform(seed, draw + 1) * (double)size);
        if (cell > size - 1) /* guard the top rounding edge */
            cell = size - 1;
        out[k] = uniform(seed, draw + 2) < prob[cell] ? cell : alias[cell];
    }
}

/* The dot of the stored entries lo .. hi-1 with v, left to right. A line of
 * a matrix with `size` rows (a column) or `size` columns (a row) that stores
 * `size` entries lists the indices 0 .. size-1 in order, so v is read
 * without the gather. */
static double line_dot(const int64_t *idx, const double *vals, int64_t lo,
                       int64_t hi, int64_t size, const double *v)
{
    double s = 0.0;
    if (hi - lo == size) {
        const double *w = vals + lo;
        for (int64_t q = 0; q < size; q++)
            s += w[q] * v[q];
    } else {
        for (int64_t k = lo; k < hi; k++)
            s += vals[k] * v[idx[k]];
    }
    return s;
}

static void line_axpy(const int64_t *idx, const double *vals, int64_t lo,
                      int64_t hi, double alpha, double *v)
{
    for (int64_t k = lo; k < hi; k++)
        v[idx[k]] += alpha * vals[k];
}

/* v += alpha * (entries plo .. phi-1), the axpy held back from the step
 * before, then the dot of entries lo .. hi-1 with v. When both lines are
 * full, each v[q] is updated and then read in one loop. */
static double axpy_dot(const int64_t *idx, const double *vals, int64_t size,
                       int64_t plo, int64_t phi, double alpha, int64_t lo,
                       int64_t hi, double *v)
{
    if (phi - plo == size && hi - lo == size) {
        const double *p = vals + plo, *w = vals + lo;
        double s = 0.0;
        for (int64_t q = 0; q < size; q++) {
            v[q] += alpha * p[q];
            s += w[q] * v[q];
        }
        return s;
    }
    line_axpy(idx, vals, plo, phi, alpha, v);
    return line_dot(idx, vals, lo, hi, size, v);
}

static int in_range(const int64_t *ids, int64_t count, int64_t size)
{
    for (int64_t k = 0; k < count; k++)
        if (ids[k] < 0 || ids[k] >= size)
            return 0;
    return 1;
}

static double sum_sq(const double *v, int64_t size)
{
    double s = 0.0;
    for (int64_t k = 0; k < size; k++)
        s += v[k] * v[k];
    return s;
}

/* For k < count: the column step on z with column cols[k], then the row step
 * on x with row rows[k] toward b_i - z_i, z_i read before the column step.
 * A NULL z leaves out the column steps and aims at b_i; a NULL x leaves out
 * the row steps, and rows and b are not read. The axpy of step k on either
 * vector runs inside step k+1's dot on it (axpy_dot), so z_i is read after
 * the column loop of step k, which finishes step k-1 on z; the last axpys
 * run before the return. */
int64_t block_steps(int64_t m, int64_t n, const int64_t *row_ptr,
                    const int64_t *row_cols, const double *row_vals,
                    const double *row_sq, const int64_t *col_ptr,
                    const int64_t *col_rows, const double *col_vals,
                    const double *col_sq, const double *b, double *x, double *z,
                    const int64_t *rows, const int64_t *cols, int64_t count)
{
    if ((x != NULL && !in_range(rows, count, m)) || (z != NULL && !in_range(cols, count, n)))
        return -1;
    int64_t touched = 0;
    /* the held-back axpys: z += z_alpha * entries z_lo .. z_hi-1 of the
     * column layout, x += x_alpha * entries x_lo .. x_hi-1 of the row one */
    int64_t z_lo = 0, z_hi = 0, x_lo = 0, x_hi = 0;
    double z_alpha = 0.0, x_alpha = 0.0;
    for (int64_t k = 0; k < count; k++) {
        if (z != NULL) {
            int64_t j = cols[k], lo = col_ptr[j], hi = col_ptr[j + 1];
            double scale = axpy_dot(col_rows, col_vals, m, z_lo, z_hi, z_alpha, lo, hi, z)
                           / col_sq[j];
            z_lo = lo;
            z_hi = hi;
            z_alpha = -scale;
            touched += hi - lo;
        }
        if (x != NULL) {
            int64_t i = rows[k], lo = row_ptr[i], hi = row_ptr[i + 1];
            double target = z != NULL ? b[i] - z[i] : b[i];
            double dot = axpy_dot(row_cols, row_vals, n, x_lo, x_hi, x_alpha, lo, hi, x);
            x_lo = lo;
            x_hi = hi;
            x_alpha = (target - dot) / row_sq[i];
            touched += hi - lo;
        }
    }
    if (z != NULL)
        line_axpy(col_rows, col_vals, z_lo, z_hi, z_alpha, z);
    if (x != NULL)
        line_axpy(row_cols, row_vals, x_lo, x_hi, x_alpha, x);
    return touched;
}

/* The sums of squares of the termination checks, each left to right, into
 * out[0..4]: A x - (b - z) (A x - b when z is NULL), A^T z, x, z and b. A
 * NULL x leaves out slots 0, 2 and 4 and b is not read; a NULL z leaves out
 * slots 1 and 3. Left-out slots are 0. */
void check_sums(int64_t m, int64_t n, const int64_t *row_ptr,
                const int64_t *row_cols, const double *row_vals,
                const int64_t *col_ptr, const int64_t *col_rows,
                const double *col_vals, const double *b, const double *x,
                const double *z, double *out)
{
    double resid = 0.0, atz = 0.0, x_sq = 0.0, z_sq = 0.0, b_sq = 0.0;
    if (x != NULL) {
        for (int64_t i = 0; i < m; i++) {
            double ax = line_dot(row_cols, row_vals, row_ptr[i], row_ptr[i + 1], n, x);
            double r = ax - (z != NULL ? b[i] - z[i] : b[i]);
            resid += r * r;
        }
        x_sq = sum_sq(x, n);
        b_sq = sum_sq(b, m);
    }
    if (z != NULL) {
        for (int64_t j = 0; j < n; j++) {
            double p = line_dot(col_rows, col_vals, col_ptr[j], col_ptr[j + 1], m, z);
            atz += p * p;
        }
        z_sq = sum_sq(z, m);
    }
    out[0] = resid;
    out[1] = atz;
    out[2] = x_sq;
    out[3] = z_sq;
    out[4] = b_sq;
}

/* The column-major arrays of an m-row CSR matrix: each row's entries, rows
 * in order, go to the next free slot of their column, so each column lists
 * its rows top to bottom. next[j] must start at col_ptr[j] and col_sq[j] at
 * 0; row_sq[i] is written whole. Each entry's square is added to its row's
 * and its column's sum as the entry is visited, row-major, which is the
 * order and the arithmetic of numpy's bincount(rows|cols, weights=vals**2). */
void csc_scatter(int64_t m, const int64_t *row_ptr, const int64_t *row_cols,
                 const double *row_vals, int64_t *next, int64_t *col_rows,
                 double *col_vals, double *row_sq, double *col_sq)
{
    for (int64_t i = 0; i < m; i++) {
        double sq = 0.0;
        for (int64_t k = row_ptr[i]; k < row_ptr[i + 1]; k++) {
            int64_t j = row_cols[k];
            double v = row_vals[k];
            int64_t q = next[j]++;
            col_rows[q] = i;
            col_vals[q] = v;
            sq += v * v;
            col_sq[j] += v * v;
        }
        row_sq[i] = sq;
    }
}

static int decimal_point_is_dot(void)
{
    return strcmp(localeconv()->decimal_point, ".") == 0;
}

/* Writes v in decimal at p and returns the end. */
static char *put_index(char *p, uint64_t v)
{
    char digits[20];
    int len = 0;
    do {
        digits[len++] = (char)('0' + v % 10);
        v /= 10;
    } while (v != 0);
    while (len > 0)
        *p++ = digits[--len];
    return p;
}

/* 10^k for k <= 27: 5^27 < 2^63, so each is exact in a long double. */
static const long double POW10[28] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L,
    1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L,
    1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

/* The 17 significant digits of |v|, for 1e-11 <= |v| < 1e17: digits[] and
 * the decimal exponent *x. Returns 0 when the rounding cannot be told apart
 * from a tie or from a carry into another exponent. */
static int digits17(double v, char *digits, int *x)
{
    double a = v < 0 ? -v : v;
    if (!(a >= 1e-11 && a < 1e17))
        return 0;
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    int k = 16 - ((int)(bits >> 52) - 1023) * 1233 / 4096; /* about 16 - log10 a */
    long double scaled;
    for (;;) {
        if (k < 0 || k > 27)
            return 0;
        /* below 1e17 < 2^57, one rounding to 64 bits errs by 2^-8 at most */
        scaled = (long double)a * POW10[k];
        if (scaled < 1e16L)
            k++;
        else if (scaled >= 1e17L)
            k--;
        else
            break;
    }
    if (scaled < 1e16L + 1 || scaled >= 1e17L - 1)
        return 0;
    uint64_t d = (uint64_t)scaled;
    long double frac = scaled - (long double)d;
    /* a tie, or a fraction within four times that error of one */
    if (frac > 0.5L - 1.0L / 64 && frac < 0.5L + 1.0L / 64)
        return 0;
    d += frac > 0.5L;
    for (int i = 16; i >= 0; i--) {
        digits[i] = (char)('0' + d % 10);
        d /= 10;
    }
    *x = 16 - k;
    return 1;
}

/* "%.17g" of v at p, the bytes snprintf writes; returns their number. */
static int put_value(char *p, double v)
{
    char digits[17];
    int x;
    if (FAST_DECIMAL && digits17(v, digits, &x)) {
        int n = 17; /* significant digits left when trailing zeros go */
        while (digits[n - 1] == '0')
            n--;
        char *q = p;
        if (v < 0)
            *q++ = '-';
        if (x < -4) { /* d.ddde-XX */
            *q++ = digits[0];
            if (n > 1) {
                *q++ = '.';
                memcpy(q, digits + 1, (size_t)(n - 1));
                q += n - 1;
            }
            *q++ = 'e';
            *q++ = '-';
            *q++ = (char)('0' + -x / 10);
            *q++ = (char)('0' + -x % 10);
        } else if (x < 0) { /* 0.000ddd */
            *q++ = '0';
            *q++ = '.';
            for (int i = -1; i > x; i--)
                *q++ = '0';
            memcpy(q, digits, (size_t)n);
            q += n;
        } else { /* ddd.ddd */
            memcpy(q, digits, (size_t)(x + 1));
            q += x + 1;
            if (n > x + 1) {
                *q++ = '.';
                memcpy(q, digits + x + 1, (size_t)(n - x - 1));
                q += n - x - 1;
            }
        }
        return (int)(q - p);
    }
    return snprintf(p, 32, "%.17g", v);
}

/* Entry lines lo .. hi-1 into out, which must hold 72 bytes a line (two
 * 19-digit indices and a value of at most 24 characters): "i j v\n" with the
 * 1-based row and column of CSR entry k when row_ptr is given (row is the row
 * of entry lo), else "v\n"; v as "%.17g". Returns the number of bytes
 * written, or -1, with nothing written, when the decimal point is not ".". */
int64_t format_lines(const int64_t *row_ptr, const int64_t *row_cols,
                     const double *vals, int64_t row, int64_t lo, int64_t hi,
                     char *out)
{
    if (!decimal_point_is_dot())
        return -1;
    char *p = out;
    for (int64_t k = lo; k < hi; k++) {
        if (row_ptr != NULL) {
            while (row_ptr[row + 1] <= k)
                row++;
            p = put_index(p, (uint64_t)row + 1);
            *p++ = ' ';
            p = put_index(p, (uint64_t)row_cols[k] + 1);
            *p++ = ' ';
        }
        p += put_value(p, vals[k]);
        *p++ = '\n';
    }
    return p - out;
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static int is_separator(char c)
{
    return c == ' ' || c == '\t';
}

/* An index [+-]?[0-9]{1,18} at p, into *out; returns its end, or NULL. */
static const char *scan_index(const char *p, int64_t *out)
{
    int negative = *p == '-';
    if (*p == '+' || *p == '-')
        p++;
    int64_t v = 0;
    int digits = 0;
    for (; is_digit(*p); p++) {
        if (++digits > 18)
            return NULL;
        v = 10 * v + (*p - '0');
    }
    if (digits == 0)
        return NULL;
    *out = negative ? -v : v;
    return p;
}

/* A plain decimal [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? at p, into *out; returns
 * its end, or NULL. */
static const char *scan_value(const char *p, double *out)
{
    const char *q = p;
    int negative = *q == '-';
    if (*q == '+' || *q == '-')
        q++;
    uint64_t w = 0; /* the digits as one integer, while it has at most 19 */
    int digits = 0, point = 0, scale = 0, fits = 1;
    for (;; q++) {
        if (*q == '.' && !point) {
            point = 1;
            continue;
        }
        if (!is_digit(*q))
            break;
        digits++;
        if (w < UINT64_C(1000000000000000000)) {
            w = 10 * w + (uint64_t)(*q - '0');
            scale -= point;
        } else {
            fits = 0;
        }
    }
    if (digits == 0)
        return NULL;
    int exponent = 0;
    if (*q == 'e' || *q == 'E') {
        q++;
        int sign = *q == '-' ? -1 : 1;
        if (*q == '+' || *q == '-')
            q++;
        if (!is_digit(*q))
            return NULL;
        for (; is_digit(*q); q++)
            if (exponent < 100000)
                exponent = 10 * exponent + (*q - '0');
        exponent *= sign;
    }
    int power = exponent + scale;
    if (FAST_DECIMAL && fits && power >= -27 && power <= 27) {
        /* w and 10^|power| are exact, so value is w 10^power rounded once */
        long double value = power >= 0 ? (long double)w * POW10[power]
                                        : (long double)w / POW10[-power];
        uint64_t low;
        memcpy(&low, &value, sizeof low);
        low &= 0x7FF; /* the 11 bits a double drops: 0x400 is a midpoint */
        if (low < 0x3FF || low > 0x401) { /* off by half a unit at most */
            *out = negative ? -(double)value : (double)value;
            return q;
        }
    }
    char *end;
    *out = strtod(p, &end);
    return end == q ? q : NULL;
}

/* Parses the lines of [p, stop), which ends in '\n', into entries k, k+1, ...
 * of at most count. Returns the next k, or -1 at a line outside the grammar
 * or past count. */
static int64_t parse_lines(const char *p, const char *stop, int64_t k,
                           int64_t count, int64_t *rows, int64_t *cols,
                           double *vals)
{
    while (p < stop) {
        if (k == count)
            return -1;
        if (rows != NULL) {
            p = scan_index(p, &rows[k]);
            if (p == NULL || !is_separator(*p))
                return -1;
            p = scan_index(p + 1, &cols[k]);
            if (p == NULL || !is_separator(*p))
                return -1;
            p++;
        }
        p = scan_value(p, &vals[k]);
        if (p == NULL || *p != '\n')
            return -1;
        p++;
        k++;
    }
    return k;
}

/* Reads the entry lines of the Matrix Market file at path, from byte offset
 * on, READ_CHUNK bytes at a time: "i j v" lines into rows, cols and vals, or
 * "v" lines into vals when rows and cols are NULL. Every line must end in
 * '\n', take one space or tab between tokens and nothing else, with indices
 * and values in scan_index's and scan_value's grammar. Returns count when the
 * file holds exactly count such lines, else -1 (entries already parsed are
 * left in the arrays). */
#define READ_CHUNK (1 << 20)
int64_t parse_entries(const char *path, int64_t offset, int64_t count,
                      int64_t *rows, int64_t *cols, double *vals)
{
    if (!decimal_point_is_dot())
        return -1;
    FILE *fh = fopen(path, "rb");
    if (fh == NULL)
        return -1;
    char *buf = malloc(READ_CHUNK + 1);
    int64_t k = buf != NULL && fseek(fh, (long)offset, SEEK_SET) == 0 ? 0 : -1;
    size_t kept = 0; /* a partial last line, carried to the next chunk */
    while (k >= 0) {
        size_t len = kept + fread(buf + kept, 1, READ_CHUNK - kept, fh);
        if (len == kept)
            break;
        buf[len] = '\0'; /* stops every scan at the end of the data */
        size_t whole = len;
        while (whole > 0 && buf[whole - 1] != '\n')
            whole--;
        if (whole == 0 && len == READ_CHUNK) {
            k = -1; /* one line longer than a chunk */
            break;
        }
        k = parse_lines(buf, buf + whole, k, count, rows, cols, vals);
        kept = len - whole;
        memmove(buf, buf + whole, kept);
    }
    if (kept != 0 || ferror(fh) || k != count)
        k = -1;
    free(buf);
    fclose(fh);
    return k;
}
