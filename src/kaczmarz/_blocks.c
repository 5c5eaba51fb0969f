/* The compiled inner loops of the package, over the CSR/CSC arrays of a
 * DualSparseMatrix and the entry lines of Matrix Market files: whole blocks
 * of solver steps with their index draws and the sums of squares of the
 * termination checks, the CSC order of a matrix, and the formatting and
 * parsing of entry lines. Each has a numpy twin that runs when this file
 * cannot be built.
 *
 * block_steps runs a block of steps of REK on each listed run of a struct
 * batch: a column step on z, then a row step on x toward b_i - z_i.
 * It draws each step's indices as it goes from the run's streams,
 * unless the caller passes them, with the same indices as
 * sampling.sample_block, bit for bit: the same SplitMix64 counter-mode
 * stream, the same conversion to uniform doubles and the same cell and coin
 * arithmetic. RK and ROP are the same function with the other half left
 * out: a NULL z aims the row steps at b_i, a NULL x leaves only the column
 * steps. The operations and their order are those of the numpy loop in
 * kaczmarz.solvers: for each k, read the row target, then the column step,
 * then the row step. Each step's axpy is held back and done just before the
 * next step's dot on the same vector, and after the last step, which changes
 * no operation's inputs: z_i is read once the column step before it has
 * finished. When the held-back line and the next line on a vector are both
 * full (as many stored entries as the vector has), their indices are
 * 0 .. size-1 in order, so the axpy and the dot run as one loop over v[q]
 * with no index gather; any other pair runs the gathered axpy, then the dot.
 * Only the dot products can round differently from the numpy loop, whose
 * dots go through BLAS: here they sum left to right over the stored entries,
 * and the file is compiled with -ffp-contract=off, so the iterates do not
 * depend on which BLAS kernel the host would pick. block_steps gives each
 * run the number of stored entries its steps visited. It trusts its caller:
 * kaczmarz.solvers range-checks given indices before the call, and drawn
 * ones are in range when every alias entry is, which sampling checks.
 *
 * Given an out array, block_steps also sums each run's termination-check
 * squares right after its steps (run_sums), with count 0 for the sums alone:
 * it forms each entry of A x and A^T z in the order the numpy products do
 * (each row's entries left to right, each column's top to bottom), so those
 * vectors are the same bits, and sums every sum of squares left to right,
 * b's once per call.
 *
 * A run owns its rows of x, z and streams and reads only what the batch
 * shares, so block_steps splits a call's listed runs into contiguous shares,
 * one per thread (in_shares): as many threads as the CPUs the process may
 * run on (its affinity mask), the listed runs and MAX_THREADS allow, created
 * and joined within the call, the calling thread running the first share. A
 * call whose work is under SERIAL_WORK runs inline. Each run is stepped and
 * summed by one thread, in the order it would be alone, so every result has
 * the same bits on any number of CPUs.
 *
 * csc_scatter builds the column-major arrays by one counting pass over the
 * row-major ones, the same arrays as DualSparseMatrix's argsort, and in the
 * same pass the squared row and column norms, the same bits as its numpy
 * fallback's bincounts over the entries' squares (squares above the double
 * range are inf there and here).
 *
 * format_lines and parse_lines are the per-entry text work of kaczmarz.mmio,
 * on buffers mmio passes: this file reads and writes no file. format_lines
 * writes the bytes of Python's "%d %d %.17g\n" % (i, j, v) (or "%.17g\n" % v),
 * which like snprintf rounds correctly. parse_lines reads the whole lines of
 * one piece of a file, in only a strict grammar, and returns -1 ("not mine")
 * on anything else, so that mmio's numpy reader, with its own error messages,
 * sees every other file; its values are those of strtod and numpy, which
 * also round correctly. Indices are converted by hand, two digits at a
 * time. A value from 1e-11 to 1e17 is printed from its 17 digits, formed
 * exactly in 128-bit integers; a decimal of at most 19 digits times
 * 10^-27 .. 10^27 is read by one long double product or quotient with an
 * exact power of ten, unless it lies next to a tie. snprintf and strtod
 * convert the rest.
 * Both functions return -1 when the C locale's decimal point is not ".",
 * since snprintf and strtod follow LC_NUMERIC.
 */

#define _GNU_SOURCE /* sched_getaffinity and CPU_COUNT */
#include <float.h>
#include <locale.h>
#include <pthread.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15u

/* The reader's decimal conversions by long double arithmetic need the x87
 * format: a 64-bit significand, stored in the first 8 bytes. Elsewhere
 * strtod does all of them. */
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

/* A batch of runs: what they share (the m x n matrix's lines and norms, b,
 * the row and column alias tables) and what each owns, row r of x, z and
 * streams being run r's: its iterates (a NULL x or z leaves out that half)
 * and its row and then column stream, (seed, draws used) each. */
struct batch {
    int64_t m, n;
    const int64_t *row_ptr, *row_cols, *col_ptr, *col_rows;
    const double *row_vals, *row_sq, *col_vals, *col_sq, *b;
    const double *row_prob, *col_prob;
    const int64_t *row_alias, *col_alias;
    double *x, *z;
    uint64_t *streams;
};

/* Draw k of a block from the stream (seed, draws used) in stream[0..1]: one
 * uniform picks one of `size` cells, the next its coin. */
static int64_t alias_draw(const uint64_t *stream, const double *prob, const int64_t *alias,
                          int64_t k, int64_t size)
{
    uint64_t draw = stream[1] + 2 * (uint64_t)k;
    int64_t cell = (int64_t)(uniform(stream[0], draw + 1) * (double)size);
    if (cell > size - 1) /* guard the top rounding edge */
        cell = size - 1;
    return uniform(stream[0], draw + 2) < prob[cell] ? cell : alias[cell];
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

static double sum_sq(const double *v, int64_t size)
{
    double s = 0.0;
    for (int64_t k = 0; k < size; k++)
        s += v[k] * v[k];
    return s;
}

/* For k < count, on run r of the batch: the column step on z with column
 * cols[k], then the row step on x with row rows[k] toward b_i - z_i, z_i read
 * before the column step. A NULL rows or cols draws those indices from the
 * run's row or column stream instead, which moves on by 2*count. A NULL z
 * leaves out the column steps and aims at b_i; a NULL x leaves out the row
 * steps, and rows and b are not read. The axpy of step k on either vector
 * runs inside step k+1's dot on it (axpy_dot), so z_i is read after the
 * column loop of step k, which finishes step k-1 on z; the last axpys run
 * before the return. Returns the number of stored entries the steps visited. */
static int64_t run_steps(const struct batch *bt, int64_t r, const int64_t *rows,
                         const int64_t *cols, int64_t count)
{
    int64_t m = bt->m, n = bt->n;
    uint64_t *stream = bt->streams + 4 * r;
    double *x = bt->x != NULL ? bt->x + r * n : NULL;
    double *z = bt->z != NULL ? bt->z + r * m : NULL;
    int64_t touched = 0;
    /* the held-back axpys: z += z_alpha * entries z_lo .. z_hi-1 of the
     * column layout, x += x_alpha * entries x_lo .. x_hi-1 of the row one */
    int64_t z_lo = 0, z_hi = 0, x_lo = 0, x_hi = 0;
    double z_alpha = 0.0, x_alpha = 0.0;
    for (int64_t k = 0; k < count; k++) {
        if (z != NULL) {
            int64_t j = cols != NULL ? cols[k]
                                     : alias_draw(stream + 2, bt->col_prob, bt->col_alias, k, n);
            int64_t lo = bt->col_ptr[j], hi = bt->col_ptr[j + 1];
            double scale = axpy_dot(bt->col_rows, bt->col_vals, m, z_lo, z_hi, z_alpha, lo,
                                    hi, z) / bt->col_sq[j];
            z_lo = lo;
            z_hi = hi;
            z_alpha = -scale;
            touched += hi - lo;
        }
        if (x != NULL) {
            int64_t i = rows != NULL ? rows[k]
                                     : alias_draw(stream, bt->row_prob, bt->row_alias, k, m);
            int64_t lo = bt->row_ptr[i], hi = bt->row_ptr[i + 1];
            double target = z != NULL ? bt->b[i] - z[i] : bt->b[i];
            double dot = axpy_dot(bt->row_cols, bt->row_vals, n, x_lo, x_hi, x_alpha, lo,
                                  hi, x);
            x_lo = lo;
            x_hi = hi;
            x_alpha = (target - dot) / bt->row_sq[i];
            touched += hi - lo;
        }
    }
    if (z != NULL)
        line_axpy(bt->col_rows, bt->col_vals, z_lo, z_hi, z_alpha, z);
    if (x != NULL)
        line_axpy(bt->row_cols, bt->row_vals, x_lo, x_hi, x_alpha, x);
    stream[3] += z != NULL && cols == NULL ? 2 * (uint64_t)count : 0;
    stream[1] += x != NULL && rows == NULL ? 2 * (uint64_t)count : 0;
    return touched;
}

/* The count indices of listed run r in rows or cols, which hold count per
 * listed run in the order listed; NULL when the run draws its own. */
static const int64_t *run_ids(const int64_t *ids, int64_t r, int64_t count)
{
    return ids != NULL ? ids + r * count : NULL;
}

/* The sums of squares of the termination checks of run r, each left to
 * right, into out[0..4]: A x - (b - z) (A x - b when z is NULL), A^T z, x,
 * z and b, whose sum b_sq the caller forms (0 when x is NULL). A NULL x
 * leaves out slots 0 and 2 and b is not read; a NULL z leaves out slots 1
 * and 3. Left-out slots are 0. */
static void run_sums(const struct batch *bt, int64_t r, double b_sq, double *out)
{
    int64_t m = bt->m, n = bt->n;
    const double *b = bt->b;
    const double *x = bt->x != NULL ? bt->x + r * n : NULL;
    const double *z = bt->z != NULL ? bt->z + r * m : NULL;
    double resid = 0.0, atz = 0.0, x_sq = 0.0, z_sq = 0.0;
    if (x != NULL) {
        for (int64_t i = 0; i < m; i++) {
            double ax = line_dot(bt->row_cols, bt->row_vals, bt->row_ptr[i],
                                 bt->row_ptr[i + 1], n, x);
            double d = ax - (z != NULL ? b[i] - z[i] : b[i]);
            resid += d * d;
        }
        x_sq = sum_sq(x, n);
    }
    if (z != NULL) {
        for (int64_t j = 0; j < n; j++) {
            double p = line_dot(bt->col_rows, bt->col_vals, bt->col_ptr[j],
                                bt->col_ptr[j + 1], m, z);
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

/* One thread's share of a block_steps call: listed runs lo .. hi-1, each
 * summed into out after its steps when out is not NULL. */
struct share {
    const struct batch *batch;
    const int64_t *listed, *rows, *cols;
    int64_t lo, hi, count;
    int64_t *touched;
    double *out, b_sq;
};

static void *run_share(void *arg)
{
    const struct share *s = arg;
    for (int64_t r = s->lo; r < s->hi; r++) {
        s->touched[r] = run_steps(s->batch, s->listed[r], run_ids(s->rows, r, s->count),
                                  run_ids(s->cols, r, s->count), s->count);
        if (s->out != NULL)
            run_sums(s->batch, s->listed[r], s->b_sq, s->out + 5 * r);
    }
    return NULL;
}

/* At most this many threads split one call. */
#define MAX_THREADS 8
/* A call of less work runs inline, work counted in multiply-adds: there, a
 * thread's create and join cost about what its share saves (some 30 us of
 * one core's work on dense lines, on a 2-CPU AMD EPYC). */
#define SERIAL_WORK 1e5

static int64_t threads_for(int64_t nlisted, double work)
{
    int64_t threads = nlisted < MAX_THREADS ? nlisted : MAX_THREADS;
    if (threads < 2 || work < SERIAL_WORK)
        return 1;
#ifdef CPU_COUNT
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return 1;
    return CPU_COUNT(&cpus) < threads ? CPU_COUNT(&cpus) : threads;
#else
    return 1;
#endif
}

/* The runs listed in `call` (its lo and hi unset), nlisted of them, in
 * contiguous shares, one per thread (threads_for). The calling thread runs
 * the first share; a share whose thread cannot be created runs inline. */
static void in_shares(const struct share *call, int64_t nlisted, double work)
{
    struct share shares[MAX_THREADS];
    pthread_t ids[MAX_THREADS];
    int started[MAX_THREADS];
    int64_t threads = threads_for(nlisted, work);
    for (int64_t t = 0; t < threads; t++) {
        shares[t] = *call;
        shares[t].lo = nlisted * t / threads;
        shares[t].hi = nlisted * (t + 1) / threads;
    }
    for (int64_t t = 1; t < threads; t++) {
        started[t] = pthread_create(&ids[t], NULL, run_share, &shares[t]) == 0;
        if (!started[t])
            run_share(&shares[t]);
    }
    run_share(&shares[0]);
    for (int64_t t = 1; t < threads; t++)
        if (started[t])
            pthread_join(ids[t], NULL);
}

/* count steps of each run listed[r], r < nlisted (run_steps), with its
 * stored entries visited in touched[r], and when out is not NULL, then its
 * sums in out[5r .. 5r+4] (run_sums). Given rows or cols hold count indices
 * per listed run (run_ids), each in range; listed holds no run twice. b's
 * sum of squares, the same for every run, is formed once. */
void block_steps(const struct batch *batch, const int64_t *listed, int64_t nlisted,
                 const int64_t *rows, const int64_t *cols, int64_t count, int64_t *touched,
                 double *out)
{
    double b_sq = out != NULL && batch->x != NULL ? sum_sq(batch->b, batch->m) : 0.0;
    struct share call = {batch, listed, rows, cols, 0, 0, count, touched, out, b_sq};
    /* a dot and an axpy per entry of a step's lines (a mean row and a mean
     * column), its draws and scalars; for the sums, a product and two sums
     * of squares per half that runs */
    double nnz = (double)batch->row_ptr[batch->m];
    double step = 8.0 + 2.0 * ((batch->x != NULL ? nnz / (double)batch->m : 0.0)
                               + (batch->z != NULL ? nnz / (double)batch->n : 0.0));
    double sums = out != NULL ? (nnz + (double)(batch->m + batch->n))
                                    * ((batch->x != NULL) + (batch->z != NULL)) : 0.0;
    in_shares(&call, nlisted, (double)nlisted * ((double)count * step + sums));
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

/* "00" .. "99": the digits of each number below 100, to write two at once. */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* Writes the decimal digits of v to end just before `end`; returns their start. */
static char *digits_before(char *end, uint64_t v)
{
    for (; v >= 100; v /= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (v % 100), 2);
    }
    if (v >= 10) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * v, 2);
    } else {
        *--end = (char)('0' + v);
    }
    return end;
}

/* Writes v in decimal at p and returns the end. */
static char *put_index(char *p, uint64_t v)
{
    char digits[20];
    char *start = digits_before(digits + sizeof digits, v);
    size_t len = (size_t)(digits + sizeof digits - start);
    memcpy(p, start, len);
    return p + len;
}

/* 10^k for k <= 27: 5^27 < 2^63, so each is exact in a long double. */
static const long double POW10[28] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L,
    1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L,
    1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};

/* The 17 significant digits of |v|, for 1e-11 <= |v| < 1e17, rounded half to
 * even as snprintf and Python round them: digits[] and the decimal exponent
 * *x. |v| is M 2^E for an integer M < 2^53, so |v| 10^k = M 5^k 2^(E+k):
 * M 5^k < 2^117 for k <= 27, and shifting it by E+k in 128-bit integers
 * gives the integer part and the bits dropped, exactly. Returns 0 where that
 * needs another k, or where the compiler has no 128-bit integers. */
static int digits17(double v, char *digits, int *x)
{
#ifdef __SIZEOF_INT128__
    static const uint64_t POW5[28] = {
        1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125,
        244140625, 1220703125, 6103515625, 30517578125, 152587890625, 762939453125,
        3814697265625, 19073486328125, 95367431640625, 476837158203125,
        2384185791015625, 11920928955078125, 59604644775390625, 298023223876953125,
        1490116119384765625, 7450580596923828125u};
    const uint64_t lo = UINT64_C(10000000000000000), hi = 10 * lo; /* 10^16, 10^17 */
    double a = v < 0 ? -v : v;
    if (!(a >= 1e-11 && a < 1e17))
        return 0;
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    int biased = (int)(bits >> 52); /* a is normal: M 2^E with M's top bit set */
    uint64_t mant = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    /* 16 - floor(log10 2^e) for a = 1.f 2^e; 1233 / 4096 is just above log10 2,
     * and the added 16 * 4096 keeps the quotient's floor positive */
    int k = 32 - ((biased - 1023) * 1233 + 16 * 4096) / 4096;
    unsigned __int128 scaled, q;
    int shift;
    for (;;) { /* the k with floor(a 10^k) in [10^16, 10^17) */
        if (k < 0 || k > 27)
            return 0;
        scaled = (unsigned __int128)mant * POW5[k];
        shift = 1075 - biased - k; /* -(E+k) */
        q = shift > 0 ? scaled >> shift : scaled << -shift;
        if (q < lo)
            k++;
        else if (q >= hi)
            k--;
        else
            break;
    }
    if (shift > 0) { /* round what the shift dropped, half to even */
        unsigned __int128 rest = scaled - (q << shift), half = (unsigned __int128)1 << (shift - 1);
        q += rest > half || (rest == half && (q & 1) != 0);
    }
    if (q == hi) { /* rounded up into the next decade */
        q = lo;
        k--;
    }
    digits_before(digits + 17, (uint64_t)q);
    *x = 16 - k;
    return 1;
#else
    (void)v, (void)digits, (void)x;
    return 0;
#endif
}

/* "%.17g" of v at p, the bytes snprintf writes; returns their number. */
static int put_value(char *p, double v)
{
    char digits[17];
    int x;
    if (digits17(v, digits, &x)) {
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

/* Parses the whole lines of buf[0 .. len-1] into entries k, k+1, ... of at
 * most count: "i j v" lines into rows, cols and vals, or "v" lines into vals
 * when rows and cols are NULL. Every line must end in '\n', take one space or
 * tab between tokens and nothing else, with indices and values in
 * scan_index's and scan_value's grammar; every scan stops at the '\n' that
 * ends buf. Returns the next k, or -1 at a line outside the grammar or past
 * count, or when buf does not end in '\n' (entries already parsed are left
 * in the arrays). */
int64_t parse_lines(const char *buf, int64_t len, int64_t k, int64_t count,
                    int64_t *rows, int64_t *cols, double *vals)
{
    if (!decimal_point_is_dot() || (len > 0 && buf[len - 1] != '\n'))
        return -1;
    const char *p = buf, *stop = buf + len;
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
