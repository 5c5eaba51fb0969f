/* The compiled inner loops of the solvers, over the CSR/CSC arrays of a
 * DualSparseMatrix: alias-table draws, whole blocks of solver steps, and the
 * sums of squares of the termination checks.
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
 * rop_step, then rk_step. Only the dot products can round differently from
 * the Python steps, whose dots go through BLAS: here they sum left to right
 * over the stored entries, and the file is compiled with -ffp-contract=off,
 * so the iterates do not depend on which BLAS kernel the host would pick.
 * Every index of a half that runs is checked before any vector is touched:
 * block_steps returns the number of stored entries its steps visited, or -1,
 * with x and z unchanged, when an index lies outside its range.
 *
 * check_sums forms each entry of A x and A^T z in the order the numpy
 * products do (each row's entries left to right, each column's top to
 * bottom), so those vectors are the same bits, and sums every sum of squares
 * left to right.
 */

#include <stddef.h>
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15u

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

static double line_dot(const int64_t *idx, const double *vals, int64_t lo,
                       int64_t hi, const double *v)
{
    double s = 0.0;
    for (int64_t k = lo; k < hi; k++)
        s += vals[k] * v[idx[k]];
    return s;
}

static void line_axpy(const int64_t *idx, const double *vals, int64_t lo,
                      int64_t hi, double alpha, double *v)
{
    for (int64_t k = lo; k < hi; k++)
        v[idx[k]] += alpha * vals[k];
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
 * the row steps, and rows and b are not read. */
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
    for (int64_t k = 0; k < count; k++) {
        int64_t i = 0, lo, hi;
        double target = 0.0;
        if (x != NULL) {
            i = rows[k];
            target = z != NULL ? b[i] - z[i] : b[i];
        }
        if (z != NULL) {
            int64_t j = cols[k];
            lo = col_ptr[j];
            hi = col_ptr[j + 1];
            double scale = line_dot(col_rows, col_vals, lo, hi, z) / col_sq[j];
            line_axpy(col_rows, col_vals, lo, hi, -scale, z);
            touched += hi - lo;
        }
        if (x != NULL) {
            lo = row_ptr[i];
            hi = row_ptr[i + 1];
            double resid = (target - line_dot(row_cols, row_vals, lo, hi, x)) / row_sq[i];
            line_axpy(row_cols, row_vals, lo, hi, resid, x);
            touched += hi - lo;
        }
    }
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
            double ax = line_dot(row_cols, row_vals, row_ptr[i], row_ptr[i + 1], x);
            double r = ax - (z != NULL ? b[i] - z[i] : b[i]);
            resid += r * r;
        }
        x_sq = sum_sq(x, n);
        b_sq = sum_sq(b, m);
    }
    if (z != NULL) {
        for (int64_t j = 0; j < n; j++) {
            double p = line_dot(col_rows, col_vals, col_ptr[j], col_ptr[j + 1], z);
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
