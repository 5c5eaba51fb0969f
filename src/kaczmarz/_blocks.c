/* Whole blocks of REK, RK and ROP steps over the CSR/CSC arrays of a
 * DualSparseMatrix, updating x and z in place.
 *
 * Each function takes a block of already-sampled line indices and runs the
 * steps of rek_iteration / rk_step / rop_step one after the other, with the
 * same operations in the same order. Only the dot products can round
 * differently from the Python steps, whose dots go through BLAS: here they
 * sum left to right over the stored entries, and the file is compiled with
 * -ffp-contract=off, so the iterates do not depend on which BLAS kernel the
 * host would pick.
 *
 * Every index is checked before any vector is touched: a function returns 0
 * after running the whole block, or -1, with x and z unchanged, when an index
 * lies outside its range.
 */

#include <stdint.h>

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

int rop_block(int64_t n, const int64_t *col_ptr, const int64_t *col_rows,
              const double *col_vals, const double *col_sq, double *z,
              const int64_t *cols, int64_t count)
{
    if (!in_range(cols, count, n))
        return -1;
    for (int64_t k = 0; k < count; k++) {
        int64_t j = cols[k], lo = col_ptr[j], hi = col_ptr[j + 1];
        double scale = line_dot(col_rows, col_vals, lo, hi, z) / col_sq[j];
        line_axpy(col_rows, col_vals, lo, hi, -scale, z);
    }
    return 0;
}

int rk_block(int64_t m, const int64_t *row_ptr, const int64_t *row_cols,
             const double *row_vals, const double *row_sq, const double *b,
             double *x, const int64_t *rows, int64_t count)
{
    if (!in_range(rows, count, m))
        return -1;
    for (int64_t k = 0; k < count; k++) {
        int64_t i = rows[k], lo = row_ptr[i], hi = row_ptr[i + 1];
        double resid = (b[i] - line_dot(row_cols, row_vals, lo, hi, x)) / row_sq[i];
        line_axpy(row_cols, row_vals, lo, hi, resid, x);
    }
    return 0;
}

int rek_block(int64_t m, int64_t n, const int64_t *row_ptr,
              const int64_t *row_cols, const double *row_vals,
              const double *row_sq, const int64_t *col_ptr,
              const int64_t *col_rows, const double *col_vals,
              const double *col_sq, const double *b, double *x, double *z,
              const int64_t *rows, const int64_t *cols, int64_t count)
{
    if (!in_range(rows, count, m) || !in_range(cols, count, n))
        return -1;
    for (int64_t k = 0; k < count; k++) {
        int64_t i = rows[k], j = cols[k];
        int64_t lo = col_ptr[j], hi = col_ptr[j + 1];
        /* the row target uses z_i from before this iteration's column step */
        double z_i = z[i];
        double scale = line_dot(col_rows, col_vals, lo, hi, z) / col_sq[j];
        line_axpy(col_rows, col_vals, lo, hi, -scale, z);
        lo = row_ptr[i];
        hi = row_ptr[i + 1];
        double resid = (b[i] - z_i - line_dot(row_cols, row_vals, lo, hi, x)) / row_sq[i];
        line_axpy(row_cols, row_vals, lo, hi, resid, x);
    }
    return 0;
}
