/* LMS steps of one block of regressors, for every trial of a batch.
 *
 * The arithmetic is written out in real numbers so that every rounding
 * equals that of the numpy expressions it replaces (see cancellers.py):
 * the dot product reg^T w accumulates in order without FMA, as einsum does,
 * complex products use numpy's FMA form, and |e| is numpy's scaled hypot.
 * Build with -ffp-contract=off and without auto-vectorization so that the
 * compiler keeps exactly these operations. Complex arrays are interleaved
 * (re, im) doubles; trials are independent, so each runs its whole block.
 */
#include <math.h>
#include <stdint.h>

/* numpy's complex absolute value: max * sqrt(1 + (min/max)^2) */
static double np_cabs(double re, double im)
{
    re = fabs(re);
    im = fabs(im);
    if (isinf(re) || isinf(im)) return INFINITY;
    if (isnan(re) || isnan(im)) return NAN;
    double big = re > im ? re : im, small = re > im ? im : re;
    if (big == 0.0) return 0.0;
    double r = small / big;
    return sqrt(fma(r, r, 1.0)) * big;
}

/* reg (trials, steps, dim), d (trials, steps), w and w_accum (trials, dim);
 * e2 (steps, trials) and tap_buf (steps, ntaps, trials) receive per-step
 * values; peak, steady_sum, steady_count and diverged_at are per trial.
 * Step j is step t0 + j of the run; steps from win_start on are summed. */
void lms_block(int64_t trials, int64_t steps, int64_t dim, int64_t t0,
               int64_t win_start, double mu, const double *reg, const double *d,
               double *w, double *w_accum, double *e2, double *peak,
               double *steady_sum, double *steady_count, int64_t *diverged_at,
               int64_t ntaps, const int64_t *taps, double *tap_buf)
{
    for (int64_t i = 0; i < trials; i++) {
        double *wi = w + 2 * dim * i, *ai = w_accum + 2 * dim * i;
        for (int64_t j = 0; j < steps; j++) {
            const double *r = reg + 2 * dim * (i * steps + j);
            double yr = 0.0, yi = 0.0;
            for (int64_t k = 0; k < dim; k++) {
                yr += r[2 * k] * wi[2 * k] - r[2 * k + 1] * wi[2 * k + 1];
                yi += r[2 * k] * wi[2 * k + 1] + r[2 * k + 1] * wi[2 * k];
            }
            const double *dij = d + 2 * (i * steps + j);
            double er = dij[0] - yr, ei = dij[1] - yi;
            double mr = fma(mu, er, -(0.0 * ei)), mi = fma(mu, ei, 0.0 * er);
            for (int64_t k = 0; k < dim; k++) {
                double cr = r[2 * k], ci = -r[2 * k + 1];
                wi[2 * k] += fma(mr, cr, -(mi * ci));
                wi[2 * k + 1] += fma(mr, ci, mi * cr);
            }
            double a = np_cabs(er, ei), p = a * a;
            int ok = isfinite(p);
            if (!ok && diverged_at[i] < 0) diverged_at[i] = t0 + j;
            double top = ok ? p : INFINITY;
            if (top > peak[i]) peak[i] = top;
            e2[j * trials + i] = p;
            for (int64_t k = 0; k < ntaps; k++) {
                double *tb = tap_buf + 2 * ((j * ntaps + k) * trials + i);
                tb[0] = wi[2 * taps[k]];
                tb[1] = wi[2 * taps[k] + 1];
            }
            if (t0 + j >= win_start) {
                for (int64_t k = 0; k < 2 * dim; k++) ai[k] += wi[k];
                steady_sum[i] += ok ? p : 0.0;
                steady_count[i] += ok;
            }
        }
    }
}
