/* The native kernels of fdsic: the standard normal draws of a trial, the
 * one-pass render of an observation and the LMS steps of the canceller
 * jobs run on a batch of trials.
 *
 * The arithmetic is written out in real numbers so that every rounding
 * equals that of the numpy expressions it replaces (see cancellers.py and
 * transceiver.py): the dot product reg^T w accumulates in order without FMA,
 * as einsum does, complex products use numpy's FMA form, |e| is numpy's
 * scaled hypot, and the FIR sums as np.convolve does through BLAS zdotu.
 * The normals are those of numpy's Generator.standard_normal on PCG64.
 * Build with -ffp-contract=off and without auto-vectorization so that the
 * compiler keeps exactly these operations. Complex arrays are interleaved
 * (re, im) doubles. Trials are independent and run one after another. The
 * jobs of one lms_raw call share each trial and its regressor: on a build
 * with AVX2 two or more jobs run together, step by step, four jobs per
 * vector as its lanes, and each lane repeats its job's scalar operations in
 * their order, so every job returns the bits it returns alone; one job, or
 * a build without AVX2, runs the scalar step job by job.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "_ziggurat.h"

/* numpy's PCG64 (O'Neill, HMC-CS-2014-0905): the 128-bit LCG steps, then
 * the XSL-RR output of the new state */
struct pcg64 {
    unsigned __int128 state, inc;
};

static inline uint64_t pcg64_next(struct pcg64 *g)
{
    const unsigned __int128 mult =
        (unsigned __int128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL;
    g->state = g->state * mult + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return v >> rot | v << (-rot & 63);
}

/* numpy's next_double: 53 random bits in [0, 1) */
static inline double pcg64_double(struct pcg64 *g)
{
    return (double)(pcg64_next(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* The rare exits of normal() below for the draw (rabs, idx, x): the wedge
 * test of layers idx > 0 and the tail beyond r of layer 0. Returns 1 with
 * the normal in *z, or 0 to draw again. Kept out of line so that the fast
 * path keeps the generator in registers. */
static __attribute__((noinline)) int normal_rare(struct pcg64 *g,
                                                 uint64_t rabs, int idx,
                                                 double x, double *z)
{
    /* numpy's ziggurat_nor_r and ziggurat_nor_inv_r */
    const double r = 0x1.d3bb48209ad33p+1, inv_r = 0x1.183aa6c20e8c1p-2;
    if (idx == 0) {
        for (;;) {
            double xx = -inv_r * log1p(-pcg64_double(g));
            double yy = -log1p(-pcg64_double(g));
            if (yy + yy > xx * xx) {
                *z = rabs >> 8 & 1 ? -(r + xx) : r + xx;
                return 1;
            }
        }
    }
    *z = x;
    return (fi_double[idx - 1] - fi_double[idx]) * pcg64_double(g)
           + fi_double[idx] < exp(-0.5 * x * x);
}

/* One standard normal by numpy's random_standard_normal: the 256-layer
 * ziggurat of Marsaglia & Tsang (J. Stat. Softw. 5(8), 2000) with the same
 * wedge and tail tests. Only the sign differs in form: it is applied by
 * flipping the sign bit, which negates exactly, in place of a branch. */
static inline __attribute__((always_inline)) double normal(struct pcg64 *g)
{
    for (;;) {
        uint64_t u = pcg64_next(g), rabs = u >> 9 & 0x000fffffffffffffULL;
        int idx = u & 0xff;
        double x = (double)(int64_t)rabs * wi_double[idx], z;
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (u & 0x100) << 55;  /* bit 8 of u is the sign */
        memcpy(&x, &bits, sizeof x);
        if (rabs < ki_double[idx])
            return x;
        struct pcg64 rare = *g;  /* g itself never escapes */
        int done = normal_rare(&rare, rabs, idx, x, &z);
        *g = rare;
        if (done)
            return z;
    }
}

/* The PCG64 state and increment as four words, least significant first */
static struct pcg64 pcg64_load(const uint64_t *s)
{
    struct pcg64 g = {(unsigned __int128)s[1] << 64 | s[0],
                      (unsigned __int128)s[3] << 64 | s[2]};
    return g;
}

static void pcg64_store(const struct pcg64 *g, uint64_t *s)
{
    s[0] = (uint64_t)g->state;
    s[1] = (uint64_t)(g->state >> 64);
    s[2] = (uint64_t)g->inc;
    s[3] = (uint64_t)(g->inc >> 64);
}

/* scale times the next 2n standard normals into the complex row y: the
 * first n go to the real parts, the next n to the imaginary parts */
void normals_complex(uint64_t *s, int64_t n, double scale, double *y)
{
    struct pcg64 g = pcg64_load(s);
    for (int64_t k = 0; k < 2; k++)
        for (int64_t i = 0; i < n; i++)
            y[2 * i + k] = scale * normal(&g);
    pcg64_store(&g, s);
}

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

/* One FIR output sum_k h(k) v(-k) over the count newest samples of v, whose
 * newest sample vn points at (v conjugated if s is -1): a sample of
 * np.convolve(h, v). numpy correlates v with the reversed taps, one zdotu
 * per output over the oldest-first window, and OpenBLAS sums a short zdotu
 * in four FMA accumulators. */
static inline void fir_at(int64_t count, const double *h, const double *vn,
                          double s, double *y)
{
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
    for (int64_t k = count - 1; k >= 0; k--) {
        double vr = vn[-2 * k], vi = s * vn[1 - 2 * k];
        double hr = h[2 * k], hi = h[2 * k + 1];
        d0 = fma(vr, hr, d0);
        d1 = fma(vi, hi, d1);
        d2 = fma(vr, hi, d2);
        d3 = fma(vi, hr, d3);
    }
    y[0] = 0.0 + (d0 - d1);
    y[1] = 0.0 + (d2 + d3);
}

/* numpy's product of a real scale (promoted to complex) and (re, im) */
static inline void scale_cplx(double a, double re, double im, double *y)
{
    y[0] = fma(a, re, -(0.0 * im));
    y[1] = fma(a, im, 0.0 * re);
}

/* The IMD product x_imd = (k15 * |x|^2) * x of the sample xn, rounded as
 * transceiver.imd_sequence rounds it */
static inline void imd_at(double k15, const double *xn, double *y)
{
    double a = np_cabs(xn[0], xn[1]);
    scale_cplx(k15 * (a * a), xn[0], xn[1], y);
}

/* Drop the oldest of the count samples of the window q (oldest first) */
static inline void shift_out(double *q, int64_t count)
{
    for (int64_t k = 0; k + 1 < count; k++) {
        q[2 * k] = q[2 * k + 2];
        q[2 * k + 1] = q[2 * k + 3];
    }
}

/* Add scale times the next n standard normals of g to every second double
 * of y, from y[0] (the real parts of a complex row) or y[1] (the imaginary
 * parts), and store the normals likewise in z if it is not NULL. The render
 * adds a noise part this way in place of numpy's y + fma(scale, z, +-0),
 * the real-by-complex product written out by scale_cplx: a running sum that
 * starts at 0.0 is never -0 (x + y is -0 in round-to-nearest only if x and
 * y both are), and for such a y, y + fma(scale, z, +-0) equals
 * y + scale * z whatever the sign of that zero: the two products round
 * alike unless the exact product is zero, and then y + 0 and y + -0 are
 * both y. */
static void add_normals(struct pcg64 *g, int64_t n, double scale, double *y,
                        double *z)
{
    for (int64_t i = 0; i < n; i++) {
        double v = normal(g);
        y[2 * i] += scale * v;
        if (z)
            z[2 * i] = v;
    }
}

/* Render the observation of reference x (n samples) in one pass over x and
 * one pass of draws per noise part, as transceiver.render_observation
 * defines it. h and g have m taps, h_imd and g_imd nimd < m; k15 is
 * k_tiq^{3/2}. The noise is drawn from the generator whose state s holds
 * (advanced past the draws): n standard normals for each of the real then
 * the imaginary parts of the thermal, the quantization and (if soi) the SOI
 * noise, which scale[0..2] scale. d receives the sum of the seven
 * components in the order
 * 0 + linear + image + imd + image_imd + thermal + quantization + soi,
 * the noise parts added as they are drawn (see add_normals; adding the
 * absent SOI, 0.0, leaves the sum as it is). comp, if not NULL, receives the
 * components as (7, n), each noise component scaled from its stored draws
 * by numpy's product. Only the nimd newest IMD samples are kept. */
void render(int64_t n, int64_t m, int64_t nimd, double k15, const double *h,
            const double *g, const double *h_imd, const double *g_imd,
            const double *x, uint64_t *s, int64_t soi, const double *scale,
            double *d, double *comp)
{
    double q[2 * nimd + 2];  /* the IMD window, oldest first */
    for (int64_t i = 0; i < n; i++) {
        const double *xn = x + 2 * i;
        double *qn = q + 2 * (nimd > 0 ? nimd - 1 : 0);
        shift_out(q, nimd);
        imd_at(k15, xn, qn);
        int64_t cx = i < m ? i + 1 : m, cq = i < nimd ? i + 1 : nimd;
        double c[8];
        fir_at(cx, h, xn, 1.0, c);
        fir_at(cx, g, xn, -1.0, c + 2);
        fir_at(cq, h_imd, qn, 1.0, c + 4);
        fir_at(cq, g_imd, qn, -1.0, c + 6);
        double dr = 0.0, di = 0.0;
        for (int64_t k = 0; k < 4; k++) {
            dr = dr + c[2 * k];
            di = di + c[2 * k + 1];
        }
        d[2 * i] = dr;
        d[2 * i + 1] = di;
        if (comp)
            for (int64_t k = 0; k < 4; k++) {
                comp[2 * (k * n + i)] = c[2 * k];
                comp[2 * (k * n + i) + 1] = c[2 * k + 1];
            }
    }
    struct pcg64 gen = pcg64_load(s);
    for (int64_t k = 0; k < (soi ? 3 : 2); k++) {
        double *z = comp ? comp + 2 * (4 + k) * n : NULL;
        add_normals(&gen, n, scale[k], d, z);
        add_normals(&gen, n, scale[k], d + 1, z ? z + 1 : NULL);
        if (z)
            for (int64_t i = 0; i < n; i++)
                scale_cplx(scale[k], z[2 * i], z[2 * i + 1], z + 2 * i);
    }
    pcg64_store(&gen, s);
    if (comp && !soi)
        memset(comp + 2 * 6 * n, 0, 2 * n * sizeof(double));
}

/* One canceller job of an LMS call: its steps, its dim regressor weights,
 * the step win_start from which its steady-state window sums, its step size
 * mu, and its state and outputs. w and w_accum are (trials, dim); e2, if not
 * NULL, is (trials, steps) and receives the residual power of every step;
 * tap_buf, if not NULL, is (trials, ceil(steps / tap_stride), ntaps) and
 * receives the weights taps[] after every tap_stride-th step from step 0;
 * peak, steady_sum, steady_count and diverged_at are per trial. pre, if not
 * NULL, is a real preconditioner P with at most two nonzeros per row, (dim, 2):
 * row k holds P[k][k] and P[k][pair[k]] (0 where pair[k] is k). */
struct run {
    int64_t steps, dim, win_start;
    double mu;
    double *w, *w_accum, *e2, *peak, *steady_sum, *steady_count;
    int64_t *diverged_at;
    int64_t ntaps;
    const int64_t *taps;
    int64_t tap_stride;
    double *tap_buf;
    const double *pre;
    const int64_t *pair;
};

/* The tap buffer row of trial i and its kept step k, ntaps complex values */
static inline double *tap_row(const struct run *b, int64_t i, int64_t k)
{
    int64_t kept = (b->steps + b->tap_stride - 1) / b->tap_stride;
    return b->tap_buf + 2 * (i * kept + k) * b->ntaps;
}

/* An entry of the LMS-Newton direction P conj(r): p[0] conj(rk) +
 * p[1] conj(rp), p being the entry's row of the preconditioner (see struct
 * run) and rk and rp its regressor entry and that of its pair, formed as
 * numpy forms it. */
static inline void newton_entry(const double *p, const double *rk,
                                const double *rp, double *c)
{
    double g[2], h[2];
    scale_cplx(p[0], rk[0], -rk[1], g);
    scale_cplx(p[1], rp[0], -rp[1], h);
    c[0] = g[0] + h[0];
    c[1] = g[1] + h[1];
}

/* The LMS-Newton direction c = P conj(r) of the job b on its regressor r */
static inline void newton_direction(const struct run *b, const double *r,
                                    double *c)
{
    for (int64_t k = 0; k < b->dim; k++)
        newton_entry(b->pre + 2 * k, r + 2 * k, r + 2 * b->pair[k], c + 2 * k);
}

/* One LMS step of trial i on regressor r (dim entries) and observation d:
 * w += mu e conj(r), or, given the direction c (not NULL), w += mu e c. */
static inline __attribute__((always_inline)) void step(
    const struct run *b, int64_t i, int64_t j, const double *r,
    const double *c, const double *d)
{
    int64_t dim = b->dim;
    double *wi = b->w + 2 * dim * i, *ai = b->w_accum + 2 * dim * i;
    double yr = 0.0, yi = 0.0;
    for (int64_t k = 0; k < dim; k++) {
        yr += r[2 * k] * wi[2 * k] - r[2 * k + 1] * wi[2 * k + 1];
        yi += r[2 * k] * wi[2 * k + 1] + r[2 * k + 1] * wi[2 * k];
    }
    double er = d[0] - yr, ei = d[1] - yi;
    double mr = fma(b->mu, er, -(0.0 * ei)), mi = fma(b->mu, ei, 0.0 * er);
    for (int64_t k = 0; k < dim; k++) {
        double cr = c ? c[2 * k] : r[2 * k], ci = c ? c[2 * k + 1] : -r[2 * k + 1];
        wi[2 * k] += fma(mr, cr, -(mi * ci));
        wi[2 * k + 1] += fma(mr, ci, mi * cr);
    }
    double a = np_cabs(er, ei), p = a * a;
    int ok = isfinite(p);
    if (!ok && b->diverged_at[i] < 0) b->diverged_at[i] = j;
    double top = ok ? p : INFINITY;
    if (top > b->peak[i]) b->peak[i] = top;
    if (b->e2) b->e2[i * b->steps + j] = p;
    if (b->tap_buf && j % b->tap_stride == 0) {
        double *tb = tap_row(b, i, j / b->tap_stride);
        for (int64_t k = 0; k < b->ntaps; k++) {
            tb[2 * k] = wi[2 * b->taps[k]];
            tb[2 * k + 1] = wi[2 * b->taps[k] + 1];
        }
    }
    if (j >= b->win_start) {
        for (int64_t k = 0; k < 2 * dim; k++) ai[k] += wi[k];
        b->steady_sum[i] += ok ? p : 0.0;
        b->steady_count[i] += ok;
    }
}

/* Start the IMD window q (nimd samples, oldest first) of a trial whose
 * first sample is xi: the nimd - 1 samples before step 0's newest, which
 * regressor() shifts on. */
static inline void regressor_start(int64_t m, int64_t nimd, double k15,
                                   const double *xi, double *q)
{
    for (int64_t k = 1; k < nimd; k++)
        imd_at(k15, xi + 2 * (m - nimd + k - 1), q + 2 * k);
}

/* Move the IMD window q on by the newest sample xn and fill r with the
 * regressor [x; x_imd; x*; x_imd*] of xn, 2 (m + nimd) entries: x is read
 * in place and x_imd formed as render forms it. */
static inline void regressor(int64_t m, int64_t nimd, double k15,
                             const double *xn, double *q, double *r)
{
    int64_t half = m + nimd;
    const double *qn = q + 2 * (nimd > 0 ? nimd - 1 : 0);
    if (nimd > 0) {
        shift_out(q, nimd);
        imd_at(k15, xn, q + 2 * (nimd - 1));
    }
    for (int64_t k = 0; k < m; k++) {
        r[2 * k] = r[2 * (half + k)] = xn[-2 * k];
        r[2 * k + 1] = xn[1 - 2 * k];
        r[2 * (half + k) + 1] = -xn[1 - 2 * k];
    }
    for (int64_t k = 0; k < nimd; k++) {
        r[2 * (m + k)] = r[2 * (half + m + k)] = qn[-2 * k];
        r[2 * (m + k) + 1] = qn[1 - 2 * k];
        r[2 * (half + m + k) + 1] = -qn[1 - 2 * k];
    }
}

/* The job b alone, one trial run to its end before the next starts. */
static void lms_raw_job(int64_t trials, int64_t n, int64_t m, double k15,
                        const double *x, const double *d, const struct run *b)
{
    int64_t nimd = b->dim / 2 - m;
    double r[2 * b->dim], c[2 * b->dim], q[2 * nimd + 2];
    for (int64_t i = 0; i < trials; i++) {
        const double *xi = x + 2 * i * n;
        regressor_start(m, nimd, k15, xi, q);
        for (int64_t j = 0; j < b->steps; j++) {
            const double *dj = d + 2 * (i * n + j + m - 1);
            regressor(m, nimd, k15, xi + 2 * (j + m - 1), q, r);
            if (b->pre) {
                newton_direction(b, r, c);
                step(b, i, j, r, c, dj);
            } else {
                step(b, i, j, r, NULL, dj);
            }
        }
    }
}

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#define LANES 4

/* Up to LANES jobs of one lms_raw call, one job per lane of AVX2 vectors.
 * Each lane repeats its job's scalar step (see step above) operation for
 * operation: the same products, sums and fma()s in the same order, the
 * fma()s as _mm256_fmadd_pd, or, for fma(a, b, -c), as _mm256_fmsub_pd,
 * the instruction the compiler gives the scalar step (a NaN c keeps its
 * sign there, where negating it first would flip it), np_cabs as
 * cabs_lanes. The lanes share one regressor layout, that of the call's
 * largest nimd (half = m + nimd entries per half); a job with fewer IMD
 * taps leaves the extra entries of both halves out. w holds the weights of regressor entry k as two
 * vectors, w[2k] the real and w[2k + 1] the imaginary parts of every lane,
 * and w_accum likewise. Entries k < full of either half belong to the job
 * of every lane; from full on, keep[k] has a lane's bits set where entry k
 * of either half is one of its job's entries. An idle lane (no job) of the
 * last group runs with zero weights and step size and writes nothing. A
 * lane whose job has a preconditioner steps along its LMS-Newton direction,
 * which lanes_direction forms in dir, entry k in dir[2k] and dir[2k + 1]
 * like w: two buffers of 4 half vectors, for the regressors of even and odd
 * steps. */
struct lanes {
    const struct run *job[LANES];  /* NULL for an idle lane */
    int64_t full;
    int finite_all, e2;            /* the lanes with a job; any e2 output */
    int newton;                    /* the lanes with a preconditioner */
    __m256d mu, peak, steady_sum, steady_count, yr, yi, newton_mask;
    __m256i win_last;              /* each lane's win_start - 1 */
    int64_t win_first, win_all;    /* the earliest and latest win_start */
    int64_t diverged_at[LANES], next_tap[LANES], tap_first;
    __m256d *w, *w_accum, *keep, *dir;
};

/* The slot of a job's regressor entry s in the shared layout */
static inline int64_t lane_slot(const struct run *b, int64_t half, int64_t s)
{
    int64_t own = b->dim / 2;
    return s < own ? s : s - own + half;
}

/* np_cabs of every lane: the same max, min, quotient, fma, sqrt and
 * product, then the exits of np_cabs, last to first, as blends: a zero
 * magnitude gives 0 (where the quotient was 0/0), a NaN part NAN and an
 * infinite part INFINITY. */
static inline __m256d cabs_lanes(__m256d re, __m256d im)
{
    const __m256d inf = _mm256_set1_pd(INFINITY), zero = _mm256_setzero_pd();
    re = _mm256_andnot_pd(_mm256_set1_pd(-0.0), re);
    im = _mm256_andnot_pd(_mm256_set1_pd(-0.0), im);
    /* max(a, b) is a > b ? a : b and min(a, b) is a < b ? a : b */
    __m256d big = _mm256_max_pd(re, im), small = _mm256_min_pd(im, re);
    __m256d r = _mm256_div_pd(small, big);
    __m256d a = _mm256_mul_pd(
        _mm256_sqrt_pd(_mm256_fmadd_pd(r, r, _mm256_set1_pd(1.0))), big);
    a = _mm256_blendv_pd(a, zero, _mm256_cmp_pd(big, zero, _CMP_EQ_OQ));
    a = _mm256_blendv_pd(a, _mm256_set1_pd(NAN),
                         _mm256_cmp_pd(re, im, _CMP_UNORD_Q));
    __m256d infinite = _mm256_or_pd(_mm256_cmp_pd(re, inf, _CMP_EQ_OQ),
                                    _mm256_cmp_pd(im, inf, _CMP_EQ_OQ));
    return _mm256_blendv_pd(a, inf, infinite);
}

/* Point the lanes at jobs[0 .. count - 1] and set up their masks */
static void lanes_init(struct lanes *g, const struct run *jobs, int64_t count,
                       int64_t half)
{
    int64_t newton[LANES] = {0};
    g->full = half;
    g->finite_all = g->e2 = g->newton = 0;
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l] = l < count ? &jobs[l] : NULL;
        if (!b)
            continue;
        g->finite_all |= 1 << l;
        g->e2 |= b->e2 != NULL;
        if (b->pre) {
            g->newton |= 1 << l;
            newton[l] = -1;
        }
        if (b->dim / 2 < g->full)
            g->full = b->dim / 2;
    }
    g->newton_mask = _mm256_castsi256_pd(
        _mm256_loadu_si256((const __m256i *)newton));
    /* the entries a job leaves out keep a zero direction */
    for (int64_t k = 0; k < 8 * half; k++)
        g->dir[k] = _mm256_setzero_pd();
    for (int64_t k = 0; k < half; k++) {
        int64_t keep[LANES];
        for (int l = 0; l < LANES; l++)
            keep[l] = g->job[l] && k < g->job[l]->dim / 2 ? -1 : 0;
        g->keep[k] = _mm256_castsi256_pd(
            _mm256_loadu_si256((const __m256i *)keep));
    }
}

/* Load the lanes' state of trial i from their jobs */
static void lanes_start(struct lanes *g, int64_t i, int64_t half)
{
    double mu[LANES] = {0}, peak[LANES] = {0}, sum[LANES] = {0},
           count[LANES] = {0};
    int64_t last[LANES];
    g->win_first = g->tap_first = INT64_MAX;
    g->win_all = 0;
    for (int64_t k = 0; k < 4 * half; k++)
        g->w[k] = g->w_accum[k] = _mm256_setzero_pd();
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l];
        last[l] = INT64_MAX - 1;
        g->next_tap[l] = INT64_MAX;
        if (!b)
            continue;
        for (int64_t s = 0; s < b->dim; s++) {
            int64_t k = lane_slot(b, half, s);
            const double *w = b->w + 2 * (i * b->dim + s),
                         *a = b->w_accum + 2 * (i * b->dim + s);
            ((double *)&g->w[2 * k])[l] = w[0];
            ((double *)&g->w[2 * k + 1])[l] = w[1];
            ((double *)&g->w_accum[2 * k])[l] = a[0];
            ((double *)&g->w_accum[2 * k + 1])[l] = a[1];
        }
        mu[l] = b->mu;
        peak[l] = b->peak[i];
        sum[l] = b->steady_sum[i];
        count[l] = b->steady_count[i];
        g->diverged_at[l] = b->diverged_at[i];
        last[l] = b->win_start - 1;
        if (b->win_start < g->win_first)
            g->win_first = b->win_start;
        if (b->win_start > g->win_all)
            g->win_all = b->win_start;
        if (b->tap_buf)
            g->next_tap[l] = g->tap_first = 0;
    }
    g->mu = _mm256_loadu_pd(mu);
    g->peak = _mm256_loadu_pd(peak);
    g->steady_sum = _mm256_loadu_pd(sum);
    g->steady_count = _mm256_loadu_pd(count);
    g->win_last = _mm256_loadu_si256((const __m256i *)last);
}

/* Store the lanes' state of trial i back into their jobs */
static void lanes_finish(const struct lanes *g, int64_t i, int64_t half)
{
    double peak[LANES], sum[LANES], count[LANES];
    _mm256_storeu_pd(peak, g->peak);
    _mm256_storeu_pd(sum, g->steady_sum);
    _mm256_storeu_pd(count, g->steady_count);
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l];
        if (!b)
            continue;
        for (int64_t s = 0; s < b->dim; s++) {
            int64_t k = lane_slot(b, half, s);
            double *w = b->w + 2 * (i * b->dim + s),
                   *a = b->w_accum + 2 * (i * b->dim + s);
            w[0] = ((const double *)&g->w[2 * k])[l];
            w[1] = ((const double *)&g->w[2 * k + 1])[l];
            a[0] = ((const double *)&g->w_accum[2 * k])[l];
            a[1] = ((const double *)&g->w_accum[2 * k + 1])[l];
        }
        b->peak[i] = peak[l];
        b->steady_sum[i] = sum[l];
        b->steady_count[i] = count[l];
        b->diverged_at[i] = g->diverged_at[l];
    }
}

/* The per-lane records of step j of trial i with residual powers p (finite
 * where the bit of `finite` is set): first non-finite step, e2 and taps. */
static void lanes_record(struct lanes *g, int64_t i, int64_t j, int64_t half,
                         __m256d p, int finite)
{
    double pl[LANES];
    _mm256_storeu_pd(pl, p);
    g->tap_first = INT64_MAX;
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l];
        if (!b)
            continue;
        if (!(finite >> l & 1) && g->diverged_at[l] < 0)
            g->diverged_at[l] = j;
        if (b->e2)
            b->e2[i * b->steps + j] = pl[l];
        if (j == g->next_tap[l]) {
            double *tb = tap_row(b, i, j / b->tap_stride);
            for (int64_t k = 0; k < b->ntaps; k++) {
                int64_t s = lane_slot(b, half, b->taps[k]);
                tb[2 * k] = ((const double *)&g->w[2 * s])[l];
                tb[2 * k + 1] = ((const double *)&g->w[2 * s + 1])[l];
            }
            g->next_tap[l] += b->tap_stride;
        }
        if (g->next_tap[l] < g->tap_first)
            g->tap_first = g->next_tap[l];
    }
}

/* The LMS-Newton direction of every lane with a preconditioner on the
 * shared regressor r, into dir: each entry as newton_direction forms it for
 * the lane's job on its own regressor. */
static void lanes_direction(const struct lanes *g, int64_t half,
                            const double *r, __m256d *dir)
{
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l];
        if (!(g->newton >> l & 1))
            continue;
        for (int64_t s = 0; s < b->dim; s++) {
            int64_t k = lane_slot(b, half, s);
            double c[2];
            newton_entry(b->pre + 2 * s, r + 2 * k,
                         r + 2 * lane_slot(b, half, b->pair[s]), c);
            ((double *)&dir[2 * k])[l] = c[0];
            ((double *)&dir[2 * k + 1])[l] = c[1];
        }
    }
}

/* Add the term of entry k of the regressor r (weights wr, wi) to the sums
 * yr and yi of reg^T w as step forms it, masked by keep if `masked` (see
 * lanes_step) */
static inline __attribute__((always_inline)) void dot_term(
    const double *r, int64_t k, __m256d wr, __m256d wi, int masked,
    __m256d keep, __m256d *yr, __m256d *yi)
{
    __m256d rr = _mm256_broadcast_sd(r + 2 * k),
            ri = _mm256_broadcast_sd(r + 2 * k + 1),
            tr = _mm256_sub_pd(_mm256_mul_pd(rr, wr), _mm256_mul_pd(ri, wi)),
            ti = _mm256_add_pd(_mm256_mul_pd(rr, wi), _mm256_mul_pd(ri, wr));
    if (masked) {
        tr = _mm256_and_pd(keep, tr);
        ti = _mm256_and_pd(keep, ti);
    }
    *yr = _mm256_add_pd(*yr, tr);
    *yi = _mm256_add_pd(*yi, ti);
}

/* reg^T w of the regressor r for every lane, into g->yr and g->yi */
static void lanes_dot(struct lanes *g, int64_t half, const double *r)
{
    __m256d yr = _mm256_setzero_pd(), yi = _mm256_setzero_pd();
    for (int64_t k = 0; k < 2 * half; k++) {
        int64_t e = k < half ? k : k - half;
        dot_term(r, k, g->w[2 * k], g->w[2 * k + 1], e >= g->full, g->keep[e],
                 &yr, &yi);
    }
    g->yr = yr;
    g->yi = yi;
}

/* The weight update of entry k (mirror: the same entry in the other half)
 * as step forms it, along conj(r), or, if dir is not NULL, along dir in the
 * lanes of newton_mask; the new weights go to w, join the sums yr and yi of
 * reg^T w of the regressor next (masked by keep if `masked`), and join the
 * window sums w_accum: none if sum is 0, masked by `in` if it is 1. */
static inline __attribute__((always_inline)) void update_entry(
    const double *r, const double *next, int64_t k, int64_t mirror,
    __m256d mr, __m256d mi, const __m256d *dir, __m256d newton_mask,
    int masked, __m256d keep, __m256d *w, __m256d *w_accum, int sum,
    __m256d in, __m256d *yr, __m256d *yi)
{
    /* step's ci = -r[2k + 1] is the imaginary part of the mirror entry,
     * negated bit for bit when r was built */
    __m256d cr = _mm256_broadcast_sd(r + 2 * k),
            ci = _mm256_broadcast_sd(r + 2 * mirror + 1);
    if (dir) {
        cr = _mm256_blendv_pd(cr, dir[2 * k], newton_mask);
        ci = _mm256_blendv_pd(ci, dir[2 * k + 1], newton_mask);
    }
    __m256d dr = _mm256_fmsub_pd(mr, cr, _mm256_mul_pd(mi, ci)),
            di = _mm256_fmadd_pd(mr, ci, _mm256_mul_pd(mi, cr));
    __m256d wr = _mm256_add_pd(w[2 * k], dr), wi = _mm256_add_pd(w[2 * k + 1], di);
    w[2 * k] = wr;
    w[2 * k + 1] = wi;
    dot_term(next, k, wr, wi, masked, keep, yr, yi);
    if (sum == 1) {
        wr = _mm256_and_pd(in, wr);
        wi = _mm256_and_pd(in, wi);
    }
    if (sum) {
        w_accum[2 * k] = _mm256_add_pd(w_accum[2 * k], wr);
        w_accum[2 * k + 1] = _mm256_add_pd(w_accum[2 * k + 1], wi);
    }
}

/* Step j of trial i for every lane, on the shared regressor r (2 half
 * entries) and observation d, with g->yr and g->yi holding reg^T w of r,
 * and dir holding the LMS-Newton directions on r (NULL if no lane has a
 * preconditioner); g->yr and g->yi are left holding reg^T w of next, the
 * regressor of step j + 1, with the new weights: each entry's new weight
 * joins that sum as soon as it is formed, in step's order. Where a lane
 * leaves an entry out, its terms are masked to +0: the sums they would join
 * start at +0 and so are never -0 (x + y is -0 only if x and y both are),
 * and such a sum plus +0 is the sum itself. The left-out weights are updated like the others but are read
 * only through those masks, and never stored back. Before its window
 * starts, a lane's window sums are masked the same way. */
static inline __attribute__((always_inline)) void lanes_step(
    struct lanes *g, int64_t i, int64_t j, int64_t half, const double *r,
    const double *next, const __m256d *dir, const double *d)
{
    const __m256d zero = _mm256_setzero_pd();
    __m256d *w = g->w, *w_accum = g->w_accum;
    const __m256d *keep = g->keep;
    const int64_t full = g->full;
    __m256d er = _mm256_sub_pd(_mm256_set1_pd(d[0]), g->yr),
            ei = _mm256_sub_pd(_mm256_set1_pd(d[1]), g->yi);
    __m256d mr = _mm256_fmsub_pd(g->mu, er, _mm256_mul_pd(zero, ei)),
            mi = _mm256_fmadd_pd(g->mu, ei, _mm256_mul_pd(zero, er));
    __m256d yr = zero, yi = zero;
    /* the window sums of the new weights: none before the first window
     * starts, masked until the last one starts */
    int sum = (j >= g->win_first) + (j >= g->win_all);
    __m256d in = _mm256_castsi256_pd(
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(j), g->win_last));
    for (int64_t h = 0; h < 2 * half; h += half) {
        int64_t other = h ? -half : half;  /* from an entry to its mirror */
        for (int64_t k = h; k < h + full; k++)
            update_entry(r, next, k, k + other, mr, mi, dir, g->newton_mask, 0,
                         zero, w, w_accum, sum, in, &yr, &yi);
        for (int64_t k = h + full; k < h + half; k++)
            update_entry(r, next, k, k + other, mr, mi, dir, g->newton_mask, 1,
                         keep[k - h], w, w_accum, sum, in, &yr, &yi);
    }
    g->yr = yr;
    g->yi = yi;
    __m256d a = cabs_lanes(er, ei), p = _mm256_mul_pd(a, a);
    __m256d ok = _mm256_cmp_pd(p, _mm256_set1_pd(INFINITY), _CMP_LT_OQ);
    int finite = _mm256_movemask_pd(ok);
    if ((finite & g->finite_all) != g->finite_all || g->e2
        || j >= g->tap_first)
        lanes_record(g, i, j, half, p, finite);
    /* max(top, peak) is top > peak ? top : peak */
    g->peak = _mm256_max_pd(
        _mm256_blendv_pd(_mm256_set1_pd(INFINITY), p, ok), g->peak);
    if (sum) {
        in = _mm256_and_pd(in, ok);
        g->steady_sum = _mm256_add_pd(g->steady_sum, _mm256_and_pd(in, p));
        g->steady_count = _mm256_add_pd(
            g->steady_count, _mm256_and_pd(in, _mm256_set1_pd(1.0)));
    }
}

/* The jobs in groups of LANES, step by step: each step builds the regressor
 * of the largest nimd once, and every group steps on it. Returns 0, having
 * run nothing, if the groups' state cannot be allocated. */
static int lms_raw_lanes(int64_t trials, int64_t n, int64_t m, double k15,
                         const double *x, const double *d, int64_t jobs,
                         const struct run *runs)
{
    int64_t nimd = 0;
    for (int64_t g = 0; g < jobs; g++)
        if (runs[g].dim / 2 - m > nimd)
            nimd = runs[g].dim / 2 - m;
    int64_t half = m + nimd, groups = (jobs + LANES - 1) / LANES;
    /* each group's w, w_accum (4 half vectors each), keep (half) and dir
     * (8 half), on the heap: the number of jobs has no bound */
    __m256d *state = aligned_alloc(sizeof(__m256d),
                                   groups * 17 * half * sizeof(__m256d));
    struct lanes *lanes = aligned_alloc(sizeof(__m256d),
                                        groups * sizeof(struct lanes));
    if (!state || !lanes) {
        free(state);
        free(lanes);
        return 0;
    }
    for (int64_t g = 0; g < groups; g++) {
        lanes[g].w = state + 17 * half * g;
        lanes[g].w_accum = lanes[g].w + 4 * half;
        lanes[g].keep = lanes[g].w + 8 * half;
        lanes[g].dir = lanes[g].w + 9 * half;
        lanes_init(&lanes[g], runs + g * LANES, jobs - g * LANES, half);
    }
    /* the regressors of steps j and j + 1, alternately, and likewise each
     * group's LMS-Newton directions on them, formed a step ahead */
    double r[2][4 * half], q[2 * nimd + 2];
    int64_t steps = runs[0].steps;
    for (int64_t i = 0; i < trials; i++) {
        const double *xi = x + 2 * i * n;
        regressor_start(m, nimd, k15, xi, q);
        regressor(m, nimd, k15, xi + 2 * (m - 1), q, r[0]);
        for (int64_t g = 0; g < groups; g++) {
            lanes_start(&lanes[g], i, half);
            lanes_dot(&lanes[g], half, r[0]);
            if (lanes[g].newton)
                lanes_direction(&lanes[g], half, r[0], lanes[g].dir);
        }
        for (int64_t j = 0; j < steps; j++) {
            const double *now = r[j & 1], *dj = d + 2 * (i * n + j + m - 1);
            double *next = r[~j & 1];
            if (j + 1 < steps) {
                regressor(m, nimd, k15, xi + 2 * (j + m), q, next);
                for (int64_t g = 0; g < groups; g++)
                    if (lanes[g].newton)
                        lanes_direction(&lanes[g], half, next,
                                        lanes[g].dir + 4 * half * (~j & 1));
            }
            for (int64_t g = 0; g < groups; g++) {
                if (lanes[g].newton)
                    lanes_step(&lanes[g], i, j, half, now, next,
                               lanes[g].dir + 4 * half * (j & 1), dj);
                else
                    lanes_step(&lanes[g], i, j, half, now, next, NULL, dj);
            }
        }
        for (int64_t g = 0; g < groups; g++)
            lanes_finish(&lanes[g], i, half);
    }
    free(state);
    free(lanes);
    return 1;
}
#endif

/* The lanes per vector that lms_raw runs `jobs` jobs in: LANES for two or
 * more jobs on an AVX2 build, else 1, the scalar step. */
int64_t lms_lanes(int64_t jobs)
{
#ifdef LANES
    return jobs > 1 ? LANES : 1;
#else
    (void)jobs;
    return 1;
#endif
}

/* The jobs runs[0 .. jobs - 1] of one set of trials: x and d are (trials, n)
 * and every job runs steps = n - m + 1 steps on each trial, step j on the
 * regressor of sample j + m - 1, with the m of the call and its own
 * nimd = dim / 2 - m. Two or more jobs run as lanes (lms_lanes), one job, or
 * any job on a build without AVX2, by the scalar step; either way every job
 * returns the same bits. */
void lms_raw(int64_t trials, int64_t n, int64_t m, double k15,
             const double *x, const double *d, int64_t jobs,
             const struct run *runs)
{
#ifdef LANES
    /* the scalar step also serves if the lanes' state cannot be allocated */
    if (lms_lanes(jobs) > 1 && lms_raw_lanes(trials, n, m, k15, x, d, jobs, runs))
        return;
#endif
    for (int64_t g = 0; g < jobs; g++)
        lms_raw_job(trials, n, m, k15, x, d, &runs[g]);
}
