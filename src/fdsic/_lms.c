/* The native kernels of fdsic: the standard normal draws of a trial, the
 * one-pass render of an observation and the LMS steps of a run, for every
 * trial of a batch.
 *
 * The arithmetic is written out in real numbers so that every rounding
 * equals that of the numpy expressions it replaces (see cancellers.py and
 * transceiver.py): the dot product reg^T w accumulates in order without FMA,
 * as einsum does, complex products use numpy's FMA form, |e| is numpy's
 * scaled hypot, and the FIR sums as np.convolve does through BLAS zdotu.
 * The normals are those of numpy's Generator.standard_normal on PCG64.
 * Build with -ffp-contract=off and without auto-vectorization so that the
 * compiler keeps exactly these operations. Complex arrays are interleaved
 * (re, im) doubles; trials are independent, so each runs to its end before
 * the next starts.
 */
#include <math.h>
#include <stdint.h>
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

/* What the steps of one run share: w and w_accum are (trials, dim); e2, if
 * not NULL, is (trials, steps) and tap_buf, if not NULL, (trials, steps,
 * ntaps), and they receive per-step values; peak, steady_sum, steady_count
 * and diverged_at are per trial. Steps from win_start on are summed. */
struct run {
    int64_t steps, dim, win_start;
    double mu;
    double *w, *w_accum, *e2, *peak, *steady_sum, *steady_count;
    int64_t *diverged_at;
    int64_t ntaps;
    const int64_t *taps;
    double *tap_buf;
};

/* One LMS step of trial i on regressor r (dim entries) and observation d. */
static inline void step(const struct run *b, int64_t i, int64_t j,
                        const double *r, const double *d)
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
        double cr = r[2 * k], ci = -r[2 * k + 1];
        wi[2 * k] += fma(mr, cr, -(mi * ci));
        wi[2 * k + 1] += fma(mr, ci, mi * cr);
    }
    double a = np_cabs(er, ei), p = a * a;
    int ok = isfinite(p);
    if (!ok && b->diverged_at[i] < 0) b->diverged_at[i] = j;
    double top = ok ? p : INFINITY;
    if (top > b->peak[i]) b->peak[i] = top;
    if (b->e2) b->e2[i * b->steps + j] = p;
    if (b->tap_buf)
        for (int64_t k = 0; k < b->ntaps; k++) {
            double *tb = b->tap_buf + 2 * ((i * b->steps + j) * b->ntaps + k);
            tb[0] = wi[2 * b->taps[k]];
            tb[1] = wi[2 * b->taps[k] + 1];
        }
    if (j >= b->win_start) {
        for (int64_t k = 0; k < 2 * dim; k++) ai[k] += wi[k];
        b->steady_sum[i] += ok ? p : 0.0;
        b->steady_count[i] += ok;
    }
}

/* Steps j0 <= j < j1 of a run of `steps` steps, on the regressors in reg,
 * (trials, j1 - j0, dim) (the whitened path); d is (trials, steps + lead)
 * and step j reads column lead + j. */
void lms_whitened(int64_t trials, int64_t steps, int64_t dim, int64_t lead,
                  int64_t j0, int64_t j1, int64_t win_start, double mu,
                  const double *reg, const double *d, double *w,
                  double *w_accum, double *e2, double *peak,
                  double *steady_sum, double *steady_count,
                  int64_t *diverged_at, int64_t ntaps, const int64_t *taps,
                  double *tap_buf)
{
    struct run b = {steps, dim, win_start, mu, w, w_accum, e2, peak,
                    steady_sum, steady_count, diverged_at, ntaps, taps,
                    tap_buf};
    for (int64_t i = 0; i < trials; i++)
        for (int64_t j = j0; j < j1; j++)
            step(&b, i, j, reg + 2 * dim * (i * (j1 - j0) + j - j0),
                 d + 2 * (i * (steps + lead) + lead + j));
}

/* The regressor [x; x_imd; x*; x_imd*] of step j is read in place from x,
 * and x_imd is formed from x as render forms it, keeping only the nimd
 * newest values: x and d are (trials, n), step j's newest sample is
 * j + m - 1, and dim is 2 (m + nimd). One trial runs to its end before the
 * next starts. */
void lms_raw(int64_t trials, int64_t n, int64_t m, int64_t nimd,
             int64_t win_start, double mu, double k15, const double *x,
             const double *d, double *w, double *w_accum, double *e2,
             double *peak, double *steady_sum, double *steady_count,
             int64_t *diverged_at, int64_t ntaps, const int64_t *taps,
             double *tap_buf)
{
    int64_t steps = n - m + 1, dim = 2 * (m + nimd), half = m + nimd;
    struct run b = {steps, dim, win_start, mu, w, w_accum, e2, peak,
                    steady_sum, steady_count, diverged_at, ntaps, taps,
                    tap_buf};
    double r[2 * dim], q[2 * nimd + 2];  /* q: the IMD window, oldest first */
    const double *qn = q + 2 * (nimd > 0 ? nimd - 1 : 0);
    for (int64_t i = 0; i < trials; i++) {
        const double *xi = x + 2 * i * n;
        /* the nimd - 1 samples before step 0's newest, shifted out below */
        for (int64_t k = 1; k < nimd; k++)
            imd_at(k15, xi + 2 * (m - nimd + k - 1), q + 2 * k);
        for (int64_t j = 0; j < steps; j++) {
            const double *xn = xi + 2 * (j + m - 1);
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
            step(&b, i, j, r, d + 2 * (i * n + j + m - 1));
        }
    }
}
