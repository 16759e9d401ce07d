/* The native kernels of fdsic: the standard normal and uniform draws of a
 * trial, the render of a trial's observations and the LMS steps of the
 * canceller jobs run on one or more trials.
 *
 * The arithmetic is written out in real numbers so that every rounding
 * equals that of the numpy expressions it replaces (see cancellers.py and
 * transceiver.py): the dot product reg^T w accumulates in order without FMA,
 * as einsum does, complex products use numpy's FMA form, |e| is numpy's
 * scaled hypot, and the FIR sums as np.convolve does through BLAS zdotu.
 * The draws are those of numpy's Generator.standard_normal and random on
 * PCG64. Build with -ffp-contract=off and without auto-vectorization so
 * that the compiler keeps exactly these operations. Complex arrays are
 * interleaved (re, im) doubles. The render and the LMS read a trial's
 * reference x = scale z from a source row z and a scale, and form x and its
 * IMD product in one place (reference_lanes): each part of z times the
 * scale, as signals.Draw.reference does, so one row z serves every transmit
 * power. Both are written over the vector operations v_*, each lane of a
 * vector repeating the scalar operations in their order, so a lane returns
 * the bits one sample or one job returns alone. A build with AVX-512F and
 * AVX-512DQ runs eight lanes per vector, one with AVX2 and FMA four, any
 * other build one (lms_lanes). The render's lanes are consecutive output
 * samples, formed in blocks of RB samples on the heap; one call renders
 * the observations of several points (struct point) from one source row
 * and draws their noise once, each normal added to every point's row as
 * that point alone adds it. A job of an lms_raw call is one trial's run,
 * with its own source row z, scale and observation row, so the jobs of one
 * call may belong to different trials: the harness fills the lanes with
 * (trial, job) pairs, job-major, so that a vector often holds one job over
 * several trials. The jobs run in groups of LANES, one group after
 * another, and within a group step by step as the lanes of a vector, each
 * lane on its own regressor. A job's preconditioner couples an entry only
 * with its layout partner (see struct run), so any jobs can share the
 * lanes.
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

/* The next 2n standard normals into the complex row y: the first n go to
 * the real parts, the next n to the imaginary parts */
void normals_complex(uint64_t *s, int64_t n, double *y)
{
    struct pcg64 g = pcg64_load(s);
    for (int64_t k = 0; k < 2; k++)
        for (int64_t i = 0; i < n; i++)
            y[2 * i + k] = normal(&g);
    pcg64_store(&g, s);
}

/* The next n draws of the generator whose state s holds (advanced past
 * them) into y: standard normals as Generator.standard_normal draws them
 * if gauss, else doubles in [0, 1) as Generator.random draws them */
void doubles(uint64_t *s, int64_t n, int64_t gauss, double *y)
{
    struct pcg64 g = pcg64_load(s);
    for (int64_t i = 0; i < n; i++)
        y[i] = gauss ? normal(&g) : pcg64_double(&g);
    pcg64_store(&g, s);
}

/* numpy's product of a real scale (promoted to complex) and (re, im) */
static inline void scale_complex(double a, double re, double im, double *y)
{
    y[0] = fma(a, re, -(0.0 * im));
    y[1] = fma(a, im, 0.0 * re);
}

/* Add scale times the n standard normals v to every second double of y,
 * from y[0] (the real parts of a complex row) or y[1] (the imaginary
 * parts), and store the normals likewise in z if it is not NULL. The render
 * adds a noise part this way in place of numpy's y + fma(scale, z, +-0),
 * the real-by-complex product written out by scale_complex: a running sum that
 * starts at 0.0 is never -0 (x + y is -0 in round-to-nearest only if x and
 * y both are), and for such a y, y + fma(scale, z, +-0) equals
 * y + scale * z whatever the sign of that zero: the two products round
 * alike unless the exact product is zero, and then y + 0 and y + -0 are
 * both y. */
static void add_normals(int64_t n, double scale, const double *v, double *y, double *z)
{
    for (int64_t i = 0; i < n; i++) {
        y[2 * i] += scale * v[i];
        if (z)
            z[2 * i] = v[i];
    }
}

/* One canceller job of an LMS call, one trial's run: its steps, its dim
 * regressor weights, the step win_start from which its steady-state window
 * sums, its step size mu, the scale of its reference x = scale z, its
 * source row z and observation row d (steps + m - 1 samples each), and its
 * weights and outputs. w (dim) holds the start weights and receives the
 * final ones; w_accum (dim) receives the sum of the weights over the
 * window; e2, if not NULL, (steps) receives the residual power of every
 * step; tap_buf, if not NULL, is (ceil(steps / tap_stride), ntaps) and
 * receives the weights taps[] after every tap_stride-th step from step 0.
 * peak receives the largest residual power (INFINITY once one is not
 * finite), steady_mse the mean residual power over the window (INFINITY
 * if the run went non-finite) and diverged_at the first step whose
 * residual power is not finite, or -1. pre, if not NULL, is a real
 * preconditioner P that couples each entry only with its layout partner,
 * (dim, 2): row k holds P[k][k] and P[k][j], j the partner of entry k (0
 * where the partner is k itself). In either half of the
 * regressor [x; x_imd; x*; x_imd*], x(n-e) and x_imd(n-e) for e < nimd are
 * each other's partners, and every other entry is its own. */
struct run {
    int64_t steps, dim, win_start;
    double mu, scale;
    const double *z, *d;
    double *w, *w_accum, *e2;
    int64_t ntaps;
    const int64_t *taps;
    int64_t tap_stride;
    double *tap_buf;
    const double *pre;
    double peak, steady_mse;
    int64_t diverged_at;
};

/* The vector operations of the render and the LMS steps, on the LANES
 * lanes of a vec: with AVX-512F and AVX-512DQ each is one intrinsic (or a
 * short sequence) on eight doubles, with AVX2 and FMA on four, else plain C
 * on one double. Compares give masks, each lane all bits set or none (on
 * AVX-512, a compare's mask register spread to the lanes' bits by v_mask);
 * v_and keeps a lane where the mask is set, v_blend(a, b, mask) takes b
 * where the mask's sign bit is set, a elsewhere, and v_movemask gathers the
 * sign bits. v_max(a, b) is a > b ? a : b and v_min(a, b) is a < b ? a : b,
 * as maxpd and minpd are. v_fmsub(a, b, c) is fma(a, b, -c), the vfmsub
 * instruction the compiler gives that fma() (a NaN c keeps its sign there,
 * where negating it first would flip it). v_gather(p, o) loads the double
 * p[l][o] into each lane l. v_load2(p, re, im) loads the LANES complex
 * values at p, interleaved (re, im), as the vectors re and im of their
 * parts, and v_store2(p, re, im) stores them back interleaved. */
#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>

#define LANES 8
typedef __m512d vec;

static inline vec v_set1(double a) { return _mm512_set1_pd(a); }
static inline vec v_load(const double *p) { return _mm512_loadu_pd(p); }
static inline void v_store(double *p, vec a) { _mm512_storeu_pd(p, a); }
static inline vec v_gather(const double *const *p, int64_t o)
{
    return _mm512_set_pd(p[7][o], p[6][o], p[5][o], p[4][o], p[3][o], p[2][o],
                         p[1][o], p[0][o]);
}
static inline void v_load2(const double *p, vec *re, vec *im)
{
    vec a = _mm512_loadu_pd(p), b = _mm512_loadu_pd(p + 8);
    *re = _mm512_permutex2var_pd(a, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), b);
    *im = _mm512_permutex2var_pd(a, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), b);
}
static inline void v_store2(double *p, vec re, vec im)
{
    _mm512_storeu_pd(p, _mm512_permutex2var_pd(
        re, _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0), im));
    _mm512_storeu_pd(p + 8, _mm512_permutex2var_pd(
        re, _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4), im));
}
static inline vec v_add(vec a, vec b) { return _mm512_add_pd(a, b); }
static inline vec v_sub(vec a, vec b) { return _mm512_sub_pd(a, b); }
static inline vec v_mul(vec a, vec b) { return _mm512_mul_pd(a, b); }
static inline vec v_div(vec a, vec b) { return _mm512_div_pd(a, b); }
static inline vec v_sqrt(vec a) { return _mm512_sqrt_pd(a); }
static inline vec v_fmadd(vec a, vec b, vec c) { return _mm512_fmadd_pd(a, b, c); }
static inline vec v_fmsub(vec a, vec b, vec c) { return _mm512_fmsub_pd(a, b, c); }
static inline vec v_max(vec a, vec b) { return _mm512_max_pd(a, b); }
static inline vec v_min(vec a, vec b) { return _mm512_min_pd(a, b); }
static inline vec v_abs(vec a) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a); }
static inline vec v_neg(vec a) { return _mm512_xor_pd(a, _mm512_set1_pd(-0.0)); }
static inline vec v_and(vec mask, vec a) { return _mm512_and_pd(mask, a); }
static inline vec v_or(vec a, vec b) { return _mm512_or_pd(a, b); }
static inline vec v_mask(__mmask8 on) { return _mm512_castsi512_pd(_mm512_movm_epi64(on)); }
static inline vec v_eq(vec a, vec b) { return v_mask(_mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ)); }
static inline vec v_lt(vec a, vec b) { return v_mask(_mm512_cmp_pd_mask(a, b, _CMP_LT_OQ)); }
static inline vec v_unord(vec a, vec b) { return v_mask(_mm512_cmp_pd_mask(a, b, _CMP_UNORD_Q)); }
static inline int v_movemask(vec mask) { return _mm512_movepi64_mask(_mm512_castpd_si512(mask)); }
static inline vec v_blend(vec a, vec b, vec mask)
{
    return _mm512_mask_blend_pd(_mm512_movepi64_mask(_mm512_castpd_si512(mask)), a, b);
}
#elif defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>

#define LANES 4
typedef __m256d vec;

static inline vec v_set1(double a) { return _mm256_set1_pd(a); }
static inline vec v_load(const double *p) { return _mm256_loadu_pd(p); }
static inline void v_store(double *p, vec a) { _mm256_storeu_pd(p, a); }
static inline vec v_gather(const double *const *p, int64_t o)
{
    return _mm256_set_pd(p[3][o], p[2][o], p[1][o], p[0][o]);
}
static inline void v_load2(const double *p, vec *re, vec *im)
{
    vec a = _mm256_loadu_pd(p), b = _mm256_loadu_pd(p + 4);
    *re = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xd8);
    *im = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xd8);
}
static inline void v_store2(double *p, vec re, vec im)
{
    vec lo = _mm256_unpacklo_pd(re, im), hi = _mm256_unpackhi_pd(re, im);
    _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}
static inline vec v_add(vec a, vec b) { return _mm256_add_pd(a, b); }
static inline vec v_sub(vec a, vec b) { return _mm256_sub_pd(a, b); }
static inline vec v_mul(vec a, vec b) { return _mm256_mul_pd(a, b); }
static inline vec v_div(vec a, vec b) { return _mm256_div_pd(a, b); }
static inline vec v_sqrt(vec a) { return _mm256_sqrt_pd(a); }
static inline vec v_fmadd(vec a, vec b, vec c) { return _mm256_fmadd_pd(a, b, c); }
static inline vec v_fmsub(vec a, vec b, vec c) { return _mm256_fmsub_pd(a, b, c); }
static inline vec v_max(vec a, vec b) { return _mm256_max_pd(a, b); }
static inline vec v_min(vec a, vec b) { return _mm256_min_pd(a, b); }
static inline vec v_abs(vec a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }
static inline vec v_neg(vec a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
static inline vec v_and(vec mask, vec a) { return _mm256_and_pd(mask, a); }
static inline vec v_or(vec a, vec b) { return _mm256_or_pd(a, b); }
static inline vec v_eq(vec a, vec b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
static inline vec v_lt(vec a, vec b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
static inline vec v_unord(vec a, vec b) { return _mm256_cmp_pd(a, b, _CMP_UNORD_Q); }
static inline vec v_blend(vec a, vec b, vec mask) { return _mm256_blendv_pd(a, b, mask); }
static inline int v_movemask(vec mask) { return _mm256_movemask_pd(mask); }
#else
#define LANES 1
typedef double vec;

static inline uint64_t v_bits(double a)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    return bits;
}
static inline double v_mask(int on)
{
    uint64_t bits = on ? ~(uint64_t)0 : 0;
    double mask;
    memcpy(&mask, &bits, sizeof mask);
    return mask;
}
static inline vec v_set1(double a) { return a; }
static inline vec v_load(const double *p) { return *p; }
static inline void v_store(double *p, vec a) { *p = a; }
static inline vec v_gather(const double *const *p, int64_t o) { return p[0][o]; }
static inline void v_load2(const double *p, vec *re, vec *im)
{
    *re = p[0];
    *im = p[1];
}
static inline void v_store2(double *p, vec re, vec im)
{
    p[0] = re;
    p[1] = im;
}
static inline vec v_add(vec a, vec b) { return a + b; }
static inline vec v_sub(vec a, vec b) { return a - b; }
static inline vec v_mul(vec a, vec b) { return a * b; }
static inline vec v_div(vec a, vec b) { return a / b; }
static inline vec v_sqrt(vec a) { return sqrt(a); }
static inline vec v_fmadd(vec a, vec b, vec c) { return fma(a, b, c); }
static inline vec v_fmsub(vec a, vec b, vec c) { return fma(a, b, -c); }
static inline vec v_max(vec a, vec b) { return a > b ? a : b; }
static inline vec v_min(vec a, vec b) { return a < b ? a : b; }
static inline vec v_abs(vec a) { return fabs(a); }
static inline vec v_neg(vec a) { return -a; }
static inline vec v_and(vec mask, vec a)
{
    uint64_t bits = v_bits(mask) & v_bits(a);
    memcpy(&a, &bits, sizeof a);
    return a;
}
static inline vec v_or(vec a, vec b)
{
    uint64_t bits = v_bits(a) | v_bits(b);
    memcpy(&a, &bits, sizeof a);
    return a;
}
static inline vec v_eq(vec a, vec b) { return v_mask(a == b); }
static inline vec v_lt(vec a, vec b) { return v_mask(a < b); }
static inline vec v_unord(vec a, vec b) { return v_mask(isunordered(a, b)); }
static inline vec v_blend(vec a, vec b, vec mask) { return v_bits(mask) >> 63 ? b : a; }
static inline int v_movemask(vec mask) { return (int)(v_bits(mask) >> 63); }
#endif

/* The lanes per vector of this build, for the caller to fill */
const int64_t lms_lanes = LANES;

/* Up to LANES jobs of one lms_raw call, one job per lane. Each lane repeats
 * the numpy expressions of its job's LMS step, e = d - reg^T w (einsum's
 * in-order sum, no FMA), w += mu e conj(reg) or, with a preconditioner,
 * w += mu e P conj(reg), and |e|^2 (numpy's complex absolute value,
 * cabs_lanes), operation for operation: the same products, sums and fma()s
 * in the same order.
 * Each lane steps on its own regressor and reads its own job's source and
 * observation rows. The regressors are views into a history of the lanes'
 * newest samples, into which lanes_push enters one sample of each lane's
 * row z per step, each lane's x = scale z and IMD product formed as numpy
 * forms them (reference_lanes), so that no entry moves from step to step.
 * The lanes share one regressor layout, that of the group's largest nimd
 * (half = m + nimd slots per half, slot_offset placing each in a view); a
 * job with fewer IMD taps leaves the extra slots of both halves out. The
 * weights w hold slot k as two vectors, w[2k] the real and w[2k + 1] the
 * imaginary parts of every lane, and so does w_accum. Slots k < full of
 * either half belong to the job of every lane; from full on, keep[k] has
 * a lane's bits set where slot k of either half is one of its job's
 * entries. An idle lane (no job) of the last group repeats the scale,
 * source and observation of lane 0 with zero weights and step size and
 * writes nothing. A lane whose job has a preconditioner steps along its
 * LMS-Newton direction, which update_entry forms from the per-lane
 * coefficients in pre and the slot's layout partner in the shared layout:
 * the partner of a job's entry is that of its slot, or, where the job has
 * fewer IMD taps, a slot whose coefficient is 0 in its lane (lanes_init). */
struct lanes {
    struct run *job[LANES];        /* NULL for an idle lane */
    const double *z[LANES];        /* each lane's source row */
    const double *d[LANES];        /* each lane's observation at step 0 */
    int64_t half, full;            /* the widest and narrowest job's dim / 2 */
    int finite_all, e2;            /* the lanes with a job; any e2 output */
    int newton;                    /* the lanes with a preconditioner */
    vec mu, scale, peak, steady_sum, steady_count, yr, yi, newton_mask;
    vec win_last;                  /* each lane's win_start - 1 */
    int64_t win_first, win_all;    /* the earliest and latest win_start */
    int64_t diverged_at[LANES], next_tap[LANES], tap_first;
    vec *w, *w_accum, *keep, *pre;
    /* the newest samples of the run, newest first from hist[6 pos]; the
     * regressors of steps j and j + 1 are the views now and next into it */
    vec *hist;
    int64_t pos;
    const vec *now, *next;
};

/* The slot of a job's regressor entry s in the shared layout */
static inline int64_t lane_slot(const struct run *b, int64_t half, int64_t s)
{
    int64_t own = b->dim / 2;
    return s < own ? s : s - own + half;
}

/* The real part of regressor slot k (of 2 half) in the history view v: a
 * view holds each sample, newest first, as the six vectors xr, xi, -xi,
 * qr, qi, -qi of x and of its IMD product q. The imaginary part of slot k
 * is at [1] in the first half, and at [2], the conjugate's, in the second. */
static inline int64_t slot_offset(int64_t m, int64_t half, int64_t k)
{
    int64_t e = k < half ? k : k - half;
    return e < m ? 6 * e : 6 * (e - m) + 3;
}

/* numpy's complex absolute value of every lane, max sqrt(1 + (min/max)^2):
 * the same max, min, quotient, fma, sqrt and product, then numpy's exits,
 * last to first, as blends: a zero magnitude gives 0 (where the quotient
 * was 0/0), a NaN part NAN and an infinite part INFINITY. */
static inline vec cabs_lanes(vec re, vec im)
{
    const vec inf = v_set1(INFINITY), zero = v_set1(0.0);
    re = v_abs(re);
    im = v_abs(im);
    vec big = v_max(re, im), small = v_min(im, re);
    vec r = v_div(small, big);
    vec a = v_mul(v_sqrt(v_fmadd(r, r, v_set1(1.0))), big);
    a = v_blend(a, zero, v_eq(big, zero));
    a = v_blend(a, v_set1(NAN), v_unord(re, im));
    return v_blend(a, inf, v_or(v_eq(re, inf), v_eq(im, inf)));
}

/* The reference x = scale z of the source samples (zr, zi) in every lane,
 * each part of z times scale as signals.Draw.reference forms it, and, if
 * imd, its IMD product x_imd = (k15 |x|^2) x as transceiver.imd_sequence
 * rounds it, numpy's real-by-complex product (scale_complex), into
 * x[0 .. 5] = xr, xi, -xi, x_imd_r, x_imd_i, -x_imd_i: the six vectors of a
 * sample in an LMS history view (slot_offset), each conjugate's imaginary
 * part negated bit for bit as np.conj negates it. */
static inline __attribute__((always_inline)) void reference_lanes(
    vec scale, vec zr, vec zi, double k15, int imd, vec *x)
{
    const vec zero = v_set1(0.0);
    vec xr = v_mul(scale, zr), xi = v_mul(scale, zi);
    x[0] = xr;
    x[1] = xi;
    x[2] = v_neg(xi);
    if (imd) {
        vec a = cabs_lanes(xr, xi), t = v_mul(v_set1(k15), v_mul(a, a)),
            yi = v_fmadd(t, xi, v_mul(zero, xr));
        x[3] = v_fmsub(t, xr, v_mul(zero, xi));
        x[4] = yi;
        x[5] = v_neg(yi);
    }
}

/* The vec whose lanes hold the 64-bit patterns bits[] */
static inline vec lanes_mask(const int64_t *bits)
{
    vec mask;
    memcpy(&mask, bits, sizeof mask);
    return mask;
}

/* Point the lanes at jobs[0 .. count - 1], whose step 0 reads sample
 * m - 1 of their rows, and load their start weights and step sizes; set up
 * the layout, masks, windows and preconditioners: pre[2k] and pre[2k + 1]
 * hold each lane's P[k][k] and its coefficient of the partner of slot k (0
 * in the lanes without one). Every other state starts at 0, and no lane
 * has diverged. */
static void lanes_init(struct lanes *g, struct run *jobs, int64_t count, int64_t m)
{
    int64_t newton[LANES] = {0};
    double scale[LANES], mu[LANES] = {0}, last[LANES];
    g->half = 0;
    g->full = g->win_first = g->tap_first = INT64_MAX;
    g->win_all = 0;
    g->finite_all = g->e2 = g->newton = 0;
    for (int l = 0; l < LANES; l++) {
        struct run *b = g->job[l] = l < count ? &jobs[l] : NULL;
        const struct run *rows = b ? b : jobs;
        scale[l] = rows->scale;
        g->z[l] = rows->z;
        g->d[l] = rows->d + 2 * (m - 1);
        last[l] = INFINITY;
        g->next_tap[l] = INT64_MAX;
        g->diverged_at[l] = -1;
        if (!b)
            continue;
        g->finite_all |= 1 << l;
        g->e2 |= b->e2 != NULL;
        if (b->dim / 2 > g->half)
            g->half = b->dim / 2;
        if (b->dim / 2 < g->full)
            g->full = b->dim / 2;
        mu[l] = b->mu;
        last[l] = (double)(b->win_start - 1);
        if (b->win_start < g->win_first)
            g->win_first = b->win_start;
        if (b->win_start > g->win_all)
            g->win_all = b->win_start;
        if (b->tap_buf)
            g->next_tap[l] = g->tap_first = 0;
    }
    for (int64_t k = 0; k < 4 * g->half; k++)
        g->w[k] = g->w_accum[k] = g->pre[k] = v_set1(0.0);
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l];
        if (!b)
            continue;
        if (b->pre) {
            g->newton |= 1 << l;
            newton[l] = -1;
        }
        for (int64_t s = 0; s < b->dim; s++) {
            int64_t k = lane_slot(b, g->half, s);
            ((double *)&g->w[2 * k])[l] = b->w[2 * s];
            ((double *)&g->w[2 * k + 1])[l] = b->w[2 * s + 1];
            if (b->pre) {
                ((double *)&g->pre[2 * k])[l] = b->pre[2 * s];
                ((double *)&g->pre[2 * k + 1])[l] = b->pre[2 * s + 1];
            }
        }
    }
    g->scale = v_load(scale);
    g->mu = v_load(mu);
    g->win_last = v_load(last);
    g->peak = g->steady_sum = g->steady_count = v_set1(0.0);
    g->newton_mask = lanes_mask(newton);
    for (int64_t k = 0; k < g->half; k++) {
        int64_t keep[LANES];
        for (int l = 0; l < LANES; l++)
            keep[l] = g->job[l] && k < g->job[l]->dim / 2 ? -1 : 0;
        g->keep[k] = lanes_mask(keep);
    }
}

/* Store the lanes' weights, window sums and outputs into their jobs */
static void lanes_finish(const struct lanes *g)
{
    double peak[LANES], sum[LANES], count[LANES];
    v_store(peak, g->peak);
    v_store(sum, g->steady_sum);
    v_store(count, g->steady_count);
    for (int l = 0; l < LANES; l++) {
        struct run *b = g->job[l];
        if (!b)
            continue;
        for (int64_t s = 0; s < b->dim; s++) {
            int64_t k = lane_slot(b, g->half, s);
            b->w[2 * s] = ((const double *)&g->w[2 * k])[l];
            b->w[2 * s + 1] = ((const double *)&g->w[2 * k + 1])[l];
            b->w_accum[2 * s] = ((const double *)&g->w_accum[2 * k])[l];
            b->w_accum[2 * s + 1] = ((const double *)&g->w_accum[2 * k + 1])[l];
        }
        /* a run that stayed finite counted every step of its window */
        b->peak = peak[l];
        b->steady_mse = g->diverged_at[l] < 0 ? sum[l] / count[l] : INFINITY;
        b->diverged_at = g->diverged_at[l];
    }
}

/* The per-lane records of step j with residual powers p (finite where the
 * bit of `finite` is set): first non-finite step, e2 and taps, the kept
 * step k's ntaps complex values at tap_buf + 2 k ntaps. */
static void lanes_record(struct lanes *g, int64_t j, vec p, int finite)
{
    double pl[LANES];
    v_store(pl, p);
    g->tap_first = INT64_MAX;
    for (int l = 0; l < LANES; l++) {
        const struct run *b = g->job[l];
        if (!b)
            continue;
        if (!(finite >> l & 1) && g->diverged_at[l] < 0)
            g->diverged_at[l] = j;
        if (b->e2)
            b->e2[j] = pl[l];
        if (j == g->next_tap[l]) {
            double *tb = b->tap_buf + 2 * (j / b->tap_stride) * b->ntaps;
            for (int64_t k = 0; k < b->ntaps; k++) {
                int64_t s = lane_slot(b, g->half, b->taps[k]);
                tb[2 * k] = ((const double *)&g->w[2 * s])[l];
                tb[2 * k + 1] = ((const double *)&g->w[2 * s + 1])[l];
            }
            g->next_tap[l] += b->tap_stride;
        }
        if (g->next_tap[l] < g->tap_first)
            g->tap_first = g->next_tap[l];
    }
}

/* Add the term of a regressor entry (rr, ri) with weights (wr, wi) to the
 * sums yr and yi of reg^T w, (rr wr - ri wi) and (rr wi + ri wr) as einsum
 * sums them, masked by keep if `masked` (see lanes_step) */
static inline __attribute__((always_inline)) void dot_term(
    vec rr, vec ri, vec wr, vec wi, int masked, vec keep, vec *yr, vec *yi)
{
    vec tr = v_sub(v_mul(rr, wr), v_mul(ri, wi)),
        ti = v_add(v_mul(rr, wi), v_mul(ri, wr));
    if (masked) {
        tr = v_and(keep, tr);
        ti = v_and(keep, ti);
    }
    *yr = v_add(*yr, tr);
    *yi = v_add(*yi, ti);
}

/* reg^T w of the regressor view v for every lane, into g->yr and g->yi */
static void lanes_dot(struct lanes *g, int64_t m, const vec *v)
{
    int64_t half = g->half;
    vec yr = v_set1(0.0), yi = v_set1(0.0);
    for (int64_t k = 0; k < 2 * half; k++) {
        int64_t e = k < half ? k : k - half;
        const vec *r = v + slot_offset(m, half, k);
        dot_term(r[0], r[1 + (k >= half)], g->w[2 * k], g->w[2 * k + 1],
                 e >= g->full, g->keep[e], &yr, &yi);
    }
    g->yr = yr;
    g->yi = yi;
}

/* The weight update of slot k, w += m conj(r) with m = mu e, each part of
 * the product an fma() as numpy's complex product rounds it, along conj(r)
 * of the entry r of the view now (ci: the offset of the mirror entry's
 * imaginary part, -r[1], negated bit for bit when the entry was formed),
 * or, if newton, in the lanes of g->newton_mask along the LMS-Newton
 * direction P[k][k] conj(r) + P[k][partner] conj(r_partner), each term
 * numpy's real-by-complex product (scale_complex), the partner's entry at
 * r[pe]; the new weights go to w, join the sums yr and yi of reg^T w of
 * the same entry x of the view next (im: the offset of its imaginary part;
 * masked by keep if `masked`), and join the window sums w_accum: none if
 * sum is 0, masked by `in` if it is 1. */
static inline __attribute__((always_inline)) void update_entry(
    const struct lanes *g, int newton, const vec *r, int64_t pe,
    const vec *x, int64_t im, int64_t ci, int64_t k, vec mr, vec mi,
    int masked, vec keep, int sum, vec in, vec *yr, vec *yi)
{
    const vec zero = v_set1(0.0);
    vec *w = g->w, *w_accum = g->w_accum;
    vec cr = r[0], cim = r[ci];
    if (newton) {
        vec p0 = g->pre[2 * k], p1 = g->pre[2 * k + 1], pr = r[pe], pim = r[pe + ci];
        vec c0 = v_add(v_fmsub(p0, cr, v_mul(zero, cim)),
                       v_fmsub(p1, pr, v_mul(zero, pim))),
            c1 = v_add(v_fmadd(p0, cim, v_mul(zero, cr)),
                       v_fmadd(p1, pim, v_mul(zero, pr)));
        cr = v_blend(cr, c0, g->newton_mask);
        cim = v_blend(cim, c1, g->newton_mask);
    }
    vec dr = v_fmsub(mr, cr, v_mul(mi, cim)), di = v_fmadd(mr, cim, v_mul(mi, cr));
    vec wr = v_add(w[2 * k], dr), wi = v_add(w[2 * k + 1], di);
    w[2 * k] = wr;
    w[2 * k + 1] = wi;
    dot_term(x[0], x[im], wr, wi, masked, keep, yr, yi);
    if (sum == 1) {
        wr = v_and(in, wr);
        wi = v_and(in, wi);
    }
    if (sum) {
        w_accum[2 * k] = v_add(w_accum[2 * k], wr);
        w_accum[2 * k + 1] = v_add(w_accum[2 * k + 1], wi);
    }
}

/* Step j for every lane, on its regressor in the view g->now
 * (2 half slots) and its observation, with g->yr and g->yi holding reg^T w
 * of that regressor, along the LMS-Newton directions if newton (some lane
 * has a preconditioner); g->yr and g->yi are left holding reg^T w of the
 * view g->next, the regressor of step j + 1, with the new weights: each
 * slot's new weight joins that sum as soon as it is formed, in einsum's
 * order. Where a lane leaves a slot out, its terms are masked to +0: the
 * sums they would join start at +0 and so are never -0 (x + y is -0 only
 * if x and y both are), and such a sum plus +0 is the sum itself. The
 * left-out weights are updated like the others but are read only through
 * those masks, and never stored back. Before its window starts, a lane's
 * window sums are masked the same way. */
static inline __attribute__((always_inline)) void lanes_step(
    struct lanes *g, int64_t j, int64_t m, int newton)
{
    const vec *r = g->now, *next = g->next;
    const vec zero = v_set1(0.0);
    const vec *keep = g->keep;
    const int64_t half = g->half, full = g->full;
    vec er = v_sub(v_gather(g->d, 2 * j), g->yr),
        ei = v_sub(v_gather(g->d, 2 * j + 1), g->yi);
    vec mr = v_fmsub(g->mu, er, v_mul(zero, ei)), mi = v_fmadd(g->mu, ei, v_mul(zero, er));
    vec yr = zero, yi = zero;
    /* the window sums of the new weights: none before the first window
     * starts, masked until the last one starts */
    int sum = (j >= g->win_first) + (j >= g->win_all);
    vec in = v_lt(g->win_last, v_set1((double)j));
    for (int64_t h = 0; h < 2; h++) {
        /* the offsets of an entry's imaginary part and its mirror's; the
         * partner of x(n-e) is x_imd(n-e), 3 further on, for e < half - m */
        int64_t im = 1 + h, ci = 2 - h, k = h * half;
        for (int64_t e = 0; e < 6 * m; e += 6, k++)
            update_entry(g, newton, r + e, e < 6 * (half - m) ? 3 : 0, next + e,
                         im, ci, k, mr, mi, 0, zero, sum, in, &yr, &yi);
        for (int64_t e = 3; e < 6 * (full - m); e += 6, k++)
            update_entry(g, newton, r + e, -3, next + e, im, ci, k, mr, mi, 0,
                         zero, sum, in, &yr, &yi);
        for (int64_t e = 6 * (full - m) + 3; e < 6 * (half - m); e += 6, k++)
            update_entry(g, newton, r + e, -3, next + e, im, ci, k, mr, mi, 1,
                         keep[k - h * half], sum, in, &yr, &yi);
    }
    g->yr = yr;
    g->yi = yi;
    vec a = cabs_lanes(er, ei), p = v_mul(a, a);
    vec ok = v_lt(p, v_set1(INFINITY));
    int finite = v_movemask(ok);
    if ((finite & g->finite_all) != g->finite_all || g->e2 || j >= g->tap_first)
        lanes_record(g, j, p, finite);
    g->peak = v_max(v_blend(v_set1(INFINITY), p, ok), g->peak);
    if (sum) {
        in = v_and(in, ok);
        g->steady_sum = v_add(g->steady_sum, v_and(in, p));
        g->steady_count = v_add(g->steady_count, v_and(in, v_set1(1.0)));
    }
}

/* Enter sample s of every lane's source row into the history of the lanes
 * of g as its newest sample, and return the view of its regressor: each
 * lane's x = scale z(s) and, if the group has IMD taps, its IMD product
 * (reference_lanes). Every `spare` samples the m - 1 newest move to the far
 * end of the history. */
static inline __attribute__((always_inline)) const vec *lanes_push(
    struct lanes *g, int64_t m, int64_t spare, double k15, int64_t s)
{
    if (g->pos == 0) {
        g->pos = spare + 1;
        memcpy(g->hist + 6 * g->pos, g->hist, 6 * (m - 1) * sizeof(vec));
    }
    vec *e = g->hist + 6 * --g->pos;
    reference_lanes(g->scale, v_gather(g->z, 2 * s), v_gather(g->z, 2 * s + 1),
                    k15, g->half > m, e);
    return e;
}

/* The jobs runs[0 .. jobs - 1] of one call, each one trial's run: every
 * job runs the steps of runs[0], step j on the regressor of sample
 * j + m - 1 of its reference x = scale z (reference_lanes), with the m of
 * the call and its own nimd = dim / 2 - m. The jobs run in groups of
 * LANES, one group after another; a group steps its lanes together, each
 * on its own regressor, each job returning the bits it returns alone.
 * Returns 1, or 0, having run nothing, if the lanes' state cannot be
 * allocated. */
int64_t lms_raw(int64_t m, double k15, int64_t jobs, struct run *runs)
{
    int64_t half = m;
    for (int64_t r = 0; r < jobs; r++)
        if (runs[r].dim / 2 > half)
            half = runs[r].dim / 2;
    /* w, w_accum and pre (4 half vectors each), keep (half) and a history
     * of spare + m samples, on the heap: m has no bound */
    const int64_t spare = m > 32 ? m : 32;
    vec *state = aligned_alloc(sizeof(vec), (13 * half + 6 * (spare + m)) * sizeof(vec));
    if (!state)
        return 0;
    struct lanes g;
    g.w = state;
    g.w_accum = state + 4 * half;
    g.keep = state + 8 * half;
    g.pre = state + 9 * half;
    g.hist = state + 13 * half;
    const int64_t steps = runs[0].steps;
    for (int64_t first = 0; first < jobs; first += LANES) {
        lanes_init(&g, runs + first, jobs - first, m);
        g.pos = spare + m;
        for (int64_t j = 0; j < m; j++)
            g.now = lanes_push(&g, m, spare, k15, j);
        lanes_dot(&g, m, g.now);
        for (int64_t j = 0; j < steps; j++) {
            /* the last step's next is never read: any view serves */
            g.next = j + 1 < steps ? lanes_push(&g, m, spare, k15, j + m) : g.now;
            if (g.newton)
                lanes_step(&g, j, m, 1);
            else
                lanes_step(&g, j, m, 0);
            g.now = g.next;
        }
        lanes_finish(&g);
    }
    free(state);
    return 1;
}

/* The samples per block of the render, a multiple of LANES */
#define RB 256

/* The LANES complex values of p, of which only the first count (at most
 * LANES) are read, the others 0, as the vectors re and im of their parts */
static inline void load_valid(const double *p, int64_t count, vec *re, vec *im)
{
    if (count < LANES) {
        double part[2 * LANES] = {0};
        v_load2(memcpy(part, p, 2 * count * sizeof(double)), re, im);
    } else {
        v_load2(p, re, im);
    }
}

/* Store the first count (at most LANES) complex values of (re, im) at p */
static inline void store_valid(double *p, int64_t count, vec re, vec im)
{
    double part[2 * LANES];
    v_store2(count < LANES ? part : p, re, im);
    if (count < LANES)
        memcpy(p, part, 2 * count * sizeof(double));
}

/* The FIR outputs sum_k h(k) v(i - k) and sum_k g(k) v*(i - k) over count
 * taps of LANES consecutive samples i of v, the first at re[0], im[0] and
 * cim[0] (the planar real, imaginary and negated imaginary parts of v), into
 * c[0 .. 3]: the real and imaginary parts of each, a sample of
 * np.convolve(h, v) and np.convolve(g, conj(v)). numpy correlates v with
 * the reversed taps, one zdotu per output over the oldest-first window, and
 * OpenBLAS sums a short zdotu in four FMA accumulators. */
static inline __attribute__((always_inline)) void fir_lanes(
    int64_t count, const double *h, const double *g, const double *re,
    const double *im, const double *cim, vec *c)
{
    const vec zero = v_set1(0.0);
    vec a0 = zero, a1 = zero, a2 = zero, a3 = zero,
        b0 = zero, b1 = zero, b2 = zero, b3 = zero;
    for (int64_t k = count - 1; k >= 0; k--) {
        vec vr = v_load(re - k), vi = v_load(im - k), vc = v_load(cim - k);
        vec hr = v_set1(h[2 * k]), hi = v_set1(h[2 * k + 1]),
            gr = v_set1(g[2 * k]), gi = v_set1(g[2 * k + 1]);
        a0 = v_fmadd(vr, hr, a0);
        a1 = v_fmadd(vi, hi, a1);
        a2 = v_fmadd(vr, hi, a2);
        a3 = v_fmadd(vi, hr, a3);
        b0 = v_fmadd(vr, gr, b0);
        b1 = v_fmadd(vc, gi, b1);
        b2 = v_fmadd(vr, gi, b2);
        b3 = v_fmadd(vc, gr, b3);
    }
    c[0] = v_add(zero, v_sub(a0, a1));
    c[1] = v_add(zero, v_add(a2, a3));
    c[2] = v_add(zero, v_sub(b0, b1));
    c[3] = v_add(zero, v_add(b2, b3));
}

/* One observation of a render call: the reference x = scale z of the
 * call's source row z, the channel taps h and g (m each) and h_imd and
 * g_imd (nimd < m each), k15 = k_tiq^{3/2}, the scales noise[0..2] of the
 * thermal, the quantization and the SOI noise, the row d (n samples) that
 * receives the observation and, if not NULL, comp, (7, n), that receives
 * its components. */
struct point {
    int64_t m, nimd;
    double scale, k15;
    const double *h, *g, *h_imd, *g_imd, *noise;
    double *d, *comp;
};

/* Render the observations pts[0 .. count - 1] of the source row z (n
 * samples), each as transceiver.render_observation defines it, then draw
 * their noise once. Each point's x and x_imd are formed (reference_lanes) a
 * block of RB samples at a time, as planar rows behind the m - 1 samples
 * before the block, which are 0 before sample 0; the last block is padded
 * with zeros to a multiple of LANES. Each lane of the FIRs is one output
 * sample, summed over all m (or nimd) taps: a tap that reaches before
 * sample 0 adds the exact product of a finite tap and 0 to an accumulator
 * that is still +0, which leaves it +0, as the shorter sum of numpy leaves
 * it. The noise is drawn from the generator whose state s holds (advanced
 * past the draws): n standard normals for each of the real then the
 * imaginary parts of the thermal, the quantization and (if soi) the SOI
 * noise. Each normal is drawn once and added to the row d of every point,
 * scaled by that point's noise[k], so every point gets the operations, and
 * the bits, it gets alone. d receives the sum of the seven components in
 * the order 0 + linear + image + imd + image_imd + thermal + quantization +
 * soi, the noise parts added as they are drawn (see add_normals; adding the
 * absent SOI, 0.0, leaves the sum as it is). comp receives the components,
 * each noise component scaled from its stored draws by numpy's product.
 * Returns 1, or 0, having rendered and drawn nothing, if the block rows
 * cannot be allocated: they hold m - 1 + RB samples each for the longest
 * channel, and m has no bound. */
int64_t render(int64_t n, const double *z, uint64_t *s, int64_t soi, int64_t count,
               const struct point *pts)
{
    int64_t longest = 1;
    for (int64_t p = 0; p < count; p++)
        if (pts[p].m > longest)
            longest = pts[p].m;
    /* six rows: xr, xi, -xi and those of x_imd, as reference_lanes forms them */
    double *x = malloc(6 * (longest - 1 + RB) * sizeof(double));
    if (!x)
        return 0;
    const vec zero = v_set1(0.0);
    for (int64_t p = 0; p < count; p++) {
        const struct point *q = &pts[p];
        const int64_t past = q->m - 1, len = past + RB, rows = q->nimd > 0 ? 6 : 3;
        memset(x, 0, 6 * len * sizeof(double));
        for (int64_t b = 0; b < n; b += RB) {
            int64_t size = n - b < RB ? n - b : RB;
            if (b > 0)
                for (int64_t r = 0; r < rows; r++)
                    memmove(x + r * len, x + r * len + RB, past * sizeof(double));
            for (int64_t t = 0; t < size; t += LANES) {
                vec zr, zi, v[6];
                load_valid(z + 2 * (b + t), size - t, &zr, &zi);
                reference_lanes(v_set1(q->scale), zr, zi, q->k15, q->nimd > 0, v);
                for (int64_t r = 0; r < rows; r++)
                    v_store(x + r * len + past + t, v[r]);
            }
            for (int64_t t = 0; t < size; t += LANES) {
                const double *xt = x + past + t;
                vec c[8];
                fir_lanes(q->m, q->h, q->g, xt, xt + len, xt + 2 * len, c);
                fir_lanes(q->nimd, q->h_imd, q->g_imd, xt + 3 * len, xt + 4 * len,
                          xt + 5 * len, c + 4);
                vec dr = zero, di = zero;
                for (int64_t k = 0; k < 4; k++) {
                    dr = v_add(dr, c[2 * k]);
                    di = v_add(di, c[2 * k + 1]);
                }
                store_valid(q->d + 2 * (b + t), size - t, dr, di);
                if (q->comp)
                    for (int64_t k = 0; k < 4; k++)
                        store_valid(q->comp + 2 * (k * n + b + t), size - t, c[2 * k],
                                    c[2 * k + 1]);
            }
        }
    }
    free(x);
    struct pcg64 gen = pcg64_load(s);
    double v[RB];
    for (int64_t k = 0; k < (soi ? 3 : 2); k++)
        for (int64_t part = 0; part < 2; part++)
            for (int64_t b = 0; b < n; b += RB) {
                int64_t size = n - b < RB ? n - b : RB;
                for (int64_t i = 0; i < size; i++)
                    v[i] = normal(&gen);
                for (int64_t p = 0; p < count; p++) {
                    double *w = pts[p].comp;
                    add_normals(size, pts[p].noise[k], v, pts[p].d + 2 * b + part,
                                w ? w + 2 * ((4 + k) * n + b) + part : NULL);
                }
            }
    pcg64_store(&gen, s);
    for (int64_t p = 0; p < count; p++) {
        double *w = pts[p].comp;
        if (!w)
            continue;
        for (int64_t k = 0; k < (soi ? 3 : 2); k++)
            for (int64_t i = (4 + k) * n; i < (5 + k) * n; i++)
                scale_complex(pts[p].noise[k], w[2 * i], w[2 * i + 1], w + 2 * i);
        if (!soi)
            memset(w + 2 * 6 * n, 0, 2 * n * sizeof(double));
    }
    return 1;
}
