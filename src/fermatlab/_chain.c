/* The checked squaring chain x -> x*x - c mod F = 2**b + 1 on GMP limbs,
   run a block of steps per call, or as a job on a thread of its own.

   fermatlab.arith compiles this file with the system C compiler and calls
   it through ctypes.  It includes no GMP header: GMP is reached through the
   function pointers of struct gmp, which arith fills from the loaded
   libgmp.  It links no libm and keeps no static state.  Every buffer it
   reads or writes (the residue, the step's work space, the FFT plan, the
   trace and a job) belongs to Python for the chain's whole life.  A job is
   the one thing that starts a thread: a POSIX thread that runs a chain's
   steps in blocks, which its join ends, and which calls no Python. */

#include <pthread.h>
#include <semaphore.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef uint64_t limb;

struct gmp {
    void (*sqr)(limb *rp, const limb *up, long n);
    limb (*mod_1)(const limb *up, long n, limb d);
    limb (*sub_n)(limb *rp, const limb *up, const limb *vp, long n);
    limb (*add_1)(limb *rp, const limb *up, long n, limb v);
    limb (*sub_1)(limb *rp, const limb *up, long n, limb v);
};

struct chain {
    const struct gmp *gmp;
    limb *r;       /* L + 1 limbs, the current item; the top limb is 1 only for 2**b */
    void *work;    /* mpn_sqr's 2L-limb square, or the FFT's 2L points (2L real parts, then 2L imaginary) and 2L carry limbs */
    const double *plan;  /* the FFT's 2L weights and its twiddles, or NULL to square with mpn_sqr */
    const uint64_t *powers;  /* with the FFT, 2**(32j) mod q for j < 2L as mod_by_powers reads them, or NULL to take y mod d with mpn_mod_1 */
    long size;     /* L = b / 64; an item's trace bytes are 8L + 1 */
    limb c;        /* the constant subtracted each step */
    limb d;        /* the check divisor: a prime p, or with the FFT a divisor q of F, which may be composite */
    limb f_d;      /* F mod d */
    limb x_d;      /* the current item mod d */
    double error;  /* the largest distance from an integer that an FFT step of this chain rounded */
};

enum { ABOVE = -1, WRONG = -2, INEXACT = -3, CANCELLED = -4, RUNNING = -5 };

/* The FFT's clones for x86-64-v4 (AVX-512), x86-64-v3 (AVX2 and FMA) and
   the baseline, picked once at load time through an ifunc, where GCC and
   glibc provide one; any other target builds the one plain version, as does
   -DCLONED= (with a -march of its own, one ISA level alone).  BY_CPU marks
   the cloned build, whose code paths the CPU picks.  A build of one level
   alone runs that level's stages and carry, never the AVX-512 rows or the
   IFMA reduction; -DVECTOR_LEAF=1 puts the leaf in, in that level's code,
   to check its arithmetic on a CPU without AVX-512.  Every load is
   unaligned-safe: Python places the buffers on page boundaries, or a fixed
   distance past one, for speed only. */
#ifndef CLONED
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define BY_CPU
#else
#define CLONED
#endif
#endif

/* Whether fft_square carries in vector passes: where its code is AVX2 or
   wider, in the v4 and v3 clones, which the ifunc picks on a CPU that
   __builtin_cpu_supports calls x86-64-v3, or in a build for such a level
   alone.  At n = 16 they take 1.8k cycles against the serial loop's 4.8k
   in v4 code, but in SSE2 code they are slower, so the serial loop stays
   there. */
#ifdef BY_CPU
#define VECTOR_CARRY __builtin_cpu_supports("x86-64-v3")
#elif defined(__AVX2__)
#define VECTOR_CARRY 1
#else
#define VECTOR_CARRY 0
#endif

/* Whether fft_square runs its pair passes as conjugate-pair vector code and
   squares eight leaves at once in transposed registers (square_leaves): in
   AVX-512 code, the v4 clone, which the ifunc picks on a CPU that
   __builtin_cpu_supports calls x86-64-v4.  The old stages below h = 8 and
   the pair passes at q = 4 run loops of 4 or fewer points, which GCC
   vectorizes poorly: at n = 16 fft_square takes 10.8k TSC cycles in
   AVX-512 code, where the old stages took 15.3k.  Built for v3 or SSE2 the
   vector code runs 2.2-2.6x slower than those levels' own stages, so they
   keep them, and a build of one level alone runs it only with
   -DVECTOR_LEAF=1. */
#ifdef BY_CPU
#define VECTOR_LEAF __builtin_cpu_supports("x86-64-v4")
#elif !defined(VECTOR_LEAF)
#define VECTOR_LEAF 0
#endif

static int is_zero(const limb *r, long n)
{
    for (long i = 0; i < n; i++)
        if (r[i])
            return 0;
    return 1;
}

/* The FFT's butterflies.  Each works on the points x and y at j < h of
   one block, as real parts xr, yr and imaginary xi, yi, with the twiddles
   w (wr, wi) of its stage at j: forward (decimation in frequency) x + y,
   (x - y) * w, and back (decimation in time, conjugate twiddles)
   x + y * w', x - y * w'.  The pairs run two stages in one pass over the
   points x0 .. x3 at j < q, four quarters of a block: stage 2q, whose
   twiddle at j + q is -i * w_j, then stage q with twiddles v; and back. */
static inline void forward_block(double *restrict xr, double *restrict xi, double *restrict yr, double *restrict yi,
                                 const double *restrict wr, const double *restrict wi, long h)
{
    for (long j = 0; j < h; j++) {
        double dr = xr[j] - yr[j], di = xi[j] - yi[j];
        xr[j] += yr[j];
        xi[j] += yi[j];
        yr[j] = dr * wr[j] - di * wi[j];
        yi[j] = dr * wi[j] + di * wr[j];
    }
}

static inline void inverse_block(double *restrict xr, double *restrict xi, double *restrict yr, double *restrict yi,
                                 const double *restrict wr, const double *restrict wi, long h)
{
    for (long j = 0; j < h; j++) {
        double br = yr[j] * wr[j] + yi[j] * wi[j], bi = yi[j] * wr[j] - yr[j] * wi[j];
        yr[j] = xr[j] - br;
        yi[j] = xi[j] - bi;
        xr[j] += br;
        xi[j] += bi;
    }
}

static inline void forward_pair_block(double *restrict r0, double *restrict r1, double *restrict r2, double *restrict r3,
                                      double *restrict i0, double *restrict i1, double *restrict i2, double *restrict i3,
                                      const double *restrict wr, const double *restrict wi,
                                      const double *restrict vr, const double *restrict vi, long q)
{
    for (long j = 0; j < q; j++) {
        double ar = r0[j] + r2[j], ai = i0[j] + i2[j], br = r1[j] + r3[j], bi = i1[j] + i3[j];
        double cr = r0[j] - r2[j], ci = i0[j] - i2[j], dr = r1[j] - r3[j], di = i1[j] - i3[j];
        double c2r = cr * wr[j] - ci * wi[j], c2i = cr * wi[j] + ci * wr[j];
        double d2r = di * wr[j] + dr * wi[j], d2i = di * wi[j] - dr * wr[j];  /* d * -i * w */
        double er = ar - br, ei = ai - bi, fr = c2r - d2r, fi = c2i - d2i;
        r0[j] = ar + br;
        i0[j] = ai + bi;
        r1[j] = er * vr[j] - ei * vi[j];
        i1[j] = er * vi[j] + ei * vr[j];
        r2[j] = c2r + d2r;
        i2[j] = c2i + d2i;
        r3[j] = fr * vr[j] - fi * vi[j];
        i3[j] = fr * vi[j] + fi * vr[j];
    }
}

static inline void inverse_pair_block(double *restrict r0, double *restrict r1, double *restrict r2, double *restrict r3,
                                      double *restrict i0, double *restrict i1, double *restrict i2, double *restrict i3,
                                      const double *restrict wr, const double *restrict wi,
                                      const double *restrict vr, const double *restrict vi, long q)
{
    for (long j = 0; j < q; j++) {
        double br = r1[j] * vr[j] + i1[j] * vi[j], bi = i1[j] * vr[j] - r1[j] * vi[j];
        double dr = r3[j] * vr[j] + i3[j] * vi[j], di = i3[j] * vr[j] - r3[j] * vi[j];
        double ar = r0[j] + br, ai = i0[j] + bi, er = r0[j] - br, ei = i0[j] - bi;
        double cr = r2[j] + dr, ci = i2[j] + di, fr = r2[j] - dr, fi = i2[j] - di;
        double c2r = cr * wr[j] + ci * wi[j], c2i = ci * wr[j] - cr * wi[j];
        double f2r = fi * wr[j] - fr * wi[j], f2i = -(fr * wr[j] + fi * wi[j]);  /* -i * f * w' */
        r0[j] = ar + c2r;
        i0[j] = ai + c2i;
        r2[j] = ar - c2r;
        i2[j] = ai - c2i;
        r1[j] = er - f2r;
        i1[j] = ei - f2i;
        r3[j] = er + f2r;
        i3[j] = ei + f2i;
    }
}

/* The last two forward stages (twiddles 1, -i and 1), the pointwise
   square and the first two inverse stages (1 and 1, i), four points at a
   time. */
static inline void square_fours(double *restrict re, double *restrict im, long m)
{
    for (long s = 0; s < m; s += 4) {
        double ar = re[s] + re[s + 2], ai = im[s] + im[s + 2], br = re[s + 1] + re[s + 3], bi = im[s + 1] + im[s + 3];
        double cr = re[s] - re[s + 2], ci = im[s] - im[s + 2], dr = im[s + 1] - im[s + 3], di = re[s + 3] - re[s + 1];
        double z0r = ar + br, z0i = ai + bi, z1r = ar - br, z1i = ai - bi;
        double z2r = cr + dr, z2i = ci + di, z3r = cr - dr, z3i = ci - di;
        double s0r = z0r * z0r - z0i * z0i, s0i = 2 * z0r * z0i, s1r = z1r * z1r - z1i * z1i, s1i = 2 * z1r * z1i;
        double s2r = z2r * z2r - z2i * z2i, s2i = 2 * z2r * z2i, s3r = z3r * z3r - z3i * z3i, s3i = 2 * z3r * z3i;
        ar = s0r + s1r, ai = s0i + s1i, br = s0r - s1r, bi = s0i - s1i;
        cr = s2r + s3r, ci = s2i + s3i, dr = s3i - s2i, di = s2r - s3r;
        re[s] = ar + cr, im[s] = ai + ci, re[s + 2] = ar - cr, im[s + 2] = ai - ci;
        re[s + 1] = br + dr, im[s + 1] = bi + di, re[s + 3] = br - dr, im[s + 3] = bi - di;
    }
}

/* The vector code: points as vectors of 8 doubles, real parts r and
   imaginary i.  The helpers take every vector through a pointer, so none is
   passed by value (no psABI question in SSE2 or AVX2 code), and are always
   inlined, so the constants stay in registers. */
typedef double v8 __attribute__((vector_size(64)));
typedef int64_t lanes8 __attribute__((vector_size(64)));
#define LEAF static inline __attribute__((always_inline))

LEAF void leaf_load(v8 *r, v8 *i, const double *xr, const double *xi)
{
    memcpy(r, xr, sizeof *r);
    memcpy(i, xi, sizeof *i);
}

LEAF void leaf_store(double *xr, double *xi, const v8 *r, const v8 *i)
{
    memcpy(xr, r, sizeof *r);
    memcpy(xi, i, sizeof *i);
}

LEAF void leaf_square(v8 *r, v8 *i)
{
    v8 sr = *r * *r - *i * *i;
    *i = (*r + *r) * *i;
    *r = sr;
}

/* Multiplies (r, i) by w, and by w', its conjugate. */
LEAF void leaf_times(v8 *r, v8 *i, const v8 *wr, const v8 *wi)
{
    v8 t = *r * *wr - *i * *wi;
    *i = *r * *wi + *i * *wr;
    *r = t;
}

LEAF void leaf_times_conj(v8 *r, v8 *i, const v8 *wr, const v8 *wi)
{
    v8 t = *r * *wr + *i * *wi;
    *i = *i * *wr - *r * *wi;
    *r = t;
}

/* A pair pass in vectors, over the points x0 .. x3 at j < q of each block
   of 4q, q a multiple of 8: stages 2q and q as one conjugate-pair radix-4
   (Kamar and Elcherif, 1989).  With a = x0 + x2, b = x1 + x3, c = x0 - x2
   and d = x1 - x3, forward writes a + b, (a - b) * v, (c - i*d) * w and
   (c + i*d) * w', where forward_pair_block writes (c + i*d) * w**3; back
   undoes each. */
LEAF void pair_pass(double *restrict xr, double *restrict xi, long m, long q, const double *tr, const double *ti,
                    int forward)
{
    const double *wr = tr + 2 * q, *wi = ti + 2 * q, *vr = tr + q, *vi = ti + q;
    for (long s = 0; s < m; s += 4 * q)
        for (long j = 0; j < q; j += 8) {
            double *r = xr + s + j, *i = xi + s + j;
            v8 r0, r1, r2, r3, i0, i1, i2, i3, w_r, w_i, v_r, v_i;
            leaf_load(&r0, &i0, r, i);
            leaf_load(&r1, &i1, r + q, i + q);
            leaf_load(&r2, &i2, r + 2 * q, i + 2 * q);
            leaf_load(&r3, &i3, r + 3 * q, i + 3 * q);
            leaf_load(&w_r, &w_i, wr + j, wi + j);
            leaf_load(&v_r, &v_i, vr + j, vi + j);
            if (forward) {
                v8 ar = r0 + r2, ai = i0 + i2, br = r1 + r3, bi = i1 + i3;
                v8 cr = r0 - r2, ci = i0 - i2, dr = r1 - r3, di = i1 - i3;
                r0 = ar + br, i0 = ai + bi, r1 = ar - br, i1 = ai - bi;
                r2 = cr + di, i2 = ci - dr, r3 = cr - di, i3 = ci + dr;
                leaf_times(&r1, &i1, &v_r, &v_i);
                leaf_times(&r2, &i2, &w_r, &w_i);
                leaf_times_conj(&r3, &i3, &w_r, &w_i);
            } else {
                leaf_times_conj(&r1, &i1, &v_r, &v_i);
                leaf_times_conj(&r2, &i2, &w_r, &w_i);
                leaf_times(&r3, &i3, &w_r, &w_i);
                v8 ar = r0 + r1, ai = i0 + i1, br = r0 - r1, bi = i0 - i1;
                v8 cr = r2 + r3, ci = i2 + i3, dr = i3 - i2, di = r2 - r3;  /* d = i * (x2 - x3) */
                r0 = ar + cr, i0 = ai + ci, r2 = ar - cr, i2 = ai - ci;
                r1 = br + dr, i1 = bi + di, r3 = br - dr, i3 = bi - di;
            }
            leaf_store(r, i, &r0, &i0);
            leaf_store(r + q, i + q, &r1, &i1);
            leaf_store(r + 2 * q, i + 2 * q, &r2, &i2);
            leaf_store(r + 3 * q, i + 3 * q, &r3, &i3);
        }
}

/* Eight leaves at once: rows x[0] .. x[7] of 8 points each, transposed so
   that x[k] holds point k of every row, take each stage as butterflies
   between whole vectors.  leaf_swap exchanges lane l + d of a with lane l
   of b for every lane l without bit d, through masks whose lanes 0..7 pick
   from a and 8..15 from b.  Three such rounds, d = 4, 2 and 1, in any
   order, transpose the rows, and each round undoes itself.  Rows loaded
   and stored as halves (leaf_load_rows, leaf_store_rows) take round 4, and
   leaf_transpose the other two. */
LEAF void leaf_swap(v8 *a, v8 *b, const lanes8 *lo, const lanes8 *hi)
{
    v8 t = __builtin_shuffle(*a, *b, *lo);
    *b = __builtin_shuffle(*a, *b, *hi);
    *a = t;
}

LEAF void leaf_transpose(v8 *x)
{
    const lanes8 lo2 = {0, 1, 8, 9, 4, 5, 12, 13}, hi2 = {2, 3, 10, 11, 6, 7, 14, 15};
    const lanes8 lo1 = {0, 8, 2, 10, 4, 12, 6, 14}, hi1 = {1, 9, 3, 11, 5, 13, 7, 15};
    for (int k = 0; k < 8; k++)
        if (!(k & 2))
            leaf_swap(x + k, x + k + 2, &lo2, &hi2);
    for (int k = 0; k < 8; k += 2)
        leaf_swap(x + k, x + k + 1, &lo1, &hi1);
}

/* Rows a and b as 256-bit halves: lo gets the low halves of a and b, and
   hi their high halves, and the stores put each half back.  GCC 12 builds
   these from vector-extension code (memcpy halves, concatenating
   __builtin_shufflevector, or loads blended by __builtin_shuffle) with
   vshuff64x2 in registers, which cost the leaf more than the round saves;
   so in the cloned build they are intrinsics, vinsertf64x4 from memory and
   vextractf64x4 to it.  Those sit in functions of target avx512f that
   take every vector through a pointer, so no vector crosses a call by
   value: the v4 clone inlines them, and the v3 and baseline clones hold
   calls that never run, as VECTOR_LEAF is false wherever the ifunc picks
   them.  Elsewhere the halves are plain memcpys: in SSE2 or AVX2 code, as
   in the SSE2 leaf build, a v8 is four or two registers and they cost
   nothing. */
#ifdef BY_CPU
#include <immintrin.h>
#define ROWS static inline __attribute__((target("avx512f")))
ROWS void leaf_load_rows(v8 *lo, v8 *hi, const double *a, const double *b)
{
    *lo = _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(a)), _mm256_loadu_pd(b), 1);
    *hi = _mm512_insertf64x4(_mm512_castpd256_pd512(_mm256_loadu_pd(a + 4)), _mm256_loadu_pd(b + 4), 1);
}

ROWS void leaf_store_rows(double *a, double *b, const v8 *lo, const v8 *hi)
{
    _mm256_storeu_pd(a, _mm512_castpd512_pd256(*lo));
    _mm256_storeu_pd(b, _mm512_extractf64x4_pd(*lo, 1));
    _mm256_storeu_pd(a + 4, _mm512_castpd512_pd256(*hi));
    _mm256_storeu_pd(b + 4, _mm512_extractf64x4_pd(*hi, 1));
}
#else
LEAF void leaf_load_rows(v8 *lo, v8 *hi, const double *a, const double *b)
{
    memcpy(lo, a, 32);
    memcpy((double *)lo + 4, b, 32);
    memcpy(hi, a + 4, 32);
    memcpy((double *)hi + 4, b + 4, 32);
}

LEAF void leaf_store_rows(double *a, double *b, const v8 *lo, const v8 *hi)
{
    memcpy(a, lo, 32);
    memcpy(b, (const double *)lo + 4, 32);
    memcpy(a + 4, hi, 32);
    memcpy(b + 4, (const double *)hi + 4, 32);
}
#endif

/* The butterflies between points x and y: x + y and x - y; the same with
   y * -i = (yi, -yr), a forward twiddle of -i that the stage before left on
   y; and its inverse, x + y and i * (x - y). */
LEAF void leaf_add_sub(v8 *xr, v8 *xi, v8 *yr, v8 *yi)
{
    v8 dr = *xr - *yr, di = *xi - *yi;
    *xr += *yr;
    *xi += *yi;
    *yr = dr;
    *yi = di;
}

LEAF void leaf_add_sub_minus_i(v8 *xr, v8 *xi, v8 *yr, v8 *yi)
{
    v8 dr = *xr - *yi, di = *xi + *yr;
    *xr += *yi;
    *xi -= *yr;
    *yr = dr;
    *yi = di;
}

LEAF void leaf_add_sub_times_i(v8 *xr, v8 *xi, v8 *yr, v8 *yi)
{
    v8 dr = *yi - *xi, di = *xr - *yr;
    *xr += *yr;
    *xi += *yi;
    *yr = dr;
    *yi = di;
}

/* Stage 4's twiddles other than 1 and -i: sqrt(1/2) * (1 - i) on point 5
   and -sqrt(1/2) * (1 + i) on point 7, forward, and their conjugates back. */
#define ROOT_HALF 0.70710678118654752440
LEAF void leaf_twiddle(v8 *r5, v8 *i5, v8 *r7, v8 *i7)
{
    v8 t = (*r5 + *i5) * ROOT_HALF;
    *i5 = (*i5 - *r5) * ROOT_HALF;
    *r5 = t;
    t = (*i7 - *r7) * ROOT_HALF;
    *i7 = (*r7 + *i7) * -ROOT_HALF;
    *r7 = t;
}

LEAF void leaf_untwiddle(v8 *r5, v8 *i5, v8 *r7, v8 *i7)
{
    v8 t = (*r5 - *i5) * ROOT_HALF;
    *i5 = (*r5 + *i5) * ROOT_HALF;
    *r5 = t;
    t = (*r7 + *i7) * -ROOT_HALF;
    *i7 = (*r7 - *i7) * ROOT_HALF;
    *r7 = t;
}

/* Stages 4, 2 and 1 of eight transposed leaves, the pointwise square and
   the inverse stages.  Stage 4's -i on point 6 and stage 2's on points 3
   and 7 are taken in the next stage's butterflies. */
LEAF void leaf_stages(v8 *r, v8 *i)
{
    for (int j = 0; j < 4; j++)
        leaf_add_sub(r + j, i + j, r + j + 4, i + j + 4);
    leaf_twiddle(r + 5, i + 5, r + 7, i + 7);
    leaf_add_sub(r, i, r + 2, i + 2);
    leaf_add_sub(r + 1, i + 1, r + 3, i + 3);
    leaf_add_sub_minus_i(r + 4, i + 4, r + 6, i + 6);
    leaf_add_sub(r + 5, i + 5, r + 7, i + 7);
    for (int j = 0; j < 8; j += 4) {
        leaf_add_sub(r + j, i + j, r + j + 1, i + j + 1);
        leaf_add_sub_minus_i(r + j + 2, i + j + 2, r + j + 3, i + j + 3);
    }
    for (int j = 0; j < 8; j++)
        leaf_square(r + j, i + j);
    for (int j = 0; j < 8; j += 4) {
        leaf_add_sub(r + j, i + j, r + j + 1, i + j + 1);
        leaf_add_sub_times_i(r + j + 2, i + j + 2, r + j + 3, i + j + 3);
    }
    leaf_add_sub(r, i, r + 2, i + 2);
    leaf_add_sub(r + 1, i + 1, r + 3, i + 3);
    leaf_add_sub_times_i(r + 4, i + 4, r + 6, i + 6);
    leaf_add_sub(r + 5, i + 5, r + 7, i + 7);
    leaf_untwiddle(r + 5, i + 5, r + 7, i + 7);
    for (int j = 0; j < 4; j++)
        leaf_add_sub(r + j, i + j, r + j + 4, i + j + 4);
}

/* Stages h down to 1 of every block of 2h points, the pointwise square and
   the inverse stages, 64 points at a time: eight blocks of 8 (h = 4) or
   four of 16 (h = 8).  Rows k and k + 4 (k < 4) load as halves into x[k]
   and x[k + 4], round 4 of the transpose, so where h = 8 the halves of
   each block of 16, rows k and k + 1 (k even), take stage 8 between x[k]
   and x[k + 1] with points 0..3 of two rows in x[0..3] and points 4..7 in
   x[4..7]: twiddles (w0..w3, w0..w3) and (w4..w7, w4..w7).  Rows 4..7
   start upper points past row 0: 32, or 0 where m = 32, so that the four
   blocks of 8 there fill the eight lanes twice.  Each lane's arithmetic is
   its own, so equal lanes give equal bits, and each row is stored twice
   with the same values. */
LEAF void square_leaves(double *restrict xr, double *restrict xi, long m, long h, long upper, const double *tr,
                        const double *ti)
{
    const lanes8 lo4 = {0, 1, 2, 3, 0, 1, 2, 3}, hi4 = {4, 5, 6, 7, 4, 5, 6, 7};
    v8 w8r, w8i;
    leaf_load(&w8r, &w8i, tr + 8, ti + 8);
    const v8 wr[2] = {__builtin_shuffle(w8r, lo4), __builtin_shuffle(w8r, hi4)};
    const v8 wi[2] = {__builtin_shuffle(w8i, lo4), __builtin_shuffle(w8i, hi4)};
    for (long s = 0; s < m; s += 64) {
        v8 r[8], i[8];
        for (int k = 0; k < 4; k++) {
            leaf_load_rows(r + k, r + k + 4, xr + s + 8 * k, xr + s + 8 * k + upper);
            leaf_load_rows(i + k, i + k + 4, xi + s + 8 * k, xi + s + 8 * k + upper);
        }
        if (h == 8)
            for (int k = 0; k < 8; k += 2) {
                leaf_add_sub(r + k, i + k, r + k + 1, i + k + 1);
                leaf_times(r + k + 1, i + k + 1, wr + k / 4, wi + k / 4);
            }
        leaf_transpose(r);
        leaf_transpose(i);
        leaf_stages(r, i);
        leaf_transpose(r);
        leaf_transpose(i);
        if (h == 8)
            for (int k = 0; k < 8; k += 2) {
                leaf_times_conj(r + k + 1, i + k + 1, wr + k / 4, wi + k / 4);
                leaf_add_sub(r + k, i + k, r + k + 1, i + k + 1);
            }
        for (int k = 0; k < 4; k++) {
            leaf_store_rows(xr + s + 8 * k, xr + s + 8 * k + upper, r + k, r + k + 4);
            leaf_store_rows(xi + s + 8 * k, xi + s + 8 * k + upper, i + k, i + k + 4);
        }
    }
}

/* fft_square's carry: the serial loop, through a signed carry, and the
   passes, which return 0 when a u_i ripples. */
static inline long long carry_serially(limb *r, long size, const int64_t *c)
{
    __int128 e = 0;
    for (long i = 0; i < size; i++, c += 4) {
        e += (__int128)c[0] + (__int128)c[1] * 0x10000 + (__int128)c[2] * 0x100000000 + (__int128)c[3] * 0x1000000000000;
        r[i] = (limb)e;
        e >>= 64;  /* arithmetic: the carry keeps its sign */
    }
    return (long long)e;
}

static inline int carry_in_passes(limb *restrict r, long size, const int64_t *restrict c, limb *restrict split,
                                  long long *carry)
{
    limb *restrict lo = split, *restrict hi = split + size;
    for (long i = 0; i < size; i++) {
        const int64_t *k = c + 4 * i;
        uint64_t x = (uint64_t)k[0] + (((uint64_t)k[1] & 0xFFFF) << 16);
        uint64_t y = (uint64_t)((int64_t)x >> 32) + (uint64_t)(k[1] >> 16) + (uint64_t)k[2] + (((uint64_t)k[3] & 0xFFFF) << 16);
        lo[i] = (x & 0xFFFFFFFF) | y << 32;
        hi[i] = (uint64_t)((int64_t)y >> 32) + (uint64_t)(k[3] >> 16);
    }
    r[0] = lo[0];
    r[1] = lo[1] + hi[0];
    limb ripples = 0;
    for (long i = 2; i < size; i++) {
        limb below = lo[i - 1] + hi[i - 2], u = lo[i] + hi[i - 1];
        r[i] = u + (below < lo[i - 1]) + (limb)((int64_t)hi[i - 2] >> 63);
        ripples |= u + 1 <= 1;
    }
    limb below = lo[size - 1] + hi[size - 2];
    *carry = (long long)(hi[size - 1] + (below < lo[size - 1]) + (limb)((int64_t)hi[size - 2] >> 63));
    return !ripples;
}

/* x*x mod 2**b + 1 by a weighted transform (Crandall and Fagin, 1994), for
   x in the low L limbs of r.  With N = b / 16 digits a_j of 16 bits and
   theta = exp(i*pi/N), the M = N/2 = 2L points (a_j + i*a_{j+M}) * theta**j
   go through a complex FFT of length M, are squared, go back and lose their
   weight: point k is then c_k + i*c_{k+M}, the negacyclic convolution, so
   x*x = sum c_k * 2**(16k) (mod F).  The plan holds the weights theta**j
   (M real parts, then M imaginary) and, from 2M on, every stage's
   twiddles: exp(-i*pi*j/h) for j < h at h, after a pad at 0, M real parts
   then M imaginary, so that each stage from h = 8 starts on a cache line.
   Writes the digits with their carries, D < 2**b, over the low L limbs and
   the final carry e to *carry, so x*x = D - e (mod F); returns the largest
   distance of a c_k from its rounded integer.

   The forward stages run two at a time, h and h/2 in one pair pass, from
   h = M/2 down.  Where VECTOR_LEAF holds they run while h >= 16, as
   pair_pass: a conjugate-pair radix-4 in vectors of 8, three twiddle
   multiplies where forward_pair_block has four.  Its fourth quarter takes
   w' = w**-1 in place of w**3 = w**-1 * exp(-2*pi*i*j/q), so the length-q
   transform of that quarter comes out with its bins rotated by one place:
   bin k holds what bin k - 1 would.  The square is pointwise and ignores
   the order of the bins, and pair_pass back multiplies that quarter by w
   where inverse_pair_block multiplies by w**-3, which undoes the rotation,
   so the convolution, and every residue, is the same.  square_leaves then
   does the rest 64 points at a time: eight blocks of 8 (h = 4), or four of
   16 (h = 8, where log2 M is even) whose halves first take stage 8,
   transposed so that each vector holds one point of eight blocks, the
   transpose's first round done by loading rows as halves.  Stages 4, 2 and
   1 are then butterflies between whole vectors, whose only twiddle
   multiplies are by sqrt(1/2) * (1 - i) and -sqrt(1/2) * (1 + i), with -i
   taken as a swap; then come the pointwise square, the inverse stages and
   the transpose back, its last round in the stores.  At M = 32, n = 10,
   its four blocks of 8 fill both halves of each vector.  Otherwise the
   pair passes run while h >= 8, a radix-2 stage runs at h = 4 where log2 M
   is odd, and square_fours does stages 2 and 1, the square and their
   inverses.  Either way the inverse pair passes then run from q = 2h up.

   The carry goes to limb i with s_i = c_{4i} + c_{4i+1} * 2**16 +
   c_{4i+2} * 2**32 + c_{4i+3} * 2**48.  One signed 128-bit sum per limb
   is a serial chain, so where VECTOR_CARRY holds two passes that vectorize
   carry instead, through L limbs lo and L hi after the points.  The first
   writes s_i = lo_i + hi_i * 2**64, lo_i unsigned and hi_i signed, through
   x = c_{4i} + (c_{4i+1} mod 2**16) * 2**16 and y = floor(x / 2**32) +
   floor(c_{4i+1} / 2**16) + c_{4i+2} + (c_{4i+3} mod 2**16) * 2**16,
   which are exact in 64 bits for |c| < 2**62; a rounded coefficient has
   |c_k| < N * 2**32 = 2**(n+28), at most 2**47 up to n = 19.  Its
   arithmetic is unsigned, so the garbage of a step that the round-off
   guard rejects gives wrong words, never a signed overflow, and |hi_i| <
   2**48 whatever the coefficients.  With u_i = lo_i + hi_{i-1} (hi_{-1} =
   0) and w_i = floor(u_i / 2**64), which is -1, 0 or 1, the carry into
   limb i is hi_{i-1} + w_{i-1}, so the second pass writes limb i as u_i +
   w_{i-1} mod 2**64 and e = hi_{L-1} + w_{L-1}.  That fails only where
   adding w_{i-1} to u_i crosses a multiple of 2**64, which needs u_i = 0
   or 2**64 - 1 mod 2**64 (i >= 2, as w_0 = 0).  The pass flags every such
   u_i, and on a flag the serial loop carries again: the short items at a
   chain's start, whose limbs are mostly 0, take that path. */
CLONED static double fft_square(limb *r, long size, double *re, const double *plan, long long *carry)
{
    const long m = 2 * size;
    double *restrict xr = re, *restrict xi = re + m;
    const double *restrict wr = plan, *restrict wi = plan + m, *tr = plan + 2 * m, *ti = plan + 3 * m;

    const unsigned char *digits = (const unsigned char *)r;
    for (long j = 0; j < m; j++) {
        uint16_t a, b;
        memcpy(&a, digits + 2 * j, 2);
        memcpy(&b, digits + 2 * (j + m), 2);
        xr[j] = a * wr[j] - b * wi[j];
        xi[j] = a * wi[j] + b * wr[j];
    }
    long h = m / 2;
    if (VECTOR_LEAF) {
        for (; h >= 16; h /= 4)
            pair_pass(xr, xi, m, h / 2, tr, ti, 1);
        if (m < 64)  /* two calls, so that each folds its row offset */
            square_leaves(xr, xi, m, h, 0, tr, ti);
        else
            square_leaves(xr, xi, m, h, 32, tr, ti);
        for (long q = 2 * h; q < m; q *= 4)
            pair_pass(xr, xi, m, q, tr, ti, 0);
    } else {
        for (; h >= 8; h /= 4)
            for (long s = 0, q = h / 2; s < m; s += 4 * q)
                forward_pair_block(xr + s, xr + s + q, xr + s + 2 * q, xr + s + 3 * q, xi + s, xi + s + q,
                                   xi + s + 2 * q, xi + s + 3 * q, tr + h, ti + h, tr + q, ti + q, q);
        if (h == 4)
            for (long s = 0; s < m; s += 8)
                forward_block(xr + s, xi + s, xr + s + 4, xi + s + 4, tr + 4, ti + 4, 4);
        square_fours(xr, xi, m);
        if (h == 4)
            for (long s = 0; s < m; s += 8)
                inverse_block(xr + s, xi + s, xr + s + 4, xi + s + 4, tr + 4, ti + 4, 4);
        for (long q = 2 * h; q < m; q *= 4)
            for (long s = 0; s < m; s += 4 * q)
                inverse_pair_block(xr + s, xr + s + q, xr + s + 2 * q, xr + s + 3 * q, xi + s, xi + s + q,
                                   xi + s + 2 * q, xi + s + 3 * q, tr + 2 * q, ti + 2 * q, tr + q, ti + q, q);
    }
    /* Each coefficient a, rounded without libm, goes over its point as an
       int64: for |a| < 2**51, a + 1.5 * 2**52 keeps that exponent and its
       last place is 1, so the sum is a rounded and its bits less those of
       1.5 * 2**52 are that integer.  The distances from it are compared as
       bits, which order as the magnitudes do, with NaN above all. */
    const double scale = 1.0 / (double)m, rounder = 0x1.8p52, one = 1;
    uint64_t rounder_bits, one_bits, error = 0, magnitude = ~(uint64_t)0 >> 1;
    memcpy(&rounder_bits, &rounder, sizeof rounder_bits);
    memcpy(&one_bits, &one, sizeof one_bits);
    for (long k = 0; k < m; k++) {
        double a = (xr[k] * wr[k] + xi[k] * wi[k]) * scale, b = (xi[k] * wr[k] - xr[k] * wi[k]) * scale;
        double ra = a + rounder, rb = b + rounder, da = a - (ra - rounder), db = b - (rb - rounder);
        uint64_t ca, cb;
        memcpy(&ca, &ra, sizeof ca);
        memcpy(&cb, &rb, sizeof cb);
        ca -= rounder_bits;
        cb -= rounder_bits;
        memcpy(xr + k, &ca, sizeof ca);
        memcpy(xi + k, &cb, sizeof cb);
        memcpy(&ca, &da, sizeof ca);
        memcpy(&cb, &db, sizeof cb);
        ca &= magnitude;
        cb &= magnitude;
        error = ca > error ? ca : error;
        error = cb > error ? cb : error;
    }
    /* c_0 .. c_{2M-1} now run on from re through im, four to a limb. */
    const int64_t *c = (const int64_t *)re;
    if (!(VECTOR_CARRY && carry_in_passes(r, size, c, (limb *)(re + 2 * m), carry)))
        *carry = carry_serially(r, size, c);
    error = error < one_bits ? error : one_bits;
    double distance;
    memcpy(&distance, &error, sizeof distance);
    return distance;
}

/* y mod q for the FFT step's new residue y, in place of mpn_mod_1, which
   costs 7% of an n = 16 step.  y's low L limbs are 2L chunks c_j of 32
   bits, and its top limb counts 2**b = -1 mod q, so y = sum c_j * p_j - top
   (mod q) with p_j = 2**(32j) mod q from the plan.  AVX-512 IFMA multiplies
   52-bit lanes: vpmadd52luq adds the low 52 bits of a product to a 64-bit
   lane and vpmadd52huq its high 52.  With p_j = lo_j + hi_j * 2**52, c_j *
   lo_j adds below 2**52 to a lane of lo and below 2**32 to one of hi, and
   c_j * hi_j (hi_j < 2**12, as q < 2**64) below 2**44 to hi.  powers holds
   the 2L lo_j and, where q >= 2**52, then the 2L hi_j.  CHAINS chains of
   accumulators hide the multiplies' latency; at n = 16 four take half the
   time of one.  At n = 19, 2L = 16,384 chunks, a lane takes 512 products a
   chain, so the four chains' lanes of lo sum below 2**63 and of hi below
   2**56, in 64 bits.  All lanes of lo together reach 2**66, so the lanes
   are summed as lo mod 2**52 (below 2**55) and hi + lo / 2**52 (below
   2**59): s is below 2**111, and one 128-bit remainder ends it.  The code
   is AVX-512 IFMA, in the cloned build alone, where it runs if
   __builtin_cpu_supports finds IFMA; a build of one level alone holds
   none of it. */
#ifdef BY_CPU
#define REDUCE_WITH_IFMA __builtin_cpu_supports("avx512ifma")
#define IFMA __attribute__((target("avx512f,avx512ifma")))
#define CHAINS 4
static inline __attribute__((always_inline)) IFMA void add_chunks(__m512i *lo, __m512i *hi, const limb *r, const uint64_t *lo_j,
                                                                   const uint64_t *hi_j, long j)
{
    __m512i c = _mm512_cvtepu32_epi64(_mm256_loadu_si256((const __m256i *)(r + j / 2))), p = _mm512_loadu_si512(lo_j + j);
    *lo = _mm512_madd52lo_epu64(*lo, c, p);
    *hi = _mm512_madd52hi_epu64(*hi, c, p);
    if (hi_j)
        *hi = _mm512_madd52lo_epu64(*hi, c, _mm512_loadu_si512(hi_j + j));
}

static IFMA limb mod_by_powers(const limb *r, long size, limb q, const uint64_t *powers)
{
    const long chunks = 2 * size;  /* a multiple of 8 * CHAINS: L >= 16 wherever the FFT serves */
    __m512i lo[CHAINS], hi[CHAINS];
    for (int k = 0; k < CHAINS; k++)
        lo[k] = hi[k] = _mm512_setzero_si512();
    const uint64_t *high = q >> 52 ? powers + chunks : NULL;
    for (long j = 0; j < chunks; j += 8 * CHAINS)
        for (int k = 0; k < CHAINS; k++)
            add_chunks(lo + k, hi + k, r, powers, high, j + 8 * k);
    for (int k = 1; k < CHAINS; k++) {
        lo[0] = _mm512_add_epi64(lo[0], lo[k]);
        hi[0] = _mm512_add_epi64(hi[0], hi[k]);
    }
    uint64_t below = _mm512_reduce_add_epi64(_mm512_and_si512(lo[0], _mm512_set1_epi64((1LL << 52) - 1)));
    uint64_t above = _mm512_reduce_add_epi64(_mm512_add_epi64(hi[0], _mm512_srli_epi64(lo[0], 52)));
    /* A top limb above 1 fails the range check whatever this returns. */
    unsigned __int128 s = below + ((unsigned __int128)above << 52) + (unsigned __int128)r[size] * (q - 1);
    return (limb)(s % q);
}
#else
#define REDUCE_WITH_IFMA 0
#endif

/* Whether FFT steps take y mod q with mod_by_powers here, so that Python
   makes the plan's powers; mpn_mod_1 takes it otherwise. */
int fermat_reduces_with_ifma(void)
{
    return REDUCE_WITH_IFMA;
}

/* Runs up to count steps and returns how many it ran: fewer only after a
   zero item.  Each new item's first 8L + 1 bytes go to trace, one item after
   another, when trace is not NULL.  A step that leaves a residue above 2**b
   returns ABOVE, one that fails x*x = k*F + y + c - w*F (mod d), with w = 1
   when subtracting c wrapped, returns WRONG, and an FFT step that rounds a
   coefficient more than 1/4 returns INEXACT; the chain is then dead. */
long fermat_chain_run(struct chain *ch, long count, unsigned char *trace)
{
    const struct gmp *g = ch->gmp;
    limb *r = ch->r, d = ch->d, x_d = ch->x_d;
    long size = ch->size, width = 8 * size + 1, done = 0;

    while (done < count) {
        limb k_d, y_d;
        int wrapped = 0;

        if (r[size]) {  /* x = 2**b = -1, so x*x = (F - 2)*F + 1 */
            r[size] = 0;
            r[0] = 1;
            k_d = ch->f_d >= 2 ? ch->f_d - 2 : ch->f_d + (d - 2);  /* (F - 2) mod d; f_d + d overflows where d > 2**63 */
        } else if (ch->plan) {  /* x*x = D - e mod F: k is unknown, and k*F = 0 mod d = q */
            long long e;
            double error = fft_square(r, size, ch->work, ch->plan, &e);
            if (error > ch->error)
                ch->error = error;
            /* Percival (Math. Comp. 72, 2003) bounds this round-off from the
               transform length and digit size; up to n = 19 the worst case
               is 0.0625, so a distance above 1/4 is a fault, not chance. */
            if (error > 0.25)
                return INEXACT;
            if (e > 0 && g->sub_1(r, r, size, (limb)e)) {  /* D < e: add F */
                r[size] = g->add_1(r, r, size, 1);
            } else if (e < 0 && g->add_1(r, r, size, (limb)-e)) {  /* D - e = 2**b + s */
                if (is_zero(r, size))
                    r[size] = 1;
                else
                    g->sub_1(r, r, size, 1);
            }
            k_d = 0;
        } else {  /* x*x = hi*2**b + lo = k*F + (lo - hi), adding F on a borrow */
            limb *sq = ch->work, *hi = sq + size;
            g->sqr(sq, r, size);
            k_d = g->mod_1(hi, size, d);
            if (g->sub_n(r, sq, hi, size)) {
                r[size] = g->add_1(r, r, size, 1);
                k_d = k_d ? k_d - 1 : d - 1;
            }
        }
        if (ch->c && g->sub_1(r, r, size + 1, ch->c)) {
            r[size] = g->add_1(r, r, size, 1);
            wrapped = 1;
        }
#ifdef IFMA
        if (ch->powers && REDUCE_WITH_IFMA)
            y_d = mod_by_powers(r, size, d, ch->powers);
        else
#endif
            y_d = g->mod_1(r, size + 1, d);
        if (r[size] > 1 || (r[size] && !is_zero(r, size)))
            return ABOVE;
        unsigned __int128 lhs = (unsigned __int128)x_d * x_d % d;
        unsigned __int128 rhs = (unsigned __int128)k_d * ch->f_d + y_d + ch->c % d + (wrapped ? d - ch->f_d : 0);
        if (lhs != rhs % d)
            return WRONG;
        x_d = ch->x_d = y_d;
        if (trace)
            memcpy(trace + done * width, r, (size_t)width);
        done++;
        if (!y_d && !r[size] && is_zero(r, size))
            break;
    }
    return done;
}

/* A job: count steps of a chain, run on a thread of its own as calls of
   fermat_chain_run of at most block steps each.  Python allocates
   fermat_job_size() zeroed bytes and reads seconds, the job's first member,
   once it is joined.  Between two blocks the thread reads cancel, and after
   the last it posts ended, so a join can wait with a time limit and
   return to Python, which then takes its signals. */
struct job {
    double seconds;       /* CLOCK_MONOTONIC time from the first step to the end */
    struct chain *ch;
    long count, block;
    long result;          /* the steps run, CANCELLED or the chain's error code */
    int cancel, joined;
    sem_t ended;
    pthread_t thread;
};

long fermat_job_size(void)
{
    return sizeof(struct job);
}

static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec + t.tv_nsec * 1e-9;
}

static void *job_main(void *arg)
{
    struct job *job = arg;
    double start = now();
    long done = 0;
    while (done < job->count) {
        if (done && __atomic_load_n(&job->cancel, __ATOMIC_RELAXED)) {
            done = CANCELLED;
            break;
        }
        long left = job->count - done, ran = fermat_chain_run(job->ch, left < job->block ? left : job->block, NULL);
        if (ran < 0) {
            done = ran;
            break;
        }
        done += ran;
    }
    job->seconds = now() - start;
    job->result = done;
    sem_post(&job->ended);  /* a barrier: the joiner sees what was written above */
    return NULL;
}

/* Starts count steps of ch as a job; 0, or an error number when no thread
   starts, and then the chain is untouched and the job needs no join. */
int fermat_job_start(struct job *job, struct chain *ch, long count, long block)
{
    job->ch = ch;
    job->count = count;
    job->block = block;
    if (sem_init(&job->ended, 0, 0))
        return -1;
    int failed = pthread_create(&job->thread, NULL, job_main, job);
    if (failed)
        sem_destroy(&job->ended);
    return failed;
}

/* Asks a started job to stop before its next block. */
void fermat_job_cancel(struct job *job)
{
    __atomic_store_n(&job->cancel, 1, __ATOMIC_RELAXED);
}

/* Waits for a started job, at most timeout_ms milliseconds when that is not
   negative, and returns RUNNING if it has not ended then or a signal came
   first; otherwise the job's result, the steps run (count), CANCELLED or
   the error code of the step that failed.  Once it has returned a result,
   each later call returns it again at once. */
long fermat_job_join(struct job *job, long timeout_ms)
{
    if (!job->joined) {
        if (timeout_ms < 0) {
            while (sem_wait(&job->ended))  /* interrupted by a signal */
                ;
        } else {
            struct timespec until;
            clock_gettime(CLOCK_REALTIME, &until);
            until.tv_sec += timeout_ms / 1000;
            until.tv_nsec += timeout_ms % 1000 * 1000000;
            if (until.tv_nsec >= 1000000000) {
                until.tv_sec++;
                until.tv_nsec -= 1000000000;
            }
            if (sem_timedwait(&job->ended, &until))
                return RUNNING;
        }
        pthread_join(job->thread, NULL);
        sem_destroy(&job->ended);
        job->joined = 1;
    }
    return job->result;
}
