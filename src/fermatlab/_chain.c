/* The checked squaring chain x -> x*x - c mod F = 2**b + 1 on GMP limbs,
   run a block of steps per call.

   fermatlab.arith compiles this file with the system C compiler and calls
   it through ctypes.  It includes no GMP header: GMP is reached through the
   function pointers of struct gmp, which arith fills from the loaded
   libgmp.  It links no libm and keeps no static state.  Every buffer it
   reads or writes (the residue, the step's work space, the FFT plan and the
   trace) belongs to Python for the chain's whole life. */

#include <stdint.h>
#include <string.h>

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
    long size;     /* L = b / 64 */
    long width;    /* trace bytes per item, b / 8 + 1 */
    limb c;        /* the constant subtracted each step */
    limb d;        /* the check divisor: a prime p, or with the FFT a divisor q of F, which may be composite */
    limb f_d;      /* F mod d */
    limb top_k_d;  /* (F - 2) mod d: (2**b)**2 = (F - 2)*F + 1 */
    limb x_d;      /* the current item mod d */
    double error;  /* the largest distance from an integer that an FFT step of this chain rounded */
};

enum { ABOVE = -1, WRONG = -2, INEXACT = -3 };

/* The FFT's clones for x86-64-v4 (AVX-512), x86-64-v3 (AVX2 and FMA) and
   the baseline, picked once at load time through an ifunc, where GCC and
   glibc provide one; any other target builds the one plain version, as does
   -DCLONED= (with a -march of its own, one ISA level alone).  Every load
   is unaligned-safe: Python aligns the buffers to 64 bytes for speed only. */
#ifndef CLONED
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define VECTOR_CARRY __builtin_cpu_supports("x86-64-v3")
#else
#define CLONED
#endif
#endif

/* Whether fft_square carries in vector passes: where its code is AVX2 or
   wider, in the v4 and v3 clones, which the ifunc picks on a CPU that
   __builtin_cpu_supports calls x86-64-v3, or in a build for such a level
   alone.  At n = 16 the carry takes 1.8k cycles against the serial loop's
   4.8k in v4 code and 3.9k against 5.8k in v3 code, but 7.0k against 5.4k
   in SSE2 code, where the serial loop stays. */
#ifndef VECTOR_CARRY
#ifdef __AVX2__
#define VECTOR_CARRY 1
#else
#define VECTOR_CARRY 0
#endif
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
   twiddles: exp(-i*pi*j/h) for j < h at h - 1, M real parts then M
   imaginary.  Writes the digits with their carries, D < 2**b, over the low
   L limbs and the final carry e to *carry, so x*x = D - e (mod F); returns
   the largest distance of a c_k from its rounded integer.

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
    for (; h >= 8; h /= 4)
        for (long s = 0, q = h / 2; s < m; s += 4 * q)
            forward_pair_block(xr + s, xr + s + q, xr + s + 2 * q, xr + s + 3 * q, xi + s, xi + s + q, xi + s + 2 * q,
                               xi + s + 3 * q, tr + h - 1, ti + h - 1, tr + q - 1, ti + q - 1, q);
    if (h == 4)
        for (long s = 0; s < m; s += 8)
            forward_block(xr + s, xi + s, xr + s + 4, xi + s + 4, tr + 3, ti + 3, 4);
    square_fours(xr, xi, m);
    if (h == 4)
        for (long s = 0; s < m; s += 8)
            inverse_block(xr + s, xi + s, xr + s + 4, xi + s + 4, tr + 3, ti + 3, 4);
    for (long q = 2 * h; q < m; q *= 4)
        for (long s = 0; s < m; s += 4 * q)
            inverse_pair_block(xr + s, xr + s + q, xr + s + 2 * q, xr + s + 3 * q, xi + s, xi + s + q, xi + s + 2 * q,
                               xi + s + 3 * q, tr + 2 * q - 1, ti + 2 * q - 1, tr + q - 1, ti + q - 1, q);
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

/* Runs up to count steps and returns how many it ran: fewer only after a
   zero item.  Each new item's first width bytes go to trace, one item after
   another, when trace is not NULL.  A step that leaves a residue above 2**b
   returns ABOVE, one that fails x*x = k*F + y + c - w*F (mod d), with w = 1
   when subtracting c wrapped, returns WRONG, and an FFT step that rounds a
   coefficient more than 1/4 returns INEXACT; the chain is then dead. */
long fermat_chain_run(struct chain *ch, long count, unsigned char *trace)
{
    const struct gmp *g = ch->gmp;
    limb *r = ch->r, d = ch->d, x_d = ch->x_d;
    long size = ch->size, done = 0;

    while (done < count) {
        limb k_d, y_d;
        int wrapped = 0;

        if (r[size]) {  /* x = 2**b = -1, so x*x = (F - 2)*F + 1 */
            r[size] = 0;
            r[0] = 1;
            k_d = ch->top_k_d;
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
        y_d = g->mod_1(r, size + 1, d);
        if (r[size] > 1 || (r[size] && !is_zero(r, size)))
            return ABOVE;
        unsigned __int128 lhs = (unsigned __int128)x_d * x_d % d;
        unsigned __int128 rhs = (unsigned __int128)k_d * ch->f_d + y_d + ch->c % d + (wrapped ? d - ch->f_d : 0);
        if (lhs != rhs % d)
            return WRONG;
        x_d = ch->x_d = y_d;
        if (trace)
            memcpy(trace + done * ch->width, r, (size_t)ch->width);
        done++;
        if (!y_d && !r[size] && is_zero(r, size))
            break;
    }
    return done;
}
