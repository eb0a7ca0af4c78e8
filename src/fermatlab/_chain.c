/* The checked squaring chain x -> x*x - c mod F = 2**b + 1 on GMP limbs,
   run a block of steps per call.

   fermatlab.arith compiles this file with the system C compiler and calls
   it through ctypes.  It includes no GMP header: GMP is reached through the
   function pointers of struct gmp, which arith fills from the loaded
   libgmp.  Every buffer it writes (the residue, mpn_sqr's square and the
   trace) belongs to the Python chain for the chain's whole life. */

#include <stdint.h>
#include <string.h>

typedef uint64_t limb;

struct gmp {
    void (*sqr)(limb *rp, const limb *up, long n);
    limb (*mod_1)(const limb *up, long n, limb d);
    limb (*sub_n)(limb *rp, const limb *up, const limb *vp, long n);
    limb (*add_1)(limb *rp, const limb *up, long n, limb v);
    limb (*sub_1)(limb *rp, const limb *up, long n, limb v);
    limb (*mul_fft)(limb *op, long pl, const limb *np, long nl, const limb *mp, long ml, int k);
};

struct chain {
    const struct gmp *gmp;
    limb *r;       /* L + 1 limbs, the current item; the top limb is 1 only for 2**b */
    limb *sq;      /* 2L limbs for mpn_sqr's square; unused by the FFT step */
    long size;     /* L = b / 64 */
    long width;    /* trace bytes per item, b / 8 + 1 */
    limb c;        /* the constant subtracted each step */
    limb d;        /* the check divisor: a prime p, or with the FFT a factor q of F */
    limb f_d;      /* F mod d */
    limb top_k_d;  /* (F - 2) mod d: (2**b)**2 = (F - 2)*F + 1 */
    int fft_k;     /* the FFT order, or 0 to square with mpn_sqr */
    limb x_d;      /* the current item mod d */
};

enum { ABOVE = -1, WRONG = -2 };

static int is_zero(const limb *r, long n)
{
    for (long i = 0; i < n; i++)
        if (r[i])
            return 0;
    return 1;
}

/* Runs up to count steps and returns how many it ran: fewer only after a
   zero item.  Each new item's first width bytes go to trace, one item after
   another, when trace is not NULL.  A step that leaves a residue above 2**b
   returns ABOVE, and one that fails x*x = k*F + y + c - w*F (mod d), with
   w = 1 when subtracting c wrapped, returns WRONG; the chain is then dead. */
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
        } else if (ch->fft_k) {  /* x*x mod F in place: k is unknown, and k*F = 0 mod d = q */
            r[size] = g->mul_fft(r, size, r, size, r, size, ch->fft_k);
            k_d = 0;
        } else {  /* x*x = hi*2**b + lo = k*F + (lo - hi), adding F on a borrow */
            limb *hi = ch->sq + size;
            g->sqr(ch->sq, r, size);
            k_d = g->mod_1(hi, size, d);
            if (g->sub_n(r, ch->sq, hi, size)) {
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
