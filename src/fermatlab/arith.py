"""Arbitrary-precision arithmetic specialized for moduli of the form 2**b + 1.

Residues are plain Python ints in [0, 2**b + 1).  Reduction never divides:
it folds b-bit halves using 2**b = -1 (mod 2**b + 1), which is the whole
point of working with this modulus shape.  Every test runs one squaring
chain x, x*x - c, ... mod the modulus, read in one of two ways:
:func:`square_chain` yields every item and :func:`chain_item` returns item
k alone.

The chain's arithmetic is chosen per modulus when a chain starts.  Below
``GMP_MIN_N`` it is CPython's ``x * x`` and :func:`reduce_mod_fermat`, which
is also the reference.  From ``GMP_MIN_N`` up the residue lives in 64-bit
limbs for the whole chain and GMP's ``mpn`` functions, reached through
``ctypes`` when ``libgmp.so.10`` loads, square and fold it; from
``FFT_MIN_N`` up, where a factor of the modulus is known, GMP's negacyclic
FFT squares it mod 2**b + 1 directly.  Every step is checked modulo a
prime, and only an item that is read becomes an int.  Below ``GMP_MIN_N``
a chain with c = 0 is the power x**(2**k), so from n = 6, where b is a
whole number of 64-bit limbs as for the GMP chain, :func:`chain_item`
computes it with one ``mpz_powm`` call mod F*p, checked mod the prime p;
Pépin's time falls from 0.6 / 2.4 / 9 ms to 0.08 / 0.44 / 3 ms at
n = 9 / 10 / 11 (``GMP_MIN_N`` has the rest).  When the library does not
load, every modulus uses ``x * x``.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Iterator

from .budget import check_pow2_bits

# The smallest n whose chains run in GMP.  Time per step of the int chain
# (x * x and the fold) against the GMP chain (mpn_sqr, the fold and the
# checks on limbs), best of five walks of x -> x*x - 2, range of five runs:
# 3.2-6.0 vs 4.5-8.7 us at n = 11; 11.5-19.1 vs 7.1-9.8 us at n = 12, which
# outweighs the ~2 ms that loading GMP costs once (cross_check(12) in a fresh
# process: 157-175 vs 77-99 ms); 37-58 vs 10-12 us at n = 13; and 934-1297
# vs 98-157 us at n = 16 (2-CPU Xeon, CPython 3.11.7, GMP 6.2.1).
# Below it, from n = 6 (the chains' whole-limb rule), Pépin's power 3**(2**k)
# is one mpz_powm call mod F*p instead of the int chain; its time in ms, int
# chain -> mpz_powm, best of 20, two runs (same machine): 0.046 -> 0.024 at
# n = 6; 0.09 -> 0.028 at 7; 0.22 -> 0.04 at 8; 0.57-0.65 -> 0.08-0.09 at 9;
# 2.3-2.5 -> 0.43-0.45 at 10; 7.8-11.2 -> 2.7-3.1 at 11.  Below n = 6 the
# call's fixed cost loses: best of 7 x 200 calls, 0.0017 / 0.0033 / 0.0072 /
# 0.018 ms on the int chain against 0.018 / 0.022 / 0.021 / 0.021 ms at
# n = 2 / 3 / 4 / 5.  At n = 12 the limb chain and mpz_powm are even (19-32
# vs 22-28 ms) and at 13 the chain wins (66-84 vs 118-134 ms), so the same
# boundary serves both.
GMP_MIN_N = 12
# The smallest n whose GMP chains square with __gmpn_mul_fft, which returns
# x*x mod 2**b + 1 without the 2L-limb product, where a factor of F_n is
# known.  Time per call of mpn_sqr vs mpn_mul_fft (k = 5 / 6), min of 7:
# 17.3-19.9 vs 17.8-23.7 us at n = 14 (no win); 45.6-53.4 vs 33.7-38.6 us
# at n = 15; 114-122 vs 78-80 us at n = 16 (2-CPU Xeon, CPython 3.11.7,
# GMP 6.2.1).
FFT_MIN_N = 15
GMP_SONAME = "libgmp.so.10"
# The FFT entry points are undocumented and ctypes checks no ABI, so they are
# used only with the GMP versions they were tested on.
_FFT_GMP_VERSIONS = frozenset({"6.2.1"})
# A ~30-bit prime: every mpn_sqr step must satisfy x*x = k*F + y + c - w*F modulo it.
_CHECK_PRIME = (1 << 30) - 35
# A prime factor q < 2**64 of F_n (W. Keller's tables) for each n >= FFT_MIN_N
# that has one: an FFT step gives no k, but with q | F it must satisfy
# x*x = y + c modulo q.  n = 14, 20, 22 and 24 have none, so they keep mpn_sqr.
_FACTORS = {
    15: 1214251009,
    16: 825753601,
    17: 31065037602817,
    18: 13631489,
    19: 70525124609,
    21: 4485296422913,
    23: 167772161,
}
# GMP chains and powers need 64-bit limbs and b a whole number of them, so n >= 6.
_LIMB_BITS = 64


class FermatModulus:
    """The modulus 2**b + 1 with b = 2**n."""

    __slots__ = ("n", "b", "value", "_mask")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"modulus index must be nonnegative, got {n}")
        check_pow2_bits(n, f"modulus index {n}")
        self.n = n
        self.b = 1 << n
        self.value = (1 << self.b) + 1
        self._mask = (1 << self.b) - 1

    @property
    def backend(self) -> str:
        """The arithmetic of chains mod this modulus: "int", "gmp" or "gmp-fft".

        "gmp-fft" squares with GMP's FFT and "gmp" with ``mpn_sqr``.  Reading
        it may load the GMP library and make the FFT plan, as starting a
        chain does.
        """
        gmp = _gmp_for(self)
        return "int" if gmp is None else "gmp" if gmp[1] is None else "gmp-fft"

    @property
    def power_backend(self) -> str:
        """The arithmetic of ``chain_item(x, 0, k, self)``, the power x**(2**k) that Pépin reads.

        "gmp-powm" from n = 6 up to GMP_MIN_N when GMP loads: one checked
        ``mpz_powm`` call.  Otherwise the chain's own, ``backend``.
        """
        return "gmp-powm" if _powm_for(self) is not None else self.backend


def fermat_value(n: int) -> int:
    """The n-th term of the 3, 5, 17, 257, ... tower: 2**(2**n) + 1."""
    return FermatModulus(n).value


def reduce_mod_fermat(x: int, m: FermatModulus) -> int:
    """Canonical residue of x, by folding only.

    Splits x = hi * 2**b + lo and replaces it with lo - hi until the value is
    in range; a negative intermediate flips a sign that is fixed up at the
    end.  The magnitude strictly decreases on every fold, so this terminates
    for inputs of any size (two folds suffice after squaring a canonical
    residue).
    """
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    b, mask, value = m.b, m._mask, m.value
    negative = False
    while x >= value:
        x = (x & mask) - (x >> b)
        if x < 0:
            x = -x
            negative = not negative
    if negative and x:
        x = value - x
    return x


def chain_item(x: int, c: int, k: int, m: FermatModulus) -> int:
    """Item k of ``square_chain(x, c, m)``, after k squarings.

    Only item k is converted to an int: on the GMP path the items before it
    stay limbs, each checked as it is computed.  With c = 0 the item is the
    power x**(2**k), and where ``m.power_backend`` is "gmp-powm" it is one
    checked ``mpz_powm`` call instead of k steps.
    """
    if k < 0:
        raise ValueError(f"expected a nonnegative item index, got {k}")
    lib = _powm_for(m) if c == 0 else None
    if lib is not None:
        _check_operands(x, c, m)
        return _gmp_power(x, k, m, lib)
    items, export = _start(x, c, m)
    item = next(islice(items, k, None))
    return item if export is None else export(item)


def square_chain(x: int, c: int, m: FermatModulus) -> Iterator[int]:
    """Yield x, x*x - c, (x*x - c)**2 - c, ... mod m as canonical ints.

    Item k costs k squarings, each done when it is asked for.  ``x`` must be
    a canonical residue and ``c`` a small nonnegative constant (0 for Pépin,
    2 for the recurrence).  The arithmetic is the one ``m.backend`` names;
    the GMP chain raises ArithmeticError on any step or item that fails its
    check.
    """
    items, export = _start(x, c, m)
    return items if export is None else map(export, items)


def _start(x: int, c: int, m: FermatModulus):
    """The chain from x on m's backend: its items, and the export that reads one as an int.

    The int chain yields the residues themselves and has no export (None);
    the GMP chain yields each item's check value x mod d, and its export
    converts the limbs of the item it last yielded.
    """
    _check_operands(x, c, m)
    gmp = _gmp_for(m)
    return (_int_chain(x, c, m), None) if gmp is None else _gmp_chain(x, c, m, *gmp)


def _check_operands(x: int, c: int, m: FermatModulus) -> None:
    if not 0 <= x < m.value:
        raise ValueError(f"expected a canonical residue mod F_{m.n}, got a {x.bit_length()}-bit integer")
    if not 0 <= c < min(m.value, 1 << 32):  # the GMP chain subtracts c as one limb
        raise ValueError(f"expected a small nonnegative constant below F_{m.n}, got {c}")


def _int_chain(x: int, c: int, m: FermatModulus) -> Iterator[int]:
    value = m.value
    while True:
        yield x
        x = reduce_mod_fermat(x * x, m) - c
        if x < 0:
            x += value


def _gmp_for(m: FermatModulus):
    """The GMP library and the FFT plan (None for mpn_sqr) when chains mod m run in GMP, else None."""
    lib = _load_gmp() if m.n >= GMP_MIN_N and m.b >= _LIMB_BITS else None
    if lib is None:
        return None
    return lib, _fft_plan(m.n) if m.n >= FFT_MIN_N else None


def _powm_for(m: FermatModulus):
    """The GMP library when powers mod m run as one ``mpz_powm``, else None: whole limbs below GMP_MIN_N."""
    return _load_gmp() if m.n < GMP_MIN_N and m.b >= _LIMB_BITS else None


@cache
def _load_gmp():
    """The system GMP library with its entry points typed, or None when it cannot serve.

    Loaded by soname, so no subprocess runs to find it; ctypes is imported
    here and only here, when a chain or a power first needs the library.
    The ``mpn`` entry points serve the chains and the ``mpz`` ones the
    power route.  A GMP that lacks one of them (GMP 5 has the same soname
    but no ``mpz_roinit_n``) or has limbs other than 64 bits is not used.
    The FFT entry points are typed only on a tested GMP version.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(GMP_SONAME)
    except OSError:
        return None
    if ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value != _LIMB_BITS:
        return None
    ptr, size, limb, order = ctypes.c_void_p, ctypes.c_long, ctypes.c_uint64, ctypes.c_int
    mpz = ctypes.POINTER(_mpz_struct())
    entry_points = [
        ("__gmpn_sqr", [ptr, ptr, size], None),
        ("__gmpn_mod_1", [ptr, size, limb], limb),
        ("__gmpn_sub_n", [ptr, ptr, ptr, size], limb),
        ("__gmpn_add_1", [ptr, ptr, size, limb], limb),
        ("__gmpn_sub_1", [ptr, ptr, size, limb], limb),
        ("__gmpz_init", [mpz], None),
        ("__gmpz_clear", [mpz], None),
        ("__gmpz_roinit_n", [mpz, ptr, size], ptr),
        ("__gmpz_powm", [mpz, mpz, mpz, mpz], None),
    ]
    if _gmp_version(lib) in _FFT_GMP_VERSIONS:
        entry_points += [
            ("__gmpn_mul_fft", [ptr, size, ptr, size, ptr, size, order], limb),
            ("__gmpn_fft_best_k", [size, order], order),
            ("__gmpn_fft_next_size", [size, order], size),
        ]
    for name, argtypes, restype in entry_points:
        function = getattr(lib, name, None)
        if function is None:
            return None
        function.argtypes, function.restype = argtypes, restype
    return lib


@cache
def _mpz_struct():
    """The ctypes type of gmp.h's ``__mpz_struct`` (16 bytes): int, int, limb pointer."""
    import ctypes  # already loaded by _load_gmp; this is a lookup

    class Mpz(ctypes.Structure):
        _fields_ = [("_mp_alloc", ctypes.c_int), ("_mp_size", ctypes.c_int), ("_mp_d", ctypes.c_void_p)]

    return Mpz


def _gmp_version(lib) -> str:
    import ctypes  # already loaded by _load_gmp; this is a lookup

    return ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode()


@cache
def _fft_plan(n: int):
    """The FFT order k and the check factor q of GMP chains mod F_n, or None to square with mpn_sqr.

    Made once per n, when the first chain mod F_n starts.  A listed factor
    must divide F_n (2**(2**n) = -1 mod q), or ArithmeticError is raised.
    The plan needs a tested GMP version, a k that GMP's FFT takes at exactly
    L = b / 64 limbs, and a self-test at that L against the reference fold:
    a random x, and 2**(b/2), whose square F - 1 is the kernel's carry, each
    squared in place as the chain's step does it, so an FFT that cannot
    alias its operands is not used.
    """
    q = _FACTORS.get(n)
    if q is None:
        return None
    if pow(2, 1 << n, q) != q - 1:
        raise ArithmeticError(f"{q} is listed as a factor of F_{n} but does not divide it")
    lib = _load_gmp()
    if _gmp_version(lib) not in _FFT_GMP_VERSIONS:
        return None
    import ctypes  # already loaded by _load_gmp; this is a lookup
    import random

    m = FermatModulus(n)
    size = m.b // _LIMB_BITS
    k = lib.__gmpn_fft_best_k(size, 1)
    if lib.__gmpn_fft_next_size(size, k) != size:
        return None
    for x in (random.Random(n).getrandbits(m.b), 1 << m.b // 2):
        r = _to_limbs(x, size + 1)
        r_at = ctypes.addressof(r)
        r[size] = lib.__gmpn_mul_fft(r_at, size, r_at, size, r_at, size, k)
        if _from_limbs(r) != reduce_mod_fermat(x * x, m):
            return None
    return k, q


def _to_limbs(x: int, count: int):
    """x as ``count`` 64-bit little-endian limbs in a new ctypes array."""
    import ctypes  # already loaded by _load_gmp; this is a lookup

    return (ctypes.c_uint64 * count).from_buffer_copy(x.to_bytes(8 * count, "little"))


def _from_limbs(limbs) -> int:
    """The int that a ctypes array of 64-bit little-endian limbs holds."""
    return int.from_bytes(limbs, "little")


def _gmp_chain(x: int, c: int, m: FermatModulus, lib, plan):
    """The chain on raw GMP limbs: x mod d per item, and the export of the current item.

    The residue is L + 1 limbs, L = b / 64; the top limb is 1 only for
    x = 2**b.  A step squares it, then subtracts c, adding F on a wrap.
    x = 2**b squares to 1 with k = 2**b - 1, so it needs no (L + 1)-limb
    square.  Without a plan, ``mpn_sqr`` squares the L low limbs into 2L
    and x*x = hi * 2**b + lo is folded to lo - hi, adding F on a borrow,
    with x*x = k*F + r and k mod d from ``mpn_mod_1``; d is the prime p.
    With a plan (k, q), ``mpn_mul_fft`` writes x*x mod F over x in place,
    with its carry as the top limb, and d is q: F = 0 mod q, so k is not
    needed.  Every step checks that the top limb is canonical and that
    x*x = k*F + y + c - w*F (mod d), w = 1 on a wrap, with x mod d carried
    from the step before.  The import and the export (y <= F - 1) are
    checked mod d too.  ctypes checks no ABI, so a wrong import, square,
    fold, wrap or export raises ArithmeticError.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    fft_k, d = plan or (0, _CHECK_PRIME)
    size, largest = m.b // _LIMB_BITS, m.value - 1
    f_d, largest_k_d = m.value % d, (largest - 1) % d
    mod_1, add_1, sub_1 = lib.__gmpn_mod_1, lib.__gmpn_add_1, lib.__gmpn_sub_1
    if fft_k:
        mul_fft = lib.__gmpn_mul_fft
    else:
        sqr, sub_n = lib.__gmpn_sqr, lib.__gmpn_sub_n
    r = _to_limbs(x, size + 1)
    r_at = ctypes.addressof(r)
    x_d = x % d
    if mod_1(r_at, size + 1, d) != x_d:
        raise ArithmeticError(f"GMP imported a {x.bit_length()}-bit residue wrongly (mod {d} check)")

    def items(x_d: int) -> Iterator[int]:
        # Python owns both buffers: r lives as long as export, mpn_sqr's square sq as long as this generator.
        if not fft_k:
            sq = (ctypes.c_uint64 * (2 * size))()
            sq_at = ctypes.addressof(sq)
            hi_at = sq_at + 8 * size
        while True:
            yield x_d
            if r[size]:  # x = 2**b = -1, so x*x = (2**b - 1)*F + 1
                r[size], r[0] = 0, 1
                k_d = largest_k_d
            elif fft_k:  # x*x mod F itself: k is unknown, and k*F = 0 mod d = q
                r[size] = mul_fft(r_at, size, r_at, size, r_at, size, fft_k)
                k_d = 0
            else:
                sqr(sq_at, r_at, size)
                k_d = mod_1(hi_at, size, d)
                if sub_n(r_at, sq_at, hi_at, size):
                    r[size] = add_1(r_at, r_at, size, 1)
                    k_d -= 1
            wrapped = c and sub_1(r_at, r_at, size + 1, c)
            if wrapped:
                r[size] = add_1(r_at, r_at, size, 1)
            y_d = mod_1(r_at, size + 1, d)
            if r[size] > 1 or (r[size] and any(r[:size])):
                raise ArithmeticError(f"GMP left a residue above 2**{m.b} mod F_{m.n}")
            if (x_d * x_d - k_d * f_d - y_d - c + wrapped * f_d) % d:
                raise ArithmeticError(f"GMP squared a residue mod F_{m.n} wrongly (mod {d} check)")
            x_d = y_d

    def export(y_d: int) -> int:
        y = _from_limbs(r)
        if y > largest or y % d != y_d:
            raise ArithmeticError(f"GMP exported a residue mod F_{m.n} wrongly (mod {d} check)")
        return y

    return items(x_d), export


def _gmp_power(x: int, k: int, m: FermatModulus, lib) -> int:
    """x**(2**k) mod F as one ``mpz_powm`` mod F*p, checked modulo the prime p.

    GMP reads x, 2**k and F*p in place, through read-only ``mpz_roinit_n``
    views of ``bytes`` held here for the whole call.  The power y is read
    from its ``mpz``'s size and limbs once that size is within F*p's.  Since
    p | F*p, y must be below F*p and congruent to (x mod p)**e mod p, where
    e = (2**k - 1) mod (p - 1) + 1 is 2**k reduced by Fermat's little theorem
    (and at least 1, so x = 0 mod p still gives 0).  So a wrong view, power
    or read raises ArithmeticError.  p = 5 mod 8 makes squaring mod p at
    most 4-to-1, so a wrong y passes with probability at most 4/p.  Only the
    power's ``mpz`` owns memory; it is freed whether the call returns or raises.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    p = _CHECK_PRIME
    modulus = m.value * p
    size = -(-modulus.bit_length() // _LIMB_BITS)
    operands = [v.to_bytes(8 * n, "little") for v, n in ((x, size), (1 << k, k // _LIMB_BITS + 1), (modulus, size))]
    power, *views = [_mpz_struct()() for _ in range(4)]
    for view, limbs in zip(views, operands):
        lib.__gmpz_roinit_n(view, limbs, len(limbs) // 8)
    lib.__gmpz_init(power)
    try:
        lib.__gmpz_powm(power, *views)
        if not 0 <= power._mp_size <= size:
            raise ArithmeticError(f"GMP left a power of size {power._mp_size}, below 0 or above F_{m.n}*{p}'s {size} limbs")
        y = int.from_bytes(ctypes.string_at(power._mp_d, 8 * power._mp_size), "little")
    finally:
        lib.__gmpz_clear(power)
    if y >= modulus or y % p != pow(x % p, (pow(2, k, p - 1) - 1) % (p - 1) + 1, p):
        raise ArithmeticError(f"GMP raised a residue mod F_{m.n} to 2**{k} wrongly (mod {p} check)")
    return reduce_mod_fermat(y, m)
