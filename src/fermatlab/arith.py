"""Arbitrary-precision arithmetic specialized for moduli of the form 2**b + 1.

Residues are plain Python ints in [0, 2**b + 1).  Reduction never divides:
it folds b-bit halves using 2**b = -1 (mod 2**b + 1), which is the whole
point of working with this modulus shape.  :func:`square_chain` is the one
squaring kernel every test goes through: it yields x, x*x - c, ... mod the
modulus, and :func:`square_mod` is one step of it.  The walks that use it
count their squarings in an :class:`OpCounter`.

The chain's arithmetic is chosen per modulus when a chain starts.  Below
``GMP_MIN_N`` it is CPython's ``x * x`` and :func:`reduce_mod_fermat`, which
is also the reference.  From ``GMP_MIN_N`` up the residue lives in GMP
integers for the whole chain, reached through ``ctypes`` when
``libgmp.so.10`` loads; GMP squares and folds, only the b-bit residue comes
back to Python, and every step is checked modulo a prime before it is
yielded.  When the library does not load, every modulus uses ``x * x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Iterator

from .budget import check_pow2_bits

Natural = int

# The smallest n whose chains run in GMP.  Time per step of the int chain
# (x * x and the fold) against the GMP chain (mpz_mul, the fold in GMP, the
# export and the mod-p check), best of five walks of x -> x*x - 2, range of
# four to six runs: 11.9-22.1 vs 13.2-20.8 us at n = 12, a toss-up on top of
# the ~3 ms that loading GMP costs once; 48-62 vs 24-29 us at n = 13; and
# 894-1557 vs 116-175 us at n = 16 (2-CPU Xeon, CPython 3.11.7, GMP 6.2.1).
GMP_MIN_N = 13
GMP_SONAME = "libgmp.so.10"
# A ~30-bit prime: every GMP step must satisfy x*x = k*F + y + c - w*F modulo it.
_CHECK_PRIME = (1 << 30) - 35


@dataclass
class OpCounter:
    """Squarings spent by the walks it is passed to; monotone within a run."""

    squarings: int = 0


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
        """The arithmetic behind square_chain for this modulus: "int" or "gmp".

        Reading it may load the GMP library, as starting a chain does.
        """
        return "int" if _gmp_for(self) is None else "gmp"


def fermat_value(n: int) -> Natural:
    """The n-th term of the 3, 5, 17, 257, ... tower: 2**(2**n) + 1."""
    return FermatModulus(n).value


def reduce_mod_fermat(x: Natural, m: FermatModulus) -> int:
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


def square_chain(x: int, c: int, m: FermatModulus) -> Iterator[int]:
    """Yield x, x*x - c, (x*x - c)**2 - c, ... mod m as canonical ints.

    Item k costs k squarings, each done when it is asked for.  ``x`` must be
    a canonical residue and ``c`` a small nonnegative constant (0 for Pépin,
    2 for the recurrence).  The arithmetic is the one ``m.backend`` names;
    the GMP chain raises ArithmeticError on any step that fails its check.
    """
    if not 0 <= x < m.value:
        raise ValueError(f"expected a canonical residue mod F_{m.n}, got a {x.bit_length()}-bit integer")
    if not 0 <= c < min(m.value, 1 << 32):  # GMP takes c as an unsigned long
        raise ValueError(f"expected a small nonnegative constant below F_{m.n}, got {c}")
    lib = _gmp_for(m)
    return _int_chain(x, c, m) if lib is None else _gmp_chain(x, c, m, lib)


def square_mod(x: int, m: FermatModulus) -> int:
    """Canonical residue of x * x: one step of ``square_chain(x, 0, m)``."""
    return next(islice(square_chain(x, 0, m), 1, None))


def _int_chain(x: int, c: int, m: FermatModulus) -> Iterator[int]:
    value = m.value
    while True:
        yield x
        x = reduce_mod_fermat(x * x, m) - c
        if x < 0:
            x += value


def _gmp_for(m: FermatModulus):
    """The GMP library when chains mod m run in it, else None."""
    return _load_gmp() if m.n >= GMP_MIN_N else None


@cache
def _load_gmp():
    """The system GMP library with its entry points typed, or None when it does not load.

    Loaded by soname, so no subprocess runs to find it; ctypes is imported
    here and only here, when a chain first needs the library.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(GMP_SONAME)
    except OSError:
        return None
    ptr, size, ulong, cint = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_ulong, ctypes.c_int
    for name, argtypes, restype in (
        ("__gmpz_init", [ptr], None),
        ("__gmpz_clear", [ptr], None),
        ("__gmpz_setbit", [ptr, ulong], None),
        ("__gmpz_import", [ptr, size, cint, size, cint, size, ptr], None),
        ("__gmpz_export", [ptr, ptr, cint, size, cint, size, ptr], ptr),
        ("__gmpz_sizeinbase", [ptr, cint], size),
        ("__gmpz_mul", [ptr, ptr, ptr], None),
        ("__gmpz_tdiv_q_2exp", [ptr, ptr, ulong], None),
        ("__gmpz_tdiv_r_2exp", [ptr, ptr, ulong], None),
        ("__gmpz_fdiv_ui", [ptr, ulong], ulong),
        ("__gmpz_cmp", [ptr, ptr], cint),
        ("__gmpz_cmp_ui", [ptr, ulong], cint),
        ("__gmpz_add", [ptr, ptr, ptr], None),
        ("__gmpz_sub", [ptr, ptr, ptr], None),
        ("__gmpz_sub_ui", [ptr, ptr, ulong], None),
    ):
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _gmp_chain(x: int, c: int, m: FermatModulus, lib) -> Iterator[int]:
    """square_chain with the residue kept in GMP integers between steps.

    Each step squares, splits x*x = hi * 2**b + lo, folds to lo - hi (+F)
    and subtracts c (+F on a wrap), all in GMP, then exports the b-bit
    residue y as 8-byte little-endian words.  With x*x = k*F + r, GMP also
    gives k mod p, so Python checks x*x = k*F + y + c - w*F (mod p), w = 1
    on a wrap, with x mod p carried from the previous step: one b-bit
    reduction per step.  ctypes checks no ABI, so a wrong import, product,
    fold or export raises ArithmeticError instead of entering a walk.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    b, p, top = m.b, _CHECK_PRIME, m.value - 1
    f_p = m.value % p
    mul, cmp, add, sub = lib.__gmpz_mul, lib.__gmpz_cmp, lib.__gmpz_add, lib.__gmpz_sub
    high, low, mod_ui = lib.__gmpz_tdiv_q_2exp, lib.__gmpz_tdiv_r_2exp, lib.__gmpz_fdiv_ui
    cmp_ui, sub_ui, export, bits = lib.__gmpz_cmp_ui, lib.__gmpz_sub_ui, lib.__gmpz_export, lib.__gmpz_sizeinbase
    out = ctypes.create_string_buffer(8 * ((b + 64) >> 6))  # room for b + 1 bits
    count = ctypes.c_size_t()
    count_ref = ctypes.byref(count)
    # mpz_t {int alloc; int size; limb *d}, kept opaque: the residue, its square, hi and F.
    mpz = [ctypes.create_string_buffer(16) for _ in range(4)]
    z, sq, hi, f = mpz
    for t in mpz:
        lib.__gmpz_init(t)
    try:
        lib.__gmpz_setbit(f, b)
        lib.__gmpz_setbit(f, 0)
        words = (x.bit_length() + 63) >> 6
        lib.__gmpz_import(z, words, -1, 8, -1, 0, x.to_bytes(8 * words, "little"))
        x_p = x % p
        if mod_ui(z, p) != x_p:
            raise ArithmeticError(f"GMP imported a {x.bit_length()}-bit residue wrongly (mod {p} check)")
        yield x
        while True:
            mul(sq, z, z)
            high(hi, sq, b)
            low(sq, sq, b)
            k_p = mod_ui(hi, p)
            borrow = cmp(sq, hi) < 0
            sub(z, sq, hi)
            if borrow:
                add(z, z, f)
                k_p -= 1
            wrapped = c and cmp_ui(z, c) < 0
            if wrapped:
                add(z, z, f)
            if c:
                sub_ui(z, z, c)
            if bits(z, 2) > b + 1:
                raise ArithmeticError(f"GMP left a residue wider than {b + 1} bits mod F_{m.n}")
            export(out, count_ref, -1, 8, -1, 0, z)
            y = int.from_bytes(memoryview(out)[: 8 * count.value], "little")
            y_p = y % p
            if y > top or (x_p * x_p - k_p * f_p - y_p - c + wrapped * f_p) % p:
                raise ArithmeticError(f"GMP squared a residue mod F_{m.n} wrongly (mod {p} check)")
            x_p = y_p
            yield y
    finally:
        for t in mpz:
            lib.__gmpz_clear(t)
