"""Arbitrary-precision arithmetic specialized for moduli of the form 2**b + 1.

Residues are plain Python ints in [0, 2**b + 1).  Reduction never divides:
it folds b-bit halves using 2**b = -1 (mod 2**b + 1), which is the whole
point of working with this modulus shape.  :func:`square_mod` is the one
modular squaring every test goes through; the walks that call it count
their squarings in an :class:`OpCounter`.

The multiply inside :func:`square_mod` is chosen once per modulus.  Below
``GMP_MIN_N`` it is CPython's ``x * x``, which is also the reference.  From
``GMP_MIN_N`` up it is ``mpz_mul`` from the system GMP library, reached
through ``ctypes`` when ``libgmp.so.10`` loads; every product it returns is
checked modulo a prime before use.  When the library does not load, every
modulus uses ``x * x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .budget import check_pow2_bits

Natural = int

# The smallest n whose moduli square through GMP.  Time per call of x * x
# divided by that of the GMP path (import, mpz_mul, export and the mod-p
# check) on random operands, best of five passes, range of two runs:
# 0.6-0.9 at n = 12, 1.5-1.9 at n = 13, 2.5-3.1 at n = 14 and 6.5-6.9 at
# n = 16 (2-CPU Xeon, CPython 3.11.7, GMP 6.2.1).
GMP_MIN_N = 13
GMP_SONAME = "libgmp.so.10"
# A ~30-bit prime: each GMP product must agree with (x mod p)**2 mod p.
_CHECK_PRIME = (1 << 30) - 35


@dataclass
class OpCounter:
    """Squarings spent by the walks it is passed to; monotone within a run."""

    squarings: int = 0


class FermatModulus:
    """The modulus 2**b + 1 with b = 2**n."""

    __slots__ = ("n", "b", "value", "_mask", "_square")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"modulus index must be nonnegative, got {n}")
        check_pow2_bits(n, f"modulus index {n}")
        self.n = n
        self.b = 1 << n
        self.value = (1 << self.b) + 1
        self._mask = (1 << self.b) - 1
        # None means x * x, tested inline in square_mod so small n pays no extra call.
        self._square = _gmp_square if n >= GMP_MIN_N and _load_gmp() is not None else None

    @property
    def backend(self) -> str:
        """The multiply behind square_mod for this modulus: "int" or "gmp"."""
        return "int" if self._square is None else "gmp"


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


def square_mod(x: int, m: FermatModulus) -> int:
    """Canonical residue of x * x: the single modular squaring kernel.

    The multiply is the one ``m`` chose when it was built (see ``backend``);
    either way the product is folded by :func:`reduce_mod_fermat`.
    """
    square = m._square
    return reduce_mod_fermat(x * x if square is None else square(x), m)


@cache
def _load_gmp():
    """The system GMP library with the five entry points typed, or None when it does not load.

    Loaded by soname, so no subprocess runs to find it; ctypes is imported
    here and only here, when a modulus first needs the library.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(GMP_SONAME)
    except OSError:
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    for name, argtypes, restype in (
        ("__gmpz_init", [ptr], None),
        ("__gmpz_clear", [ptr], None),
        ("__gmpz_mul", [ptr, ptr, ptr], None),
        ("__gmpz_import", [ptr, size, ctypes.c_int, size, ctypes.c_int, size, ptr], None),
        ("__gmpz_export", [ptr, ptr, ctypes.c_int, size, ctypes.c_int, size, ptr], ptr),
    ):
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _gmp_square(x: int) -> int:
    """x * x computed by GMP's mpz_mul, checked modulo a small prime.

    x moves in and out as 8-byte little-endian words.  ctypes checks no
    ABI, so a product that disagrees with (x mod p)**2 mod p raises
    ArithmeticError instead of entering a walk.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    lib = _load_gmp()
    words = (x.bit_length() + 63) >> 6
    z = ctypes.create_string_buffer(16)  # mpz_t {int alloc; int size; limb *d}, kept opaque
    lib.__gmpz_init(z)
    try:
        lib.__gmpz_import(z, words, -1, 8, -1, 0, x.to_bytes(8 * words, "little"))
        lib.__gmpz_mul(z, z, z)
        out = ctypes.create_string_buffer(16 * words)
        count = ctypes.c_size_t()
        lib.__gmpz_export(out, ctypes.byref(count), -1, 8, -1, 0, z)
        product = int.from_bytes(memoryview(out)[: 8 * count.value], "little")
    finally:
        lib.__gmpz_clear(z)
    residue = x % _CHECK_PRIME
    if product % _CHECK_PRIME != residue * residue % _CHECK_PRIME:
        raise ArithmeticError(f"GMP squared a {x.bit_length()}-bit integer wrongly (mod {_CHECK_PRIME} check)")
    return product
