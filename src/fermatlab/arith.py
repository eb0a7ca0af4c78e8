"""Arbitrary-precision arithmetic specialized for moduli of the form 2**b + 1.

Residues are plain Python ints in [0, 2**b + 1).  Reduction never divides:
it folds b-bit halves using 2**b = -1 (mod 2**b + 1), which is the whole
point of working with this modulus shape.  Every test runs one squaring
chain x, x*x - c, ... mod the modulus, read in one of two ways:
:func:`square_chain` yields every item and :func:`chain_item` returns item
k alone; :func:`square_mod` is item 1.  The walks that use them count their
squarings in an :class:`OpCounter`.

The chain's arithmetic is chosen per modulus when a chain starts.  Below
``GMP_MIN_N`` it is CPython's ``x * x`` and :func:`reduce_mod_fermat`, which
is also the reference.  From ``GMP_MIN_N`` up the residue lives in 64-bit
limbs for the whole chain and GMP's ``mpn`` functions, reached through
``ctypes`` when ``libgmp.so.10`` loads, square and fold it; every step is
checked modulo a prime, and only an item that is read becomes an int.
When the library does not load, every modulus uses ``x * x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Iterator

from .budget import check_pow2_bits

Natural = int

# The smallest n whose chains run in GMP.  Time per step of the int chain
# (x * x and the fold) against the GMP chain (mpn_sqr, the fold and the
# checks on limbs), best of five walks of x -> x*x - 2, range of five runs:
# 3.2-6.0 vs 4.5-8.7 us at n = 11; 11.5-19.1 vs 7.1-9.8 us at n = 12, which
# outweighs the ~2 ms that loading GMP costs once (cross_check(12) in a fresh
# process: 157-175 vs 77-99 ms); 37-58 vs 10-12 us at n = 13; and 934-1297
# vs 98-157 us at n = 16 (2-CPU Xeon, CPython 3.11.7, GMP 6.2.1).
GMP_MIN_N = 12
GMP_SONAME = "libgmp.so.10"
# A ~30-bit prime: every GMP step must satisfy x*x = k*F + y + c - w*F modulo it.
_CHECK_PRIME = (1 << 30) - 35
# GMP chains need 64-bit limbs and b a whole number of them, so n >= 6.
_LIMB_BITS = 64


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
        """The arithmetic of chains mod this modulus: "int" or "gmp".

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


def chain_item(x: int, c: int, k: int, m: FermatModulus) -> int:
    """Item k of ``square_chain(x, c, m)``, after k squarings.

    Only item k is converted to an int: on the GMP path the items before it
    stay limbs, each checked as it is computed.
    """
    if k < 0:
        raise ValueError(f"expected a nonnegative item index, got {k}")
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


def square_mod(x: int, m: FermatModulus) -> int:
    """Canonical residue of x * x: item 1 of ``square_chain(x, 0, m)``."""
    return chain_item(x, 0, 1, m)


def _start(x: int, c: int, m: FermatModulus):
    """The chain from x on m's backend: its items, and the export that reads one as an int.

    The int chain yields the residues themselves and has no export (None);
    the GMP chain yields each item's check value x mod p, and its export
    converts the limbs of the item it last yielded.
    """
    if not 0 <= x < m.value:
        raise ValueError(f"expected a canonical residue mod F_{m.n}, got a {x.bit_length()}-bit integer")
    if not 0 <= c < min(m.value, 1 << 32):  # the GMP chain subtracts c as one limb
        raise ValueError(f"expected a small nonnegative constant below F_{m.n}, got {c}")
    lib = _gmp_for(m)
    return (_int_chain(x, c, m), None) if lib is None else _gmp_chain(x, c, m, lib)


def _int_chain(x: int, c: int, m: FermatModulus) -> Iterator[int]:
    value = m.value
    while True:
        yield x
        x = reduce_mod_fermat(x * x, m) - c
        if x < 0:
            x += value


def _gmp_for(m: FermatModulus):
    """The GMP library when chains mod m run in it, else None."""
    return _load_gmp() if m.n >= GMP_MIN_N and m.b >= _LIMB_BITS else None


@cache
def _load_gmp():
    """The system GMP library with its entry points typed, or None when it cannot serve.

    Loaded by soname, so no subprocess runs to find it; ctypes is imported
    here and only here, when a chain first needs the library.  A GMP built
    with limbs other than 64 bits is not used.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(GMP_SONAME)
    except OSError:
        return None
    if ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value != _LIMB_BITS:
        return None
    ptr, size, limb = ctypes.c_void_p, ctypes.c_long, ctypes.c_uint64
    for name, argtypes, restype in (
        ("__gmpn_sqr", [ptr, ptr, size], None),
        ("__gmpn_mod_1", [ptr, size, limb], limb),
        ("__gmpn_sub_n", [ptr, ptr, ptr, size], limb),
        ("__gmpn_add_1", [ptr, ptr, size, limb], limb),
        ("__gmpn_sub_1", [ptr, ptr, size, limb], limb),
    ):
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _to_limbs(x: int, count: int):
    """x as ``count`` 64-bit little-endian limbs in a new ctypes array."""
    import ctypes  # already loaded by _load_gmp; this is a lookup

    return (ctypes.c_uint64 * count).from_buffer_copy(x.to_bytes(8 * count, "little"))


def _from_limbs(limbs) -> int:
    """The int that a ctypes array of 64-bit little-endian limbs holds."""
    return int.from_bytes(limbs, "little")


def _gmp_chain(x: int, c: int, m: FermatModulus, lib):
    """The chain on raw GMP limbs: x mod p per item, and the export of the current item.

    The residue is L + 1 limbs, L = b / 64; the top limb is 1 only for
    x = 2**b.  A step squares the L low limbs into 2L with ``mpn_sqr``,
    folds x*x = hi * 2**b + lo to lo - hi, adding F on a borrow, and
    subtracts c, adding F on a wrap.  x = 2**b squares to 1 with
    k = 2**b - 1, so it needs no (L + 1)-limb square.  With x*x = k*F + r,
    ``mpn_mod_1`` gives k mod p and y mod p, and every step checks that the
    top limb is canonical and that x*x = k*F + y + c - w*F (mod p), w = 1 on
    a wrap, with x mod p carried from the step before.  The export checks
    y <= F - 1 and y mod p again.  ctypes checks no ABI, so a wrong import,
    square, fold, wrap or export raises ArithmeticError.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    size, p, largest = m.b // _LIMB_BITS, _CHECK_PRIME, m.value - 1
    f_p, largest_k_p = m.value % p, (largest - 1) % p
    sqr, mod_1, sub_n = lib.__gmpn_sqr, lib.__gmpn_mod_1, lib.__gmpn_sub_n
    add_1, sub_1 = lib.__gmpn_add_1, lib.__gmpn_sub_1
    r = _to_limbs(x, size + 1)
    x_p = x % p
    if mod_1(ctypes.addressof(r), size + 1, p) != x_p:
        raise ArithmeticError(f"GMP imported a {x.bit_length()}-bit residue wrongly (mod {p} check)")

    def items(x_p: int) -> Iterator[int]:
        # Python owns both buffers: r lives as long as export, sq as long as this generator.
        sq = (ctypes.c_uint64 * (2 * size))()
        r_at, sq_at = ctypes.addressof(r), ctypes.addressof(sq)
        hi_at = sq_at + 8 * size
        while True:
            yield x_p
            if r[size]:  # x = 2**b = -1, so x*x = (2**b - 1)*F + 1
                r[size], r[0] = 0, 1
                k_p = largest_k_p
            else:
                sqr(sq_at, r_at, size)
                k_p = mod_1(hi_at, size, p)
                if sub_n(r_at, sq_at, hi_at, size):
                    r[size] = add_1(r_at, r_at, size, 1)
                    k_p -= 1
            wrapped = c and sub_1(r_at, r_at, size + 1, c)
            if wrapped:
                r[size] = add_1(r_at, r_at, size, 1)
            y_p = mod_1(r_at, size + 1, p)
            if r[size] > 1 or (r[size] and any(r[:size])):
                raise ArithmeticError(f"GMP left a residue above 2**{m.b} mod F_{m.n}")
            if (x_p * x_p - k_p * f_p - y_p - c + wrapped * f_p) % p:
                raise ArithmeticError(f"GMP squared a residue mod F_{m.n} wrongly (mod {p} check)")
            x_p = y_p

    def export(y_p: int) -> int:
        y = _from_limbs(r)
        if y > largest or y % p != y_p:
            raise ArithmeticError(f"GMP exported a residue mod F_{m.n} wrongly (mod {p} check)")
        return y

    return items(x_p), export
