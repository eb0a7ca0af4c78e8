"""Arbitrary-precision arithmetic specialized for moduli of the form 2**b + 1.

Residues are plain Python ints in [0, 2**b + 1).  Reduction never divides:
it folds b-bit halves using 2**b = -1 (mod 2**b + 1), which is the whole
point of working with this modulus shape.  :func:`square_mod` is the one
modular squaring every test goes through; the walks that call it count
their squarings in an :class:`OpCounter`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import check_pow2_bits

Natural = int


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
    """Canonical residue of x * x: the single modular squaring kernel."""
    return reduce_mod_fermat(x * x, m)
