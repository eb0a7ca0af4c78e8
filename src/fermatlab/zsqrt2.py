"""Exact arithmetic in the ring of integers extended by sqrt(2).

Everything here is integer-exact; the unit 3 + 2*sqrt(2) and its conjugate
inverse 3 - 2*sqrt(2) generate the squaring recurrence studied in
:mod:`fermatlab.sequences`, and the congruence operations let that link be
verified componentwise modulo a prime.
"""

from __future__ import annotations

from typing import NamedTuple

from .budget import BudgetExceededError, check_pow2_bits, max_bits


class ZSqrt2(NamedTuple):
    """a + b*sqrt(2) with exact integer components."""

    a: int
    b: int

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}*sqrt2"

    def __add__(self, other: "ZSqrt2") -> "ZSqrt2":
        return ZSqrt2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ZSqrt2") -> "ZSqrt2":
        return ZSqrt2(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ZSqrt2":
        return ZSqrt2(-self.a, -self.b)

    def __mul__(self, other: "ZSqrt2") -> "ZSqrt2":
        return ZSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __rmul__(self, other: object) -> "ZSqrt2":
        return NotImplemented  # an int on the left would repeat the tuple

    def __pow__(self, k: int, p: int | None = None) -> "ZSqrt2":
        """self**k exactly, or as ``pow(self, k, p)`` with components reduced mod p after every product.

        A reduced power matches the exact one componentwise mod p but stays
        below p, so only the exact power, whose components grow like 2.55*k
        bits for the unit U, is held to the budget.
        """
        if k < 0:
            raise ValueError(f"expected a nonnegative exponent, got {k}")
        if p is None and k > max_bits():
            raise BudgetExceededError(f"exponent {k} exceeds the exact-size budget {max_bits()}")

        def reduce(x: ZSqrt2) -> ZSqrt2:
            return x if p is None else reduce_mod(x, p)

        result = ONE  # reduced mod any p >= 2, which reduce_mod checks on the next line, even for k = 0
        square = reduce(self)
        while k:
            if k & 1:
                result = reduce(result * square)
            square = reduce(square * square)
            k >>= 1
        return result

    def conjugate(self) -> "ZSqrt2":
        return ZSqrt2(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b


ONE = ZSqrt2(1, 0)
# The unit u = 3 + 2*sqrt(2) and its inverse conjugate v: u + v = 6 and u*v = 1.
U = ZSqrt2(3, 2)
V = ZSqrt2(3, -2)


def reduce_mod(x: ZSqrt2, p: int) -> ZSqrt2:
    """Componentwise reduction into [0, p)."""
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    return ZSqrt2(x.a % p, x.b % p)


def congruent_mod(x: ZSqrt2, y: ZSqrt2, p: int) -> bool:
    """True iff both component differences are divisible by p."""
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    return (x.a - y.a) % p == 0 and (x.b - y.b) % p == 0


def trace_pow2(k: int) -> int:
    """u**(2**k) + v**(2**k) as a plain integer.

    Both powers are computed, and v**(2**k) must be the conjugate of
    u**(2**k), so the sqrt(2) parts cancel by a check rather than by
    construction.
    """
    if k < 0:
        raise ValueError(f"expected a nonnegative exponent, got {k}")
    check_pow2_bits(k, f"unit power 2**{k}")
    w = U ** (1 << k)
    v = V ** (1 << k)
    if v != w.conjugate():
        raise ArithmeticError(f"v**(2**{k}) is not the conjugate of u**(2**{k})")
    return (w + v).a


def frobenius_check(p: int) -> bool:
    """Does u**p agree with u componentwise mod p?

    Holds for the prime moduli 17, 257 and 65537 of the tower but fails for
    3 and 5: the underlying order argument needs 2**(n+1) to divide (p-1)/2,
    which is false for the two smallest tower indices.  The literal truth
    value is reported either way.
    """
    return pow(U, p, p) == reduce_mod(U, p)


def sqrt2_mod_fermat(n: int) -> int:
    """s = 2**(b/4) * (2**(b/2) - 1) with b = 2**n, a square root of 2 mod 2**b + 1 for n >= 2.

    With t = 2**(b/4), t**4 = 2**b = -1, so s**2 = t**2 * (t**4 - 2*t**2 + 1)
    = -2*t**4 = 2: 2 is a square mod every tower number from 17 up.
    """
    if n < 2:
        raise ValueError(f"the square root needs b/4 to be whole, so n >= 2, got {n}")
    check_pow2_bits(n, f"square root of 2 mod F_{n}")
    b = 1 << n
    return (1 << b // 4) * ((1 << b // 2) - 1)
