"""The squaring recurrence 6, 34, 1154, ... exactly and modulo 2**(2**n) + 1."""

from __future__ import annotations

from typing import Iterator

from .arith import FermatModulus, chain_item, reduce_mod_fermat, trace_blocks, trace_hash
from .budget import check_pow2_bits


def a_exact(q: int) -> int:
    """Exact q-th term: starts at 6, each term is the square of the previous minus 2."""
    if q < 1:
        raise ValueError(f"the sequence starts at index 1, got {q}")
    check_pow2_bits(q - 1, f"exact term {q}")
    x = 6
    for _ in range(q - 1):
        x = x * x - 2
    return x


def residues(m: FermatModulus, count: int) -> Iterator[tuple[int, int]]:
    """Yield (q, q-th term mod m) for q = 1 .. count, decoded from ``arith.trace_blocks``; each step past q = 1 is one squaring."""
    width = m.b // 8 + 1
    blocks = trace_blocks(reduce_mod_fermat(6, m), 2, m, count)
    items = (int.from_bytes(block[at : at + width], "little") for block, _ in blocks for at in range(0, len(block), width))
    return enumerate(items, 1)


def residue_trace(m: FermatModulus, count: int) -> tuple[str, int, bool]:
    """The trace hash of residues q = 1 .. count mod m up to the first zero, the residues read and whether the last is 0 (see ``arith.trace_hash``)."""
    return trace_hash(reduce_mod_fermat(6, m), 2, m, count)


def a_mod_fermat(q: int, n: int) -> int:
    """The q-th term mod 2**(2**n) + 1, via q - 1 squaring steps from 6."""
    if q < 1:
        raise ValueError(f"the sequence starts at index 1, got {q}")
    m = FermatModulus(n)
    return chain_item(reduce_mod_fermat(6, m), 2, q - 1, m)


def s_value(q: int) -> int:
    """Half of the exact q-th term (every term is even)."""
    x = a_exact(q)
    if x & 1:
        raise ArithmeticError(f"term {q} is odd, but every term of the recurrence is even")
    return x >> 1


def overlap_check(n_max: int) -> list[int]:
    """The n in 1 .. n_max where the strict sandwich F_n < A_n < F_{n+1} fails, by exact integers (expected none)."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    violations = []
    lower = FermatModulus(1).value
    for n in range(1, n_max + 1):
        upper = FermatModulus(n + 1).value
        term = a_exact(n)
        if not lower < term < upper:
            violations.append(n)
        lower = upper
    return violations
