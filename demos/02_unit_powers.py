#!/usr/bin/env python3
"""The exact ring layer: why the recurrence 6, 34, 1154, ... is a power sum.

The unit u = 3 + 2*sqrt(2) and its conjugate v = 3 - 2*sqrt(2) satisfy
u + v = 6 and u*v = 1.  Squaring-minus-two on the power sums then telescopes:
u^(2^k) + v^(2^k) runs through exactly the recurrence terms.  All of this is
checkable with exact integers, and is, below.
"""

try:
    import fermatlab  # noqa: F401
except ImportError:
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fermatlab import U, V, a_exact, fermat_value, frobenius_check, reduce_mod, trace_pow2

print(f"u = {U},  v = {V}")
print(f"u + v = {U + V},  u * v = {U * V}")

print()
print("Conjugate power sums against the recurrence:")
for k in range(6):
    total = trace_pow2(k)
    print(f"  u^(2^{k}) + v^(2^{k}) = {total}  ==  term {k + 1} = {a_exact(k + 1)}")
    assert total == a_exact(k + 1)

print()
print("Exact unit powers grow fast (about 2.55 bits per exponent step):")
for k in (4, 64, 1024):
    w = U**k
    print(f"  u^{k} has components of {w.a.bit_length()} and {w.b.bit_length()} bits")

print()
print("Componentwise reduction keeps the same checks cheap at any size:")
w = pow(U, 65537, 65537)
print(f"  u^65537 mod 65537 = {w}  (u itself is {reduce_mod(U, 65537)})")

print()
print("The fixed-point check u^p = u (mod p) on the prime moduli of the tower:")
for n in range(5):
    p = fermat_value(n)
    verdict = frobenius_check(p)
    note = "expected, the order argument needs n >= 2" if not verdict else "as the theory demands"
    print(f"  p = F_{n} = {p}: {verdict}  ({note})")
