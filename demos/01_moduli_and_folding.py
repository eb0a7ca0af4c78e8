#!/usr/bin/env python3
"""A walk through the moduli 2^(2^n) + 1 and the folding reduction.

Everything in the library is an exact Python integer.  The one trick worth
seeing up close is how a remainder modulo 2^b + 1 is computed without a
single division: because 2^b = -1 there, a number splits into b-bit halves
whose difference is congruent to it.
"""

try:
    import fermatlab  # noqa: F401
except ImportError:
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fermatlab import (
    FermatModulus,
    a_mod_fermat,
    chain_item,
    cross_check,
    fermat_value,
    reduce_mod_fermat,
)

print("The tower of moduli grows doubly exponentially:")
for n in range(6):
    print(f"  F_{n} = 2^(2^{n}) + 1 = {fermat_value(n)}")

print()
print("Folding reduction, step by step, for 257 mod F_2 = 17:")
print("  257 = 16*16 + 1, so hi = 16 and lo = 1")
print("  lo - hi = -15, negative, so flip and fix up: 17 - 15 = 2")
m = FermatModulus(2)
print(f"  reduce_mod_fermat(257, F_2) = {reduce_mod_fermat(257, m)}")
assert reduce_mod_fermat(257, m) == 257 % 17

print()
print("The modulus itself folds to zero, and giant inputs just fold repeatedly:")
print(f"  F_2 mod F_2          = {reduce_mod_fermat(17, m)}")
big = 17**9 + 5
print(f"  (17^9 + 5) mod F_2   = {reduce_mod_fermat(big, m)}  (check: {big % 17})")

print()
print("Every test squares with one chain, x, x^2 - c, ... mod F_n, each step a multiply")
print("followed by the fold; chain_item returns item k, and item 1 is one square:")
m4 = FermatModulus(4)
powers = [(k, chain_item(3, 0, k, m4)) for k in range(6)]
print(f"  3^2 mod F_4 = {powers[1][1]}")
print(f"  3^(2^k) mod F_4 for k = 0..5: {powers}")
r = chain_item(3, 0, 10, m4)
print(f"  3^(2^10) mod F_4 = {r} after ten squarings  (check: {pow(3, 1 << 10, m4.value)})")

print()
print("Squarings are counted, because both primality tests below are priced in them:")
report = cross_check(4)
print(f"  the base-3 criterion on F_4 costs {report.squarings_pepin} squarings")
print(f"  the recurrence scan on F_4 costs {report.squarings_scan}, stopping at term {report.scan.found_q}")
q = 6
print(f"  the 6th recurrence term mod F_4, {a_mod_fermat(q, 4)}, costs {q - 1} squarings")
