#!/usr/bin/env python3
"""The divisibility scan, its window, and the cross-check against the oracle.

A modulus F_n divides some recurrence term with index q in [n, 2^n) whenever
F_n is prime; finding no such term therefore certifies compositeness.  The
converse, that a found term certifies primality, is an open conjecture, so a
hit is reported as a witness and always cross-checked against the base-3
criterion.
"""

try:
    import fermatlab  # noqa: F401
except ImportError:
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fermatlab import FermatModulus, cross_check, h_min, paper_scan, residues

print("Residue stream mod F_3 = 257 (watch it hit zero at q = 5):")
values = [r for _, r in residues(FermatModulus(3), 7)]
print(f"  q = 1..7: {values}")

print()
print("The scan packages that walk with a window and a replayable trace:")
for n in (2, 3, 4, 5):
    result = paper_scan(n)
    hit = f"q = {result.found_q}" if result.found_q is not None else "no q (composite, certified)"
    print(f"  n={n}: window {result.window}, {hit}, {result.squarings} squarings")
    print(f"        trace {result.residue_trace_hash[:23]}...")

print()
print("Behind the scan sits the minimum index whose residue is 2:")
for n in (2, 3, 4):
    m = h_min(n)
    print(f"  n={n}: min index m = {m}, and the term at m-2 = {m - 2} is the zero the scan finds")

print()
print("Cross-check both procedures for n = 2..10:")
for n in range(2, 11):
    report = cross_check(n)
    print(
        f"  n={n:2}: oracle {report.pepin.label:16}  scan {report.paper.label:19}"
        f"  consistent={report.consistent}"
    )
