"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact unless a wall-clock bound is stated.
"""

import math
import random
import time

import pytest

from fermatlab.arith import FermatModulus, fermat_value, reduce_mod_fermat
from fermatlab.cli import main
from fermatlab.primality import (
    NotApplicableError,
    Verdict,
    cross_check,
    h_min,
    paper_scan,
    pepin_squarings,
    pepin_test,
    trial_factor_search,
    verify_two_order,
)
from fermatlab.sequences import a_exact, a_mod_fermat, overlap_check
from fermatlab.zsqrt2 import ONE, U, V, ZSqrt2, frobenius_check, trace_pow2


def _report(number, label):
    print(f"PASS  criterion {number}: {label}")


def test_criterion_1_constant_fixtures():
    start = time.perf_counter()
    assert [fermat_value(n) for n in range(5)] == [3, 5, 17, 257, 65537]
    assert fermat_value(5) == 4294967297
    witness = trial_factor_search(5, 10)
    assert witness is not None
    assert witness.factor == 641 and witness.cofactor == 6700417
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"constant fixtures and 641 x 6700417 in {elapsed:.3f}s")


def test_criterion_2_pepin_oracle():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        assert pepin_test(n) is Verdict.PRIME_BY_PEPIN, f"n={n}"
    for n in range(5, 13):
        assert pepin_test(n) is Verdict.COMPOSITE_BY_PEPIN, f"n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"verdicts for n=1..12 in {elapsed:.2f}s")


def test_criterion_3_paper_test_agreement(capsys):
    assert paper_scan(2).found_q == 2
    assert paper_scan(3).found_q == 5
    q4 = paper_scan(4).found_q
    assert q4 is not None and 4 <= q4 < 16
    for n in range(5, 13):
        assert paper_scan(n).found_q is None, f"n={n}"
    reports = [cross_check(n) for n in range(2, 13)]
    assert all(report.consistent for report in reports)
    exit_code = main(["cross-check", "--from", "2", "--to", "12"])
    capsys.readouterr()
    assert exit_code == 0
    _report(3, "scan verdicts agree with the oracle for n=2..12, cross-check exits 0")


def test_criterion_4_proof_machinery():
    expected_minimum = {2: 4, 3: 7}
    for n in (2, 3, 4):
        m = h_min(n)
        assert m is not None and m >= 3
        assert a_mod_fermat(m - 2, n) == 0
        if n in expected_minimum:
            assert m == expected_minimum[n]
    _report(4, "minimum residue-2 index m gives a zero term at m-2 for n=2..4")


def test_criterion_5_quadratic_ring_identities():
    assert U + V == ZSqrt2(6, 0)
    assert U * V == ONE
    for k in range(13):
        assert trace_pow2(k) == a_exact(k + 1), f"k={k}"
    for p in (17, 257, 65537):
        assert frobenius_check(p), f"p={p}"
    for p in (3, 5):
        assert not frobenius_check(p), f"p={p}"
    _report(5, "unit pair, conjugate power sums k=0..12, frobenius boundary")


def test_criterion_6_interleaving():
    assert overlap_check(12) == []
    _report(6, "strict sandwich between consecutive moduli for n=1..12")


def test_criterion_7_arithmetic_soundness():
    for n in range(2, 11):
        modulus = FermatModulus(n)
        rng = random.Random(4096 + n)
        bound = modulus.value * modulus.value
        for _ in range(1000):
            x = rng.randrange(bound + 1)
            assert reduce_mod_fermat(x, modulus) == x % modulus.value
    terms = [a_exact(q) for q in range(1, 13)]
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            assert math.gcd(terms[i], terms[j]) == 2
    for n in range(13):
        assert verify_two_order(n), f"n={n}"
    _report(7, "folding = remainder (9000 samples), gcd pairs = 2, order identity n=0..12")


def test_criterion_8_instrumentation_exactness():
    for n in range(2, 11):
        assert pepin_squarings(n) == cross_check(n).squarings_pepin == (1 << n) - 1, f"n={n}"
        result = paper_scan(n)
        if result.found_q is not None:
            assert result.squarings == result.found_q - 1, f"n={n}"
        else:
            assert result.squarings == (1 << n) - 2, f"n={n}"
    _report(8, "exact squaring counts for both tests, n=2..10")


def test_criterion_9_literal_statement_boundary(capsys):
    assert pepin_test(1) is Verdict.PRIME_BY_PEPIN
    for q in (1, 2):
        assert a_exact(q) % 5 != 0
    with pytest.raises(NotApplicableError):
        paper_scan(1)
    exit_code = main(["paper-test", "1"])
    capsys.readouterr()
    assert exit_code == 1
    _report(9, "n=1 edge: oracle says prime, no divisible term exists, CLI refuses with exit 1")
