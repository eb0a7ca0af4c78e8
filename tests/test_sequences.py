import math

import pytest

import fermatlab.sequences as sequences
from fermatlab.arith import FermatModulus, fermat_value
from fermatlab.budget import BudgetExceededError
from fermatlab.sequences import a_exact, a_mod_fermat, overlap_check, residues, s_value


def test_a_exact_fixtures():
    assert a_exact(1) == 6
    assert a_exact(2) == 34
    assert a_exact(3) == 1154
    assert a_exact(4) == 1331714


def test_a_exact_rejects_index_zero():
    with pytest.raises(ValueError):
        a_exact(0)


def test_a_exact_budget():
    with pytest.raises(BudgetExceededError):
        a_exact(100)


def test_a_exact_is_even_and_strictly_increasing():
    terms = [a_exact(q) for q in range(1, 15)]
    assert all(t % 2 == 0 for t in terms)
    assert all(a < b for a, b in zip(terms, terms[1:]))


def test_a_next_mod_examples():
    # One recurrence step each: square, subtract 2, wrap below zero.
    assert list(residues(FermatModulus(2), 2))[1] == (2, 0)  # 34 = 2 * 17
    stream = dict(residues(FermatModulus(3), 6))
    # Exact-remainder oracle: 197**2 - 2 = 38807 = 151 * 257, so the step hits zero.
    assert (197 * 197 - 2) % 257 == 0
    assert stream[4] == 197 and stream[5] == 0
    assert stream[6] == 255  # 0 - 2 wraps


def test_a_mod_fermat_examples():
    assert a_mod_fermat(2, 2) == 0
    assert a_mod_fermat(3, 3) == 126
    assert a_mod_fermat(5, 3) == 0


def test_a_mod_fermat_rejects_index_zero():
    with pytest.raises(ValueError):
        a_mod_fermat(0, 2)


def test_a_mod_fermat_matches_exact_remainder():
    for n in range(0, 7):
        value = fermat_value(n)
        for q in range(1, 15):
            assert a_mod_fermat(q, n) == a_exact(q) % value


def test_cursor_walks_the_residue_stream():
    assert list(residues(FermatModulus(3), 5)) == [(1, 6), (2, 34), (3, 126), (4, 197), (5, 0)]


def test_a_next_mod_counts_one_squaring(counted_steps):
    # Each recurrence step is one chain step: the walk to term q takes q - 1 of
    # them, and a bounded read of residues runs none past its last term, though
    # a block could hold more.
    steps = counted_steps
    for q in (1, 2, 5, 9):
        steps.clear()
        a_mod_fermat(q, 4)
        assert len(steps) == q - 1
    for n in (3, 12):
        m = FermatModulus(n)
        m.backend  # made first: the FFT plan's self-test at n = 12 runs steps of its own
        steps.clear()
        assert len(list(residues(m, 40))) == 40
        assert len(steps) == 39


def test_s_value_rejects_an_odd_term(monkeypatch):
    monkeypatch.setattr(sequences, "a_exact", lambda q: 7)
    with pytest.raises(ArithmeticError):
        s_value(3)


def test_s_value_fixtures():
    assert s_value(1) == 3
    assert s_value(2) == 17
    assert s_value(3) == 577
    assert 2 * s_value(4) == a_exact(4)


def test_gcd_of_distinct_terms_is_two():
    terms = [a_exact(q) for q in range(1, 13)]
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            assert math.gcd(terms[i], terms[j]) == 2


def test_overlap_examples():
    assert overlap_check(1).ok
    assert overlap_check(4).ok  # 65537 < 1331714 < 4294967297
    report = overlap_check(12)
    assert report.n_max == 12 and report.violations == []


def test_overlap_rejects_bad_bound():
    with pytest.raises(ValueError):
        overlap_check(0)


def test_overlap_budget():
    with pytest.raises(BudgetExceededError):
        overlap_check(30)
