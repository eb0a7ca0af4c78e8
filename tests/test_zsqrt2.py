import random

import pytest
from hypothesis import given, strategies as st

from fermatlab.arith import fermat_value
from fermatlab.budget import BudgetExceededError
from fermatlab.sequences import a_exact
from fermatlab.zsqrt2 import (
    ONE,
    U,
    V,
    ZSqrt2,
    congruent_mod,
    frobenius_check,
    reduce_mod,
    sqrt2_mod_fermat,
    trace_pow2,
)

_COMPONENT = st.integers(min_value=-10**6, max_value=10**6)
_ELEMENT = st.builds(ZSqrt2, _COMPONENT, _COMPONENT)


def test_unit_pair_identities():
    assert U + V == ZSqrt2(6, 0)
    assert U * V == ONE


def test_mul_examples():
    assert U * V == ONE
    x = ZSqrt2(5, -7)
    assert x * ONE == x
    assert U * U == ZSqrt2(17, 12)


def test_an_int_on_the_left_does_not_repeat_an_element():
    with pytest.raises(TypeError):
        3 * U


def test_pow_examples():
    assert U**0 == ONE
    assert U**4 == ZSqrt2(577, 408)
    assert U**5 == ZSqrt2(3363, 2378)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        U**-1


def test_pow_budget(monkeypatch):
    monkeypatch.setenv("FERMATLAB_MAX_BITS", "64")
    assert U**64 == (U**32) * (U**32)
    with pytest.raises(BudgetExceededError):
        U**65


def test_pow_matches_naive_multiplication():
    rng = random.Random(2024)
    for _ in range(25):
        x = ZSqrt2(rng.randint(-9, 9), rng.randint(-9, 9))
        acc = ONE
        for k in range(65):
            assert x**k == acc
            acc = acc * x


@given(x=_ELEMENT, y=_ELEMENT)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


def test_unit_norms():
    assert U.norm() == 1 and V.norm() == 1


def test_congruence_examples():
    x = ZSqrt2(17, 12)
    assert congruent_mod(x, x, 97)  # reflexive
    assert congruent_mod(ZSqrt2(17, 12), ZSqrt2(0, 12), 17)
    assert not congruent_mod(ZSqrt2(3363, 2378), U, 5)  # 2378 = 3 (mod 5), not 2


def test_congruence_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        congruent_mod(U, V, 1)


@given(x=_ELEMENT, y=_ELEMENT, z=_ELEMENT, p=st.integers(min_value=2, max_value=997))
def test_congruence_is_an_equivalence_compatible_with_mul(x, y, z, p):
    assert congruent_mod(x, x, p)
    assert congruent_mod(x, y, p) == congruent_mod(y, x, p)
    if congruent_mod(x, y, p):
        # transitivity through a shifted representative, and compatibility
        shifted = ZSqrt2(y.a + 3 * p, y.b - 5 * p)
        assert congruent_mod(x, shifted, p)
        assert congruent_mod(x * z, y * z, p)


def test_modular_pow_examples():
    assert pow(U, 5, 5) == ZSqrt2(3, 3)
    assert pow(U, 1, 7) == reduce_mod(U, 7)
    assert pow(U, 4, 17) == ZSqrt2(16, 0)
    # Reduced components stay below p, so no budget applies; the exact power's
    # does.  2 is a square mod 97, so u's order there divides 96, and
    # 10**6 = 64 (mod 96).
    assert pow(U, 10**6, 97) == reduce_mod(U**64, 97)
    with pytest.raises(BudgetExceededError):
        U ** 10**6
    for k, p in ((5, 1), (-1, 7)):
        with pytest.raises(ValueError):
            pow(U, k, p)


@pytest.mark.parametrize("p", [2, 3, 5, 17, 101])
def test_modular_pow_matches_exact_power(p):
    rng = random.Random(p)
    for _ in range(20):
        x = ZSqrt2(rng.randint(-8, 8), rng.randint(-8, 8))
        k = rng.randrange(64)
        assert pow(x, k, p) == reduce_mod(x**k, p)


def test_trace_fixtures():
    assert trace_pow2(0) == 6
    assert trace_pow2(1) == 34  # (u+v)**2 - 2uv
    assert trace_pow2(2) == 1154


def test_trace_equals_sequence_term():
    # The recurrence terms are exactly the conjugate power sums.
    for k in range(13):
        assert trace_pow2(k) == a_exact(k + 1)


def test_trace_sqrt2_component_cancels():
    for k in range(8):
        w = U ** (1 << k)
        assert w.b + w.conjugate().b == 0
        assert trace_pow2(k) == 2 * w.a


@pytest.mark.parametrize("wrong_v", [U, ONE, V * V], ids=["u", "one", "v_squared"])
def test_trace_rejects_a_wrong_conjugate(monkeypatch, wrong_v):
    import fermatlab.zsqrt2 as zsqrt2

    monkeypatch.setattr(zsqrt2, "V", wrong_v)
    with pytest.raises(ArithmeticError, match="conjugate"):
        trace_pow2(3)


def test_trace_budget():
    with pytest.raises(BudgetExceededError):
        trace_pow2(17)


def test_frobenius_fixtures():
    assert frobenius_check(17)
    assert frobenius_check(257)
    assert frobenius_check(65537)
    # Boundary finding, not a bug: the order argument breaks down at 3 and 5.
    assert not frobenius_check(3)
    assert not frobenius_check(5)


@pytest.mark.parametrize("p", [3, 5, 17])
def test_frobenius_against_exact_power(p):
    assert frobenius_check(p) == congruent_mod(U**p, U, p)


def test_sqrt2_mod_fermat_squares_to_two():
    assert sqrt2_mod_fermat(2) == 6  # 36 = 2 + 2 * 17
    for n in range(2, 13):
        f = fermat_value(n)
        assert 0 < sqrt2_mod_fermat(n) < f and pow(sqrt2_mod_fermat(n), 2, f) == 2


def test_sqrt2_mod_fermat_needs_n_at_least_two():
    for n in (-1, 0, 1):
        with pytest.raises(ValueError):
            sqrt2_mod_fermat(n)
