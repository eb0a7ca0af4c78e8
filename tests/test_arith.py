import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from fermatlab import arith
from fermatlab.arith import FermatModulus, fermat_value, reduce_mod_fermat, square_mod
from fermatlab.budget import BudgetExceededError
from fermatlab.sequences import a_mod_fermat, residues


def square_chain(x, k, m):
    """x**(2**k) mod m, as k calls of the squaring kernel."""
    for _ in range(k):
        x = square_mod(x, m)
    return x


def test_fermat_value_fixtures():
    assert [fermat_value(n) for n in range(6)] == [3, 5, 17, 257, 65537, 4294967297]
    assert fermat_value(5) == 641 * 6700417


def test_modulus_fields():
    m = FermatModulus(3)
    assert m.n == 3 and m.b == 8 and m.value == 257


def test_modulus_rejects_negative_index():
    with pytest.raises(ValueError):
        FermatModulus(-1)


def test_modulus_budget():
    assert FermatModulus(16).b == 65536  # the largest the default budget admits
    with pytest.raises(BudgetExceededError):
        fermat_value(17)  # needs 2**17 bits, default budget is 2**16
    with pytest.raises(BudgetExceededError):
        fermat_value(10**18)  # guard must not try to materialize this


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FERMATLAB_MAX_BITS", "16")
    with pytest.raises(BudgetExceededError):
        fermat_value(5)
    assert fermat_value(4) == 65537


def test_reduce_examples():
    m = FermatModulus(2)
    assert reduce_mod_fermat(17, m) == 0  # the modulus itself
    assert reduce_mod_fermat(257, m) == 2  # one fold: 1 - 16, fixed up
    assert reduce_mod_fermat(34, m) == 0


def test_reduce_rejects_negative():
    with pytest.raises(ValueError):
        reduce_mod_fermat(-1, FermatModulus(2))


@pytest.mark.parametrize("n", range(2, 11))
def test_reduce_matches_generic_remainder(n):
    # Folding vs the builtin remainder, 1000 samples per modulus up to F_n**2.
    m = FermatModulus(n)
    rng = random.Random(1000 + n)
    square = m.value * m.value
    for _ in range(1000):
        x = rng.randrange(square + 1)
        assert reduce_mod_fermat(x, m) == x % m.value


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_reduce_handles_inputs_far_beyond_square(n):
    m = FermatModulus(n)
    rng = random.Random(77 + n)
    for _ in range(50):
        x = rng.randrange(m.value ** 5)
        assert reduce_mod_fermat(x, m) == x % m.value


def test_mul_examples():
    # A product of residues is reduced by the same fold as a square.
    m = FermatModulus(2)
    assert reduce_mod_fermat(6 * 6, m) == 2  # 36 mod 17
    assert reduce_mod_fermat(6 * 1, m) == 6
    assert reduce_mod_fermat(0 * 6, m) == 0
    assert reduce_mod_fermat(16 * 16, m) == 1  # (-1)**2


def test_square_examples():
    m2, m3 = FermatModulus(2), FermatModulus(3)
    assert square_mod(6, m2) == 2
    assert square_mod(0, m3) == 0
    # 197**2 = 38809 = 151*257 + 2 by the exact-remainder oracle.
    assert 38809 % 257 == 2
    assert square_mod(197, m3) == 2


_SMALL_N = st.sampled_from([2, 3, 4, 5])


@given(n=_SMALL_N, x=st.integers(min_value=0), y=st.integers(min_value=0), z=st.integers(min_value=0))
def test_ring_laws(n, x, y, z):
    m = FermatModulus(n)
    a, b, c = (reduce_mod_fermat(v, m) for v in (x, y, z))

    def mul(u, v):
        return reduce_mod_fermat(u * v, m)

    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, reduce_mod_fermat(b + c, m)) == reduce_mod_fermat(mul(a, b) + mul(a, c), m)


@given(n=_SMALL_N, x=st.integers(min_value=0))
def test_square_equals_self_multiplication(n, x):
    m = FermatModulus(n)
    a = reduce_mod_fermat(x, m)
    assert square_mod(a, m) == reduce_mod_fermat(a * a, m) == a * a % m.value


def test_pow_examples():
    m = FermatModulus(2)
    assert square_chain(3, 3, m) == 16  # 3**8 = 6561, one short of a full cycle
    assert square_chain(3, 4, m) == 1
    assert square_chain(3, 0, m) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pow_addition_law(n):
    # Folding a product of two powers gives the power of the summed exponent.
    m = FermatModulus(n)
    rng = random.Random(9 + n)
    for _ in range(50):
        base = rng.randrange(m.value)
        e1, e2 = rng.randrange(64), rng.randrange(64)
        product = pow(base, e1, m.value) * pow(base, e2, m.value)
        assert reduce_mod_fermat(product, m) == pow(base, e1 + e2, m.value)


@pytest.mark.parametrize("m_exp", [0, 1, 2, 3, 7, 12])
def test_pow_of_two_exponent_costs_only_squarings(m_exp):
    # The Pepin exponent is a power of two: m_exp kernel squarings and nothing else.
    m = FermatModulus(4)
    assert square_chain(3, m_exp, m) == pow(3, 1 << m_exp, m.value)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pow_matches_builtin(n):
    m = FermatModulus(n)
    rng = random.Random(31 + n)
    for _ in range(100):
        b = rng.randrange(m.value)
        k = rng.randrange(16)
        assert square_chain(b, k, m) == pow(b, 1 << k, m.value)


# ------------------------------------------------------------ GMP kernel


@pytest.fixture
def gmp():
    lib = arith._load_gmp()
    if lib is None:
        pytest.skip(f"{arith.GMP_SONAME} does not load here, so there is no GMP kernel to test")
    return lib


def plain_walk(n, steps):
    """The first residues of the recurrence mod F_n by a plain % loop."""
    value, x, out = fermat_value(n), 6, []
    for _ in range(steps):
        out.append(x)
        x = (x * x - 2) % value
    return out


_EDGES = [0, 1, 2, 3, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1]
_EDGES += [1 << b for b in (31, 63, 65, 127, 4096, 8192, 1 << 16)]
_EDGES += [(1 << b) - 1 for b in (8192, 1 << 16, (1 << 16) + 1)]


@pytest.mark.parametrize("x", _EDGES, ids=[f"bits{x.bit_length()}_pop{bin(x).count('1')}" for x in _EDGES])
def test_gmp_square_edges(gmp, x):
    assert arith._gmp_square(x) == x * x


@settings(deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 16) + 1), seed=st.integers(min_value=0))
def test_gmp_square_matches_int(bits, seed):
    if arith._load_gmp() is None:
        pytest.skip(f"{arith.GMP_SONAME} does not load here")
    x = random.Random(seed).getrandbits(bits)
    assert arith._gmp_square(x) == x * x


def test_gmp_is_chosen_per_modulus(gmp):
    assert [FermatModulus(n).backend for n in (2, arith.GMP_MIN_N - 1)] == ["int", "int"]
    assert [FermatModulus(n).backend for n in (arith.GMP_MIN_N, 16)] == ["gmp", "gmp"]


def test_gmp_corrupted_export_raises(gmp, monkeypatch):
    export = gmp.__gmpz_export

    def corrupted(out, *args):
        result = export(out, *args)
        out[0] = bytes([out.raw[0] ^ 1])
        return result

    monkeypatch.setattr(gmp, "__gmpz_export", corrupted)
    x = random.Random(5).getrandbits(9000)
    with pytest.raises(ArithmeticError, match="GMP"):
        arith._gmp_square(x)
    with pytest.raises(ArithmeticError, match="GMP"):
        a_mod_fermat(3, arith.GMP_MIN_N)


def test_missing_library_falls_back_to_int(monkeypatch):
    monkeypatch.setattr(arith, "GMP_SONAME", "libfermatlab-missing.so.0")
    monkeypatch.setattr(arith, "_load_gmp", arith._load_gmp.__wrapped__)  # the loader, unmemoised
    assert arith._load_gmp() is None
    m = FermatModulus(arith.GMP_MIN_N)
    assert m.backend == "int"
    assert [r for _, r in islice(residues(m), 40)] == plain_walk(arith.GMP_MIN_N, 40)

