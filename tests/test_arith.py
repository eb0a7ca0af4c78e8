import pathlib
import random
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from fermatlab import arith
from fermatlab.arith import FermatModulus, fermat_value, reduce_mod_fermat, square_chain, square_mod
from fermatlab.budget import BudgetExceededError
from fermatlab.primality import paper_scan, pepin_test
from fermatlab.sequences import a_mod_fermat, residues

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def power_of_two(x, k, m):
    """x**(2**k) mod m, as item k of the squaring chain."""
    return next(islice(square_chain(x, 0, m), k, None))


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
    assert power_of_two(3, 3, m) == 16  # 3**8 = 6561, one short of a full cycle
    assert power_of_two(3, 4, m) == 1
    assert power_of_two(3, 0, m) == 3


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
    assert power_of_two(3, m_exp, m) == pow(3, 1 << m_exp, m.value)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pow_matches_builtin(n):
    m = FermatModulus(n)
    rng = random.Random(31 + n)
    for _ in range(100):
        b = rng.randrange(m.value)
        k = rng.randrange(16)
        assert power_of_two(b, k, m) == pow(b, 1 << k, m.value)


# ------------------------------------------------------------ GMP chain


@pytest.fixture
def gmp():
    lib = arith._load_gmp()
    if lib is None:
        pytest.skip(f"{arith.GMP_SONAME} does not load here, so there is no GMP chain to test")
    return lib


def plain_chain(x, c, value, steps):
    """The first items of x, x*x - c, ... mod value by a plain % loop."""
    out = []
    for _ in range(steps):
        out.append(x)
        x = (x * x - c) % value
    return out


def plain_walk(n, steps):
    """The first residues of the recurrence mod F_n by a plain % loop."""
    return plain_chain(6, 2, fermat_value(n), steps)


def gmp_residue(x, patch):
    """The smallest modulus F_n > x (n <= 16) with chains forced through GMP, and x mod F_n."""
    patch.setattr(arith, "GMP_MIN_N", 0)
    n = 0
    while n < 16 and 1 << (1 << n) < x:
        n += 1
    m = FermatModulus(n)
    assert m.backend == "gmp"
    return m, x % m.value


def assert_gmp_steps_match_int(x, patch):
    m, r = gmp_residue(x, patch)
    assert square_mod(r, m) == r * r % m.value
    assert list(islice(square_chain(r, 2, m), 4)) == plain_chain(r, 2, m.value, 4)


# Word and limb boundaries; 2**64, 2**4096, 2**8192 and 2**65536 are F_n - 1,
# which squares to 1 and makes the - 2 wrap, as 0 and 1 do.
_EDGES = [0, 1, 2, 3, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1]
_EDGES += [1 << b for b in (31, 63, 65, 127, 4096, 8192, 1 << 16)]
_EDGES += [(1 << b) - 1 for b in (8192, 1 << 16, (1 << 16) + 1)]


@pytest.mark.parametrize("x", _EDGES, ids=[f"bits{x.bit_length()}_pop{bin(x).count('1')}" for x in _EDGES])
def test_gmp_square_edges(gmp, monkeypatch, x):
    assert_gmp_steps_match_int(x, monkeypatch)


@settings(deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 16) + 1), seed=st.integers(min_value=0))
def test_gmp_square_matches_int(bits, seed):
    if arith._load_gmp() is None:
        pytest.skip(f"{arith.GMP_SONAME} does not load here")
    with pytest.MonkeyPatch.context() as patch:
        assert_gmp_steps_match_int(random.Random(seed).getrandbits(bits), patch)


def test_gmp_is_chosen_per_modulus(gmp):
    assert [FermatModulus(n).backend for n in (2, arith.GMP_MIN_N - 1)] == ["int", "int"]
    assert [FermatModulus(n).backend for n in (arith.GMP_MIN_N, 16)] == ["gmp", "gmp"]


def corrupt_import(gmp):
    real = gmp.__gmpz_import

    def corrupted(z, count, order, size, endian, nails, data):
        return real(z, count, order, size, endian, nails, bytes([data[0] ^ 1]) + data[1:])

    return "__gmpz_import", corrupted


def corrupt_product(gmp):
    real, add = gmp.__gmpz_mul, gmp.__gmpz_add

    def corrupted(product, x, y):
        real(product, x, y)
        add(product, product, x)

    return "__gmpz_mul", corrupted


def corrupt_fold(gmp):
    # lo + hi for lo - hi: harmless while hi = 0, which holds for every step
    # of the recurrence below q = n - 1, so the walks below go further.
    return "__gmpz_sub", gmp.__gmpz_add


def corrupt_compare(gmp):
    # Always borrow: x*x = k*F + y still holds exactly, but y >= F is not canonical.
    return "__gmpz_cmp", lambda a, b: -1


def corrupt_export(gmp):
    real = gmp.__gmpz_export

    def corrupted(out, *args):
        result = real(out, *args)
        out[0] = bytes([out.raw[0] ^ 1])
        return result

    return "__gmpz_export", corrupted


MUTATIONS = [corrupt_import, corrupt_product, corrupt_fold, corrupt_compare, corrupt_export]
WALKS = {
    "a_mod_fermat": lambda n: a_mod_fermat(n + 2, n),
    "pepin_test": pepin_test,
}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda mutation: mutation.__name__.split("_")[1])
def test_gmp_corruption_raises(gmp, monkeypatch, mutation, walk):
    monkeypatch.setattr(gmp, *mutation(gmp))
    with pytest.raises(ArithmeticError, match="GMP"):
        WALKS[walk](arith.GMP_MIN_N)


def test_gmp_corrupted_import_raises_before_the_first_item(gmp, monkeypatch):
    monkeypatch.setattr(gmp, *corrupt_import(gmp))
    with pytest.raises(ArithmeticError, match="imported"):
        next(square_chain(6, 2, FermatModulus(arith.GMP_MIN_N)))


def test_gmp_corrupted_export_raises(gmp, monkeypatch):
    monkeypatch.setattr(gmp, *corrupt_export(gmp))
    x = random.Random(5).getrandbits(1 << arith.GMP_MIN_N)
    with pytest.raises(ArithmeticError, match="GMP"):
        square_mod(x, FermatModulus(arith.GMP_MIN_N))


def test_gmp_check_survives_optimized_python(gmp):
    # python -O strips assert statements; the per-step check must not be one.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fermatlab import arith\n"
        "from fermatlab.sequences import a_mod_fermat\n"
        "lib = arith._load_gmp()\n"
        "export = lib.__gmpz_export\n"
        "def corrupted(out, *args):\n"
        "    result = export(out, *args)\n"
        "    out[0] = bytes([out.raw[0] ^ 1])\n"
        "    return result\n"
        "lib.__gmpz_export = corrupted\n"
        "try:\n"
        "    a_mod_fermat(arith.GMP_MIN_N + 2, arith.GMP_MIN_N)\n"
        "except ArithmeticError:\n"
        "    print('caught', __debug__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-I", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["caught", "False"]


def test_abandoned_chains_free_their_integers(gmp, monkeypatch):
    calls = {"__gmpz_init": 0, "__gmpz_clear": 0}
    for name in calls:
        real = getattr(gmp, name)

        def counted(z, real=real, name=name):
            calls[name] += 1
            return real(z)

        monkeypatch.setattr(gmp, name, counted)

    a_mod_fermat(40, 13)  # stops 39 steps into an endless chain
    assert calls["__gmpz_init"] == calls["__gmpz_clear"] > 0
    monkeypatch.setattr(arith, "GMP_MIN_N", 0)
    assert paper_scan(4).found_q == 11  # exits at q = 11 of a window reaching 15
    monkeypatch.setattr(gmp, *corrupt_export(gmp))
    with pytest.raises(ArithmeticError):
        a_mod_fermat(8, 6)
    assert calls["__gmpz_init"] == calls["__gmpz_clear"] > 8


def test_missing_library_falls_back_to_int(monkeypatch):
    monkeypatch.setattr(arith, "GMP_SONAME", "libfermatlab-missing.so.0")
    monkeypatch.setattr(arith, "_load_gmp", arith._load_gmp.__wrapped__)  # the loader, unmemoised
    assert arith._load_gmp() is None
    m = FermatModulus(arith.GMP_MIN_N)
    assert m.backend == "int"
    assert [r for _, r in islice(residues(m), 40)] == plain_walk(arith.GMP_MIN_N, 40)
