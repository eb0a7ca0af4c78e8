import ctypes
import pathlib
import random
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from fermatlab import arith
from fermatlab.arith import FermatModulus, chain_item, fermat_value, reduce_mod_fermat, square_chain
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
    assert power_of_two(6, 1, m2) == 2
    assert power_of_two(0, 1, m3) == 0
    # 197**2 = 38809 = 151*257 + 2 by the exact-remainder oracle.
    assert 38809 % 257 == 2
    assert power_of_two(197, 1, m3) == 2


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
    assert power_of_two(a, 1, m) == reduce_mod_fermat(a * a, m) == a * a % m.value


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
    """The smallest modulus F_n > x (6 <= n <= 16) with chains forced through GMP, and x mod F_n."""
    patch.setattr(arith, "GMP_MIN_N", 0)
    n = 6  # the smallest n whose b is a whole number of 64-bit limbs
    while n < 16 and 1 << (1 << n) < x:
        n += 1
    m = FermatModulus(n)
    assert m.backend.startswith("gmp")
    return m, x % m.value


ITEMS = (0, 1, 2, 7)
# Each kernel, and the GMP_MIN_N and FFT_MIN_N that force it where the modulus allows it.
KERNELS = (("gmp-fft", 0, arith.FFT_MIN_N), ("gmp", 0, 99), ("int", 99, 99))


def assert_steps_match_plain(m, r, patch):
    """One square, eight chain items and chain_item at ITEMS, c = 0 and 2, on every kernel m can take, against a plain % loop.

    "gmp-fft" is skipped where m has no FFT plan; "gmp" and "int" always run.
    """
    plain = {c: plain_chain(r, c, m.value, max(ITEMS) + 1) for c in (0, 2)}
    for backend, gmp_min_n, fft_min_n in KERNELS:
        patch.setattr(arith, "GMP_MIN_N", gmp_min_n)
        patch.setattr(arith, "FFT_MIN_N", fft_min_n)
        if m.backend != backend and backend == "gmp-fft":
            continue
        assert m.backend == backend
        assert power_of_two(r, 1, m) == plain[0][1]
        for c, items in plain.items():
            assert list(islice(square_chain(r, c, m), len(items))) == items
            assert [chain_item(r, c, k, m) for k in ITEMS] == [items[k] for k in ITEMS]


# Word and limb boundaries; 2**64, 2**4096, 2**8192 and 2**65536 are F_n - 1,
# which sets the top limb, squares to 1 and makes the - 2 wrap, as 0 and 1
# do; 2**32 squares to 2**64 = F_6 - 1, the fold's carry into the top limb.
_EDGES = [0, 1, 2, 3, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1]
_EDGES += [1 << b for b in (31, 32, 63, 65, 127, 4096, 8192, 1 << 16)]
_EDGES += [(1 << b) - 1 for b in (8192, 1 << 16, (1 << 16) + 1)]


@pytest.mark.parametrize("x", _EDGES, ids=[f"bits{x.bit_length()}_pop{bin(x).count('1')}" for x in _EDGES])
def test_gmp_square_edges(gmp, monkeypatch, x):
    assert_steps_match_plain(*gmp_residue(x, monkeypatch), monkeypatch)


@settings(deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 16) + 1), seed=st.integers(min_value=0))
def test_gmp_square_matches_int(bits, seed):
    if arith._load_gmp() is None:
        pytest.skip(f"{arith.GMP_SONAME} does not load here")
    with pytest.MonkeyPatch.context() as patch:
        assert_steps_match_plain(*gmp_residue(random.Random(seed).getrandbits(bits), patch), patch)


def test_chain_item_rejects_a_negative_index():
    with pytest.raises(ValueError):
        chain_item(3, 0, -1, FermatModulus(4))


def test_gmp_is_chosen_per_modulus(gmp):
    assert [FermatModulus(n).backend for n in (2, arith.GMP_MIN_N - 1)] == ["int", "int"]
    assert [FermatModulus(n).backend for n in (arith.GMP_MIN_N, arith.FFT_MIN_N - 1)] == ["gmp", "gmp"]
    fft = "gmp-fft" if arith._gmp_version(gmp) in arith._FFT_GMP_VERSIONS else "gmp"
    assert [FermatModulus(n).backend for n in (arith.FFT_MIN_N, 16)] == [fft, fft]
    # Powers x**(2**k) run as one mpz_powm on whole limbs below GMP_MIN_N, and on the chain elsewhere.
    assert [FermatModulus(n).power_backend for n in (0, 5)] == ["int", "int"]
    assert [FermatModulus(n).power_backend for n in (6, arith.GMP_MIN_N - 1)] == ["gmp-powm", "gmp-powm"]
    assert [FermatModulus(n).power_backend for n in (arith.GMP_MIN_N, 16)] == ["gmp", fft]


def test_gmp_needs_whole_64_bit_limbs(gmp, monkeypatch):
    monkeypatch.setattr(arith, "GMP_MIN_N", 0)
    assert [FermatModulus(n).backend for n in (2, 5, 6)] == ["int", "int", "gmp"]
    monkeypatch.setattr(arith, "_LIMB_BITS", 32)  # as if GMP had been built with 32-bit limbs
    assert arith._load_gmp.__wrapped__() is None


def corrupt_import(gmp):
    real = arith._to_limbs

    def corrupted(x, count):
        limbs = real(x, count)
        limbs[0] ^= 1
        return limbs

    return arith, "_to_limbs", corrupted


def corrupt_product(gmp):
    real, add_1 = gmp.__gmpn_sqr, gmp.__gmpn_add_1

    def corrupted(rp, up, n):
        real(rp, up, n)
        add_1(rp, rp, 2 * n, 1)

    return gmp, "__gmpn_sqr", corrupted


def corrupt_fold(gmp):
    # lo + hi for lo - hi: harmless while hi = 0, which holds for every step
    # of the recurrence below q = n - 1, so the walks below go further.
    add_n = gmp["__gmpn_add_n"]  # a fresh function object, typed like sub_n
    add_n.argtypes, add_n.restype = gmp.__gmpn_sub_n.argtypes, gmp.__gmpn_sub_n.restype
    return gmp, "__gmpn_sub_n", add_n


def always_borrow(gmp, name):
    real = getattr(gmp, name)

    def corrupted(*args):
        real(*args)
        return 1

    return gmp, name, corrupted


def corrupt_compare(gmp):
    # lo - hi is right, but the +1 of F is added and k lowered when they should not be.
    return always_borrow(gmp, "__gmpn_sub_n")


def corrupt_wrap(gmp):
    # x - c is right, but F is added as if x < c.
    return always_borrow(gmp, "__gmpn_sub_1")


def corrupt_remainder(gmp):
    # Right for the import check, off by one for every remainder after it.
    real, calls = gmp.__gmpn_mod_1, []

    def corrupted(up, n, d):
        calls.append(n)
        return real(up, n, d) + (len(calls) > 1)

    return gmp, "__gmpn_mod_1", corrupted


def corrupt_export(gmp):
    real = arith._from_limbs
    return arith, "_from_limbs", lambda limbs: real(limbs) ^ 1


MUTATIONS = [
    corrupt_import,
    corrupt_product,
    corrupt_fold,
    corrupt_compare,
    corrupt_wrap,
    corrupt_remainder,
    corrupt_export,
]
WALKS = {
    "a_mod_fermat": lambda n: a_mod_fermat(n + 2, n),
    "pepin_test": pepin_test,
    "paper_scan": paper_scan,
}
# Pépin squares with c = 0, so it never subtracts and has no wrap to corrupt.
CORRUPTED_WALKS = [
    pytest.param(mutation, walk, id=f"{mutation.__name__.split('_')[1]}-{walk}")
    for mutation in MUTATIONS
    for walk in WALKS
    if (mutation, walk) != (corrupt_wrap, "pepin_test")
]


@pytest.mark.parametrize("mutation, walk", CORRUPTED_WALKS)
def test_gmp_corruption_raises(gmp, monkeypatch, mutation, walk):
    monkeypatch.setattr(*mutation(gmp))
    with pytest.raises(ArithmeticError, match="GMP"):
        WALKS[walk](arith.GMP_MIN_N)


def corrupt_carry(gmp):
    # A forced borrow completed with its carry: y + F for y and k - 1 for k
    # satisfy the mod-p relation, and only the range check sees y > F - 1.
    sub_n, add_1 = gmp.__gmpn_sub_n, gmp.__gmpn_add_1
    forced = []

    def borrow(*args):
        forced.append(not sub_n(*args))
        return 1

    def carry(*args):
        return add_1(*args) | (forced.pop() if forced else 0)

    return [(gmp, "__gmpn_sub_n", borrow), (gmp, "__gmpn_add_1", carry)]


@pytest.mark.parametrize("walk", WALKS)
def test_gmp_range_check_catches_a_residue_off_by_f(gmp, monkeypatch, walk):
    for patch in corrupt_carry(gmp):
        monkeypatch.setattr(*patch)
    with pytest.raises(ArithmeticError, match="above"):
        WALKS[walk](arith.GMP_MIN_N)


def test_gmp_corrupted_import_raises_before_the_first_item(gmp, monkeypatch):
    monkeypatch.setattr(*corrupt_import(gmp))
    with pytest.raises(ArithmeticError, match="imported"):
        next(square_chain(6, 2, FermatModulus(arith.GMP_MIN_N)))


def test_gmp_corrupted_export_raises(gmp, monkeypatch):
    monkeypatch.setattr(*corrupt_export(gmp))
    x = random.Random(5).getrandbits(1 << arith.GMP_MIN_N)
    with pytest.raises(ArithmeticError, match="exported"):
        power_of_two(x, 1, FermatModulus(arith.GMP_MIN_N))


def run_optimized(corruption, call):
    """stdout of a python -O run that applies ``corruption`` to the library and makes ``call``.

    ``call`` may use a_mod_fermat and pepin_test.
    """
    code = (
        "import ctypes, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fermatlab import arith\n"
        "from fermatlab.primality import pepin_test\n"
        "from fermatlab.sequences import a_mod_fermat\n"
        "lib = arith._load_gmp()\n"
        f"{corruption}"
        "try:\n"
        f"    {call}\n"
        "except ArithmeticError:\n"
        "    print('caught', __debug__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-I", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_gmp_check_survives_optimized_python(gmp):
    # python -O strips assert statements; the per-step check and the power route's check must not be one.
    n = arith.GMP_MIN_N
    corrupted_square = (
        "sqr, add_1 = lib.__gmpn_sqr, lib.__gmpn_add_1\n"
        "def corrupted(rp, up, n):\n"
        "    sqr(rp, up, n)\n"
        "    add_1(rp, rp, 2 * n, 1)\n"
        "lib.__gmpn_sqr = corrupted\n"
    )
    corrupted_power = (
        "powm, combit = lib.__gmpz_powm, lib['__gmpz_combit']\n"
        "combit.argtypes = [ctypes.POINTER(arith._mpz_struct()), ctypes.c_ulong]\n"
        "def corrupted(rop, *args):\n"
        "    powm(rop, *args)\n"
        "    combit(rop, 5)\n"
        "lib.__gmpz_powm = corrupted\n"
    )
    for corruption, call in [(corrupted_square, f"a_mod_fermat({n + 2}, {n})"), (corrupted_power, f"pepin_test({n - 1})")]:
        assert run_optimized(corruption, call) == ["caught", "False"], call


class RecordedLibrary:
    """The GMP library, recording the name of every entry point read from it."""

    def __init__(self, lib):
        self.lib, self.names = lib, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.lib, name)


def test_walks_reach_no_mpz_function(gmp, monkeypatch):
    # Python owns every limb buffer, so a walk that stops early or raises has nothing to free.
    fft = FermatModulus(arith.FFT_MIN_N).backend == "gmp-fft"  # makes the plan with the real library
    recorded = RecordedLibrary(gmp)
    monkeypatch.setattr(arith, "_load_gmp", lambda: recorded)
    a_mod_fermat(40, 13)  # stops 39 steps into an endless chain
    assert len(list(islice(square_chain(6, 2, FermatModulus(arith.FFT_MIN_N)), 5))) == 5  # abandoned at item 4
    monkeypatch.setattr(arith, "GMP_MIN_N", 0)
    assert len(list(islice(square_chain(6, 2, FermatModulus(6)), 5))) == 5
    monkeypatch.setattr(*corrupt_export(gmp))
    with pytest.raises(ArithmeticError):
        a_mod_fermat(8, 6)
    assert "__gmpn_sqr" in recorded.names and ("__gmpn_mul_fft" in recorded.names) == fft
    assert all(name.startswith("__gmpn_") for name in recorded.names)


def assert_falls_back_to_int(monkeypatch):
    """The unmemoised loader returns None, and chains and powers mod every modulus use x * x."""
    monkeypatch.setattr(arith, "_load_gmp", arith._load_gmp.__wrapped__)  # the loader, unmemoised
    assert arith._load_gmp() is None
    m = FermatModulus(arith.GMP_MIN_N)
    assert m.backend == m.power_backend == FermatModulus(8).power_backend == "int"
    assert [r for _, r in islice(residues(m), 40)] == plain_walk(arith.GMP_MIN_N, 40)


def test_missing_library_falls_back_to_int(monkeypatch):
    monkeypatch.setattr(arith, "GMP_SONAME", "libfermatlab-missing.so.0")
    assert_falls_back_to_int(monkeypatch)
    m, calls = FermatModulus(5), spy_power(monkeypatch)
    assert m.power_backend == "int"
    assert chain_item(3, 0, 31, m) == pow(3, 1 << 31, m.value) and calls == []


@pytest.mark.parametrize("symbol", ["__gmpz_roinit_n", "__gmpn_sqr"])
def test_a_library_without_an_entry_point_falls_back_to_int(gmp, monkeypatch, symbol):
    # GMP 5 has the same soname as GMP 6 but no mpz_roinit_n, which came with GMP 6.0.
    class Lacking(ctypes.CDLL):
        def __getattr__(self, name):
            if name == symbol:
                raise AttributeError(name)
            return super().__getattr__(name)

    monkeypatch.setattr(ctypes, "CDLL", Lacking)
    assert_falls_back_to_int(monkeypatch)


# ------------------------------------------------------------ GMP power route


def spy_power(patch):
    """The list of (n, k) of every power-route call from here on."""
    calls, power = [], arith._gmp_power

    def spied(x, k, m, lib):
        calls.append((m.n, k))
        return power(x, k, m, lib)

    patch.setattr(arith, "_gmp_power", spied)
    return calls


def assert_power_matches_plain(n, k, x, calls):
    """chain_item(x, 0, k, F_n) against a plain % loop, and that it was one power-route call.

    Below n = 6, where b is not a whole number of 64-bit limbs, it must be the int chain instead.
    """
    m = FermatModulus(n)
    routed = m.b >= arith._LIMB_BITS
    assert m.power_backend == ("gmp-powm" if routed else "int")
    calls.clear()
    assert chain_item(x, 0, k, m) == plain_chain(x, 0, m.value, k + 1)[k]
    assert calls == ([(n, k)] if routed else [])


@pytest.mark.parametrize("n", range(arith.GMP_MIN_N))
def test_power_route_edges(gmp, monkeypatch, n):
    calls = spy_power(monkeypatch)
    for x in (0, 1, fermat_value(n) - 1):
        for k in (0, 1, 64):
            assert_power_matches_plain(n, k, x, calls)


@settings(deadline=None)
@given(
    n=st.integers(min_value=0, max_value=arith.GMP_MIN_N - 1),
    k=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0),
)
def test_power_route_matches_plain(n, k, seed):
    if arith._load_gmp() is None:
        pytest.skip(f"{arith.GMP_SONAME} does not load here")
    with pytest.MonkeyPatch.context() as patch:
        assert_power_matches_plain(n, k, random.Random(seed).randrange(fermat_value(n)), spy_power(patch))


def test_power_route_checks_its_operands(gmp):
    with pytest.raises(ValueError, match="canonical"):
        chain_item(fermat_value(4), 0, 3, FermatModulus(4))


def corrupt_view(gmp, which):
    # Flips the low bit of the limbs behind one mpz_roinit_n view: 0 is x, 1 is 2**k, 2 is the modulus F*p.
    real, held = gmp.__gmpz_roinit_n, []

    def corrupted(z, limbs, size):
        if len(held) == which:
            limbs = bytes([limbs[0] ^ 1]) + limbs[1:]
        held.append(limbs)  # GMP reads the view's limbs until mpz_powm returns
        return real(z, limbs, size)

    return gmp, "__gmpz_roinit_n", corrupted


def corrupt_base_import(gmp):
    return corrupt_view(gmp, 0)


def corrupt_modulus_import(gmp):
    return corrupt_view(gmp, 2)


def corrupt_power(gmp):
    real, combit = gmp.__gmpz_powm, gmp["__gmpz_combit"]  # a fresh function object, typed here
    combit.argtypes = [ctypes.POINTER(arith._mpz_struct()), ctypes.c_ulong]

    def corrupted(rop, *args):
        real(rop, *args)
        combit(rop, 5)

    return gmp, "__gmpz_powm", corrupted


def corrupt_result_limb(gmp):
    # Flips a bit of the power's low limb in memory, between mpz_powm and the read.
    real = gmp.__gmpz_powm

    def corrupted(rop, *args):
        real(rop, *args)
        ctypes.c_uint64.from_address(rop._mp_d).value ^= 1

    return gmp, "__gmpz_powm", corrupted


POWER_CALLS = {
    "pepin_test": lambda: pepin_test(arith.GMP_MIN_N - 1),
    "chain_item": lambda: chain_item(random.Random(8).randrange(fermat_value(8)), 0, 64, FermatModulus(8)),
}


@pytest.mark.parametrize("call", POWER_CALLS)
@pytest.mark.parametrize("mutation", [corrupt_base_import, corrupt_modulus_import, corrupt_power, corrupt_result_limb])
def test_power_route_corruption_raises(gmp, monkeypatch, mutation, call):
    calls = spy_power(monkeypatch)
    monkeypatch.setattr(*mutation(gmp))
    with pytest.raises(ArithmeticError, match="GMP"):
        POWER_CALLS[call]()
    assert len(calls) == 1


def test_power_route_rejects_a_power_too_wide_to_export(gmp, monkeypatch):
    # The size check keeps the read inside the power's limbs.  Here GMP reports
    # a power one limb wider than F*p, then one of negative size.
    n = arith.GMP_MIN_N - 1
    limbs = -(-(fermat_value(n) * arith._CHECK_PRIME).bit_length() // 64)
    real = gmp.__gmpz_powm
    for size in (limbs + 1, -1):

        def resized(rop, *args):
            real(rop, *args)
            rop._mp_size = size

        monkeypatch.setattr(gmp, "__gmpz_powm", resized)
        with pytest.raises(ArithmeticError, match="above"):
            pepin_test(n)


@pytest.mark.parametrize("n", range(arith.GMP_MIN_N))
def test_square_mod_is_one_int_step_below_gmp_min_n(gmp, monkeypatch, n):
    # One squaring costs less as x * x and a fold than as an mpz_powm call with its set-up.
    def refused(*args):
        raise AssertionError("item 1 of square_chain took the power route")

    monkeypatch.setattr(arith, "_gmp_power", refused)
    m = FermatModulus(n)
    for x in (0, 1, m.value - 1, random.Random(n).randrange(m.value)):
        assert power_of_two(x, 1, m) == x * x % m.value


# ------------------------------------------------------------ GMP FFT step


@pytest.fixture
def fft(gmp):
    """The GMP library, with the FFT plan mod F_15 made: a corruption after this reaches the chain, not the self-test."""
    if arith._gmp_version(gmp) not in arith._FFT_GMP_VERSIONS:
        pytest.skip(f"GMP {arith._gmp_version(gmp)} is not a version the FFT step was tested on")
    assert FermatModulus(15).backend == "gmp-fft"
    return gmp


def test_listed_factors_divide_their_fermat_numbers():
    assert sorted(arith._FACTORS) == [15, 16, 17, 18, 19, 21, 23]
    for n, q in arith._FACTORS.items():
        assert n >= arith.FFT_MIN_N and 1 < q < 1 << 64
        assert pow(2, 1 << n, q) == q - 1  # 2**(2**n) = -1, so q | F_n


def test_a_wrong_factor_raises_when_its_chain_starts(gmp, monkeypatch):
    monkeypatch.setitem(arith._FACTORS, 15, arith._FACTORS[15] + 2)
    monkeypatch.setattr(arith, "_fft_plan", arith._fft_plan.__wrapped__)  # the plan, unmemoised
    with pytest.raises(ArithmeticError, match="does not divide"):
        power_of_two(3, 1, FermatModulus(15))


def assert_falls_back_to_mpn_sqr(monkeypatch):
    monkeypatch.setattr(arith, "_fft_plan", arith._fft_plan.__wrapped__)  # the plan, unmemoised
    m = FermatModulus(15)
    assert m.backend == "gmp"
    assert [r for _, r in islice(residues(m), 40)] == plain_walk(15, 40)


def test_an_untested_gmp_version_squares_with_mpn_sqr(gmp, monkeypatch):
    monkeypatch.setattr(arith, "_FFT_GMP_VERSIONS", frozenset())
    assert_falls_back_to_mpn_sqr(monkeypatch)


def test_an_fft_that_cannot_square_in_place_squares_with_mpn_sqr(fft, monkeypatch):
    # The chain's FFT step writes x*x over x, so the plan's self-test must make the same call.
    real = fft.__gmpn_mul_fft

    def corrupted(op, pl, n, nl, m, ml, k):
        carry = real(op, pl, n, nl, m, ml, k)
        if op in (n, m):
            ctypes.c_uint64.from_address(op).value ^= 1
        return carry

    monkeypatch.setattr(fft, "__gmpn_mul_fft", corrupted)
    assert arith._fft_plan.__wrapped__(15) is None
    assert_falls_back_to_mpn_sqr(monkeypatch)


def corrupt_fft_product(gmp):
    real = gmp.__gmpn_mul_fft

    def corrupted(op, *args):
        carry = real(op, *args)
        ctypes.c_uint64.from_address(op).value ^= 1 << 17
        return carry

    return gmp, "__gmpn_mul_fft", corrupted


def test_a_failed_self_test_squares_with_mpn_sqr(fft, monkeypatch):
    monkeypatch.setattr(*corrupt_fft_product(fft))
    assert_falls_back_to_mpn_sqr(monkeypatch)


@pytest.mark.parametrize("n", [15, 16, 17])
@pytest.mark.parametrize("edge", ["0", "1", "2", "F-1", "F-2", "2**(b/2)", "random"])
def test_fft_square_edges(fft, monkeypatch, n, edge):
    # 2**(b/2) squares to F - 1, the kernel's carry; F - 1 = 2**b squares to 1 without a kernel call.
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << 17))  # F_17 is beyond the default budget
    m = FermatModulus(n)
    values = {"F-1": m.value - 1, "F-2": m.value - 2, "2**(b/2)": 1 << m.b // 2}
    x = int(edge) if edge.isdigit() else values.get(edge) or random.Random(n).getrandbits(m.b)
    assert_steps_match_plain(m, x, monkeypatch)


@pytest.mark.parametrize("x, c", [(6, 2), (3, 0)], ids=["walk", "pepin"])
def test_fft_and_mpn_sqr_chains_agree(fft, monkeypatch, x, c):
    m = FermatModulus(15)
    fft_items = list(islice(square_chain(x, c, m), 512))
    monkeypatch.setattr(arith, "FFT_MIN_N", 99)
    assert m.backend == "gmp"
    assert list(islice(square_chain(x, c, m), 512)) == fft_items


def force_carry(gmp):
    real = gmp.__gmpn_mul_fft
    return gmp, "__gmpn_mul_fft", lambda *args: real(*args) or 1


FFT_MUTATIONS = [
    corrupt_fft_product,
    force_carry,
    corrupt_wrap,
    corrupt_remainder,
    corrupt_export,
]
FFT_WALKS = {
    "a_mod_fermat": lambda: a_mod_fermat(17, 15),
    "pepin_test": lambda: pepin_test(15),
    "square_chain": lambda: list(islice(square_chain(6, 2, FermatModulus(15)), 8)),
}
CORRUPTED_FFT_WALKS = [
    pytest.param(mutation, walk, id=f"{mutation.__name__}-{walk}")
    for mutation in FFT_MUTATIONS
    for walk in FFT_WALKS
    if (mutation, walk) != (corrupt_wrap, "pepin_test")
]


@pytest.mark.parametrize("mutation, walk", CORRUPTED_FFT_WALKS)
def test_fft_corruption_raises(fft, monkeypatch, mutation, walk):
    monkeypatch.setattr(*mutation(fft))
    with pytest.raises(ArithmeticError, match="GMP"):
        FFT_WALKS[walk]()


def test_fft_check_survives_optimized_python(fft):
    corruption = (
        "if arith.FermatModulus(arith.FFT_MIN_N).backend != 'gmp-fft':\n"
        "    sys.exit('no FFT plan')\n"
        "mul_fft = lib.__gmpn_mul_fft\n"
        "def corrupted(op, *args):\n"
        "    carry = mul_fft(op, *args)\n"
        "    ctypes.c_uint64.from_address(op).value ^= 1\n"
        "    return carry\n"
        "lib.__gmpn_mul_fft = corrupted\n"
    )
    assert run_optimized(corruption, f"a_mod_fermat({arith.FFT_MIN_N + 2}, {arith.FFT_MIN_N})") == ["caught", "False"]
