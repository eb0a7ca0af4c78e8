import ctypes
import gc
import hashlib
import math
import os
import pathlib
import platform
import random
import subprocess
import sys
from array import array
from functools import cache
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings, strategies as st

from conftest import backend_of, force_backend
from fermatlab import arith
from fermatlab.arith import FermatModulus, chain_item, fermat_value, reduce_mod_fermat, trace_blocks
from fermatlab.budget import BudgetExceededError
from fermatlab.primality import h_min, paper_scan, pepin_test
from fermatlab.sequences import a_mod_fermat, residues
from fermatlab.zsqrt2 import sqrt2_mod_fermat

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def power_of_two(x, k, m):
    """x**(2**k) mod m, as item k of the squaring chain."""
    return chain_item(x, 0, k, m)


def chain_bytes(x, c, m, count):
    """Items 0 .. count - 1 of the chain x, x*x - c, ... mod m, as ``trace_blocks`` writes them, joined."""
    return b"".join(bytes(block) for block, _ in trace_blocks(x, c, m, count))


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


def gmp_residue(x):
    """The smallest modulus F_n > x (6 <= n <= 16), whose chains run in GMP, and x mod F_n."""
    n = 6
    while n < 16 and 1 << (1 << n) < x:
        n += 1
    m = FermatModulus(n)
    assert m.backend.startswith("gmp")
    return m, x % m.value


ITEMS = (0, 1, 2, 7)
# Each kernel, as force_backend names it.
KERNELS = ("gmp-fft", "gmp", "int")


def assert_steps_match_plain(m, r):
    """One square, eight chain items' bytes, chain_item at ITEMS and the trace hash, c = 0 and 2, on every kernel m can take, against a plain % loop.

    "gmp-fft" is skipped where m has no FFT plan; "gmp" and "int" always run.
    """
    plain = {c: plain_chain(r, c, m.value, max(ITEMS) + 1) for c in (0, 2)}
    width = m.b // 8 + 1
    for backend in KERNELS:
        with pytest.MonkeyPatch.context() as patch:
            force_backend(backend, patch)
            if m.backend != backend and backend == "gmp-fft":
                continue
            assert m.backend == backend
            assert power_of_two(r, 1, m) == plain[0][1]
            for c, items in plain.items():
                assert chain_bytes(r, c, m, len(items)) == b"".join(y.to_bytes(width, "little") for y in items)
                assert [chain_item(r, c, k, m) for k in ITEMS] == [items[k] for k in ITEMS]
                upto_zero = items[: items.index(0) + 1] if 0 in items else items
                digest = hashlib.sha256(b"".join(y.to_bytes(width, "little") for y in upto_zero)).hexdigest()
                assert arith.trace_hash(r, c, m, len(items)) == (f"sha256:{digest}", len(upto_zero), upto_zero[-1] == 0)


# Word and limb boundaries; 2**64, 2**4096, 2**8192 and 2**65536 are F_n - 1,
# which sets the top limb, squares to 1 and makes the - 2 wrap, as 0 and 1
# do; 2**32 squares to 2**64 = F_6 - 1, the fold's carry into the top limb;
# a square root of 2 mod F_8 makes item 1 of the c = 2 chain 0, after which a
# kernel call stops.
_EDGES = [0, 1, 2, 3, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 128) - 1]
_EDGES += [1 << b for b in (31, 32, 63, 65, 127, 4096, 8192, 1 << 16)]
_EDGES += [(1 << b) - 1 for b in (8192, 1 << 16, (1 << 16) + 1)]
_EDGES += [sqrt2_mod_fermat(8)]


@pytest.mark.parametrize("x", _EDGES, ids=[f"bits{x.bit_length()}_pop{bin(x).count('1')}" for x in _EDGES])
def test_gmp_square_edges(gmp, x):
    assert_steps_match_plain(*gmp_residue(x))


@settings(deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 16) + 1), seed=st.integers(min_value=0))
def test_gmp_square_matches_int(gmp, bits, seed):
    assert_steps_match_plain(*gmp_residue(random.Random(seed).getrandbits(bits)))


def test_chain_item_rejects_a_negative_index():
    with pytest.raises(ValueError):
        chain_item(3, 0, -1, FermatModulus(4))


def test_gmp_is_chosen_per_modulus(gmp):
    # The kernel from the first whole-limb modulus, F_6; its FFT from the first listed factor, F_15's.
    assert [FermatModulus(n).backend for n in (2, 5)] == ["int", "int"]
    assert [FermatModulus(n).backend for n in (6, 14)] == ["gmp", "gmp"]
    assert [FermatModulus(n).backend for n in (15, 16)] == ["gmp-fft", "gmp-fft"]


def test_gmp_needs_whole_64_bit_limbs(gmp, monkeypatch):
    assert [FermatModulus(n).backend for n in (2, 5, 6)] == ["int", "int", "gmp"]
    monkeypatch.setattr(arith, "_LIMB_BITS", 32)  # as if GMP had been built with 32-bit limbs
    assert arith._load_gmp.__wrapped__() is None


# Every callback put in the kernel's table; the kernel may call one until its test ends.
CALLBACKS = []


def entry(gmp, name):
    """The kernel table's entry ``name`` as a function Python can call."""
    return gmp.prototypes[name](getattr(gmp.gmp, name))


def install(gmp, name, function):
    """(table, name, the address of ``function`` as a callback of the entry's type), for monkeypatch.setattr."""
    CALLBACKS.append(gmp.prototypes[name](function))
    return gmp.gmp, name, arith._function_address(CALLBACKS[-1])


def callback(gmp, name, make):
    """install() of ``make(the entry)``: make takes the entry, callable from Python, and returns the function to install."""
    return install(gmp, name, make(entry(gmp, name)))


def corrupt_import(gmp):
    real = arith._to_limbs

    def corrupted(x, count):
        limbs = real(x, count)
        limbs[0] ^= 1
        return limbs

    return arith, "_to_limbs", corrupted


def corrupt_product(gmp):
    add_1 = entry(gmp, "add_1")

    def make(sqr):
        def corrupted(rp, up, n):
            sqr(rp, up, n)
            add_1(rp, rp, 2 * n, 1)

        return corrupted

    return callback(gmp, "sqr", make)


def corrupt_fold(gmp):
    # lo + hi for lo - hi: harmless while hi = 0, which holds for every step
    # of the recurrence below q = n - 1, so the walks below go further.
    return gmp.gmp, "sub_n", arith._function_address(arith._load_gmp().__gmpn_add_n)


def always_borrow(gmp, name):
    def make(real):
        def corrupted(*args):
            real(*args)
            return 1

        return corrupted

    return callback(gmp, name, make)


def corrupt_compare(gmp):
    # lo - hi is right, but the +1 of F is added and k lowered when they should not be.
    return always_borrow(gmp, "sub_n")


def corrupt_wrap(gmp):
    # x - c is right, but F is added as if x < c.
    return always_borrow(gmp, "sub_1")


def corrupt_remainder(gmp):
    # Right for the import check, off by one for every mpn_mod_1 after it.
    calls = []

    def make(real):
        def corrupted(up, n, d):
            calls.append(n)
            return real(up, n, d) + (len(calls) > 1)

        return corrupted

    return callback(gmp, "mod_1", make)


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
        WALKS[walk](6)


def corrupt_carry(gmp):
    # A forced borrow completed with its carry: y + F for y and k - 1 for k
    # satisfy the mod-p relation, and only the range check sees y > F - 1.
    sub_n, add_1 = entry(gmp, "sub_n"), entry(gmp, "add_1")
    forced = []

    def borrow(*args):
        forced.append(not sub_n(*args))
        return 1

    def carry(*args):
        return add_1(*args) | (forced.pop() if forced else 0)

    return [install(gmp, "sub_n", borrow), install(gmp, "add_1", carry)]


@pytest.mark.parametrize("walk", WALKS)
def test_gmp_range_check_catches_a_residue_off_by_f(gmp, monkeypatch, walk):
    for patch in corrupt_carry(gmp):
        monkeypatch.setattr(*patch)
    with pytest.raises(ArithmeticError, match="above"):
        WALKS[walk](6)


def test_gmp_corrupted_import_raises_before_the_first_item(gmp, monkeypatch):
    monkeypatch.setattr(*corrupt_import(gmp))
    with pytest.raises(ArithmeticError, match="imported"):
        next(trace_blocks(6, 2, FermatModulus(6), 2))


def test_gmp_corrupted_export_raises(gmp, monkeypatch):
    monkeypatch.setattr(*corrupt_export(gmp))
    x = random.Random(5).getrandbits(1 << 6)
    with pytest.raises(ArithmeticError, match="exported"):
        power_of_two(x, 1, FermatModulus(6))


def run_optimized(corruption, call):
    """stdout of a python -O run that applies ``corruption`` to the loaded ``kernel`` and makes ``call``.

    ``call`` may use a_mod_fermat, pepin_test and paper_scan.
    """
    code = (
        "import ctypes, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fermatlab import arith\n"
        "from fermatlab.primality import paper_scan, pepin_test\n"
        "from fermatlab.sequences import a_mod_fermat\n"
        "kernel = arith._load_kernel()\n"
        "entry = lambda name: kernel.prototypes[name](getattr(kernel.gmp, name))\n"
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
    # python -O strips assert statements; the kernel's per-step check must not be one.
    corrupted_square = (
        "sqr, add_1 = entry('sqr'), entry('add_1')\n"
        "def corrupted(rp, up, n):\n"
        "    sqr(rp, up, n)\n"
        "    add_1(rp, rp, 2 * n, 1)\n"
        "held = kernel.prototypes['sqr'](corrupted)\n"
        "kernel.gmp.sqr = ctypes.cast(held, ctypes.c_void_p).value\n"
    )
    n = 6
    for call in (f"a_mod_fermat({n + 2}, {n})", f"pepin_test({n})", f"paper_scan({n})"):
        assert run_optimized(corrupted_square, call) == ["caught", "False"], call


class RecordedLibrary:
    """The GMP library, recording the name of every entry point read from it."""

    def __init__(self, lib):
        self.lib, self.names = lib, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.lib, name)


def test_walks_reach_no_mpz_function(gmp, monkeypatch):
    # Python owns every limb buffer, so a walk that stops early or raises has nothing to free.
    recorded = RecordedLibrary(arith._load_gmp())
    monkeypatch.setattr(arith, "_load_gmp", lambda: recorded)
    monkeypatch.setattr(arith, "_load_kernel", cache(arith._load_kernel.__wrapped__))  # its table is filled from recorded
    a_mod_fermat(40, 13)  # stops 39 steps into an endless chain
    assert len(list(islice(residues(FermatModulus(15), 40), 5))) == 5  # abandoned after 5 of its 40 items
    assert len(list(islice(residues(FermatModulus(6), 40), 5))) == 5
    monkeypatch.setattr(*corrupt_export(gmp))
    with pytest.raises(ArithmeticError):
        a_mod_fermat(8, 6)
    assert "__gmpn_sqr" in recorded.names and not any("fft" in name for name in recorded.names)
    assert all(name.startswith("__gmpn_") for name in recorded.names if name.startswith("__gmp"))


def test_a_kernel_that_fails_its_first_walk_is_not_used(gmp, monkeypatch):
    # A library whose mpn_sub_n adds: the kernel's walk mod F_6 at load time catches it.
    class Swapped(RecordedLibrary):
        def __getattr__(self, name):
            return super().__getattr__("__gmpn_add_n" if name == "__gmpn_sub_n" else name)

    swapped = Swapped(arith._load_gmp())
    monkeypatch.setattr(arith, "_load_gmp", lambda: swapped)
    monkeypatch.setattr(arith, "_load_kernel", cache(arith._load_kernel.__wrapped__))
    assert [FermatModulus(n).backend for n in (6, 12)] == ["int", "int"]
    assert "__gmpn_add_n" in swapped.names


def test_a_kernel_or_plan_that_disagrees_with_the_int_chain_is_not_used(gmp, monkeypatch):
    # Every kernel check passes, but the int chain reads another item: the first walk and the FFT self-test both refuse.
    class Off(arith._IntChain):
        __slots__ = ()

        def export(self):
            return super().export() ^ 1

    monkeypatch.setattr(arith, "_IntChain", Off)
    assert arith._load_kernel.__wrapped__() is None
    assert arith._fft_plan.__wrapped__(15) is None


def assert_falls_back_to_int(monkeypatch):
    """The unmemoised loaders return None, and chains mod every modulus use x * x."""
    monkeypatch.setattr(arith, "_load_gmp", arith._load_gmp.__wrapped__)  # the loader, unmemoised
    monkeypatch.setattr(arith, "_load_kernel", arith._load_kernel.__wrapped__)
    assert arith._load_gmp() is None and arith._load_kernel() is None
    m = FermatModulus(12)
    assert m.backend == FermatModulus(6).backend == "int"
    assert [r for _, r in residues(m, 40)] == plain_walk(12, 40)
    m = FermatModulus(8)
    assert chain_item(3, 0, 255, m) == pow(3, 1 << 255, m.value)


def test_missing_library_falls_back_to_int(monkeypatch):
    monkeypatch.setattr(arith, "GMP_SONAME", "libfermatlab-missing.so.0")
    assert_falls_back_to_int(monkeypatch)


@pytest.mark.parametrize("symbol", ["__gmpn_mod_1", "__gmpn_sqr"])
def test_a_library_without_an_entry_point_falls_back_to_int(gmp, monkeypatch, symbol):
    # A library with GMP's soname that lacks an entry point the kernel calls is not used.
    class Lacking(ctypes.CDLL):
        def __getattr__(self, name):
            if name == symbol:
                raise AttributeError(name)
            return super().__getattr__(name)

    monkeypatch.setattr(ctypes, "CDLL", Lacking)
    assert_falls_back_to_int(monkeypatch)


# ------------------------------------------------------------ the kernel


def spy_kernel(patch):
    """The list of (c, steps asked, steps run) of every kernel call from here on."""
    kernel, calls = arith._load_kernel(), []

    def spied(state, count, trace):
        done = kernel.run(state, count, trace)
        calls.append((kernel.chain_type.from_address(state).c, count, done))
        return done

    patch.setattr(arith, "_load_kernel", lambda: kernel._replace(run=spied))
    return calls


def assert_power_matches_plain(n, k, x, calls, backend="gmp-fft"):
    """chain_item(x, 0, k, F_n), the power x**(2**k), against a plain % loop, and its kernel calls.

    From n = 6, the first modulus of whole limbs, all k steps are one call,
    or one per step from x = 0, since a call stops after a zero item; below
    it no call is made.  The kernel squares with its FFT exactly where
    ``_FACTORS`` lists n, unless ``backend`` is the "gmp" that
    ``force_backend`` has forced.
    """
    m = FermatModulus(n)
    routed = n >= 6
    assert m.backend == backend_of(n, backend)
    calls.clear()
    assert chain_item(x, 0, k, m) == plain_chain(x, 0, m.value, k + 1)[k]
    if not routed or not k:
        assert calls == []
    else:
        assert calls == ([(0, k - i, 1) for i in range(k)] if x == 0 else [(0, k, k)])


@pytest.mark.parametrize("n", range(12))  # the int chain below n = 6, the kernel from it, its FFT at n = 11
def test_power_route_edges(gmp, monkeypatch, n):
    calls = spy_kernel(monkeypatch)
    for x in (0, 1, fermat_value(n) - 1):
        for k in (0, 1, 64):
            assert_power_matches_plain(n, k, x, calls)


@pytest.mark.parametrize("n", [11, 12, 13])
def test_power_route_edges_on_mpn_sqr(gmp, monkeypatch, n):
    # The moduli that _FACTORS puts on the FFT keep mpn_sqr where a test forces it.
    force_backend("gmp", monkeypatch)
    calls = spy_kernel(monkeypatch)
    for x in (0, 1, fermat_value(n) - 1):
        for k in (0, 1, 64):
            assert_power_matches_plain(n, k, x, calls, "gmp")


@settings(deadline=None)
@given(
    n=st.integers(min_value=0, max_value=11),
    k=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0),
    backend=st.sampled_from(["gmp-fft", "gmp"]),
)
def test_chain_item_matches_plain(gmp, n, k, seed, backend):
    with pytest.MonkeyPatch.context() as patch:
        force_backend(backend, patch)
        calls = spy_kernel(patch)
        assert_power_matches_plain(n, k, random.Random(seed).randrange(fermat_value(n)), calls, backend)


@pytest.mark.parametrize("n, k, blocks", [(11, 2047, [2047]), (16, 1000, [256, 256, 256, 232])], ids=["n11", "n16"])
def test_chain_item_runs_in_blocks_of_two_to_the_24_squared_bits(gmp, monkeypatch, n, k, blocks):
    # One kernel call per block, so a Ctrl-C waits for one block, not the whole power; up to n = 11 it is one call.
    calls = spy_kernel(monkeypatch)
    m = FermatModulus(n)
    x = random.Random(n).randrange(m.value)
    reference = arith._IntChain(x, 2, m)
    assert reference.run(k) == k
    assert m.backend == backend_of(n)  # made first: the FFT plan's self-test calls the kernel
    calls.clear()
    assert chain_item(x, 2, k, m) == reference.export()
    assert calls == [(2, block, block) for block in blocks]


def test_chain_readers_check_their_operands(gmp):
    with pytest.raises(ValueError, match="canonical"):
        chain_item(fermat_value(4), 0, 3, FermatModulus(4))
    with pytest.raises(ValueError, match="canonical"):
        arith.trace_hash(fermat_value(4), 2, FermatModulus(4), 3)
    with pytest.raises(ValueError, match="positive item count"):
        arith.trace_hash(6, 2, FermatModulus(4), 0)
    with pytest.raises(ValueError, match="positive item count"):
        next(residues(FermatModulus(4), 0))


@pytest.mark.parametrize("n", range(6))
def test_item_one_is_one_int_step_below_whole_limbs(gmp, monkeypatch, n):
    # Below n = 6, where b is less than one 64-bit limb, item 1 is x * x and a fold, and no kernel call.
    calls = spy_kernel(monkeypatch)
    m = FermatModulus(n)
    assert m.backend == "int"
    for x in (0, 1, m.value - 1, random.Random(n).randrange(m.value)):
        assert power_of_two(x, 1, m) == x * x % m.value
    assert calls == []


@pytest.mark.parametrize("n", [3, 6, 11])
def test_trace_hash_does_not_depend_on_the_block_size(monkeypatch, n):
    # n = 3 is on the int chain, n = 6 and 11 on the kernel where it loads; each
    # is read one and two items a block, by the scan, residues and h_min.
    m = FermatModulus(n)
    expected = paper_scan(n).residue_trace_hash, list(residues(m, 1 << n)), h_min(n)
    for items in (1, 2):
        monkeypatch.setattr(arith, "_BLOCK_BYTES", items * (m.b // 8 + 1))
        assert (paper_scan(n).residue_trace_hash, list(residues(m, 1 << n)), h_min(n)) == expected


@pytest.mark.parametrize(("n", "backend"), [(4, "int"), (8, "gmp"), (15, "gmp-fft")])
def test_trace_hash_reads_a_zero_that_ends_a_block(monkeypatch, n, backend):
    # From a square root of 2, item 1 of x -> x*x - 2 is 0.  With one-item blocks it is
    # a block's last item, so the chain does not stop early there; the zero is found
    # by the zero-candidate check alone.  trace_blocks reads on past it: 0, F - 2, 2.
    m, x = FermatModulus(n), sqrt2_mod_fermat(n)
    assert m.backend == backend or arith._load_kernel() is None
    width = m.b // 8 + 1
    digest = hashlib.sha256(x.to_bytes(width, "little") + bytes(width)).hexdigest()
    items = [y.to_bytes(width, "little") for y in (x, 0, m.value - 2, 2)]
    for per_block in (1, 2, 8):
        monkeypatch.setattr(arith, "_BLOCK_BYTES", per_block * width)
        assert arith.trace_hash(x, 2, m, 8) == (f"sha256:{digest}", 2, True)
        blocks = [(bytes(block), zero) for block, zero in trace_blocks(x, 2, m, 4)]
        assert b"".join(block for block, _ in blocks) == b"".join(items)
        ends = accumulate(len(block) // width for block, _ in blocks)  # the items read through each block
        assert [zero for _, zero in blocks] == [end == 2 for end in ends]


def test_no_block_asks_for_more_items_than_its_buffer_holds(gmp, monkeypatch):
    kernel, sizes, asked = arith._load_kernel(), {}, []
    address = arith._address

    def recorded(buffer):  # every buffer the kernel is given goes through here
        sizes[address(buffer)] = len(buffer)
        return address(buffer)

    def checked(state, count, trace):
        width = 8 * kernel.chain_type.from_address(state).size + 1
        asked.append((count * width, None if trace is None else sizes[trace], width))
        return kernel.run(state, count, trace)

    monkeypatch.setattr(arith, "_address", recorded)
    monkeypatch.setattr(arith, "_load_kernel", lambda: kernel._replace(run=checked))
    for block_bytes in (arith._BLOCK_BYTES, 1, 1000):
        monkeypatch.setattr(arith, "_BLOCK_BYTES", block_bytes)
        asked.clear()
        for n in (6, 8, 11):
            paper_scan(n)
        arith.trace_hash(6, 2, FermatModulus(16), 20)
        list(residues(FermatModulus(16), 20))
        h_min(6)
        assert asked and all(size is not None and wanted <= size <= max(block_bytes, width) for wanted, size, width in asked)


def test_chains_leave_no_reference_cycles(gmp):
    # Memory in a cycle waits for the cycle collector, so 64 KiB trace buffers in cycles would pile up.
    gc.collect()
    gc.disable()
    try:
        for n in (6, 11, 16):
            m = FermatModulus(n)
            paper_scan(n) if n < 16 else chain_item(6, 2, 8, m)
            assert len(list(residues(m, 40))) == 40
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_without_a_compiler_every_modulus_squares_with_int(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # a cold cache, so the kernel would have to be built
    monkeypatch.setattr(arith, "_COMPILER", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(arith, "_load_kernel", cache(arith._load_kernel.__wrapped__))
    assert [FermatModulus(n).backend for n in (6, 12, 16)] == ["int"] * 3
    assert list(tmp_path.rglob("*.so")) == []


def test_the_kernel_is_built_once_into_the_cache(gmp, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    kernel = arith._build_kernel()
    (built,) = (tmp_path / "fermatlab").iterdir()
    assert kernel is not None and built.name.startswith("chain-") and built.suffix == ".so"
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-directory"))  # a hit needs no compiler
    assert arith._build_kernel() is not None
    assert list((tmp_path / "fermatlab").iterdir()) == [built]


def test_a_changed_compile_command_builds_a_new_kernel(gmp, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert arith._build_kernel() is not None
    (built,) = (tmp_path / "fermatlab").iterdir()
    monkeypatch.setattr(arith, "_CFLAGS", (*arith._CFLAGS, "-DFERMATLAB_FLAG_TEST"))
    assert arith._build_kernel() is not None
    (rebuilt,) = set((tmp_path / "fermatlab").iterdir()) - {built}
    assert rebuilt.name.startswith("chain-") and rebuilt.suffix == ".so"


def test_an_unwritable_cache_builds_in_a_temporary_directory(gmp, monkeypatch, tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("")  # a file where the cache directory's parent should be
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    monkeypatch.setattr(arith, "_load_kernel", cache(arith._load_kernel.__wrapped__))
    assert FermatModulus(8).backend == "gmp"
    m = FermatModulus(8)
    assert chain_item(3, 0, 255, m) == pow(3, 1 << 255, m.value)


# ------------------------------------------------------------ the kernel's FFT step


@pytest.fixture
def fft(gmp):
    """The loaded kernel, with the FFT plan mod F_15 made: a corruption after this reaches the chain, not the self-test."""
    assert FermatModulus(15).backend == "gmp-fft"
    return gmp


def test_listed_factors_divide_their_fermat_numbers():
    assert sorted(arith._FACTORS) == [10, 11, 12, 13, 15, 16, 17, 18, 19]
    for n, q in arith._FACTORS.items():
        assert 1 < q < 1 << 64
        assert pow(2, 1 << n, q) == q - 1  # 2**(2**n) = -1, so q | F_n


def test_the_fft_skips_n14_and_stops_after_n19(gmp, monkeypatch):
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << 21))
    assert [FermatModulus(n).backend for n in (14, 15, 19, 20, 21)] == ["gmp", "gmp-fft", "gmp-fft", "gmp", "gmp"]
    # F_21 has a factor, but there the square of 2**b - 1 rounds 0.31 from an
    # integer, so were it listed the plan's self-test would refuse the FFT.
    monkeypatch.setitem(arith._FACTORS, 21, 4485296422913)
    assert arith._fft_plan.__wrapped__(21) is None


def test_listing_a_factor_puts_its_modulus_on_the_fft(gmp, monkeypatch):
    # Unlisted, F_10 squares with mpn_sqr; its single factor 45592577, listed, is all the FFT needs to serve n = 10.
    monkeypatch.setattr(arith, "_fft_plan", arith._fft_plan.__wrapped__)  # the plan, unmemoised
    monkeypatch.delitem(arith._FACTORS, 10)
    m, steps = FermatModulus(10), 64
    assert m.backend == "gmp"
    monkeypatch.setitem(arith._FACTORS, 10, 45592577)
    assert m.backend == "gmp-fft"
    for x, c in ((3, 0), (6, 2)):
        chain, reference = arith._chain(x, c, m), arith._IntChain(x, c, m)
        assert chain.plan is not None
        items, expected = bytearray(steps * (m.b // 8 + 1)), bytearray(steps * (m.b // 8 + 1))
        assert chain.run(steps, items) == reference.run(steps, expected) == steps
        assert items == expected and chain.export() == reference.export()


def test_a_wrong_factor_raises_when_its_chain_starts(gmp, monkeypatch):
    monkeypatch.setitem(arith._FACTORS, 15, arith._FACTORS[15] + 2)
    monkeypatch.setattr(arith, "_fft_plan", arith._fft_plan.__wrapped__)  # the plan, unmemoised
    with pytest.raises(ArithmeticError, match="does not divide"):
        power_of_two(3, 1, FermatModulus(15))


def assert_falls_back_to_mpn_sqr(monkeypatch):
    monkeypatch.setattr(arith, "_fft_plan", arith._fft_plan.__wrapped__)  # the plan, unmemoised
    m = FermatModulus(15)
    assert m.backend == "gmp"
    assert [r for _, r in residues(m, 40)] == plain_walk(15, 40)


def test_a_failed_self_test_squares_with_mpn_sqr(fft, monkeypatch):
    # Twiddles a part in 10**9 off round the products of 2**40-sized coefficients far from integers.
    real = math.sin
    monkeypatch.setattr(math, "sin", lambda angle: real(angle) * (1 + 1e-9))
    assert arith._fft_plan.__wrapped__(15) is None
    assert_falls_back_to_mpn_sqr(monkeypatch)


def test_an_fft_that_drops_the_top_limb_squares_with_mpn_sqr(fft, monkeypatch):
    # 2**(b/2) squares to 2**b, the one residue whose top limb is 1, which only
    # the final carry's wrap into the top limb writes; the self-test squares it.
    monkeypatch.setattr(*callback(fft, "add_1", lambda real: lambda *args: real(*args) and 0))
    assert arith._fft_plan.__wrapped__(15) is None
    assert_falls_back_to_mpn_sqr(monkeypatch)


@pytest.mark.parametrize("n", [15, 16, 17])
@pytest.mark.parametrize("edge", ["0", "1", "2", "F-1", "F-2", "2**(b/2)", "random"])
def test_fft_square_edges(gmp, monkeypatch, n, edge):
    # 2**(b/2) squares to F - 1 = 2**b, the one residue with a top limb, which squares to 1 without the FFT.
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << 17))  # F_17 is beyond the default budget
    m = FermatModulus(n)
    assert m.backend == "gmp-fft"
    values = {"F-1": m.value - 1, "F-2": m.value - 2, "2**(b/2)": 1 << m.b // 2}
    x = int(edge) if edge.isdigit() else values.get(edge) or random.Random(n).getrandbits(m.b)
    assert_steps_match_plain(m, x)


def fft_chain(x, c, m):
    """A kernel chain mod m that squares with the FFT plan."""
    return arith._GmpChain(x, c, m, arith._load_kernel(), arith._fft_plan(m.n))


# Every 16-bit digit 0xFFFF (2**b - 1) rounds worst; 2**(b/2) squares to
# 2**b = -1, whose carry borrows down through limbs of 0, and 2**(b/2) - 1
# to 2**b - 2**(b/2+1) + 1, whose carry ripples up through limbs of ones.
FFT_EDGES = {
    "0": lambda b: 0,
    "1": lambda b: 1,
    "2": lambda b: 2,
    "2**(b/2)": lambda b: 1 << b // 2,
    "2**(b/2)-1": lambda b: (1 << b // 2) - 1,
    "2**b-1": lambda b: (1 << b) - 1,
    "2**b-2": lambda b: (1 << b) - 2,
    "0x8000s": lambda b: int.from_bytes(b"\x00\x80" * (b // 16), "little"),
    "random": lambda b: random.Random(b).getrandbits(b),
}


@pytest.mark.parametrize("n", sorted(arith._FACTORS))
@pytest.mark.parametrize("edge", FFT_EDGES)
def test_one_fft_step_matches_the_fold(gmp, monkeypatch, n, edge):
    # Every listed n must keep the worst round-off within 1/16, a quarter of the 1/4 each step checks.
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << max(arith._FACTORS)))
    m = FermatModulus(n)
    assert m.backend == "gmp-fft"
    x = FFT_EDGES[edge](m.b)
    chain = fft_chain(x, 0, m)
    assert chain.run(1) == 1
    assert chain.export() == reduce_mod_fermat(x * x, m)
    assert chain.state.error <= 1 / 16


def carry_ripples(x, b):
    """Whether the FFT's carry passes flag the square of x mod 2**b + 1, so the serial loop carries it.

    A model of ``fft_square``'s flag, from the exact coefficients c_k of the
    negacyclic square of x's 16-bit digits: some u_i = lo_i + hi_{i-1}, i >= 2,
    is 0 or -1 mod 2**64, where s_i = lo_i + hi_i * 2**64 is limb i's sum.
    """
    digits, data = b // 16, x.to_bytes(b // 8, "little")
    spread = bytearray(8 * digits)  # each digit in a 64-bit slot, so x(t)**2 at t = 2**64 keeps every term apart
    spread[0::8], spread[1::8] = data[0::2], data[1::2]
    square = int.from_bytes(spread, "little") ** 2
    terms = memoryview(square.to_bytes(16 * digits, "little")).cast("Q")
    c = [terms[k] - terms[k + digits] for k in range(digits)]
    sums = [c[k] + (c[k + 1] << 16) + (c[k + 2] << 32) + (c[k + 3] << 48) for k in range(0, digits, 4)]
    return any((s % 2**64 + sums[i - 1] // 2**64) % 2**64 in (0, 2**64 - 1) for i, s in enumerate(sums) if i >= 2)


@pytest.mark.parametrize("n", [n for n in sorted(arith._FACTORS) if n <= 17])
def test_fft_walks_match_the_int_chain_item_by_item(gmp, monkeypatch, n):
    # The first items of both walks are short, with limbs of 0, so the carry
    # passes flag them and the serial loop carries; the later ones take the
    # passes (test_the_fft_walks_take_both_carries).
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << max(arith._FACTORS)))
    m, steps = FermatModulus(n), 64
    width = m.b // 8 + 1
    assert m.backend == "gmp-fft"
    for x, c in ((3, 0), (6, 2)):
        items, expected = bytearray(steps * width), bytearray(steps * width)
        assert arith._chain(x, c, m).run(steps, items) == arith._IntChain(x, c, m).run(steps, expected) == steps
        wrong = [q for q in range(steps) if items[q * width : (q + 1) * width] != expected[q * width : (q + 1) * width]]
        assert wrong == [], f"items {[q + 1 for q in wrong]} of ({x}, {c}) differ"


@pytest.mark.parametrize("n", [11, 12, 13])  # the model costs seconds from n = 15
def test_the_fft_walks_take_both_carries(n):
    m = FermatModulus(n)
    for x, c in ((3, 0), (6, 2)):
        ripples = [carry_ripples(y, m.b) for y in plain_chain(x, c, m.value, 64)]
        assert ripples[0] and not ripples[-1] and ripples.index(False) < 16, (x, c)


@pytest.mark.parametrize("n", [8, 16])
def test_kernel_buffers_start_on_a_cache_line(gmp, n):
    chain = arith._chain(6, 2, FermatModulus(n))
    buffers = [chain.r, chain.work] + ([] if chain.plan is None else [chain.plan.table])
    assert [arith._address(buffer) % 64 for buffer in buffers] == [0] * len(buffers)


@pytest.mark.parametrize("n", [8, 16])
def test_the_work_space_lands_half_a_page_past_the_plan(gmp, n):
    # The FFT reads the plan and writes the work space at the same index, so
    # where the two land mod 4096 sets how often a store holds a load back.
    chain = arith._chain(6, 2, FermatModulus(n))
    pages = [chain.r, chain.work] + ([] if chain.plan is None else [chain.plan.table])
    assert [arith._address(buffer) % 4096 for buffer in pages] == [0, 2048, 0][: len(pages)]


@pytest.mark.parametrize("n", sorted(arith._FACTORS))
def test_every_fft_stage_s_twiddles_start_on_a_cache_line(gmp, monkeypatch, n):
    # Stage h's twiddles sit at h, so from h = 8 each 8-double load of a
    # stage's real or imaginary parts stays on one cache line.
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << max(arith._FACTORS)))
    assert FermatModulus(n).backend == "gmp-fft"
    plan = arith._fft_plan(n)
    assert plan is not None
    table, points, start = plan.table, (1 << n) // 32, arith._address(plan.table)
    for h in (1 << s for s in range(3, n - 5)):
        assert [(start + 8 * (part * points + h)) % 64 for part in (2, 3)] == [0, 0], h
        assert table[2 * points + h : 2 * points + 2 * h].tolist() == [math.cos(math.pi * j / h) for j in range(h)], h
        assert table[3 * points + h : 3 * points + 2 * h].tolist() == [-math.sin(math.pi * j / h) for j in range(h)], h


@pytest.mark.parametrize("n", sorted(arith._FACTORS))
def test_unaligned_fft_buffers_step_as_aligned_ones(gmp, monkeypatch, n):
    # Alignment is a speed property only: with the residue, the work space
    # and the plan table each 8 bytes past a cache line, every edge still
    # steps to the fold's square.
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << max(arith._FACTORS)))
    m = FermatModulus(n)
    assert m.backend == "gmp-fft"
    aligned = arith._aligned
    monkeypatch.setattr(arith, "_aligned", lambda size: aligned(size + 8)[8:])
    plan = arith._fft_plan.__wrapped__(n)
    assert plan is not None and arith._address(plan.table) % 64 == 8
    for edge, make in FFT_EDGES.items():
        x = make(m.b)
        chain = arith._GmpChain(x, 0, m, arith._load_kernel(), plan)
        assert [arith._address(buffer) % 64 for buffer in (chain.r, chain.work)] == [8, 8]
        assert chain.run(1) == 1, edge
        assert chain.export() == reduce_mod_fermat(x * x, m), edge
        assert chain.state.error <= 1 / 16, edge


# The flags /proc/cpuinfo lists for each x86-64 ISA level the kernel can be
# built for alone; v3 includes v2's.
X86_64_LEVELS = {
    "x86-64": (),
    "x86-64-v3": (
        *("cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2", "ssse3"),
        *("avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"),
    ),
}


def cpu_flags():
    """The flags of the first CPU in /proc/cpuinfo, or None where there is none."""
    try:
        with open("/proc/cpuinfo") as file:
            return next((set(line.split(":", 1)[1].split()) for line in file if line.startswith("flags")), None)
    except OSError:
        return None


@cache
def int_chain_digests(x, c, n, steps):
    """The sha256 of each of items 1 .. steps of ``_IntChain(x, c, F_n)``: the reference, walked once a session."""
    m = FermatModulus(n)
    width = m.b // 8 + 1
    items = bytearray(steps * width)
    assert arith._IntChain(x, c, m).run(steps, items) == steps
    return [hashlib.sha256(items[q * width : (q + 1) * width]).digest() for q in range(steps)]


# Kernels built for one ISA level alone, each with the defines it adds:
# the baseline's and v3's own code, which the v3 and baseline clones run,
# and the AVX-512 leaf in SSE2 code, where the CPU needs no AVX-512 to
# check its arithmetic; the leaf takes M = 32 at n = 10 on aliased rows:
# square_leaves loads and stores its upper four rows at the address of the
# lower four.  The v4 code runs in the loaded kernel alone, whose v4 clone
# the CPU picks, with the reduction its plans name.
FFT_BUILDS = [
    pytest.param("x86-64", (), id="x86-64"),
    pytest.param("x86-64-v3", (), id="x86-64-v3"),
    pytest.param("x86-64", ("-DVECTOR_LEAF=1",), id="x86-64,VECTOR_LEAF=1"),
]


@pytest.mark.parametrize("level, defines", FFT_BUILDS)
def test_each_fft_code_path_this_cpu_runs_matches_the_int_chain(gmp, monkeypatch, tmp_path, level, defines):
    # The loaded kernel runs only the clone that this CPU picks; a kernel
    # built for one level alone (-DCLONED=) runs that level's code.  Every
    # listed n walks, so each leaf meets the int chain: 8 points where
    # log2 M is odd (n even), 16 where it is even, M = 32 at n = 10 and
    # M = 64 at n = 11.  Up to n = 16 two more walks start from 2**b - 1,
    # whose first step rounds worst, and from a random x of b bits.
    flags = cpu_flags()
    if platform.machine() != "x86_64" or flags is None:
        pytest.skip("the ISA levels are x86-64's, read from /proc/cpuinfo")
    missing = sorted(set(X86_64_LEVELS[level]) - flags)
    if missing:
        pytest.skip(f"this CPU lacks {level}'s {' '.join(missing)}")
    march = f"-march={level}"
    if subprocess.run([arith._COMPILER, march, "-x", "c", "-E", os.devnull], capture_output=True).returncode:
        pytest.skip(f"{arith._COMPILER} does not take {march}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << max(arith._FACTORS)))
    monkeypatch.setattr(arith, "_CFLAGS", (*arith._CFLAGS, "-DCLONED=", march, *defines))
    kernel = arith._load_kernel.__wrapped__()
    assert kernel is not None
    (built,) = (tmp_path / "fermatlab").iterdir()
    assert b"fft_square.arch_" not in built.read_bytes()  # no clones: this level's code alone
    # No build of one level alone holds the IFMA reduction: its steps take y mod q with mpn_mod_1 whatever the plans hold.
    assert not kernel.ifma
    # Both walks start on the serial carry; from x86-64-v3 up, their later
    # items take the carry passes.  From n = 17 the int chain costs a tenth
    # of a second a walk and more, so the walks there are shorter.
    for n in sorted(arith._FACTORS):
        m, steps, width = FermatModulus(n), 256 if n <= 16 else 64, (1 << n) // 8 + 1
        assert m.backend == "gmp-fft"  # the loaded kernel's plan, which this build's chains read
        starts = ((3, 0), (6, 2))
        if n <= 16:
            starts += (((1 << m.b) - 1, 0), (random.Random(n).getrandbits(m.b), 2))
        for x, c in starts:
            chain = arith._GmpChain(x, c, m, kernel, arith._fft_plan(n))
            assert chain.plan is not None
            items = bytearray(steps * width)
            assert chain.run(steps, items) == steps
            digests = [hashlib.sha256(items[q * width : (q + 1) * width]).digest() for q in range(steps)]
            wrong = [q + 1 for q, (a, b) in enumerate(zip(digests, int_chain_digests(x, c, n, steps))) if a != b]
            assert wrong == [], f"items {wrong} of ({x}, {c}) differ mod F_{n}"
            chain.export()


# The plan as _fft_plan makes it, and the same plan without powers, on which
# the loaded kernel takes y mod q with mpn_mod_1, as on a CPU without IFMA.
@pytest.mark.parametrize(
    "n, reduction",
    [pytest.param(n, "plan", id=str(n)) for n in sorted(arith._FACTORS)]
    + [pytest.param(n, "mpn_mod_1", id=f"{n}-mpn_mod_1") for n in sorted(arith._FACTORS)],
)
def test_each_fft_step_takes_its_residue_mod_q_as_python_does(gmp, monkeypatch, n, reduction):
    # 2**(b/2) squares to 2**b, whose top limb counts -1 mod q; 2**b - 1 has every chunk 0xFFFFFFFF.
    monkeypatch.setenv("FERMATLAB_MAX_BITS", str(1 << max(arith._FACTORS)))
    m = FermatModulus(n)
    assert m.backend == "gmp-fft"
    plan = arith._fft_plan(n)
    if reduction == "mpn_mod_1":
        plan = plan._replace(powers=None)
    for x in ((1 << m.b) - 1, 1 << m.b // 2, random.Random(n).getrandbits(m.b)):
        chain = arith._GmpChain(x, 0, m, gmp, plan)
        assert (chain.plan.powers is not None) == (gmp.ifma and reduction == "plan")
        for step in range(64):
            assert chain.run(1) == 1
            assert chain.state.x_d == arith._from_limbs(chain.r) % chain.d, f"step {step + 1} from a {x.bit_length()}-bit x"


def test_fft_rounding_stays_within_a_sixteenth_at_n16(gmp):
    assert FermatModulus(16).backend == "gmp-fft"
    chain = fft_chain(random.Random(16).getrandbits(1 << 16), 2, FermatModulus(16))
    assert chain.run(1000) == 1000
    chain.export()
    assert 0 < chain.state.error <= 1 / 16


@pytest.mark.parametrize("x, c", [(6, 2), (3, 0)], ids=["walk", "pepin"])
def test_fft_and_mpn_sqr_chains_agree(fft, monkeypatch, x, c):
    m = FermatModulus(15)
    fft_items = chain_bytes(x, c, m, 512)
    force_backend("gmp", monkeypatch)
    assert m.backend == "gmp"
    assert chain_bytes(x, c, m, 512) == fft_items


def corrupt_plan(change):
    """(arith, "_fft_plan", plans whose table, as doubles, ``change`` has edited), for monkeypatch.setattr.

    ``change`` takes the table and M, the number of points; the weights are
    at 0 (real parts) and M (imaginary), the twiddles from 2M on.
    """
    real = arith._fft_plan

    def corrupted(n):
        plan = real(n)
        table = array("d", plan.table)
        change(table, len(table) // 4)
        return plan._replace(table=bytearray(table))

    return arith, "_fft_plan", corrupted


def corrupt_fft_product(gmp):
    # Weight 0 doubled: digits 0 and M count twice, so the square is of
    # another integer, exact but wrong, and only the mod q check sees it.
    return corrupt_plan(lambda table, points: table.__setitem__(0, 2.0))


def force_carry(gmp):
    # Every subtraction borrows and every wrap carries into the top limb,
    # above all the one that folds the FFT's final carry in.
    return [always_borrow(gmp, "sub_1"), callback(gmp, "add_1", lambda real: lambda *args: real(*args) or 1)]


def corrupt_twiddle(gmp):
    # The first stage's twiddle j = 1 conjugated: coefficients far from integers.
    def conjugate(table, points):
        at = 3 * points + points // 2 + 1  # the imaginary part of stage h = M/2's twiddle j = 1, at h + j
        table[at] = -table[at]

    return corrupt_plan(conjugate)


def corrupt_power(gmp):
    # 2**32 mod q, the power of each residue's chunk 1, one off: y mod q is
    # off by that chunk, so the first item above 2**32 fails its step.
    if not gmp.ifma:
        pytest.skip("this kernel takes y mod q with mpn_mod_1, and its plans hold no powers")
    real = arith._fft_plan

    def corrupted(n):
        plan = real(n)
        powers = array("Q", plan.powers)
        powers[1] ^= 1
        return plan._replace(powers=bytearray(powers))

    return arith, "_fft_plan", corrupted


def corrupt_state(gmp):
    # x mod q, which the chain carries from its import check to its first
    # step, off by one: that step's check fails whichever reduction, IFMA's
    # or mpn_mod_1's, takes y mod q.
    real = arith._GmpChain.__init__

    def corrupted(self, *args):
        real(self, *args)
        self.state.x_d = (self.state.x_d + 1) % self.d

    return arith._GmpChain, "__init__", corrupted


FFT_MUTATIONS = [
    corrupt_fft_product,
    force_carry,
    corrupt_twiddle,
    corrupt_power,
    corrupt_wrap,
    corrupt_state,
    corrupt_export,
]
FFT_WALKS = {
    "a_mod_fermat": lambda: a_mod_fermat(17, 15),
    "pepin_test": lambda: pepin_test(15),
    "trace_blocks": lambda: list(trace_blocks(6, 2, FermatModulus(15), 8)),
}
# Pépin has no constant to subtract, but the FFT's final carry is folded in with the same sub_1.
CORRUPTED_FFT_WALKS = [
    pytest.param(mutation, walk, id=f"{mutation.__name__}-{walk}") for mutation in FFT_MUTATIONS for walk in FFT_WALKS
]


@pytest.mark.parametrize("mutation, walk", CORRUPTED_FFT_WALKS)
def test_fft_corruption_raises(fft, monkeypatch, mutation, walk):
    patches = mutation(fft)
    for patch in patches if isinstance(patches, list) else [patches]:
        monkeypatch.setattr(*patch)
    with pytest.raises(ArithmeticError, match="GMP|FFT"):
        FFT_WALKS[walk]()


def test_the_round_off_guard_raises(fft, monkeypatch):
    # Weights 2**-20 too large scale every coefficient by about 1 + 2**-19,
    # which moves those of a random square, near 2**40, by fractions of all sizes.
    def scale(table, points):
        for j in range(2 * points):
            table[j] *= 1 + 2**-20

    monkeypatch.setattr(*corrupt_plan(scale))
    m = FermatModulus(15)
    with pytest.raises(ArithmeticError, match="above 1/4"):
        power_of_two(random.Random(15).getrandbits(m.b), 1, m)


def test_fft_check_survives_optimized_python(fft):
    corruption = (
        "if arith.FermatModulus(15).backend != 'gmp-fft':\n"
        "    sys.exit('no FFT plan')\n"
        "arith._fft_plan(15).table[0] = 2.0\n"
    )
    assert run_optimized(corruption, "a_mod_fermat(17, 15)") == ["caught", "False"]
