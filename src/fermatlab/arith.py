"""Arbitrary-precision arithmetic specialized for moduli of the form 2**b + 1.

Residues are plain Python ints in [0, 2**b + 1).  Reduction never divides:
it folds b-bit halves using 2**b = -1 (mod 2**b + 1), which is the whole
point of working with this modulus shape.  Every test runs one squaring
chain x, x*x - c, ... mod the modulus, one chain object read in one of two
ways: :func:`chain_item` returns item k alone, and :func:`trace_blocks`
yields the items' fixed-width bytes a block at a time, which
:func:`trace_hash` hashes up to the first zero, the scan's trace, and
``sequences.residues`` decodes.  On the kernel,
:func:`start_chain_item` runs chain_item's steps on a thread of the
kernel's own, beside the caller.

``_chain`` alone chooses the chain's arithmetic, per modulus, when a chain
starts.  Below one 64-bit limb, n <= 5, it is ``_IntChain``, CPython's
``x * x`` and :func:`reduce_mod_fermat`, which is also the reference.  On
every modulus of whole limbs it is ``_GmpChain``: the residue lives in
64-bit limbs for the whole chain, and a small compiled kernel, ``_chain.c``,
runs a block of steps per call on them, squaring and folding with GMP's
``mpn`` functions from ``libgmp.so.10``.  For each n that ``_FACTORS``
lists with a divisor of F_n, the kernel squares mod 2**b + 1 directly with
its own weighted double-precision FFT, 1.3-10x faster per step than
``mpn_sqr`` at n = 10..19 in its x86-64-v4 clone.  Every step is checked
modulo a prime or that divisor, and only an item that is returned or
checked in full becomes an int.  The kernel is built once with the system C compiler into a per-user
cache and loaded, with libgmp, through ``ctypes``.  When the library does
not load or the kernel cannot be built, every modulus uses ``x * x``.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from typing import Iterator, NamedTuple

from .budget import check_pow2_bits

# GMP chains need 64-bit limbs, and the kernel serves every modulus whose b is
# a whole number of them, n >= 6, where it already wins: a step of the int
# chain (x * x and the fold) takes about six times the kernel's at n = 6 and
# at n = 10.  The int chain below is also the reference.
_LIMB_BITS = 64
GMP_SONAME = "libgmp.so.10"
# The compiler that builds the kernel, and its flags; without one, every modulus uses x * x.
_COMPILER = "cc"
_CFLAGS = ("-O3", "-shared", "-fPIC", "-pthread")
# The trace bytes one kernel call may write: a block holds as many items as fit, and at least one.
_BLOCK_BYTES = 1 << 16
# The squared bits one kernel call of chain_item or of a job may run: 2**24 / b
# steps, and at least one.  That is one call for any k up to n = 11 and 256
# steps, about 3 ms, at n = 16, the longest a Ctrl-C or a cancel waits.
_BLOCK_BITS = 1 << 24
# How long one wait of a job's join may last, ms, before it returns to Python to take its signals.
_JOIN_MS = 10
# The mpn entry points every kernel chain calls.
_MPN = ("sqr", "mod_1", "sub_n", "add_1", "sub_1")
# A ~30-bit prime: every mpn_sqr step must satisfy x*x = k*F + y + c - w*F modulo it.
_CHECK_PRIME = (1 << 30) - 35
# A divisor q < 2**64 of F_n for each n whose kernel chains square with the
# kernel's FFT, which returns x*x mod 2**b + 1 without the 2L-limb product: an
# FFT step gives no k, but with q | F it must satisfy x*x = y + c modulo q.
# Each q is a known prime factor of F_n (W. Keller's tables) or a product of
# known prime factors, which divides F_n as well and checks more bits: 59 at
# n = 10 (45592577 * 6487031809), against 26 for the single factor.  In the
# x86-64-v4 clone the FFT step is the faster one at every listed n; README's
# per-level table gives each n's step time against mpn_sqr's.  F_14 has no
# known factor.  GMP's undocumented mpn_mul_fft takes 50-84 us at n = 16, so
# the kernel has its own.  The 16-bit digits keep the worst rounding error
# (every digit 0xFFFF) at 0.0625 or less up to n = 19, well inside the 1/4 each
# step checks; test_one_fft_step_matches_the_fold holds every listed n to 1/16.
# Percival (Math. Comp. 72, 2003) bounds this error from the transform length
# and the digit size.  It reaches 0.31 at n = 21, so F_21's factor
# 4485296422913 is not listed and n = 21 squares with mpn_sqr; the plan's
# self-test would refuse it.
_FACTORS = {
    10: 295760497253281793,
    11: 311453532161,
    12: 12133124741372755969,
    13: 3603109844542291969,
    15: 1214251009,
    16: 825753601,
    17: 31065037602817,
    18: 13631489,
    19: 70525124609,
}
# Where a kernel chain's work space starts, bytes past a page boundary; the
# plan and the residue start on one (``_aligned``).  The FFT reads the plan
# and writes the work space at the same index, and a store whose address
# matches a load's mod 4096 holds that load back: at n = 16 an offset of 0
# took a step about 9% longer than 2048.
_WORK_OFFSET = 2048
# What fermat_chain_run returns for a failed step, _chain.c's ABOVE, WRONG and
# INEXACT, and what a job's join returns for a cancelled or a running job.
_ABOVE, _WRONG, _INEXACT, _CANCELLED, _RUNNING = -1, -2, -3, -4, -5


class FermatModulus:
    """The modulus 2**b + 1 with b = 2**n."""

    __slots__ = ("n", "b", "value", "_mask")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"modulus index must be nonnegative, got {n}")
        check_pow2_bits(n, f"modulus index {n}")
        self.n = n
        self.b = 1 << n
        self.value = (1 << self.b) + 1
        self._mask = (1 << self.b) - 1

    @property
    def backend(self) -> str:
        """The arithmetic of chains mod this modulus: "int", "gmp" or "gmp-fft".

        "gmp-fft" squares with the kernel's FFT and "gmp" with GMP's
        ``mpn_sqr``; both keep the residue in GMP limbs.  Reading it may load
        the GMP library, build or load the kernel and make the FFT plan, as
        starting a chain does.
        """
        gmp = _gmp_for(self)
        return "int" if gmp is None else "gmp" if gmp[1] is None else "gmp-fft"


def fermat_value(n: int) -> int:
    """The n-th term of the 3, 5, 17, 257, ... tower: 2**(2**n) + 1."""
    return FermatModulus(n).value


def reduce_mod_fermat(x: int, m: FermatModulus) -> int:
    """Canonical residue of x, by folding only.

    Splits x = hi * 2**b + lo and replaces it with lo - hi until the value is
    in range; a negative intermediate flips a sign that is fixed up at the
    end.  The magnitude strictly decreases on every fold, so this terminates
    for inputs of any size (two folds suffice after squaring a canonical
    residue).
    """
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    b, mask, value = m.b, m._mask, m.value
    negative = False
    while x >= value:
        x = (x & mask) - (x >> b)
        if x < 0:
            x = -x
            negative = not negative
    if negative and x:
        x = value - x
    return x


def chain_item(x: int, c: int, k: int, m: FermatModulus) -> int:
    """Item k of the chain x, x*x - c, ... mod m, after k squarings.

    Only item k is converted to an int.  On the GMP chain the items before
    it stay limbs, each checked as it is computed, and the k steps are
    kernel calls of ``_block_steps(m)`` steps (one more after each zero
    item), so a Ctrl-C is raised within one block.  With c = 0 the item is
    the power x**(2**k) that Pépin reads.
    """
    if k < 0:
        raise ValueError(f"expected a nonnegative item index, got {k}")
    chain, block = _chain(x, c, m), _block_steps(m)
    while k:
        k -= chain.run(min(k, block))
    return chain.export()


def start_chain_item(x: int, c: int, k: int, m: FermatModulus) -> _GmpChain | None:
    """``chain_item(x, c, k, m)`` started on a kernel thread, or None where none starts: on the int chain, or when the system starts no thread.

    Returns the chain, whose :meth:`~_GmpChain.join` ends the job and whose
    ``export`` then reads item k.  The chain is made, and its import
    checked, on the calling thread.
    """
    if k < 0:
        raise ValueError(f"expected a nonnegative item index, got {k}")
    chain = _chain(x, c, m)
    return chain if isinstance(chain, _GmpChain) and chain.start(k) else None


def _block_steps(m: FermatModulus) -> int:
    """The steps of one kernel call of chain_item or of a job mod m: ``_BLOCK_BITS`` squared bits, and at least one step."""
    return max(1, _BLOCK_BITS // m.b)


def trace_blocks(x: int, c: int, m: FermatModulus, count: int) -> Iterator[tuple[bytes | memoryview, bool]]:
    """Yield items 0 .. count - 1 of x, x*x - c, ... mod m a block at a time: the items' bytes, and whether the last is 0.

    Each item is b/8 + 1 little-endian bytes, which hold 2**b, so a trace is
    comparable across machines and backends.  The first block is x; each
    later one is one ``run``, at most ``_BLOCK_BYTES`` of items (one where
    one is larger), in one buffer that the next block overwrites, so a caller
    that keeps a block copies it.  x and c are checked as ``_chain`` checks
    them, on the first ``next``.  The last item and every zero candidate are
    exported, which the GMP chain checks in full.
    """
    if count < 1:
        raise ValueError(f"expected a positive item count, got {count}")
    chain, width = _chain(x, c, m), m.b // 8 + 1
    yield x.to_bytes(width, "little"), not x
    left, per_block = count - 1, max(1, _BLOCK_BYTES // width)
    buffer = bytearray(min(per_block, left) * width)
    view = memoryview(buffer)
    while left:
        done = chain.run(min(per_block, left), buffer)
        left -= done
        yield view[: done * width], (not left or chain.maybe_zero()) and chain.export() == 0


def trace_hash(x: int, c: int, m: FermatModulus, count: int) -> tuple[str, int, bool]:
    """The trace of items 0 .. count - 1 of ``trace_blocks(x, c, m, count)``, read up to the first zero item.

    Returns ``"sha256:<hex>"`` over the items' bytes, one ``update`` per
    block, how many items were read and whether the last one is 0.  hashlib
    is imported on the first call.
    """
    import hashlib

    trace, read, width = hashlib.sha256(), 0, m.b // 8 + 1
    for block, zero in trace_blocks(x, c, m, count):
        trace.update(block)
        read += len(block) // width
        if zero:
            break
    return f"sha256:{trace.hexdigest()}", read, zero


def _chain(x: int, c: int, m: FermatModulus) -> _IntChain | _GmpChain:
    """The chain x, x*x - c, ... mod m on the arithmetic ``m.backend`` names: the one place where it is chosen.

    Raises ValueError unless x is canonical and c a small nonnegative constant.
    """
    if not 0 <= x < m.value:
        raise ValueError(f"expected a canonical residue mod F_{m.n}, got a {x.bit_length()}-bit integer")
    if not 0 <= c < min(m.value, 1 << 32):  # the GMP chain subtracts c as one limb
        raise ValueError(f"expected a small nonnegative constant below F_{m.n}, got {c}")
    gmp = _gmp_for(m)
    return _IntChain(x, c, m) if gmp is None else _GmpChain(x, c, m, *gmp)


def _gmp_for(m: FermatModulus):
    """The kernel and the FFT plan (None for mpn_sqr) when chains mod m run in GMP, else None."""
    kernel = _load_kernel() if m.b >= _LIMB_BITS else None
    return None if kernel is None else (kernel, _fft_plan(m.n))


@cache
def _load_gmp():
    """The system GMP library, or None when it cannot serve.

    Loaded by soname, so no subprocess runs to find it; ctypes is first
    imported here, when a chain first needs GMP.  A GMP that lacks one of
    the ``mpn`` entry points the kernel calls, or has limbs other than 64
    bits, is not used.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(GMP_SONAME)
    except OSError:
        return None
    if ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value != _LIMB_BITS:
        return None
    if any(getattr(lib, f"__gmpn_{name}", None) is None for name in _MPN):
        return None
    return lib


class _Kernel(NamedTuple):
    """The loaded kernel: ``fermat_chain_run``, the GMP table it calls through, the table's entry types, its chain type and its job functions.

    ``job_size`` is the bytes of a job; ``start``, ``cancel`` and ``join``
    are ``fermat_job_start``, ``fermat_job_cancel`` and ``fermat_job_join``.
    ``ifma`` is whether its FFT steps take y mod q with AVX-512 IFMA from
    the plan's powers, which this CPU and the build decide, rather than
    with ``mpn_mod_1``.
    """

    run: object
    gmp: object
    prototypes: dict
    chain_type: type
    job_size: int
    start: object
    cancel: object
    join: object
    ifma: bool


@cache
def _load_kernel() -> _Kernel | None:
    """The compiled chain kernel, with libgmp's ``mpn`` entry points in its table, or None.

    None when GMP cannot serve, the platform is big-endian (the trace bytes
    are the limbs' own), or the kernel cannot be built or fails its first
    walk.  Made once per process, on first need; reading
    ``FermatModulus.backend`` makes it, so the commands start their clocks
    after it.  The table holds the entry points' addresses, which
    ``prototypes`` types, so a test can put the address of a ctypes callback
    in it.
    """
    lib = _load_gmp()
    if lib is None or sys.byteorder != "little":
        return None
    shared = _build_kernel()
    if shared is None:
        return None
    import ctypes

    limb, size, ptr, fn = ctypes.c_uint64, ctypes.c_long, ctypes.c_void_p, ctypes.CFUNCTYPE
    prototypes = {  # in the order of _chain.c's struct gmp
        "sqr": fn(None, ptr, ptr, size),
        "mod_1": fn(limb, ptr, size, limb),
        "sub_n": fn(limb, ptr, ptr, ptr, size),
        "add_1": fn(limb, ptr, ptr, size, limb),
        "sub_1": fn(limb, ptr, ptr, size, limb),
    }

    class Gmp(ctypes.Structure):
        _fields_ = [(name, ptr) for name in prototypes]

    class Chain(ctypes.Structure):
        _fields_ = [
            ("gmp", ctypes.POINTER(Gmp)),
            ("r", ptr),
            ("work", ptr),
            ("plan", ptr),
            ("powers", ptr),
            ("size", size),
            ("c", limb),
            ("d", limb),
            ("f_d", limb),
            ("x_d", limb),
            ("error", ctypes.c_double),
        ]

    table = Gmp()
    for name in _MPN:
        setattr(table, name, _function_address(getattr(lib, f"__gmpn_{name}")))
    run, start, cancel, join = shared.fermat_chain_run, shared.fermat_job_start, shared.fermat_job_cancel, shared.fermat_job_join
    run.argtypes, run.restype = [ptr, size, ptr], size
    start.argtypes, start.restype = [ptr, ptr, size, size], ctypes.c_int
    cancel.argtypes, cancel.restype = [ptr], None
    join.argtypes, join.restype = [ptr, size], size
    shared.fermat_job_size.argtypes, shared.fermat_job_size.restype = [], size
    shared.fermat_reduces_with_ifma.argtypes, shared.fermat_reduces_with_ifma.restype = [], ctypes.c_int
    job_size, ifma = shared.fermat_job_size(), bool(shared.fermat_reduces_with_ifma())
    kernel = _Kernel(run, table, prototypes, Chain, job_size, start, cancel, join, ifma)
    # Eight steps of the recurrence mod F_6, the smallest whole-limb modulus,
    # against the int chain: a kernel built or linked wrongly is not used,
    # and ctypes makes its one-time set-up for these calls before any clock.
    return kernel if _agrees_with_int(6, 2, FermatModulus(6), 8, kernel, None) else None


def _build_kernel():
    """``_chain.c`` compiled and loaded, or None when it cannot be built.

    The library is cached per user, in $XDG_CACHE_HOME/fermatlab or
    ~/.cache/fermatlab, under the sha256 of the compile command and the
    source, so a changed source, compiler name or flag is built anew (not a
    compiler upgraded in place under the same name).  On a miss
    the compiler writes a temporary file that ``os.replace`` moves into
    place, so no process loads a partial one; where the cache directory
    cannot be written, the kernel is built in a temporary directory instead
    and loaded from there.
    """
    import ctypes
    import hashlib

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_chain.c")
    digest = hashlib.sha256("\0".join((_COMPILER, *_CFLAGS, "")).encode())
    with open(source, "rb") as file:
        digest.update(file.read())
    name = f"chain-{os.uname().machine}-{digest.hexdigest()[:16]}.so"
    directory = _cache_dir()
    if directory is not None:
        path = os.path.join(directory, name)
        try:
            return ctypes.CDLL(path)
        except OSError:  # not built yet
            pass
        try:
            os.makedirs(directory, exist_ok=True)
            return _compile(source, directory, path)
        except OSError:  # the cache directory cannot be written
            pass
    import tempfile

    try:
        with tempfile.TemporaryDirectory() as directory:
            return _compile(source, directory, os.path.join(directory, name))
    except OSError:
        return None


def _cache_dir() -> str | None:
    """The kernel's cache directory, or None where no absolute one can be named."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # the XDG rule: a relative path is ignored
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "fermatlab") if os.path.isabs(root) else None


def _compile(source: str, directory: str, path: str):
    """Compile ``source`` to ``path`` through a temporary file in ``directory``, and load it; None if the compiler fails.

    Raises OSError when ``directory`` cannot be written.  The compiler runs
    inside ``subprocess.run``, which waits for it or kills it at the time-out,
    so no process outlives the call.
    """
    import ctypes
    import subprocess
    import tempfile

    handle, built = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(handle)
    try:
        try:
            done = subprocess.run(
                [_COMPILER, *_CFLAGS, "-o", built, source],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=120,
            )
        except (FileNotFoundError, subprocess.TimeoutExpired):  # no compiler, or one that hangs
            return None
        if done.returncode:
            return None
        os.replace(built, path)
    finally:
        if os.path.exists(built):
            os.remove(built)
    return ctypes.CDLL(path)


class _FftPlan(NamedTuple):
    """The kernel's FFT plan mod F_n: its weights and twiddles, as doubles, the check divisor q, and the powers of 2**32 mod q that the kernel takes y mod q with, or None where it takes ``mpn_mod_1``."""

    table: memoryview
    q: int
    powers: memoryview | None


@cache
def _fft_plan(n: int) -> _FftPlan | None:
    """The FFT plan of GMP chains mod F_n, or None to square with mpn_sqr.

    None where ``_FACTORS`` lists no divisor of F_n or the self-test below
    fails.  Made once per n, when the first chain mod F_n starts.  A listed
    q must divide F_n (2**(2**n) = -1 mod q), or ArithmeticError is
    raised.
    The table is what ``_chain.c``'s ``fft_square`` reads for M = b / 32
    points: the weights exp(i*pi*j / 2M), j < M, then each stage's twiddles
    exp(-i*pi*j / h), j < h, at h for h = 1, 2, .. M/2 after a pad at 0,
    each as M real parts and M imaginary; on a page, every stage from h = 8
    starts on a cache line.  ``math`` computes them, so the kernel needs no
    libm, and the table is aligned once, here (see ``_aligned``).  Where the
    kernel takes a residue mod q with IFMA (``_Kernel.ifma``), the plan also
    holds ``_powers(q, M)``, 16 KiB at n = 16.  The plan is used only after
    a self-test against the reference fold: one kernel step, checked mod q,
    from a random x, from 2**(b/2), whose square 2**b is the one residue
    with a top limb, and from 2**b - 1, every digit 0xFFFF, whose rounding
    error is the largest.  So a wrong power fails it too.
    """
    q = _FACTORS.get(n)
    if q is None:
        return None
    if pow(2, 1 << n, q) != q - 1:
        raise ArithmeticError(f"{q} is listed as a factor of F_{n} but does not divide it")
    import math
    import random
    from array import array

    m = FermatModulus(n)
    points = m.b // 32
    weights = [math.pi * j / (2 * points) for j in range(points)]
    twiddles = [0.0] + [math.pi * j / h for h in (1 << s for s in range(n - 5)) for j in range(h)]  # a pad, and M - 1
    table = array("d", map(math.cos, weights))
    table.extend(map(math.sin, weights))
    table.extend(map(math.cos, twiddles))
    table.extend(-math.sin(angle) for angle in twiddles)
    kernel = _load_kernel()
    plan = _FftPlan(_aligned(len(table) * table.itemsize).cast("d"), q, _powers(q, points) if kernel.ifma else None)
    plan.table[:] = table
    inputs = (random.Random(n).getrandbits(m.b), 1 << m.b // 2, (1 << m.b) - 1)
    return plan if all(_agrees_with_int(x, 0, m, 1, kernel, plan) for x in inputs) else None


def _powers(q: int, chunks: int) -> memoryview:
    """2**(32j) mod q for j < chunks, as ``_chain.c``'s ``mod_by_powers`` reads them: their low 52 bits, then, where q >= 2**52, their high bits.

    A residue's 2L = b / 32 chunks of 32 bits are its digits in base 2**32,
    so with these its remainder mod q is one sum of products.
    """
    from array import array

    step, power, powers = (1 << 32) % q, 1, []
    for _ in range(chunks):
        powers.append(power)
        power = power * step % q
    words = array("Q", [power & (1 << 52) - 1 for power in powers])
    if q >> 52:
        words.extend(power >> 52 for power in powers)
    aligned = _aligned(len(words) * words.itemsize).cast("Q")
    aligned[:] = words
    return aligned


def _agrees_with_int(x: int, c: int, m: FermatModulus, steps: int, kernel: _Kernel, plan: _FftPlan | None) -> bool:
    """Whether ``steps`` kernel steps from x end on the int chain's item; a step or export that fails its check does not."""
    try:
        chain, reference = _GmpChain(x, c, m, kernel, plan), _IntChain(x, c, m)
        return chain.run(steps) == reference.run(steps) and chain.export() == reference.export()
    except ArithmeticError:
        return False


def _function_address(function) -> int:
    """The address of a foreign function or a ctypes callback.

    ``ctypes.cast`` makes the object refer to itself, a reference cycle, so
    it is kept for objects that live as long as the process or a test.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    return ctypes.cast(function, ctypes.c_void_p).value


def _to_limbs(x: int, count: int) -> memoryview:
    """x as ``count`` 64-bit little-endian limbs in a new aligned buffer."""
    limbs = _aligned(8 * count)
    limbs[:] = x.to_bytes(8 * count, "little")
    return limbs


def _aligned(size: int) -> memoryview:
    """A new zeroed buffer of ``size`` bytes whose first byte is on a page (4096-byte) boundary.

    A bytearray starts 16 to 48 bytes past a cache line, so the FFT's
    512-bit loads would mostly cross one; this is the aligned part of a
    larger one, which the view holds and keeps from being resized.  A page
    boundary, not only a cache line, pins where the FFT's plan and work
    space land relative to each other (``_WORK_OFFSET``).  The kernel's
    loads do not require alignment: a buffer without it runs and is checked
    the same, only slower.
    """
    buffer = bytearray(size + 4095)
    start = -_address(buffer) % 4096
    return memoryview(buffer)[start : start + size]


def _from_limbs(limbs) -> int:
    """The int that a buffer of 64-bit little-endian limbs holds."""
    return int.from_bytes(limbs, "little")


def _address(buffer: bytearray | memoryview) -> int:
    """The address of a buffer's first byte, for the kernel.

    Buffers are bytearrays or views of them, so no ctypes type is made per
    size (each new one is a reference cycle), and none is ever resized, so
    the address holds while the buffer lives.
    """
    import ctypes  # already loaded by _load_gmp; this is a lookup

    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


class _GmpChain:
    """One chain on GMP limbs, run by the kernel a block of steps per call.

    The residue is L + 1 limbs, L = b / 64; the top limb is 1 only for
    x = 2**b.  A step squares it, then subtracts c, adding F on a wrap.
    x = 2**b squares to 1 with k = 2**b - 1, so it needs no (L + 1)-limb
    square.  Without a plan, ``mpn_sqr`` squares the L low limbs into 2L
    and x*x = hi * 2**b + lo is folded to lo - hi, adding F on a borrow,
    with x*x = k*F + r and k mod d from ``mpn_mod_1``; d is the prime p.
    With an FFT plan, the kernel's FFT writes x*x mod F over x in place, a
    final carry e folded in as -e, and d is the plan's q, a divisor of F
    that may be composite: F = 0 mod q, so k is not needed; a step that
    rounds a coefficient more than 1/4 from an integer fails.  Every step
    checks that the top limb is canonical and that x*x = k*F + y + c - w*F
    (mod d), w = 1 on a wrap, with x mod d carried from the step before.
    ``mpn_mod_1`` takes y mod d, except on an FFT step whose plan holds
    powers (``_Kernel.ifma``): the kernel then sums y's 32-bit chunks times
    2**(32j) mod q with AVX-512 IFMA and takes one remainder.  The import
    and every export (y <= F - 1) are checked mod d too.  ctypes checks no
    ABI, so a wrong import, square, fold, wrap or export raises
    ArithmeticError.

    Python owns every buffer the kernel reads or writes, and this object
    holds the residue, the step's work space (mpn_sqr's 2L-limb square, 16
    bytes a limb, or the FFT's 2L complex points and its carry's 2L words,
    48), the plan and the kernel's chain struct for the chain's whole life,
    and its last job; a trace buffer is held by :func:`trace_blocks`.  A chain
    dropped while its job runs cancels the job and waits for it first, so no
    thread writes into a freed buffer.
    """

    __slots__ = ("m", "kernel", "d", "r", "work", "plan", "state", "state_at", "job", "job_at")

    def __init__(self, x: int, c: int, m: FermatModulus, kernel: _Kernel, plan: _FftPlan | None) -> None:
        import ctypes  # already loaded by _load_gmp; this is a lookup

        d = _CHECK_PRIME if plan is None else plan.q
        size = m.b // _LIMB_BITS
        self.m, self.kernel, self.d, self.plan = m, kernel, d, plan
        self.job = self.job_at = None
        self.r = _to_limbs(x, size + 1)
        self.work = _aligned(_WORK_OFFSET + (16 if plan is None else 48) * size)[_WORK_OFFSET:]
        r_at = _address(self.r)
        x_d = x % d
        if kernel.prototypes["mod_1"](kernel.gmp.mod_1)(r_at, size + 1, d) != x_d:
            raise ArithmeticError(f"GMP imported a {x.bit_length()}-bit residue wrongly (mod {d} check)")
        f_d = (pow(2, m.b, d) + 1) % d
        work_at, plan_at = _address(self.work), None if plan is None else _address(plan.table)
        powers_at = None if plan is None or plan.powers is None else _address(plan.powers)
        self.state = kernel.chain_type(ctypes.pointer(kernel.gmp), r_at, work_at, plan_at, powers_at, size, c, d, f_d, x_d)
        self.state_at = ctypes.addressof(self.state)

    def run(self, count: int, trace: bytearray | None = None) -> int:
        """Run up to ``count`` steps, writing each new item's b/8 + 1 bytes into ``trace`` when given; the steps run.

        Fewer than ``count`` run only when the last item is 0.
        """
        return self._checked(self.kernel.run(self.state_at, count, None if trace is None else _address(trace)))

    def start(self, count: int) -> bool:
        """Start ``count`` steps as a job on a kernel thread, in blocks of ``_block_steps(m)``; whether a thread started.

        Until :meth:`join` has returned, the chain must not be run or
        exported.  Where the system starts no thread, a resource limit and
        not a fault, nothing runs and False is returned.
        """
        self.job = _aligned(self.kernel.job_size)
        self.job_at = _address(self.job)
        if self.kernel.start(self.job_at, self.state_at, count, _block_steps(self.m)):
            self.job = None
            return False
        return True

    def cancel(self) -> None:
        """Ask the started job to stop before its next block."""
        self.kernel.cancel(self.job_at)

    def join(self) -> float | None:
        """Wait for the started job: the seconds its steps took on its own clock, or None when it was cancelled first.

        Raises ArithmeticError as :meth:`run` does when a step failed.  The
        wait returns to Python every ``_JOIN_MS`` ms and at each signal, so
        a Ctrl-C is raised at once; the job is then cancelled and waited
        for, which takes at most one block.  Once a join has returned, the
        kernel keeps the job's result, and a later join returns it at once.
        """
        try:
            while (done := self.kernel.join(self.job_at, _JOIN_MS)) == _RUNNING:
                pass
        except BaseException:  # a signal's exception, raised between two waits
            self.kernel.cancel(self.job_at)
            self.kernel.join(self.job_at, -1)
            raise
        return None if self._checked(done) == _CANCELLED else self.job.cast("d")[0]

    def __del__(self) -> None:
        # A job not yet joined may still run: stop it before its buffers go;
        # on a joined job both calls return at once.  The address was taken
        # at start, so this imports nothing, which at interpreter exit would
        # fail.
        if self.job is not None:
            self.kernel.cancel(self.job_at)
            self.kernel.join(self.job_at, -1)

    def _checked(self, done: int) -> int:
        """``done``, a kernel call's or a job's result, unless it is a failed step's code: that raises ArithmeticError."""
        if done == _ABOVE:
            raise ArithmeticError(f"GMP left a residue above 2**{self.m.b} mod F_{self.m.n}")
        if done == _WRONG:
            squarer = "GMP" if self.plan is None else "the FFT"
            raise ArithmeticError(f"{squarer} squared a residue mod F_{self.m.n} wrongly (mod {self.d} check)")
        if done == _INEXACT:
            raise ArithmeticError(
                f"the FFT rounded a coefficient {self.state.error:.3g} from an integer (above 1/4) mod F_{self.m.n}"
            )
        return done

    def export(self) -> int:
        """The current item as an int, checked: at most F - 1 and equal to its x mod d."""
        y = _from_limbs(self.r)
        if y >= self.m.value or y % self.d != self.state.x_d:
            raise ArithmeticError(f"GMP exported a residue mod F_{self.m.n} wrongly (mod {self.d} check)")
        return y

    def maybe_zero(self) -> bool:
        """Whether the current item may be 0: it is 0 mod d."""
        return self.state.x_d == 0


class _IntChain:
    """One chain on a Python int, ``x * x`` and :func:`reduce_mod_fermat`: the reference the kernel is checked against.

    It runs and exports as :class:`_GmpChain` does, a block of steps per call.
    """

    __slots__ = ("x", "c", "m")

    def __init__(self, x: int, c: int, m: FermatModulus) -> None:
        self.x, self.c, self.m = x, c, m

    def run(self, count: int, trace: bytearray | None = None) -> int:
        """As :meth:`_GmpChain.run`: up to ``count`` steps, fewer only after a zero item, each item's bytes written into ``trace``."""
        x, c, m, width = self.x, self.c, self.m, self.m.b // 8 + 1
        items = []  # the traced items' bytes, copied at the end: a slice assignment per item costs more
        done = 0
        while done < count:
            x = reduce_mod_fermat(x * x, m) - c
            if x < 0:
                x += m.value
            if trace is not None:
                items.append(x.to_bytes(width, "little"))
            done += 1
            if not x:
                break
        if trace is not None:
            trace[: done * width] = b"".join(items)
        self.x = x
        return done

    def export(self) -> int:
        return self.x

    def maybe_zero(self) -> bool:
        """Whether the current item may be 0: here, whether it is."""
        return not self.x
