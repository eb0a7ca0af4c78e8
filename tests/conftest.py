import os
import pathlib
import shutil
import sys
import threading

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import pytest

from fermatlab import arith


@pytest.fixture(scope="session")
def gmp():
    """The loaded kernel: a callback put in an entry of its table ``gmp`` reaches every GMP chain from then on.

    Skips where libgmp does not load or no C compiler is found; where both
    are present but the kernel is not used (a failed build or first walk),
    the tests that need it fail instead of skipping.
    """
    kernel = arith._load_kernel()
    if kernel is None:
        if arith._load_gmp() is None or shutil.which(arith._COMPILER) is None:
            pytest.skip(f"{arith.GMP_SONAME} does not load here or no C compiler is found, so there is no GMP chain")
        pytest.fail("libgmp loads and a C compiler is found, but the kernel did not build or failed its first walk")
    return kernel


def force_backend(backend, patch):
    """Make every chain started from here on square with ``backend``, where its modulus allows it, through the MonkeyPatch ``patch``.

    It patches the two seams that choose a chain's arithmetic: "int" hides
    the kernel, so every modulus squares with ``x * x``; "gmp" hides every
    FFT plan, so the kernel squares with ``mpn_sqr``; "gmp-fft" patches
    nothing, so the FFT serves the n that ``arith._FACTORS`` lists.  The
    kernel serves only moduli of whole 64-bit limbs, n >= 6.  A test that
    forces "gmp" or "gmp-fft" asks for the ``gmp`` fixture too.
    """
    if backend == "int":
        patch.setattr(arith, "_load_kernel", lambda: None)
    elif backend == "gmp":
        patch.setattr(arith, "_fft_plan", lambda n: None)


def backend_of(n, backend="gmp-fft"):
    """The backend of chains mod F_n under ``force_backend(backend)``, where the kernel loads.

    "int" below n = 6, where b is not a whole number of 64-bit limbs; on the
    kernel, "gmp-fft" exactly where ``arith._FACTORS`` lists n, else "gmp".
    """
    if backend == "int" or n < 6:
        return "int"
    return "gmp-fft" if backend == "gmp-fft" and n in arith._FACTORS else "gmp"


def thread_counts():
    """(Python threads, threads of this process): a pthread that a kernel job starts counts only in the second.

    The second is None where there is no ``/proc/self/task`` to count.
    """
    tasks = pathlib.Path("/proc/self/task")
    return threading.active_count(), len(os.listdir(tasks)) if tasks.is_dir() else None


@pytest.fixture
def counted_steps(monkeypatch):
    """The list every chain appends one entry to per squaring step, however it is read.

    Each call of a chain's ``run``, on the int chain or in the kernel,
    appends each step it ran, as the number of steps it was asked for.  A
    kernel job's steps, which no ``run`` makes, are not counted, nor are the
    steps run inside ``arith._agrees_with_int``: the kernel's first walk and
    each FFT plan's self-test, which a count may start but no caller asked
    for.
    """
    steps, checking = [], threading.local()

    def agrees_with_int(*args, check=arith._agrees_with_int):
        checking.now = True
        try:
            return check(*args)
        finally:
            checking.now = False

    monkeypatch.setattr(arith, "_agrees_with_int", agrees_with_int)
    for chain in (arith._IntChain, arith._GmpChain):

        def counted(self, count, trace=None, run=chain.run):
            done = run(self, count, trace)
            if not getattr(checking, "now", False):
                steps.extend([count] * done)
            return done

        monkeypatch.setattr(chain, "run", counted)
    return steps
