import pathlib
import shutil
import sys

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


@pytest.fixture
def counted_steps(monkeypatch):
    """The list every chain appends one entry to per squaring step, however it is read.

    The int chain appends a step when its item is asked for; a kernel call
    appends each step it ran, as the number of steps it was asked for.
    """
    steps = []
    kernel = arith._load_kernel()  # loaded first: its load walks a chain of its own
    int_chain = arith._int_chain

    def counted(x, c, m):
        items = int_chain(x, c, m)
        yield next(items)
        for item in items:  # item k costs step k, taken only when item k is asked for
            steps.append(item)
            yield item

    monkeypatch.setattr(arith, "_int_chain", counted)
    if kernel is not None:

        def counted_run(state, count, trace):
            done = kernel.run(state, count, trace)
            steps.extend([count] * max(done, 0))
            return done

        monkeypatch.setattr(arith, "_load_kernel", lambda: kernel._replace(run=counted_run))
    return steps
