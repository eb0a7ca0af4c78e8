import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import pytest

from fermatlab import arith


@pytest.fixture
def counted_steps(monkeypatch):
    """The list every chain appends one entry to per squaring step, whether read item by item or at item k.

    A power x**(2**k) that runs as one ``mpz_powm`` call appends its k squarings at once, as the k it was given.
    """
    steps = []
    start, power = arith._start, arith._gmp_power

    def counted_power(x, k, m, lib):
        steps.extend([k] * k)
        return power(x, k, m, lib)

    def counted(x, c, m):
        items, export = start(x, c, m)

        def each():
            yield next(items)
            for item in items:  # item k costs step k, taken only when item k is asked for
                steps.append(item)
                yield item

        return each(), export

    monkeypatch.setattr(arith, "_start", counted)
    monkeypatch.setattr(arith, "_gmp_power", counted_power)
    return steps
