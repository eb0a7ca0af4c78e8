import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import pytest

from fermatlab import arith


@pytest.fixture
def counted_chain():
    """A stand-in for square_chain, and the list it appends one entry to per squaring step."""
    steps = []

    def chain(x, c, m):
        items = arith.square_chain(x, c, m)
        yield next(items)
        for r in items:  # item k costs step k, taken only when item k is asked for
            steps.append(r)
            yield r

    return chain, steps
