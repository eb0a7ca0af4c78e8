import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import pytest

from fermatlab import arith


@pytest.fixture
def counted_steps(monkeypatch):
    """The list every chain appends one entry to per squaring step, whether read item by item or at item k."""
    steps = []
    start = arith._start

    def counted(x, c, m):
        items, export = start(x, c, m)

        def each():
            yield next(items)
            for item in items:  # item k costs step k, taken only when item k is asked for
                steps.append(item)
                yield item

        return each(), export

    monkeypatch.setattr(arith, "_start", counted)
    return steps
