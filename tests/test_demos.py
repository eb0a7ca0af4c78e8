import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    # Under the interpreter's debug checks, with every warning an error, as the tier-1 tests run in CI.
    command = [sys.executable, "-X", "dev", "-W", "error", str(demo)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
