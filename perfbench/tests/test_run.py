"""Tests of the benchmark itself: golden table, failure counting, tracing, output contract.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

GOLDEN = bench.load_golden()
PRIME_N = {2, 3, 4}  # F_0..F_4 are the only known Fermat primes
# Published smallest factors, so the composite verdicts do not rest on fermatlab.
# F_14 has no known factor; it was shown composite by Pépin's test in 1963.
KNOWN_FACTORS = {
    5: 641,
    6: 274177,
    7: 59649589127497217,
    8: 1238926361552897,
    9: 2424833,
    10: 45592577,
    11: 319489,
    12: 114689,
    13: 2710954639361,
}


def plain_scan(n: int) -> tuple[int | None, int, str]:
    """found_q, squarings and trace hash of the scan, by a loop with ``%``."""
    modulus = (1 << (1 << n)) + 1
    width = (1 << n) // 8 + 1
    trace = hashlib.sha256()
    x, q, found = 6, 1, None
    trace.update(x.to_bytes(width, "little"))
    while found is None and q < (1 << n) - 1:
        x = (x * x - 2) % modulus
        q += 1
        trace.update(x.to_bytes(width, "little"))
        if x == 0 and q >= n:
            found = q
    return found, q - 1, "sha256:" + trace.hexdigest()


def test_golden_table_covers_every_unit():
    assert sorted(GOLDEN["cross_check"]) == list(range(2, 15))
    assert (GOLDEN["walk"]["n"], GOLDEN["walk"]["q"]) == (bench.WALK_N, bench.WALK_Q)


@pytest.mark.parametrize("n", range(2, 15))
def test_golden_rows_match_known_facts(n):
    row = GOLDEN["cross_check"][n]
    fermat = (1 << (1 << n)) + 1
    assert row["squarings_pepin"] == (1 << n) - 1
    if n in PRIME_N:
        assert all(fermat % d for d in range(2, math.isqrt(fermat) + 1))
        assert row["verdict_pepin"] == "PrimeByPepin"
        assert row["verdict_paper"] == "DivisorWitnessFound"
        assert n <= row["found_q"] < (1 << n)
        assert row["squarings_scan"] == row["found_q"] - 1
    else:
        if n in KNOWN_FACTORS:
            assert fermat % KNOWN_FACTORS[n] == 0
        assert row["verdict_pepin"] == "CompositeByPepin"
        assert row["verdict_paper"] == "CompositeCertified"
        assert row["found_q"] is None
        assert row["squarings_scan"] == (1 << n) - 2


@pytest.mark.parametrize("n", range(2, 13))
def test_golden_scan_matches_a_plain_loop(n):
    row = GOLDEN["cross_check"][n]
    assert plain_scan(n) == (row["found_q"], row["squarings_scan"], row["trace_hash"])


def doctored(change) -> dict:
    golden = copy.deepcopy(GOLDEN)
    change(golden)
    return golden


def flip_hash(golden):
    row = golden["cross_check"][7]
    row["trace_hash"] = row["trace_hash"][:-1] + ("0" if row["trace_hash"][-1] != "0" else "1")


def change_count(golden):
    golden["cross_check"][9]["squarings_scan"] += 1


def swap_verdict(golden):
    golden["cross_check"][3]["verdict_pepin"] = "CompositeByPepin"


@pytest.mark.parametrize("change", [flip_hash, change_count, swap_verdict])
@pytest.mark.parametrize("trace", [False, True])
def test_doctored_golden_fails_every_sweep_unit(change, trace):
    _, result = bench.run("sweep_small", 1, 0.2, trace, golden=doctored(change))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    if not trace:
        assert result["metrics"]["correct_frac"]["value"] == 0.0


@pytest.mark.parametrize("change, n", [(flip_hash, 7), (change_count, 9), (swap_verdict, 3)])
def test_cross_check_unit_check_rejects_doctored_rows(change, n):
    # verdict_n14 units go through this check; small n keeps the test fast.
    row = bench.report_row(bench.load_program().primality.cross_check(n))
    bench.compare_row(row, GOLDEN["cross_check"][n])
    with pytest.raises(bench.UnitFailure):
        bench.compare_row(row, doctored(change)["cross_check"][n])


def test_doctored_walk_digest_fails_the_walk_unit():
    golden = doctored(lambda g: g["walk"].update(residue_sha256="0" * 64))
    _, result = bench.run("walk_n16", 1, 0.01, False, golden=golden)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_nonzero_cli_exit_and_bad_json_fail_the_unit():
    with pytest.raises(bench.UnitFailure):
        bench.sweep_check((3, ""), GOLDEN)
    with pytest.raises(json.JSONDecodeError):
        bench.sweep_check((0, "not json\n"), GOLDEN)


def test_traced_run_keeps_the_timed_outputs_and_accounts_for_each_unit():
    timed_report, timed = bench.run("sweep_small", 5, 0.3, False)
    traced_report, traced = bench.run("sweep_small", 5, 0.3, True)
    assert timed["correct"] and traced["correct"]
    assert traced_report["outputs"] == timed_report["outputs"]
    counts = traced["metrics"]
    assert counts["count.squarings_pepin"]["value"] == sum(r["squarings_pepin"] for r in timed_report["outputs"])
    assert counts["count.squarings_scan"]["value"] == sum(r["squarings_scan"] for r in timed_report["outputs"])
    for unit in traced_report["traced_units"]:
        self_sum = sum(unit["self_ms"].values())
        assert self_sum == pytest.approx(unit["top_ms"], rel=1e-9)
        gap = abs(self_sum / unit["unit_ms"] - 1.0)
        assert gap == pytest.approx(abs(unit["metrics"]["trace.overhead_frac"]), abs=1e-9)


def test_a_missing_layer_is_reported_absent_and_the_split_still_adds_up():
    prog = bench.load_program()
    arith = SimpleNamespace(
        reduce_mod_fermat=prog.arith.reduce_mod_fermat, FermatModulus=prog.arith.FermatModulus
    )  # as if square_mod had been removed
    tracer = bench.Tracer()
    outputs, totals, top = bench.sweep_trace(
        SimpleNamespace(**{**vars(prog), "arith": arith}), tracer, GOLDEN, random.Random(1)
    )
    assert "arith.square_mod" in tracer.absent
    assert totals.metrics()["arith.self.us"] == pytest.approx(0.0, abs=1e-9)
    assert sum(totals.self_times().values()) == pytest.approx(top, rel=1e-9)
    assert [row["n"] for row in outputs] == list(bench.SWEEP_NS)


def benchmark_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_exactly_the_declared_metrics(trace):
    spec = benchmark_spec()
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "sweep_small", "--seed", "3", "--seconds", "0.2",
         "--trace", trace],
        cwd=REPO, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True and result["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = benchmark_spec()
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "sweep_small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
