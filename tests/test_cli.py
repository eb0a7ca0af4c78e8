import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest

from fermatlab import arith, cli, report
from fermatlab.cli import main
from fermatlab.primality import TestReport, Verdict, VerdictKind, paper_scan
from fermatlab.report import FIELDS, ReportRecord

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


# ------------------------------------------------------------------- pepin

def test_pepin_prime(capsys):
    code, out, _ = run(capsys, "pepin", "4")
    assert code == 0 and "PrimeByPepin" in out


def test_pepin_composite(capsys):
    code, out, _ = run(capsys, "pepin", "5")
    assert code == 0 and "CompositeByPepin" in out


def test_pepin_rejects_zero(capsys):
    code, _, err = run(capsys, "pepin", "0")
    assert code == 1 and "index 1" in err


def test_pepin_json_fields(capsys):
    code, out, _ = run(capsys, "pepin", "3", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert set(record) == set(FIELDS)
    assert record["verdict_pepin"] == "PrimeByPepin"
    assert record["squarings_pepin"] == 7
    assert record["verdict_paper"] is None


@pytest.fixture
def slow_cold_start(monkeypatch, tmp_path):
    """A cold kernel cache, and a next GMP load and kernel load that sleep 1 s first; returns what slept and the cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    slept = []

    def slow(name, load):
        def slowed():
            if name not in slept:
                slept.append(name)
                time.sleep(1.0)
            return load()

        return slowed

    monkeypatch.setattr(arith, "_load_gmp", slow("gmp", arith._load_gmp))
    monkeypatch.setattr(arith, "_load_kernel", cache(slow("kernel", arith._load_kernel.__wrapped__)))
    return slept, tmp_path / "fermatlab"


@pytest.mark.parametrize(
    "argv, backend",
    [
        (["pepin", "8"], "gmp"),
        (["paper-test", "10"], "gmp-fft"),
        (["cross-check", "--from", "6", "--to", "6"], "gmp"),
        (["cross-check", "--from", "9", "--to", "9"], "gmp"),
        (["cross-check", "--from", "12", "--to", "12"], "gmp-fft"),
    ],
    ids=["pepin", "paper-test", "cross-check-n6", "cross-check-gmp", "cross-check-fft"],
)
def test_elapsed_ms_leaves_out_the_library_load(capsys, slow_cold_start, argv, backend):
    # The kernel is built into the empty cache, and both loads sleep, before the
    # clock starts; at n = 12 Pépin runs beside the scan, on a thread started
    # after the loads.
    slept, built = slow_cold_start
    code, out, _ = run(capsys, *argv, "--format", "json")
    (record,) = json_records(out)
    assert code == 0 and sorted(slept) == ["gmp", "kernel"]
    assert record["backend"] == backend and len(list(built.glob("chain-*.so"))) == 1
    assert record["elapsed_ms"] < 500


# --------------------------------------------------------------- paper-test

def test_paper_test_found(capsys):
    code, out, _ = run(capsys, "paper-test", "3", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert record["found_q"] == 5
    assert record["verdict_paper"] == "DivisorWitnessFound"
    assert record["window_lo"] == 3 and record["window_hi"] == 8
    assert record["trace_hash"] == paper_scan(3).residue_trace_hash


def test_paper_test_none(capsys):
    code, out, _ = run(capsys, "paper-test", "5", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert record["found_q"] is None
    assert record["verdict_paper"] == "CompositeCertified"


def test_paper_test_full_range_widens_window(capsys):
    code, out, _ = run(capsys, "paper-test", "3", "--full-range", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert record["window_lo"] == 1 and record["window_hi"] == 9


def test_paper_test_floor(capsys):
    code, _, err = run(capsys, "paper-test", "1")
    assert code == 1 and "n >= 2" in err


# -------------------------------------------------------------- cross-check

def test_cross_check_range(capsys):
    code, out, err = run(capsys, "cross-check", "--from", "2", "--to", "8", "--format", "json")
    assert code == 0
    records = json_records(out)
    assert [r["n"] for r in records] == list(range(2, 9))
    assert all(r["consistent"] for r in records)
    assert "7/7 consistent" in err


def test_cross_check_table_has_one_row_per_n(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "10")
    assert code == 0
    body = [line for line in out.splitlines() if line and not line.startswith(("n ", " n", "-", "cross-check:"))]
    assert len(body) == 9


def test_cross_check_json_squaring_columns(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "10", "--format", "json")
    assert code == 0
    records = json_records(out)
    assert len(records) == 9
    for record in records:
        assert record["squarings_pepin"] == (1 << record["n"]) - 1


def test_cross_check_singleton(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "2", "--format", "json")
    assert code == 0 and len(json_records(out)) == 1


def test_cross_check_empty_range(capsys):
    code, _, err = run(capsys, "cross-check", "--from", "5", "--to", "3")
    assert code == 1 and "2 <= from <= to" in err


def test_cross_check_has_no_jobs_flag(capsys):
    code, _, err = run(capsys, "cross-check", "--from", "2", "--to", "3", "--jobs", "2")
    assert code == 1 and "--jobs" in err


def test_cross_check_inconsistency_exit_code(capsys, monkeypatch):
    import fermatlab.cli as cli_module

    # The scan finds its witness at q = 2, so a composite oracle verdict really disagrees with it.
    broken = TestReport(
        n=2,
        pepin=Verdict(VerdictKind.COMPOSITE_BY_PEPIN),
        scan=paper_scan(2),
        elapsed_ms=0.0,
        elapsed_ms_pepin=0.0,
        elapsed_ms_scan=0.0,
        backend="int",
    )
    monkeypatch.setattr(cli_module, "cross_check", lambda n: broken)
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "2")
    assert code == 3
    assert "0/1 consistent" in out  # table mode puts the summary on stdout


def test_cross_check_csv_columns(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(FIELDS)
    assert len(rows) == 4
    assert [row[2] for row in rows[1:]] == ["2", "3", "4"]


# The record's columns, in order, written out once more so that a change to
# the record's declaration cannot silently move or rename one.
RECORD_COLUMNS = (
    "schema_version,command,n,bits,verdict_pepin,verdict_paper,found_q,window_lo,window_hi,"
    "squarings_pepin,squarings_scan,factor,cofactor,consistent,backend,"
    "elapsed_ms,elapsed_ms_pepin,elapsed_ms_scan,trace_hash"
)


def test_cross_check_csv_header_is_fixed(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == RECORD_COLUMNS


def test_cross_check_json_key_order_is_fixed(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "2", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert ",".join(record) == RECORD_COLUMNS


# -------------------------------------------------------- verify-identities

def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-n", "10")
    assert code == 0
    assert "UNEXPECTED" not in out
    assert "frobenius at F_0" in out


def test_verify_identities_checks_the_square_root_of_two(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify-identities", "--max-n", "12")
    assert code == 0 and "ok          square root of 2" in out and "n = 2..12" in out
    import fermatlab.cli as cli_module

    monkeypatch.setattr(cli_module, "sqrt2_mod_fermat", lambda n: 2)  # 2**2 = 4, not 2
    code, out, _ = run(capsys, "verify-identities", "--max-n", "3")
    assert code == 1 and "UNEXPECTED  square root of 2" in out


def test_verify_identities_minimal(capsys):
    code, out, _ = run(capsys, "verify-identities", "--max-n", "1")
    assert code == 0 and "n = 1..1" in out


def test_verify_identities_budget(capsys):
    code, _, err = run(capsys, "verify-identities", "--max-n", "100000")
    assert code == 2 and "budget" in err


# ------------------------------------------------------------------- factor

def test_factor_known_split(capsys):
    code, out, _ = run(capsys, "factor", "5", "--k-limit", "10")
    assert code == 0 and "641 x 6700417" in out


def test_factor_none(capsys):
    code, out, _ = run(capsys, "factor", "2", "--k-limit", "100")
    assert code == 0 and "none up to k = 100" in out


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "12", "--k-limit", "10", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert record["factor"] == 114689
    assert record["factor"] * record["cofactor"] == (1 << 4096) + 1


def test_factor_floor(capsys):
    code, _, err = run(capsys, "factor", "1")
    assert code == 1 and "n >= 2" in err


def test_factor_rejects_nonpositive_k_limit(capsys):
    code, _, err = run(capsys, "factor", "5", "--k-limit", "0")
    assert code == 1 and "--k-limit" in err


# -------------------------------------------------- bench, now cross-check
# The bench command was folded into cross-check; its checks run there.

def test_bench_singleton_json(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "2", "--format", "json")
    assert code == 0
    (record,) = json_records(out)
    assert record["command"] == "cross-check" and record["n"] == 2
    assert record["squarings_pepin"] == 3 and record["consistent"] is True


def test_bench_bad_range(capsys):
    for low, high in (("9", "2"), ("1", "3")):
        code, out, err = run(capsys, "cross-check", "--from", low, "--to", high)
        assert code == 1 and out == "" and "2 <= from <= to" in err


# ------------------------------------------------------------ report schema

def test_json_round_trip(capsys):
    _, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "3", "--format", "json")
    for line in out.splitlines():
        record = ReportRecord.from_json(line)
        assert record.to_json() == line


WALK_COMMANDS = [
    ["pepin", "3"],
    ["paper-test", "3"],
    ["cross-check", "--from", "2", "--to", "3"],
]


@pytest.mark.parametrize("argv", WALK_COMMANDS, ids=lambda argv: argv[0])
def test_walk_records_carry_the_backend(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    for record in json_records(out):
        assert record["schema_version"] == "3"
        # n <= 5: b is not a whole number of 64-bit limbs, so Pépin too squares with x * x.
        assert record["backend"] == "int"


def masked_json_lines(capsys, *argv):
    """The command's JSON lines with every non-null timing replaced by "ms"."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    records = json_records(out)
    for record in records:
        for name in ("elapsed_ms", "elapsed_ms_pepin", "elapsed_ms_scan"):
            if record[name] is not None:
                record[name] = "ms"
    return [json.dumps(record) for record in records]


TRACE_N3 = "sha256:47956f7a69c960258ce42f674ef74962b193c01de988e364f37a186ca174f4ae"


def test_pepin_record_is_fixed(capsys):
    assert masked_json_lines(capsys, "pepin", "3") == [
        '{"schema_version": "3", "command": "pepin", "n": 3, "bits": 8, "verdict_pepin": "PrimeByPepin", '
        '"verdict_paper": null, "found_q": null, "window_lo": null, "window_hi": null, "squarings_pepin": 7, '
        '"squarings_scan": null, "factor": null, "cofactor": null, "consistent": null, "backend": "int", '
        '"elapsed_ms": "ms", "elapsed_ms_pepin": null, "elapsed_ms_scan": null, "trace_hash": null}'
    ]


def test_paper_test_record_is_fixed(capsys):
    assert masked_json_lines(capsys, "paper-test", "3") == [
        '{"schema_version": "3", "command": "paper-test", "n": 3, "bits": 8, "verdict_pepin": null, '
        '"verdict_paper": "DivisorWitnessFound", "found_q": 5, "window_lo": 3, "window_hi": 8, '
        '"squarings_pepin": null, "squarings_scan": 4, "factor": null, "cofactor": null, "consistent": null, '
        '"backend": "int", "elapsed_ms": "ms", "elapsed_ms_pepin": null, "elapsed_ms_scan": null, '
        f'"trace_hash": "{TRACE_N3}"}}'
    ]


def test_cross_check_record_is_fixed(capsys):
    assert masked_json_lines(capsys, "cross-check", "--from", "3", "--to", "3") == [
        '{"schema_version": "3", "command": "cross-check", "n": 3, "bits": 8, "verdict_pepin": "PrimeByPepin", '
        '"verdict_paper": "DivisorWitnessFound", "found_q": 5, "window_lo": 3, "window_hi": 8, '
        '"squarings_pepin": 7, "squarings_scan": 4, "factor": null, "cofactor": null, "consistent": true, '
        '"backend": "int", "elapsed_ms": "ms", "elapsed_ms_pepin": "ms", "elapsed_ms_scan": "ms", '
        f'"trace_hash": "{TRACE_N3}"}}'
    ]


@pytest.mark.parametrize("argv", WALK_COMMANDS, ids=lambda argv: argv[0])
def test_two_test_records_split_their_timing(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    for record in json_records(out):
        if argv[0] == "cross-check":
            assert record["elapsed_ms"] == record["elapsed_ms_pepin"] + record["elapsed_ms_scan"]
        else:
            assert record["elapsed_ms_pepin"] is record["elapsed_ms_scan"] is None


def test_factor_record_has_no_backend(capsys):
    code, out, _ = run(capsys, "factor", "5", "--k-limit", "10", "--format", "json")
    assert code == 0 and json_records(out)[0]["backend"] is None


def test_cross_check_table_has_a_backend_column(capsys):
    code, out, _ = run(capsys, "cross-check", "--from", "2", "--to", "3")
    assert code == 0
    header, _, first, second, _ = out.splitlines()
    columns = header.split()
    timing = {"squarings_pepin", "elapsed_ms_pepin", "squarings_scan", "elapsed_ms_scan", "consistent"}
    assert {"n", "bits", "backend"} | timing <= set(columns)
    i = columns.index("backend")
    assert first.split()[i] == second.split()[i] == "int"


@pytest.mark.parametrize(
    "argv, builds",
    [(["cross-check", "--from", "8", "--to", "8"], 5), (["pepin", "8"], 2), (["paper-test", "8"], 2)],
    ids=["cross-check", "pepin", "paper-test"],
)
def test_a_record_builds_no_modulus_of_its_own(gmp, capsys, monkeypatch, argv, builds):
    # Each build of F_n reads and parses the budget.  The record takes bits
    # from n and a cross-check's backend from its report: what is left is
    # _checked_range's build, and one per test in timed and in the test.
    checks = []
    check = arith.check_pow2_bits
    monkeypatch.setattr(arith, "check_pow2_bits", lambda *args: checks.append(args) or check(*args))
    code, out, _ = run(capsys, *argv, "--format", "json")
    (record,) = json_records(out)
    assert code == 0 and record["bits"] == 256 and record["backend"] == "gmp"
    assert len(checks) == builds


def test_from_json_rejects_unknown_fields():
    # A report line comes from outside the program: each bad one is a ValueError that says why.
    for line, message in [
        ('{"command": "pepin", "n": 2, "bits": 4, "bogus": 1}', "unknown report fields: ['bogus']"),
        ('{"command": "pepin", "n": 2}', "missing report fields: ['bits']"),
        ("{}", "missing report fields: ['command', 'n', 'bits']"),
        ("[1]", "must be a JSON object, got list"),
        ('"abc"', "must be a JSON object, got str"),
        ("7", "must be a JSON object, got int"),
    ]:
        with pytest.raises(ValueError) as raised:
            ReportRecord.from_json(line)
        assert str(raised.value).endswith(message), line


GOOD_LINE = {"command": "pepin", "n": 2, "bits": 4}


def from_json_error(**fields):
    with pytest.raises(ValueError) as raised:
        ReportRecord.from_json(json.dumps({**GOOD_LINE, **fields}))
    return str(raised.value)


def test_from_json_rejects_the_mixed_up_line():
    line = '{"command": 5, "n": "x", "bits": [1], "consistent": "no", "schema_version": "2"}'
    with pytest.raises(ValueError):
        ReportRecord.from_json(line)
    with pytest.raises(ValueError):
        ReportRecord.from_json(line.replace(', "schema_version": "2"', ""))


def test_from_json_rejects_another_schema_version():
    for version in ("2", "4", 3, None):
        assert "expected schema_version '3'" in from_json_error(schema_version=version)


def assert_wrong_types_rejected(fields, values):
    for field in fields:
        for value in values:
            assert f"report field {field!r} has the wrong type" in from_json_error(**{field: value}), (field, value)


def test_from_json_rejects_an_int_field_that_is_not_an_int():
    # A JSON true or false is not taken as 1 or 0.
    assert_wrong_types_rejected(["n", "bits", "found_q", "squarings_pepin", "factor"], ["2", 2.0, [2], True, False])


def test_from_json_rejects_a_bool_field_that_is_not_a_bool():
    assert_wrong_types_rejected(["consistent"], [1, 0, "yes", "true"])


def test_from_json_rejects_a_timing_that_is_not_a_number():
    assert_wrong_types_rejected(["elapsed_ms", "elapsed_ms_pepin", "elapsed_ms_scan"], ["1.5", True, [1.5]])


def test_from_json_rejects_a_str_field_that_is_not_a_str():
    assert_wrong_types_rejected(["command", "verdict_pepin", "backend", "trace_hash"], [5, True, ["pepin"], {"a": 1}])


def test_from_json_takes_null_only_where_the_default_is_null():
    nullable = [name for name in FIELDS if ReportRecord._field_defaults.get(name, ...) is None]
    record = ReportRecord.from_json(json.dumps({**GOOD_LINE, **dict.fromkeys(nullable)}))
    assert all(getattr(record, name) is None for name in nullable)
    for name in ("command", "n", "bits"):
        assert f"report field {name!r} has the wrong type" in from_json_error(**{name: None})


def test_every_field_has_a_json_type():
    assert set(report._FIELD_TYPES) == set(FIELDS)


def test_field_types_are_fixed():
    number = (int, float)
    assert report._FIELD_TYPES == {
        "command": str,
        "n": int,
        "bits": int,
        "verdict_pepin": str,
        "verdict_paper": str,
        "found_q": int,
        "window_lo": int,
        "window_hi": int,
        "squarings_pepin": int,
        "squarings_scan": int,
        "factor": int,
        "cofactor": int,
        "consistent": bool,
        "backend": str,
        "elapsed_ms": number,
        "elapsed_ms_pepin": number,
        "elapsed_ms_scan": number,
        "trace_hash": str,
        "schema_version": str,
    }


def test_from_json_takes_whole_and_fractional_timings():
    record = ReportRecord.from_json(json.dumps({**GOOD_LINE, "elapsed_ms": 3, "elapsed_ms_pepin": 1.5}))
    assert (record.elapsed_ms, record.elapsed_ms_pepin) == (3, 1.5)


# ------------------------------------------------------------ odds and ends

def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("FERMATLAB_MAX_BITS", "16")
    code, _, err = run(capsys, "pepin", "5")
    assert code == 2 and "budget" in err


def test_invalid_budget_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FERMATLAB_MAX_BITS", "lots")
    code, _, err = run(capsys, "pepin", "2")
    assert code == 1 and "FERMATLAB_MAX_BITS" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    import fermatlab.cli as cli_module

    def broken(n):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli_module, "cross_check", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["cross-check", "--from", "2", "--to", "3"])


def test_every_export_resolves():
    import fermatlab

    assert [name for name in fermatlab.__all__ if not hasattr(fermatlab, name)] == []


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch):
    # main builds its parser once per process, so a parse must leave no flag or default behind.
    runs = [
        ["paper-test", "3", "--full-range", "--format", "json"],
        ["pepin", "4", "--format", "csv"],
        ["paper-test", "3"],
        ["cross-check", "--from", "2", "--to", "3", "--format", "json"],
        ["pepin", "4"],
        ["pepin"],
    ]

    def outputs():
        return [[re.sub(r"\d+\.\d+", "ms", text) for text in run(capsys, *argv)[1:]] for argv in runs]

    assert cli.build_parser() is cli.build_parser()
    reused = outputs()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
    assert reused == outputs()


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_module_entry_point_subprocess():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "fermatlab", "pepin", "2", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["verdict_pepin"] == "PrimeByPepin"


def test_small_runs_do_not_import_ctypes():
    # ctypes loads only when arithmetic first needs GMP: the n = 13 commands
    # that square nothing mod F_13 never do, nor do runs whose moduli are all
    # at most F_5, and an n <= 11 sweep does once, for the kernel from n = 6,
    # so it runs last.  hashlib loads with the first scan, so only the two
    # cross-check runs load it.  dataclasses and inspect, which would double
    # the import time, never load.
    code = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import fermatlab, fermatlab.cli\n"
        "lazy = ('ctypes', 'dataclasses', 'inspect', 'hashlib')\n"
        "print('import', *(name in sys.modules for name in lazy))\n"
        "for argv in (['factor', '13', '--k-limit', '1'], ['verify-identities', '--max-n', '13'],\n"
        "             ['pepin', '5', '--format', 'json'], ['cross-check', '--from', '2', '--to', '5', '--format', 'json'],\n"
        "             ['cross-check', '--from', '2', '--to', '11', '--format', 'json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = fermatlab.cli.main(argv)\n"
        "    print(argv[0], code, *(name in sys.modules for name in lazy))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == [
        "import False False False False",
        "factor 0 False False False False",
        "verify-identities 0 False False False False",
        "pepin 0 False False False False",
        "cross-check 0 False False False True",
        "cross-check 0 True False False True",
    ]
