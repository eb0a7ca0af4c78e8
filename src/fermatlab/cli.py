"""Command-line front end.

Subcommands: pepin, paper-test, cross-check, verify-identities, factor.
Machine-readable output (``--format json`` or ``csv``) goes to stdout and
never mixes with diagnostics, which go to stderr.  Exit codes: 0 success,
1 usage or domain error, 2 budget exceeded, 3 the two procedures disagreed
somewhere (the headline finding a cross-check run watches for).  Any other
exception is a bug and propagates as a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from functools import cache
from typing import Sequence

from . import __version__
from .arith import FermatModulus, fermat_value
from .budget import BudgetExceededError, max_bits
from .primality import (
    NotApplicableError,
    ScanResult,
    TestReport,
    Verdict,
    cross_check,
    paper_scan,
    pepin_squarings,
    pepin_test,
    timed,
    trial_factor_search,
    verify_two_order,
)
from .report import ReportRecord, records_table, render_csv, render_json_lines
from .sequences import a_exact, overlap_check
from .zsqrt2 import ONE, U, V, ZSqrt2, frobenius_check, sqrt2_mod_fermat, trace_pow2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INCONSISTENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _emit(records: list[ReportRecord], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(render_json_lines(records))
    elif fmt == "csv":
        sys.stdout.write(render_csv(records))
    else:
        sys.stdout.write(records_table(records))


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )


def _record(command: str, n: int, **fields: object) -> ReportRecord:
    return ReportRecord(command=command, n=n, bits=1 << n, **fields)  # each command has built F_n by now, within budget


def _pepin_fields(n: int, verdict: Verdict) -> dict[str, object]:
    return {"verdict_pepin": verdict.label, "squarings_pepin": pepin_squarings(n)}


def _scan_fields(scan: ScanResult) -> dict[str, object]:
    return {
        "verdict_paper": scan.verdict.label,
        "found_q": scan.found_q,
        "window_lo": scan.window[0],
        "window_hi": scan.window[1],
        "squarings_scan": scan.squarings,
        "trace_hash": scan.residue_trace_hash,
    }


def _cross_check_record(report: TestReport) -> ReportRecord:
    return _record(
        "cross-check",
        report.n,
        **_pepin_fields(report.n, report.pepin),
        **_scan_fields(report.scan),
        consistent=report.consistent,
        backend=report.backend,
        elapsed_ms=report.elapsed_ms,
        elapsed_ms_pepin=report.elapsed_ms_pepin,
        elapsed_ms_scan=report.elapsed_ms_scan,
    )


def _cmd_pepin(args: argparse.Namespace) -> int:
    verdict, elapsed_ms, backend = timed(pepin_test, args.n)
    record = _record("pepin", args.n, **_pepin_fields(args.n, verdict), backend=backend, elapsed_ms=elapsed_ms)
    _emit([record], args.format)
    return EXIT_OK


def _cmd_paper_test(args: argparse.Namespace) -> int:
    scan, elapsed_ms, backend = timed(paper_scan, args.n, args.full_range)
    record = _record("paper-test", args.n, **_scan_fields(scan), backend=backend, elapsed_ms=elapsed_ms)
    _emit([record], args.format)
    return EXIT_OK


def _checked_range(args: argparse.Namespace) -> range:
    if args.from_n < 2 or args.from_n > args.to_n:
        raise _UsageError(f"need 2 <= from <= to, got from={args.from_n} to={args.to_n}")
    FermatModulus(args.to_n)  # fail the whole range early if it cannot fit
    return range(args.from_n, args.to_n + 1)


def _cmd_cross_check(args: argparse.Namespace) -> int:
    ns = _checked_range(args)
    reports = [cross_check(n) for n in ns]
    records = [_cross_check_record(report) for report in reports]
    _emit(records, args.format)
    agreed = sum(1 for report in reports if report.consistent)
    summary = f"cross-check: {agreed}/{len(reports)} consistent for n={ns.start}..{ns.stop - 1}"
    print(summary, file=sys.stdout if args.format == "table" else sys.stderr)
    return EXIT_OK if agreed == len(reports) else EXIT_INCONSISTENT


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    n_max = args.max_n
    if n_max < 0:
        raise _UsageError(f"need a nonnegative --max-n, got {n_max}")
    FermatModulus(n_max)  # over-budget requests fail before any work
    exponent_cap = max_bits().bit_length() - 1
    unexpected = 0

    def check(ok: bool, label: str) -> None:
        nonlocal unexpected
        if not ok:
            unexpected += 1
        print(f"{'ok        ' if ok else 'UNEXPECTED'}  {label}")

    check(U + V == ZSqrt2(6, 0) and U * V == ONE, "unit pair: u+v = 6 and u*v = 1")

    k_hi = min(n_max, exponent_cap - 1)
    check(
        all(trace_pow2(k) == a_exact(k + 1) for k in range(k_hi + 1)),
        f"trace bridge: u^(2^k) + v^(2^k) equals term k+1, k = 0..{k_hi}",
    )

    for n in range(min(n_max, 4) + 1):
        expected = n >= 2
        actual = frobenius_check(fermat_value(n))
        note = "" if expected else " (documented boundary: fails below n=2)"
        check(actual == expected, f"frobenius at F_{n}: expected {expected}{note}")

    overlap_hi = min(n_max, exponent_cap - 1)
    if overlap_hi >= 1:
        check(not overlap_check(overlap_hi), f"interleaving F_n < A_n < F_(n+1) for n = 1..{overlap_hi}")

    check(
        all(verify_two_order(n) for n in range(n_max + 1)),
        f"order identity 2^(2^(n+1)) = 1 mod F_n for n = 0..{n_max}",
    )

    if n_max >= 2:
        check(
            all(pow(sqrt2_mod_fermat(n), 2, fermat_value(n)) == 2 for n in range(2, n_max + 1)),
            f"square root of 2: (2^(b/4) (2^(b/2) - 1))^2 = 2 mod F_n for n = 2..{n_max}",
        )

    gcd_hi = min(n_max, 12)
    if gcd_hi >= 2:
        terms = [a_exact(q) for q in range(1, gcd_hi + 1)]
        pairs_ok = all(
            math.gcd(terms[i], terms[j]) == 2
            for i in range(len(terms))
            for j in range(i + 1, len(terms))
        )
        check(pairs_ok, f"pairwise gcd of terms 1..{gcd_hi} is 2")

    if unexpected:
        print(f"{unexpected} unexpected outcome(s)", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_factor(args: argparse.Namespace) -> int:
    if args.k_limit < 1:
        raise _UsageError(f"need a positive --k-limit, got {args.k_limit}")
    start = time.perf_counter()  # a plain clock: factor runs no chain, and reading a backend would load ctypes
    witness = trial_factor_search(args.n, args.k_limit)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.format != "table":
        split = {"factor": witness.factor, "cofactor": witness.cofactor} if witness else {}
        _emit([_record("factor", args.n, **split, elapsed_ms=elapsed_ms)], args.format)
    elif witness is None:
        print(f"F_{args.n}: none up to k = {args.k_limit}")
    else:
        print(f"F_{args.n} = {witness.factor} x {witness.cofactor}   (k = {witness.k})")
    return EXIT_OK


@cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fermatlab",
        description="Primality experiments on the numbers 2^(2^n) + 1: a squaring-recurrence "
        "divisibility scan cross-checked against the classical base-3 criterion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pepin", help="run the base-3 criterion on F_n")
    p.add_argument("n", type=int)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_pepin)

    p = sub.add_parser("paper-test", help="scan the recurrence for a term divisible by F_n")
    p.add_argument("n", type=int)
    p.add_argument(
        "--full-range",
        action="store_true",
        help="widen the scan window from [n, 2^n) to [1, 2^n]",
    )
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_paper_test)

    p = sub.add_parser("cross-check", help="run both tests per n and compare verdicts")
    p.add_argument("--from", dest="from_n", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="to_n", type=int, required=True, metavar="B")
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_cross_check)

    p = sub.add_parser("verify-identities", help="check the exact identities behind the scan")
    p.add_argument("--max-n", dest="max_n", type=int, default=10)
    p.set_defaults(handler=_cmd_verify_identities)

    p = sub.add_parser("factor", help="search small divisors k*2^(n+2) + 1 of F_n")
    p.add_argument("n", type=int)
    p.add_argument("--k-limit", dest="k_limit", type=int, default=1000)
    _add_format_flag(p)
    p.set_defaults(handler=_cmd_factor)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            max_bits()  # reject an invalid FERMATLAB_MAX_BITS once, as a usage error
        except ValueError as err:
            raise _UsageError(str(err)) from None
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, NotApplicableError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
