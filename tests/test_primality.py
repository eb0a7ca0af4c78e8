import contextlib
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import fermatlab.primality as primality
from conftest import thread_counts
from fermatlab import arith
from fermatlab.arith import FermatModulus, fermat_value, start_chain_item
from fermatlab.budget import BudgetExceededError
from fermatlab.primality import (
    FactorWitness,
    NotApplicableError,
    ScanResult,
    TestReport,
    Verdict,
    cross_check,
    h_min,
    paper_scan,
    pepin_squarings,
    pepin_test,
    trial_factor_search,
    verify_two_order,
)
from fermatlab.sequences import a_exact, a_mod_fermat
from fermatlab.zsqrt2 import ZSqrt2


# ---------------------------------------------------------------- pepin_test

def test_pepin_prime_verdicts():
    for n in (1, 2, 3, 4):
        assert pepin_test(n) is Verdict.PRIME_BY_PEPIN


def test_pepin_composite_verdicts():
    for n in (5, 6, 9, 12):
        assert pepin_test(n) is Verdict.COMPOSITE_BY_PEPIN


def test_pepin_rejects_index_zero():
    with pytest.raises(NotApplicableError):
        pepin_test(0)


def test_pepin_budget():
    with pytest.raises(BudgetExceededError):
        pepin_test(17)


@pytest.mark.parametrize("n", range(2, 11))
def test_pepin_squaring_count(n):
    assert pepin_squarings(n) == cross_check(n).squarings_pepin == (1 << n) - 1


@pytest.mark.parametrize("n", [2, 5, 8])
def test_counters_match_kernel_calls(counted_steps, n):
    steps = counted_steps
    pepin_test(n)
    assert len(steps) == pepin_squarings(n) == (1 << n) - 1
    steps.clear()
    result = paper_scan(n)
    assert len(steps) == result.squarings
    steps.clear()
    report = cross_check(n)
    assert len(steps) == report.squarings_pepin + report.squarings_scan


@pytest.mark.parametrize("n", [6, 8])
def test_gmp_walks_count_the_same_squarings(gmp, counted_steps, n):
    assert FermatModulus(n).backend == "gmp"
    steps = counted_steps
    assert pepin_test(n) is Verdict.COMPOSITE_BY_PEPIN
    assert len(steps) == pepin_squarings(n) == (1 << n) - 1
    steps.clear()
    assert a_mod_fermat(9, n) == a_exact(9) % fermat_value(n)
    assert len(steps) == 8


# ---------------------------------------------------------------- paper_scan

def test_scan_finds_witness_for_small_primes():
    s2 = paper_scan(2)
    assert s2.window == (2, 4) and s2.found_q == 2 and s2.squarings == 1
    s3 = paper_scan(3)
    assert s3.window == (3, 8) and s3.found_q == 5 and s3.squarings == 4
    s4 = paper_scan(4)
    assert s4.window == (4, 16) and s4.found_q == 11 and s4.squarings == 10


def test_scan_certifies_composite_range():
    s5 = paper_scan(5)
    assert s5.found_q is None
    assert s5.squarings == (1 << 5) - 2  # no early exit: the window is exhausted


def test_scan_rejects_small_indices():
    for n in (0, 1):
        with pytest.raises(NotApplicableError):
            paper_scan(n)


def test_scan_window_contains_witness():
    for n in (2, 3, 4):
        result = paper_scan(n)
        assert result.window[0] <= result.found_q < result.window[1]
        assert n <= result.found_q < (1 << n)
        assert a_mod_fermat(result.found_q, n) == 0


def test_full_window_finds_nothing_below_the_floor():
    for n in (2, 3, 4):
        result = paper_scan(n, full_window=True)
        assert result.window == (1, (1 << n) + 1)
        assert result.found_q == paper_scan(n).found_q
        assert result.found_q >= n


def test_zero_below_the_floor_raises(monkeypatch):
    # The interleaving bound gives 0 < A_q < F_n for q < n, so a zero there is an arithmetic fault.
    monkeypatch.setattr(primality, "residue_trace", lambda m, count: ("sha256:" + "0" * 64, 2, True))  # residue 2 of F_4 is 0
    with pytest.raises(ArithmeticError, match="residue 2 is 0 mod F_4, below the window floor 4"):
        paper_scan(4)


def test_trace_hash_is_deterministic_and_labeled():
    a = paper_scan(6)
    b = paper_scan(6)
    assert a.residue_trace_hash == b.residue_trace_hash
    assert a.residue_trace_hash.startswith("sha256:")
    assert len(a.residue_trace_hash.split(":")[1]) == 64
    assert a.residue_trace_hash != paper_scan(7).residue_trace_hash


def test_scan_early_exit_squaring_count():
    for n in (2, 3, 4):
        result = paper_scan(n)
        assert result.squarings == result.found_q - 1


@pytest.mark.parametrize("n", range(5, 11))
def test_scan_exhaustion_squaring_count(n):
    assert paper_scan(n).squarings == (1 << n) - 2


# --------------------------------------------------------------------- h_min

def test_h_min_fixtures():
    assert h_min(2) == 4  # residue stream mod 17: 6, 0, 15, 2
    assert h_min(3) == 7  # residue stream mod 257: 6, 34, 126, 197, 0, 255, 2
    assert h_min(4) == 13


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_h_min_on_the_kernel_matches_a_plain_loop(gmp, n):
    assert FermatModulus(n).backend.startswith("gmp")
    value, x, expected = fermat_value(n), 6, None
    for q in range(1, (1 << n) + 2):
        if x == 2:
            expected = q
            break
        x = (x * x - 2) % value
    assert h_min(n) == expected


def test_h_min_floor():
    with pytest.raises(NotApplicableError):
        h_min(1)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_h_min_implies_zero_two_steps_earlier(n):
    m = h_min(n)
    assert m is not None and m >= 3
    assert a_mod_fermat(m - 2, n) == 0


def test_minimum_cannot_be_first_or_second_index():
    # If the first term were 2 mod p then p | 4; if the second were, p | 32.
    assert a_exact(1) - 2 == 4
    assert a_exact(2) - 2 == 32
    for n in (2, 3, 4):
        value = fermat_value(n)
        assert 4 % value != 0 and 32 % value != 0


# ---------------------------------------------------------- verify_two_order

def test_two_order_holds_everywhere_in_range():
    assert all(verify_two_order(n) for n in range(13))


# ------------------------------------------------------- trial_factor_search

def test_factor_smallest_known():
    witness = trial_factor_search(5, 10)
    assert witness is not None
    assert (witness.k, witness.factor, witness.cofactor) == (5, 641, 6700417)
    assert witness.factor * witness.cofactor == fermat_value(5)


def test_factor_prime_modulus_has_none():
    assert trial_factor_search(2, 1000) is None


def test_factor_f12():
    witness = trial_factor_search(12, 10)
    assert witness is not None
    assert witness.k == 7 and witness.factor == 7 * (1 << 14) + 1 == 114689
    assert witness.factor * witness.cofactor == fermat_value(12)
    assert 1 < witness.factor < fermat_value(12)


def test_factor_limit_is_respected():
    assert trial_factor_search(5, 4) is None


def test_factor_argument_validation():
    with pytest.raises(NotApplicableError):
        trial_factor_search(1, 10)
    with pytest.raises(ValueError):
        trial_factor_search(5, 0)


def test_factor_rejects_a_screened_non_divisor(monkeypatch):
    # A screen that passes every candidate must be caught by the exact division.
    monkeypatch.setattr(primality, "pow", lambda base, exp, mod: mod - 1, raising=False)
    with pytest.raises(ArithmeticError):
        trial_factor_search(5, 10)


# --------------------------------------------------------------- cross_check

def test_cross_check_prime_case():
    report = cross_check(2)
    assert report.pepin is Verdict.PRIME_BY_PEPIN
    assert report.paper is Verdict.DIVISOR_WITNESS_FOUND
    assert report.scan.found_q == 2
    assert report.consistent


def test_cross_check_composite_cases():
    for n in (5, 9):
        report = cross_check(n)
        assert report.pepin is Verdict.COMPOSITE_BY_PEPIN
        assert report.paper is Verdict.COMPOSITE_CERTIFIED
        assert report.consistent


def test_cross_check_counts():
    report = cross_check(6)
    assert report.squarings_pepin == (1 << 6) - 1
    assert report.squarings_scan == (1 << 6) - 2
    assert report.elapsed_ms_pepin >= 0 and report.elapsed_ms_scan >= 0


def test_a_fresh_scan_clock_starts_after_hashlib_loads():
    # trace_hash imports hashlib on its first call; timed imports it first,
    # for the scan only, so a fresh process's first scan record does not time
    # that import and Pépin's never loads it.  Each clock read records
    # whether hashlib is loaded.
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fermatlab.primality import cross_check\n"
        "clock, loaded = time.perf_counter, []\n"
        "time.perf_counter = lambda: loaded.append('hashlib' in sys.modules) or clock()\n"
        "cross_check(2)\n"
        "print(*loaded)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "False", "True", "True"]  # Pépin's start and stop, then the scan's


def failing(name):
    """A stand-in for ``primality.<name>`` that raises ArithmeticError after 50 ms.

    The pause outlasts Pépin at n = 12, so a cross_check that did not wait
    for Pépin's job would return or raise before this one ends.
    """

    def fail(n, *args):
        time.sleep(0.05)
        raise ArithmeticError(f"{name} failed at n={n}")

    return fail


def break_pepin(patch):
    """Make the first step of Pépin's chains, those from 3, fail its check, through the MonkeyPatch ``patch``.

    Each such chain starts with x mod q one too large in its state, after
    the import check, so its first step fails in the kernel, whichever of
    mpn_mod_1 and the IFMA reduction takes the step's y mod q, and whether
    the chain runs on this thread or as a job.
    """
    chain = arith._chain

    def broken(x, c, m):
        made = chain(x, c, m)
        if x == 3:
            made.state.x_d = (made.state.x_d + 1) % made.d
        return made

    patch.setattr(arith, "_chain", broken)


@pytest.mark.parametrize("threshold", [12, 13], ids=["beside", "serial"])
@pytest.mark.parametrize(
    "broken, raised",
    [(["pepin"], "pepin"), (["scan"], "scan"), (["pepin", "scan"], "pepin")],
    ids=["pepin", "scan", "both"],
)
def test_a_failing_test_raises_as_in_the_serial_order_and_leaves_no_thread(gmp, monkeypatch, threshold, broken, raised):
    # Pépin runs first in the serial order, so its exception is the one raised when both fail.
    # Pépin fails in the kernel, on its job's thread beside the scan; the scan fails in Python.
    monkeypatch.setattr(primality, "CONCURRENT_MIN_N", threshold)
    if "pepin" in broken:
        break_pepin(monkeypatch)
    if "scan" in broken:
        monkeypatch.setattr(primality, "paper_scan", failing("paper_scan"))
    message = "the FFT squared a residue mod F_12 wrongly" if raised == "pepin" else "paper_scan failed at n=12"
    threads = thread_counts()
    with pytest.raises(ArithmeticError, match=message):
        cross_check(12)
    assert thread_counts() == threads


def test_a_failed_pepin_job_raises_under_optimized_python(gmp):
    # python -O strips assert statements; a job's failed step must still raise on the calling thread.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fermatlab import arith, primality\n"
        "chain = arith._chain\n"
        "def broken(x, c, m):\n"  # break_pepin's
        "    made = chain(x, c, m)\n"
        "    if x == 3:\n"
        "        made.state.x_d = (made.state.x_d + 1) % made.d\n"
        "    return made\n"
        "arith._chain = broken\n"
        "assert primality.CONCURRENT_MIN_N <= 12\n"
        "try:\n"
        "    primality.cross_check(12)\n"
        "except ArithmeticError as err:\n"
        "    print('caught', __debug__, err)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-O", "-I", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stdout.startswith("caught False the FFT squared a residue mod F_12 wrongly"), done.stdout


def test_a_cancelled_job_stops_within_one_block(gmp):
    # Pépin's power at n = 16 runs about a second; a cancel ends it after the block it is in, 256 steps.
    m = FermatModulus(16)
    assert arith._block_steps(m) == 256
    threads = thread_counts()
    chain = start_chain_item(3, 0, pepin_squarings(16), m)
    assert chain is not None
    time.sleep(0.02)
    begin = time.perf_counter()
    chain.cancel()
    assert chain.join() is None
    assert time.perf_counter() - begin < 0.2
    assert chain.join() is None  # a second join returns at once
    assert thread_counts() == threads


def test_a_chain_dropped_while_its_job_runs_waits_for_it(gmp):
    # Its buffers are freed only after the job's thread has ended, within one block.
    threads = thread_counts()
    chain = start_chain_item(3, 0, pepin_squarings(16), FermatModulus(16))
    assert chain is not None and thread_counts() != threads
    begin = time.perf_counter()
    del chain
    assert time.perf_counter() - begin < 0.2
    assert thread_counts() == threads


def test_a_joined_job_leaves_nothing_for_interpreter_exit(gmp):
    # A joined job's cancel and join return at once, so collecting its chain
    # at exit, when no module can be imported any more, waits for nothing.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from fermatlab.arith import FermatModulus, start_chain_item\n"
        "def anything():\n"
        "    pass\n"
        "job = start_chain_item(3, 0, 1023, FermatModulus(10))\n"
        "job.join()\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stderr == ""


def test_where_no_thread_starts_pepin_runs_before_the_scan(gmp, monkeypatch):
    # pthread_create failing is a resource limit, not a fault: the pair falls back to the serial order.
    monkeypatch.setattr(arith, "_load_kernel", lambda: gmp._replace(start=lambda *args: 11))  # EAGAIN
    assert primality.CONCURRENT_MIN_N <= 12
    assert start_chain_item(3, 0, 7, FermatModulus(12)) is None
    report = cross_check(12)
    assert report.consistent and report.pepin is Verdict.COMPOSITE_BY_PEPIN
    assert report.elapsed_ms == report.elapsed_ms_pepin + report.elapsed_ms_scan


@contextlib.contextmanager
def interrupt_after(seconds):
    """Raise KeyboardInterrupt on this thread in ``seconds``, as a Ctrl-C would, through SIGALRM; undone on exit."""

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize("where", ["join", "scan"])
def test_a_ctrl_c_stops_pepins_job_within_one_block(gmp, where):
    # A signal taken while the caller waits in join, or while it scans in
    # cross_check, cancels the job, which ends after its block: the
    # exception comes well before Pépin's power of about a second would end.
    threads = thread_counts()
    begin = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        with interrupt_after(0.1):
            if where == "join":
                start_chain_item(3, 0, pepin_squarings(16), FermatModulus(16)).join()
            else:
                cross_check(16)
    assert time.perf_counter() - begin < 0.4
    assert thread_counts() == threads


def test_beside_the_scan_elapsed_ms_is_the_pairs_wall_time(gmp):
    # Each test's own time lies inside the pair's; the serial path sums them instead.
    assert primality.CONCURRENT_MIN_N <= 12
    report = cross_check(12)
    assert 0 < max(report.elapsed_ms_pepin, report.elapsed_ms_scan) <= report.elapsed_ms
    serial = cross_check(primality.CONCURRENT_MIN_N - 1)
    assert serial.elapsed_ms == serial.elapsed_ms_pepin + serial.elapsed_ms_scan


def test_certificate_soundness_across_range():
    # No witness in the window exactly when the oracle says composite.
    for n in range(2, 13):
        report = cross_check(n)
        assert report.consistent, f"disagreement at n={n}"


def test_report_derives_its_verdict_counts_and_agreement():
    witness, certified = paper_scan(2), paper_scan(5)
    for pepin, scan, agree in (
        (Verdict.PRIME_BY_PEPIN, witness, True),
        (Verdict.PRIME_BY_PEPIN, certified, False),
        (Verdict.COMPOSITE_BY_PEPIN, witness, False),
        (Verdict.COMPOSITE_BY_PEPIN, certified, True),
    ):
        report = TestReport(
            n=scan.n,
            pepin=pepin,
            scan=scan,
            elapsed_ms=0.0,
            elapsed_ms_pepin=0.0,
            elapsed_ms_scan=0.0,
            backend="int",
        )
        assert report.consistent is agree, (pepin, scan.verdict)
    for n in range(2, 13):
        report = cross_check(n)
        assert report.paper == report.scan.verdict, f"n={n}"
        assert report.squarings_pepin == pepin_squarings(n), f"n={n}"
        assert report.squarings_scan == report.scan.squarings, f"n={n}"


def test_cross_check_floor():
    with pytest.raises(NotApplicableError):
        cross_check(1)


# -------------------------------------------------------------------- Verdict

def test_verdict_labels():
    # A record's label, as the golden rows hold it, names its member.
    for label in ("PrimeByPepin", "CompositeByPepin", "CompositeCertified", "DivisorWitnessFound"):
        assert Verdict(label).label == label
    assert Verdict("PrimeByPepin") is Verdict.PRIME_BY_PEPIN
    assert Verdict.COMPOSITE_CERTIFIED.label == "CompositeCertified"
    with pytest.raises(ValueError):
        Verdict("Prime")


def test_scan_verdict_mapping():
    assert paper_scan(3).verdict is Verdict.DIVISOR_WITNESS_FOUND
    assert paper_scan(5).verdict is Verdict.COMPOSITE_CERTIFIED


def _scan_result():
    return ScanResult(n=3, window=(3, 8), found_q=5, residue_trace_hash="sha256:00", squarings=4)


def _test_report():
    return TestReport(
        n=3,
        pepin=Verdict.PRIME_BY_PEPIN,
        scan=_scan_result(),
        elapsed_ms=1.0,
        elapsed_ms_pepin=0.5,
        elapsed_ms_scan=0.5,
        backend="int",
    )


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(lambda: Verdict("DivisorWitnessFound"), "label", id="Verdict"),
        pytest.param(_scan_result, "found_q", id="ScanResult"),
        pytest.param(lambda: FactorWitness(k=5, factor=641, cofactor=6700417), "factor", id="FactorWitness"),
        pytest.param(_test_report, "scan", id="TestReport"),
        pytest.param(_test_report, "consistent", id="TestReport.consistent"),
        pytest.param(lambda: ZSqrt2(3, 2), "b", id="ZSqrt2"),
    ],
)
def test_value_types_are_immutable(make, field):
    value, twin = make(), make()
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert value == twin and hash(value) == hash(twin)
    assert (value is twin) is isinstance(value, Verdict)  # equal by value; an enum member is also one object


# ------------------------------------------------------- boundary regression

def test_smallest_index_boundary_is_real():
    # The divisibility statement fails literally at n = 1: 5 is prime by the
    # oracle, yet neither of the two candidate terms is divisible by 5.
    assert pepin_test(1) is Verdict.PRIME_BY_PEPIN
    for q in (1, 2):
        assert a_exact(q) % 5 != 0
    with pytest.raises(NotApplicableError):
        paper_scan(1)
