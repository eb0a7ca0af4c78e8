"""Primality procedures for the moduli 2**(2**n) + 1.

Two independent routes are implemented and cross-checked:

* :func:`pepin_test` is the classical oracle, a single modular
  exponentiation with base 3.
* :func:`paper_scan` walks the squaring recurrence 6, 34, 1154, ... looking
  for a term divisible by the modulus.  Absence of such a term inside the
  proven window certifies compositeness; presence of one is only a primality
  *witness*, because the converse direction is an open conjecture.  The scan
  therefore never labels anything prime on its own.

The applicability floor is n >= 2: for n = 1 the divisibility statement
fails literally (neither 6 nor 34 is divisible by 5 although 5 is prime),
and for n = 0 the scan window is degenerate.
"""

from __future__ import annotations

import enum
import time
from typing import NamedTuple

from .arith import FermatModulus, chain_item, fermat_value, start_chain_item
from .sequences import residue_trace, residues


class NotApplicableError(ValueError):
    """The requested index is below the procedure's applicability floor."""


class Verdict(enum.Enum):
    """Outcome of one primality procedure, valued by its record label.

    ``DIVISOR_WITNESS_FOUND`` deliberately does not claim primality, and its
    witness index is the scan's ``found_q``; ``COMPOSITE_CERTIFIED`` is the
    contrapositive of the proven direction (no witness in the window).
    """

    PRIME_BY_PEPIN = "PrimeByPepin"
    COMPOSITE_BY_PEPIN = "CompositeByPepin"
    COMPOSITE_CERTIFIED = "CompositeCertified"
    DIVISOR_WITNESS_FOUND = "DivisorWitnessFound"

    @property
    def label(self) -> str:
        return self.value


class ScanResult(NamedTuple):
    """What one recurrence scan saw.

    ``residue_trace_hash`` digests the whole residue stream (see
    ``arith.trace_hash``) so a long scan can be replayed and compared
    elsewhere.
    """

    n: int
    window: tuple[int, int]
    found_q: int | None
    residue_trace_hash: str
    squarings: int

    @property
    def verdict(self) -> Verdict:
        """The paper's verdict: a witness when a zero was found, else certified composite."""
        if self.found_q is None:
            return Verdict.COMPOSITE_CERTIFIED
        return Verdict.DIVISOR_WITNESS_FOUND


class FactorWitness(NamedTuple):
    """A proper divisor k * 2**(n+2) + 1 of the modulus, with its cofactor."""

    k: int
    factor: int
    cofactor: int


class TestReport(NamedTuple):
    """Both procedures on one modulus, as :func:`cross_check` measured them.

    It stores the two results, the timings and F_n's backend, as
    :func:`timed` read it; the scan's verdict, both squaring counts and the
    agreement flag are read from them, so no report can carry a verdict or
    a count that contradicts its own scan.  ``elapsed_ms_pepin`` and
    ``elapsed_ms_scan`` are each test's own wall time and ``elapsed_ms`` the
    pair's: their sum where one test follows the other, and less where they
    run at once, from ``CONCURRENT_MIN_N``.
    """

    __test__ = False  # keeps pytest from collecting this despite the name

    n: int
    pepin: Verdict
    scan: ScanResult
    elapsed_ms: float
    elapsed_ms_pepin: float
    elapsed_ms_scan: float
    backend: str

    @property
    def paper(self) -> Verdict:
        """The scan's verdict."""
        return self.scan.verdict

    @property
    def squarings_pepin(self) -> int:
        return pepin_squarings(self.n)

    @property
    def squarings_scan(self) -> int:
        return self.scan.squarings

    @property
    def consistent(self) -> bool:
        """Whether the verdicts agree: prime by the oracle exactly when the scan found a witness.

        Each procedure has exactly two outcomes, so one equivalence covers
        both directions; a disagreement would be a headline finding.
        """
        return (self.pepin is Verdict.PRIME_BY_PEPIN) == (self.paper is Verdict.DIVISOR_WITNESS_FOUND)


def pepin_squarings(n: int) -> int:
    """Squarings in Pépin's test on F_n: 2**n - 1.

    The exponent (F_n - 1)/2 is 2**(2**n - 1), so the power is exactly
    2**n - 1 squarings of 3 and no other multiplication.
    """
    return (1 << n) - 1


def pepin_test(n: int) -> Verdict:
    """Classical criterion: prime iff 3**((F_n - 1)/2) = -1 (mod F_n)."""
    if n < 1:
        raise NotApplicableError(f"the base-3 criterion applies from index 1, got n={n}")
    m = FermatModulus(n)
    return _pepin_verdict(chain_item(3, 0, pepin_squarings(n), m), m)


def _pepin_verdict(power: int, m: FermatModulus) -> Verdict:
    """Pépin's verdict on F_n from the power 3**((F_n - 1)/2) mod F_n."""
    if power == m.value - 1:
        return Verdict.PRIME_BY_PEPIN
    return Verdict.COMPOSITE_BY_PEPIN


def paper_scan(n: int, full_window: bool = False) -> ScanResult:
    """Scan the recurrence residues for a zero.

    The default window is n <= q < 2**n, the tightened range that the
    interleaving bound allows; ``full_window`` widens it to 1 <= q <= 2**n
    for empirical comparison.  Iteration always starts at index 1.  A zero
    below the window floor raises ArithmeticError: the interleaving bound
    gives 0 < A_q < F_n for every q < n, so only an arithmetic fault could
    produce one.  Early exit at q costs exactly q - 1 squarings.
    """
    if n < 2:
        raise NotApplicableError(
            f"the divisibility scan is meaningful only for n >= 2, got n={n}"
        )
    m = FermatModulus(n)
    if full_window:
        q_lo, q_hi = 1, (1 << n) + 1
    else:
        q_lo, q_hi = n, 1 << n
    trace, q, zero = residue_trace(m, q_hi - 1)
    if zero and q < q_lo:
        raise ArithmeticError(f"residue {q} is 0 mod F_{n}, below the window floor {q_lo}")
    return ScanResult(
        n=n,
        window=(q_lo, q_hi),
        found_q=q if zero else None,
        residue_trace_hash=trace,
        squarings=q - 1,
    )


def h_min(n: int) -> int | None:
    """Smallest index j <= 2**n + 1 whose residue is 2, or None.

    When the modulus is prime this minimum m exists with m >= 3, and the
    term two steps earlier is divisible by the modulus; the test suite
    asserts both, instantiating the argument behind the scan.
    """
    if n < 2:
        raise NotApplicableError(f"the minimum-index machinery needs n >= 2, got n={n}")
    for q, r in residues(FermatModulus(n), (1 << n) + 1):
        if r == 2:
            return q
    return None


def verify_two_order(n: int) -> bool:
    """Check 2**(2**(n+1)) = 1 (mod F_n); holds for every n by construction."""
    return pow(2, 1 << (n + 1), fermat_value(n)) == 1


def trial_factor_search(n: int, k_max: int) -> FactorWitness | None:
    """Smallest k <= k_max with k * 2**(n+2) + 1 a proper divisor of F_n.

    Candidates are screened with a cheap power test (a divisor must send
    2**(2**n) to -1); a hit is verified by exact division.
    """
    if n < 2:
        raise NotApplicableError(f"factor search needs n >= 2, got {n}")
    if k_max < 1:
        raise ValueError(f"need a positive search bound, got {k_max}")
    value = fermat_value(n)
    exponent = 1 << n
    for k in range(1, k_max + 1):
        candidate = (k << (n + 2)) + 1
        if candidate >= value:
            return None
        if pow(2, exponent, candidate) == candidate - 1:
            cofactor, remainder = divmod(value, candidate)
            if remainder:
                raise ArithmeticError(f"screened candidate {candidate} does not divide F_{n}")
            return FactorWitness(k=k, factor=candidate, cofactor=cofactor)
    return None


# From this n on, cross_check runs Pépin as a job on a kernel thread beside the
# scan when F_n's chains run in the kernel; on the int chain the two tests
# would only take turns for the GIL.  A job's start and join cost about 30 us,
# which the pair won back in every series from n = 9 on, and lost in most at
# n = 8.
CONCURRENT_MIN_N = 9


def cross_check(n: int) -> TestReport:
    """Run both procedures on one modulus and time each; ``consistent`` compares their verdicts.

    From ``CONCURRENT_MIN_N`` on, on the kernel, Pépin's power runs as a job
    on a kernel thread while this one scans, and its time is the job's own;
    below it, on the int chain, or where no thread starts, the scan follows
    Pépin.  Either way an exception raised is the one the serial order
    raises, Pépin's before the scan's.  When the scan raises, a Ctrl-C
    included, Pépin's job is cancelled and stops within one block.
    """
    if n < 2:
        raise NotApplicableError(f"cross-checking needs n >= 2, got n={n}")
    job = None
    if n >= CONCURRENT_MIN_N:
        m = FermatModulus(n)
        # Loads the kernel and makes the plan before the clock.  Loading the
        # kernel imports trace_hash's hashlib, as timed does before the scan's
        # clock; where no kernel loads, no job starts and timed imports it.
        backend = m.backend

        start = time.perf_counter()
        job = start_chain_item(3, 0, pepin_squarings(n), m)
    if job is None:
        pepin, elapsed_ms_pepin, backend = timed(pepin_test, n)
        scan, elapsed_ms_scan, _ = timed(paper_scan, n)
        elapsed_ms = elapsed_ms_pepin + elapsed_ms_scan
    else:
        try:
            scan, elapsed_ms_scan, _ = timed(paper_scan, n)
        except BaseException:
            job.cancel()
            raise
        finally:
            seconds = job.join()  # a failed Pépin raises here, in place of the scan's exception
        pepin = _pepin_verdict(job.export(), m)
        elapsed_ms_pepin = seconds * 1000.0
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    return TestReport(
        n=n,
        pepin=pepin,
        scan=scan,
        elapsed_ms=elapsed_ms,
        elapsed_ms_pepin=elapsed_ms_pepin,
        elapsed_ms_scan=elapsed_ms_scan,
        backend=backend,
    )


def timed(test, n: int, *args):
    """The result of ``test(n, *args)``, its wall time in ms and F_n's backend.

    The backend is read first, which loads GMP, builds or loads the kernel
    and makes the FFT plan where the test uses them, and a scan's hashlib is
    imported, so the clock times the squarings alone; Pépin, which hashes
    nothing, never imports it.  A negative n is left to the test to reject.
    """
    backend = FermatModulus(n).backend if n >= 0 else None
    if test is paper_scan:
        import hashlib  # trace_hash's, which imports it on its first call
    start = time.perf_counter()
    result = test(n, *args)
    return result, (time.perf_counter() - start) * 1000.0, backend
