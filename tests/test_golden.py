"""Golden values for both procedures, n = 2..14, and for one walk at n = 16.

The literals pin the verdicts, the witness index, both squaring counts and
the scan's residue trace hash, so any change to the arithmetic engine that
alters a single residue or a single counted step fails here.  They were
produced by an independent plain ``%`` loop and agree with the benchmark's
own golden file; they are copied rather than loaded so the unit tests do not
depend on the benchmark directory.

Every case runs on both squaring kernels, forced by conftest's
``force_backend``: "int" hides the kernel so every modulus squares with
``x * x``, and "gmp" hides the FFT plans so the compiled kernel squares with
``mpn_sqr`` from n = 6 up, where b is a whole number of 64-bit limbs.
Below that the "gmp" cases stay on ``x * x``.  The cases whose n
``arith._FACTORS`` lists, and the walk, also run on "gmp-fft", the kernel's
FFT step.  The cases n = 2..11 also run at default settings, where Pépin's
power is one kernel call from n = 6 up, and with no C compiler, where the
kernel cannot be built and every case is "int".  The cases n = 9..13 run
once more on either side of ``primality.CONCURRENT_MIN_N``, with Pépin
beside the scan, as a job on a kernel thread, and after it.
"""

import hashlib
from functools import cache

import pytest

from conftest import backend_of, force_backend, thread_counts
from fermatlab import arith, primality
from fermatlab.arith import FermatModulus
from fermatlab.primality import cross_check
from fermatlab.sequences import a_mod_fermat

GOLDEN = [
    # n, verdict_pepin, verdict_paper, found_q, squarings_pepin, squarings_scan, trace_hash
    (2, "PrimeByPepin", "DivisorWitnessFound", 2, 3, 1,
     "sha256:ceb827ad3d3884fd4d50ae6099d6d50c09a21e72ebd309708e8b69d93df19e55"),
    (3, "PrimeByPepin", "DivisorWitnessFound", 5, 7, 4,
     "sha256:47956f7a69c960258ce42f674ef74962b193c01de988e364f37a186ca174f4ae"),
    (4, "PrimeByPepin", "DivisorWitnessFound", 11, 15, 10,
     "sha256:43bbf1a8dd9647816b9638638c8146cb95a92f91726d94dfaf60ebc448c46f64"),
    (5, "CompositeByPepin", "CompositeCertified", None, 31, 30,
     "sha256:c68db95b2e6b7c5f02974d792147b695984fc245b181da4be48ed897cfa2be76"),
    (6, "CompositeByPepin", "CompositeCertified", None, 63, 62,
     "sha256:f7d81e6a7b3658793dd5a203486fb1a65ef7459b953eb907b240c09c31b823eb"),
    (7, "CompositeByPepin", "CompositeCertified", None, 127, 126,
     "sha256:290306b1c0badb96c103b4d37cb1c1377d7f87aca1496fd442315364124bb08c"),
    (8, "CompositeByPepin", "CompositeCertified", None, 255, 254,
     "sha256:a4982746851719312d5bdd8f9215f030f6918dfbc35d2ce2c215fcfb66c1838d"),
    (9, "CompositeByPepin", "CompositeCertified", None, 511, 510,
     "sha256:83c1440ea5610f90946cdbffdf186d4ed1a987cd581b8519e8881721a38a55a6"),
    (10, "CompositeByPepin", "CompositeCertified", None, 1023, 1022,
     "sha256:bdf293bb51d9d9052cbc3101d0513185873e3ce1ac7ae44cefb3740007ca94aa"),
    (11, "CompositeByPepin", "CompositeCertified", None, 2047, 2046,
     "sha256:67ff502f5176e00b6c33b0169e82420d756de8b69a562e69b4f97a4b63cb9133"),
    (12, "CompositeByPepin", "CompositeCertified", None, 4095, 4094,
     "sha256:fb751e717d30fd393cae7b99c08bbbc88d170b467117d3ed003f30ebd745c715"),
    (13, "CompositeByPepin", "CompositeCertified", None, 8191, 8190,
     "sha256:724d86c3270dbb2aaf1183e5ef635e92da894c1bfb049537b53b8bb892db03aa"),
    (14, "CompositeByPepin", "CompositeCertified", None, 16383, 16382,
     "sha256:f1a4acba6384085b4c1d2faf957540de776cf1c00cea43fbe3e946caa0f30784"),
]

# n, q, sha256 of the q-th residue as (2**n // 8 + 1) little-endian bytes
WALK = (16, 1025, "c1054078ce03677dc2ab70a4b1a5b7f83815bc7a8786cfeedfaf9346ba4d5ff3")


# The int cases are the reference and carry the plain ids n2..n14.
CASES = [("int", *row) for row in GOLDEN] + [("gmp", *row) for row in GOLDEN]
CASES += [("gmp-fft", *row) for row in GOLDEN if row[0] in arith._FACTORS]


@pytest.mark.parametrize(
    "backend, n, verdict_pepin, verdict_paper, found_q, squarings_pepin, squarings_scan, trace_hash",
    CASES,
    ids=[f"n{case[1]}" if case[0] == "int" else f"{case[0]}-n{case[1]}" for case in CASES],
)
def test_cross_check_matches_golden(
    request, monkeypatch, backend, n, verdict_pepin, verdict_paper, found_q, squarings_pepin, squarings_scan, trace_hash
):
    if backend != "int":
        request.getfixturevalue("gmp")  # skips, or fails, where there is no kernel
    force_backend(backend, monkeypatch)
    assert FermatModulus(n).backend == backend_of(n, backend)
    assert_report_matches(cross_check(n), verdict_pepin, verdict_paper, found_q, squarings_pepin, squarings_scan, trace_hash)


# n = 9..13 on every backend that force_backend gives each n, with the
# threshold at n (Pépin beside the scan, except on "int") and at n + 1 (Pépin
# first); on "int" the two tests never run at once, so n alone is enough.
THRESHOLD_CASES = [
    (backend, threshold, row)
    for row in GOLDEN
    if 9 <= row[0] <= 13
    for backend in ("int", "gmp", "gmp-fft")
    if backend_of(row[0], backend) == backend
    for threshold in ((row[0],) if backend == "int" else (row[0], row[0] + 1))
]


@pytest.mark.parametrize(
    "backend, threshold, row",
    THRESHOLD_CASES,
    ids=[f"{backend}-n{row[0]}-{'at' if threshold == row[0] else 'below'}" for backend, threshold, row in THRESHOLD_CASES],
)
def test_cross_check_matches_golden_on_either_side_of_the_threshold(request, monkeypatch, backend, threshold, row):
    if backend != "int":
        request.getfixturevalue("gmp")
    force_backend(backend, monkeypatch)
    monkeypatch.setattr(primality, "CONCURRENT_MIN_N", threshold)
    pairs, start = [], arith._GmpChain.start
    monkeypatch.setattr(arith._GmpChain, "start", lambda chain, count: pairs.append(chain.m.n) or start(chain, count))
    threads = thread_counts()
    report = cross_check(row[0])
    assert thread_counts() == threads
    assert_report_matches(report, *row[1:])
    assert report.backend == backend
    assert pairs == ([row[0]] if threshold == row[0] and backend != "int" else [])


def assert_report_matches(report, verdict_pepin, verdict_paper, found_q, squarings_pepin, squarings_scan, trace_hash):
    assert report.pepin.label == verdict_pepin
    assert report.paper.label == verdict_paper
    assert report.scan.found_q == found_q
    assert report.squarings_pepin == squarings_pepin
    assert report.squarings_scan == squarings_scan
    assert report.scan.residue_trace_hash == trace_hash
    assert report.consistent


POWER_ROWS = [row for row in GOLDEN if row[0] < 12]  # n = 2..11, the rows of the sweep_small workload


@pytest.mark.parametrize("row", POWER_ROWS, ids=[f"powm-n{row[0]}" for row in POWER_ROWS])
def test_power_route_matches_golden(gmp, monkeypatch, row):
    # At default settings Pépin's power, all its 2**n - 1 squarings, is one kernel call
    # from n = 6, where b is a whole number of 64-bit limbs; below that it runs on the int chain.
    # From primality.CONCURRENT_MIN_N it is a job, whose calls are those of its blocks.
    kernel = gmp
    n, squarings_pepin = row[0], row[4]
    calls = []

    def spied(state, count, trace):
        calls.append((kernel.chain_type.from_address(state).c, count))
        return kernel.run(state, count, trace)

    def spied_start(job, state, count, block):
        calls.extend((kernel.chain_type.from_address(state).c, min(block, count - i)) for i in range(0, count, block))
        return kernel.start(job, state, count, block)

    monkeypatch.setattr(arith, "_load_kernel", lambda: kernel._replace(run=spied, start=spied_start))
    routed = 1 << n >= arith._LIMB_BITS
    assert FermatModulus(n).backend == backend_of(n)
    assert_report_matches(cross_check(n), *row[1:])
    assert [count for c, count in calls if c == 0] == ([squarings_pepin] if routed else [])


def test_without_a_compiler_the_golden_rows_pass_on_int(monkeypatch, tmp_path):
    # A cold cache and no compiler: the kernel cannot be built, so every modulus squares with x * x.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(arith, "_COMPILER", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(arith, "_load_kernel", cache(arith._load_kernel.__wrapped__))
    for row in POWER_ROWS:
        assert FermatModulus(row[0]).backend == "int"
        assert_report_matches(cross_check(row[0]), *row[1:])
    assert list(tmp_path.rglob("*.so")) == []


@pytest.mark.parametrize("backend", ["int", "gmp", "gmp-fft"])
def test_walk_matches_golden(request, monkeypatch, backend):
    if backend != "int":
        request.getfixturevalue("gmp")
    force_backend(backend, monkeypatch)
    n, q, digest = WALK
    assert FermatModulus(n).backend == backend
    residue = a_mod_fermat(q, n)
    assert hashlib.sha256(residue.to_bytes((1 << n) // 8 + 1, "little")).hexdigest() == digest
