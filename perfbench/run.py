#!/usr/bin/env python3
"""Benchmark for fermatlab: time to verdict and squarings per second.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole units and reports the end-to-end metrics.
``--trace 1`` replays each unit as a stack of layer probes and reports the
per-layer metrics.  Every unit's outputs are checked against golden.json.
The last line of stdout is the result object; the line before it is a report
with the environment block, the checked outputs and the failures.  README.md
in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"

SWEEP_ARGV = ["cross-check", "--from", "2", "--to", "11", "--format", "json"]
SWEEP_NS = tuple(range(2, 12))
VERDICT_N = 14
WALK_N = 16
WALK_Q = 1025  # 1024 steps at 65536 bits; the per-step cost is flat after the first few
SETUP_RUNS = 21
KERNEL_SAMPLE = 1024  # inputs per n for the bare-multiply, fold and square_mod probes
FAILURES_KEPT = 5

# Imports fermatlab in a fresh interpreter and prints the import time and the
# package's location.  Interpreter start-up is outside the timed region.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import fermatlab, fermatlab.cli\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t))\n"
    "print(fermatlab.__file__)\n"
)

CHECKED_FIELDS = (
    "verdict_pepin",
    "verdict_paper",
    "found_q",
    "squarings_pepin",
    "squarings_scan",
    "trace_hash",
)


class UnitFailure(Exception):
    """A unit's output differs from the golden table or the CLI exited nonzero."""


# ---------------------------------------------------------------- program


def load_program() -> SimpleNamespace:
    """Import fermatlab from this checkout's src/, or exit when it is not there."""
    if not (SRC / "fermatlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no fermatlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("fermatlab")
    if Path(package.__file__).resolve().parent != SRC / "fermatlab":
        raise SystemExit(f"error: imported fermatlab from {package.__file__}, not from {SRC}")
    modules = {}
    for name in ("cli", "primality", "sequences", "arith", "report", "budget"):
        try:
            modules[name] = importlib.import_module(f"fermatlab.{name}")
        except ModuleNotFoundError:
            modules[name] = None
    return SimpleNamespace(**modules)


def lookup(prog: SimpleNamespace, module: str, name: str):
    """The public function ``module.name``, or None when the layer no longer has it."""
    return getattr(getattr(prog, module, None), name, None)


def measure_setup(runs: int) -> list[float]:
    """Seconds to import fermatlab and fermatlab.cli, once per fresh interpreter."""
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, location = done.stdout.split("\n")[:2]
        if Path(location).resolve().parent != SRC / "fermatlab":
            raise SystemExit(f"error: set-up imported fermatlab from {location}")
        samples.append(float(seconds))
    return samples


def load_golden() -> dict:
    data = json.loads(GOLDEN_PATH.read_text())
    return {"cross_check": {row["n"]: row for row in data["cross_check"]}, "walk": data["walk"]}


# ---------------------------------------------------------------- units
#
# A unit is split into ``call`` (timed: the program's work only) and
# ``check`` (untimed: parse, compare with golden.json, count squarings).


def compare_row(row: dict, expected: dict) -> None:
    wrong = [name for name in CHECKED_FIELDS if row.get(name) != expected[name]]
    if row.get("consistent") is not True:
        wrong.append("consistent")
    if wrong:
        raise UnitFailure(f"n={expected['n']}: {', '.join(wrong)} differ from golden")


def report_row(report) -> dict:
    """The checked fields of one ``primality.cross_check`` report."""
    return {
        "n": report.n,
        "verdict_pepin": report.pepin.label,
        "verdict_paper": report.paper.label,
        "found_q": report.scan.found_q,
        "squarings_pepin": report.squarings_pepin,
        "squarings_scan": report.squarings_scan,
        "trace_hash": report.scan.residue_trace_hash,
        "consistent": report.consistent,
    }


def residue_digest(value: int, n: int) -> str:
    return hashlib.sha256(value.to_bytes((1 << n) // 8 + 1, "little")).hexdigest()


def sweep_call(prog):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = prog.cli.main(SWEEP_ARGV)
    return code, out.getvalue()


def sweep_check(raw, golden):
    code, text = raw
    if code != 0:
        raise UnitFailure(f"cross-check exited with {code}")
    rows = [json.loads(line) for line in text.splitlines()]
    if [row.get("n") for row in rows] != list(SWEEP_NS):
        raise UnitFailure(f"records for n={[row.get('n') for row in rows]}, expected {list(SWEEP_NS)}")
    for row in rows:
        compare_row(row, golden["cross_check"][row["n"]])
    outputs = [{name: row[name] for name in ("n", *CHECKED_FIELDS)} for row in rows]
    return outputs, sum(row["squarings_pepin"] + row["squarings_scan"] for row in rows)


def verdict_call(prog):
    return prog.primality.cross_check(VERDICT_N)


def verdict_check(raw, golden):
    row = report_row(raw)
    compare_row(row, golden["cross_check"][VERDICT_N])
    del row["consistent"]
    return [row], row["squarings_pepin"] + row["squarings_scan"]


def walk_call(prog):
    return int(prog.sequences.a_mod_fermat(WALK_Q, WALK_N))


def walk_check(raw, golden):
    expected = golden["walk"]
    digest = residue_digest(raw, WALK_N)
    if (WALK_N, WALK_Q, digest) != (expected["n"], expected["q"], expected["residue_sha256"]):
        raise UnitFailure(f"walk to q={WALK_Q} at n={WALK_N}: residue digest differs from golden")
    return {"n": WALK_N, "q": WALK_Q, "residue_sha256": digest}, WALK_Q - 1


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans kept in memory: unit, name, parent layer, start, end, operations.

    The parent is the layer one up in the probe stack; it is None for a
    unit's top span and for square_mod, which stands in below both Pépin and
    the recurrence walk.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.unit = 0
        self.absent: set[str] = set()

    def time(self, name: str, parent: str | None, fn, *args, ops: int = 1):
        """Seconds one call of ``fn(*args)`` takes and its result; (None, None) when absent."""
        if fn is None:
            self.absent.add(name)
            return None, None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (AttributeError, TypeError) as err:  # the layer's interface has changed
            self.absent.add(f"{name} ({type(err).__name__}: {err})")
            return None, None
        end = time.perf_counter()
        self.spans.append(
            {"unit": self.unit, "name": name, "parent": parent, "start": start, "end": end, "ops": ops}
        )
        return end - start, result


def _square_all(xs):
    for x in xs:
        x * x


def _apply_all(fn, xs, *args):
    for x in xs:
        fn(x, *args)


def kernel_rates(prog, tracer: Tracer, n: int, rng: random.Random) -> tuple[float, float, float]:
    """Seconds per call of the bare multiply, the fold and square_mod at 2**n bits.

    All three run on one sample of random canonical residues.  The cost of a
    squaring depends only on the operand size, so the sample stands in for
    the residues the unit walks.  An absent fold counts as 0; an absent
    square_mod as the multiply plus the fold.
    """
    xs = [rng.getrandbits(1 << n) for _ in range(KERNEL_SAMPLE)]
    ops = len(xs)
    int_square, _ = tracer.time("arith.int_square", "arith.square_mod", _square_all, xs, ops=ops)
    reduce_fn = lookup(prog, "arith", "reduce_mod_fermat")
    modulus_cls = lookup(prog, "arith", "FermatModulus")
    reduce = square = None
    if reduce_fn is None or modulus_cls is None:
        tracer.absent.update({"arith.reduce_mod_fermat", "arith.square_mod"})
    else:
        modulus = modulus_cls(n)
        products = [x * x for x in xs]
        reduce, _ = tracer.time(
            "arith.reduce_mod_fermat", "arith.square_mod", _apply_all, reduce_fn, products, modulus, ops=ops
        )
    square_fn = lookup(prog, "arith", "square_mod")
    if square_fn is None:
        tracer.absent.add("arith.square_mod")
    elif reduce is not None:
        residues = [reduce_fn(x, modulus) for x in xs]
        square, _ = tracer.time("arith.square_mod", None, _apply_all, square_fn, residues, ops=ops)
    reduce = 0.0 if reduce is None else reduce / ops
    int_square /= ops
    square = int_square + reduce if square is None else square / ops
    return int_square, reduce, square


class LayerTotals:
    """Seconds each layer spent on one unit, and the unit's squaring counts.

    A layer whose probe is absent takes the total of the layers below it, so
    its self time is 0 and the self times still add up to the unit's top span.
    """

    def __init__(self) -> None:
        self.cli = self.render = self.cross_check = 0.0
        self.pepin = self.scan = self.walk = 0.0
        self.square_pepin = self.square_walk = self.int_square = self.reduce = 0.0
        self.squarings_pepin = self.squarings_scan = self.steps_walk = 0
        self.bit_squarings = 0

    def add_kernel(self, rates: tuple, n: int, pepin_ops: int, walk_ops: int) -> None:
        int_square, reduce, square = rates
        ops = pepin_ops + walk_ops
        self.int_square += int_square * ops
        self.reduce += reduce * ops
        self.square_pepin += square * pepin_ops
        self.square_walk += square * walk_ops
        self.bit_squarings += (1 << n) * ops

    def add_cross_check(self, prog, tracer: Tracer, n: int, row: dict, rng: random.Random) -> None:
        """Replays cross_check(n) below its own span: Pépin, scan, walk, kernel."""
        pepin_ops, scan_ops = row["squarings_pepin"], row["squarings_scan"]
        rates = kernel_rates(prog, tracer, n, rng)
        self.add_kernel(rates, n, pepin_ops, scan_ops)
        square = rates[2]
        walk, _ = tracer.time(
            "sequences.a_mod_fermat", "primality.paper_scan", lookup(prog, "sequences", "a_mod_fermat"),
            scan_ops + 1, n, ops=scan_ops,
        )
        pepin, _ = tracer.time(
            "primality.pepin_test", "primality.cross_check", lookup(prog, "primality", "pepin_test"), n,
            ops=pepin_ops,
        )
        scan, _ = tracer.time(
            "primality.paper_scan", "primality.cross_check", lookup(prog, "primality", "paper_scan"), n,
            ops=scan_ops,
        )
        walk = square * scan_ops if walk is None else walk
        self.walk += walk
        self.pepin += square * pepin_ops if pepin is None else pepin
        self.scan += walk if scan is None else scan
        self.squarings_pepin += pepin_ops
        self.squarings_scan += scan_ops

    def self_times(self) -> dict[str, float]:
        """Seconds of each layer minus the layers below it; they add up to the top span."""
        square = self.square_pepin + self.square_walk
        return {
            "cli": self.cli - self.cross_check - self.render if self.cli else 0.0,
            "report": self.render,
            "cross_check": self.cross_check - self.pepin - self.scan if self.cross_check else 0.0,
            "pepin": self.pepin - self.square_pepin if self.squarings_pepin else 0.0,
            "scan": self.scan - self.walk if self.squarings_scan else 0.0,
            "sequences": self.walk - self.square_walk,
            "arith": square - self.int_square - self.reduce,
            "reduce": self.reduce,
            "int_square": self.int_square,
        }

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        squarings = self.squarings_pepin + self.squarings_scan + self.steps_walk
        steps = self.squarings_scan + self.steps_walk
        bits = self.bit_squarings / squarings if squarings else 0.0

        def per(total: float, count: int) -> float:
            return total / count * 1e6 if count else 0.0

        return {
            "arith.int_square.us": per(self.int_square, squarings),
            "arith.reduce_mod_fermat.us": per(self.reduce, squarings),
            "arith.square_mod.us": per(self.square_pepin + self.square_walk, squarings),
            "arith.self.us": per(own["arith"], squarings),
            "sequences.a_mod_fermat.us_per_step": per(self.walk, steps),
            "sequences.self.us_per_step": per(own["sequences"], steps),
            "primality.paper_scan.us_per_step": per(self.scan, self.squarings_scan),
            "primality.scan_self.us_per_step": per(own["scan"], self.squarings_scan),
            "primality.paper_scan.ms": self.scan * 1e3,
            "primality.pepin_test.ms": self.pepin * 1e3,
            "primality.pepin_self.us_per_squaring": per(own["pepin"], self.squarings_pepin),
            "primality.cross_check_self.ms": own["cross_check"] * 1e3,
            "cli.main.ms": self.cli * 1e3,
            "cli.self.ms": own["cli"] * 1e3,
            "report.render_json_lines.ms": self.render * 1e3,
            "count.squarings_pepin": self.squarings_pepin,
            "count.squarings_scan": self.squarings_scan,
            "count.steps_walk": self.steps_walk,
            "arith.operand_bits": bits,
            "arith.bytes_per_step_computed": 0.75 * bits,
        }


# A trace function replays one unit: the unit's own entry point under a top
# span, checked like a timed unit, then each layer below it on the same n.
# It returns the checked outputs, the layer totals and the top span's seconds.


def sweep_trace(prog, tracer, golden, rng):
    totals = LayerTotals()
    totals.cli, raw = tracer.time("cli.main", None, sweep_call, prog)
    outputs, _ = sweep_check(raw, golden)
    record_cls = lookup(prog, "report", "ReportRecord")
    records = [record_cls.from_json(line) for line in raw[1].splitlines()] if record_cls else None
    render, _ = tracer.time(
        "report.render_json_lines", "cli.main", lookup(prog, "report", "render_json_lines"), records,
        ops=len(SWEEP_NS),
    )
    totals.render = render or 0.0
    ns = list(SWEEP_NS)
    rng.shuffle(ns)
    for n in ns:
        seconds, _ = tracer.time("primality.cross_check", "cli.main", prog.primality.cross_check, n)
        totals.cross_check += seconds
        totals.add_cross_check(prog, tracer, n, golden["cross_check"][n], rng)
    return outputs, totals, totals.cli


def verdict_trace(prog, tracer, golden, rng):
    totals = LayerTotals()
    totals.cross_check, raw = tracer.time("primality.cross_check", None, verdict_call, prog)
    outputs, _ = verdict_check(raw, golden)
    totals.add_cross_check(prog, tracer, VERDICT_N, golden["cross_check"][VERDICT_N], rng)
    return outputs, totals, totals.cross_check


def walk_trace(prog, tracer, golden, rng):
    totals = LayerTotals()
    totals.walk, raw = tracer.time("sequences.a_mod_fermat", None, walk_call, prog, ops=WALK_Q - 1)
    outputs, _ = walk_check(raw, golden)
    totals.steps_walk = WALK_Q - 1
    totals.add_kernel(kernel_rates(prog, tracer, WALK_N, rng), WALK_N, 0, WALK_Q - 1)
    return outputs, totals, totals.walk


WORKLOADS = {
    "sweep_small": (sweep_call, sweep_check, sweep_trace),
    "verdict_n14": (verdict_call, verdict_check, verdict_trace),
    "walk_n16": (walk_call, walk_check, walk_trace),
}

# ---------------------------------------------------------------- runs


class Tally:
    """Units attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.outputs = None

    def check(self, check, raw, golden):
        """Checked outputs and squarings of one unit, or (None, 0) when it failed."""
        self.attempted += 1
        try:
            if isinstance(raw, Exception):
                raise raw
            outputs, squarings = check(raw, golden)
        except Exception as err:  # any exception is a failed unit, never a crash
            self.fail(err)
            return None, 0
        if self.outputs is None:
            self.outputs = outputs
        return outputs, squarings

    def fail(self, err: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < FAILURES_KEPT:
            self.failures.append(f"{type(err).__name__}: {err}")


def timed_unit(call, prog):
    """Wall seconds of one call and its raw result, or the exception it raised."""
    start = time.perf_counter()
    try:
        raw = call(prog)
    except Exception as err:  # counted as a failed unit by the caller
        raw = err
    return time.perf_counter() - start, raw


def keep_going(started: float, seconds: float, durations: list[float]) -> bool:
    """Start another unit only when a typical one still fits in the run.

    ``started`` is the start of the run, so set-up time counts against it.
    """
    if not durations:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def run_timed(workload: str, prog, golden, started: float, seconds: float) -> dict:
    call, check, _ = WORKLOADS[workload]
    tally = Tally()
    times: list[float] = []
    squarings = 0
    setup: list[float] = []
    while keep_going(started, seconds, times):
        elapsed, raw = timed_unit(call, prog)
        times.append(elapsed)
        squarings += tally.check(check, raw, golden)[1]
        # Set-up samples are spread over the run, between units, so that they
        # see the same machine as the units do.
        share = (time.perf_counter() - started) / seconds
        setup += measure_setup(min(SETUP_RUNS, math.ceil(SETUP_RUNS * share)) - len(setup))
    setup += measure_setup(SETUP_RUNS - len(setup))
    # The mean, not the median, is the headline: on a shared host the unit
    # times mix a fast and a slow machine state, and the median of such a
    # mixture jumps between the two from run to run.  The report line keeps
    # the median and the tail.
    metrics = {
        "verdict_ms_mean": (statistics.fmean(times) * 1e3, "ms"),
        "squarings_per_s": (squarings / sum(times), "1/s"),
        "correct_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {"tally": tally, "metrics": metrics, "unit_ms": unit_stats(times), "setup": setup}


def run_traced(workload: str, prog, golden, started: float, seconds: float, seed: int) -> dict:
    """Per unit: the plain unit, then its traced replay; the metrics are per-unit medians."""
    call, check, trace = WORKLOADS[workload]
    rng = random.Random(seed)
    tally = Tally()
    tracer = Tracer()
    units: list[dict] = []
    durations: list[float] = []
    while keep_going(started, seconds, durations):
        begin = time.perf_counter()
        plain, raw = timed_unit(call, prog)
        tally.check(check, raw, golden)
        tally.attempted += 1
        try:
            outputs, totals, top = trace(prog, tracer, golden, rng)
        except Exception as err:  # a traced unit that fails counts like a timed one
            tally.fail(err)
        else:
            if tally.outputs is None:
                tally.outputs = outputs
            elif outputs != tally.outputs:
                tally.fail(UnitFailure("traced outputs differ from the timed unit's"))
            layer = totals.metrics()
            layer["trace.overhead_frac"] = top / plain - 1.0
            units.append(
                {
                    "metrics": layer,
                    "unit_ms": plain * 1e3,
                    "top_ms": top * 1e3,
                    "self_ms": {name: value * 1e3 for name, value in totals.self_times().items()},
                }
            )
        tracer.unit += 1
        durations.append(time.perf_counter() - begin)
    names = list(LayerTotals().metrics()) + ["trace.overhead_frac"]
    metrics = {name: statistics.median(u["metrics"][name] for u in units) if units else 0.0 for name in names}
    return {"tally": tally, "metrics": metrics, "tracer": tracer, "units": units}


def unit_stats(times: list[float]) -> dict:
    """Median unit time, and the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    stats = {"count": len(times), "p50_ms": statistics.median(times) * 1e3}
    if len(ordered) >= 20:
        stats[f"p{100 * (len(ordered) - 10) / len(ordered):.1f}_ms"] = ordered[-11] * 1e3
    return stats


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(prog, load_start: list[float]) -> dict:
    max_bits = lookup(prog, "budget", "max_bits")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_revision": git_revision(),
        "fermatlab_max_bits": max_bits() if max_bits else None,
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fermatlab benchmark: one workload, timed or traced")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, golden=None) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result) as printed by main."""
    started = time.perf_counter()
    load_start = list(os.getloadavg())
    prog = load_program()
    golden = golden or load_golden()
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        measured = run_traced(workload, prog, golden, started, seconds, seed)
        tracer = measured["tracer"]
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in measured["metrics"].items()}
        report["traced_units"] = measured["units"]
        report["absent_layers"] = sorted(tracer.absent)
        report["last_unit_spans"] = [span for span in tracer.spans if span["unit"] == tracer.unit - 1]
    else:
        measured = run_timed(workload, prog, golden, started, seconds)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in measured["metrics"].items()}
        report["unit_ms"] = measured["unit_ms"]
        report["setup_samples_s"] = measured["setup"]
    tally = measured["tally"]
    report["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    report["failures"] = tally.failures
    report["outputs"] = tally.outputs
    report["env"] = environment(prog, load_start)
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, result


def unit_of(name: str) -> str:
    if name.startswith("count."):
        return "count"
    if name == "arith.operand_bits":
        return "bits"
    if name == "arith.bytes_per_step_computed":
        return "bytes"
    if name == "trace.overhead_frac":
        return "frac"
    return name.rsplit(".", 1)[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12} {name:40} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload:12} {'verdict_ms_p50':40} {report['unit_ms']['p50_ms']:.6g} ms")
    print(f"{args.workload:12} {'failed_frac':40} {report['failed_frac']:.6g} frac")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
