#!/usr/bin/env python3
"""The dutchbook benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed loop with a single caller for S seconds of
operation time, checks every output exactly (bench/check.py), prints a
table of metrics and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` each operation runs
once untraced and once traced on the same input, and the metrics are the
per-layer ones from the traced runs plus the tracing overhead.  The spans
of a traced run are written to ``.bench/trace-<workload>-<seed>.json``.

The program under test is the source tree in ``src/`` next to this
directory; the benchmark exits with code 2, printing no result, when it is
missing.  Everything runs in this one process, except the fresh
interpreters of the set-up probes and of the cli-samples workload, which
run one at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import check
import gen
from tracing import Tracer, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

WORKLOADS = ("cli-samples", "audit-dense", "audit-wide", "temporal-quantum")

# Wall budget per operation; an operation that overruns it is stopped and
# counted as failed, so a slow or hung solve cannot stall a run.
BUDGET_S = {"cli-samples": 10, "audit-dense": 40, "audit-wide": 40,
            "temporal-quantum": 10}

SETUP_PROBES = 7
_PROBE = ("import time, sys; t = time.perf_counter(); import dutchbook.cli; "
          "sys.stdout.write(repr(time.perf_counter() - t))")

# The sample commands of cli-samples, with the exit code and structured
# report recorded from the program at the commit that added the benchmark.
CLI_SAMPLES = (
    ("audit-coherent", ["audit", "samples/coherent_book.json"], 0),
    ("audit-incoherent", ["audit", "samples/incoherent_book.json"], 2),
    ("audit-product-rule", ["audit", "samples/product_rule_violation.json"], 2),
    ("temporal-reflection",
     ["audit", "--temporal", "samples/temporal_reflection_violation.json"], 2),
    ("temporal-strategy",
     ["audit", "--temporal", "samples/conditioning_strategy.json"], 2),
    ("demo-quantum", ["demo-quantum", "samples/qubit_z_then_x.json"], 0),
    ("demo-reflection", ["demo-reflection"], 2),
    ("demo-polarization", ["demo-polarization", "--n", "4000"], 0),
)

# The tail percentile of each workload, fixed so that two commits are
# compared at the same percentile: the highest that keeps at least ten
# operations beyond it in a run on a quiet machine, moved where needed so
# that it falls inside the slowest size class rather than on the edge
# between two classes.
TAIL_PCT = {"cli-samples": 90, "audit-dense": 90, "audit-wide": 75,
            "temporal-quantum": 98}

# The host this benchmark was built on (a 2-vCPU VM) runs the same code at
# speeds up to 1.8x apart for tens of seconds at a time.  A calibration
# that runs none of dutchbook's code is therefore timed between operations,
# at least every CAL_EVERY_S of operation time, and each operation's time is
# scaled by REF over the median calibration within CAL_NEAR_S of it, REF
# being the calibration's median on that host when quiet.  In-process
# workloads time an exact Fraction row reduction (the solver's kind of
# work); cli-samples times a fresh interpreter importing numpy (its kind of
# work).  Unscaled times are printed as well.
CALIBRATION = {  # kind: (REF seconds, CAL_EVERY_S)
    "loop": (16e-3, 0.3),
    "child": (0.15, 1.0),
}
CAL_NEAR_S = 3.0


class Overrun(Exception):
    """An operation exceeded its wall budget."""


@dataclass
class Stratum:
    """One class of operations and its share of the run's operation time."""

    name: str
    share: float
    make: object  # index -> Op
    used: float = 0.0
    count: int = 0


@dataclass
class Op:
    """One operation: `run(traced)` returns (seconds, payload); `check`
    turns the payload into a verdict or raises check.Mismatch."""

    run: object
    check: object
    cleanup: list = field(default_factory=list)


@dataclass
class Record:
    stratum: str
    seconds: float
    verdict: str | None
    failure: str | None = None
    traced_seconds: float | None = None
    start: float = 0.0
    scale: float = 1.0  # REF over the local calibration time


_CAL_RNG = random.Random(12345)
_CAL_MATRIX = [[Fraction(_CAL_RNG.randint(-9, 9), _CAL_RNG.randint(1, 9))
                for _ in range(64)] for _ in range(8)]


def calibrate() -> float:
    """Seconds taken to row-reduce a fixed 8x64 rational matrix with stdlib
    Fractions: the exact solver's kind of work, but none of its code.  Rows
    this long tracked the audits' speed better than short ones."""
    start = time.perf_counter()
    m = [row[:] for row in _CAL_MATRIX]
    for c in range(len(m)):
        if m[c][c] == 0:
            continue
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(len(m)):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# Operations


def _alarm(signum, frame):
    raise Overrun()


@contextlib.contextmanager
def _budget(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Harness:
    def __init__(self, workload: str, seed: int, tiny: bool, tracer):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.work = OUT / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._pi = {}
        self.shares: dict[str, float] = {}

    def calibrate(self) -> float:
        if self.workload != "cli-samples":
            return calibrate()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                       env=self.env, capture_output=True, timeout=60,
                       check=True)
        return time.perf_counter() - start

    def rng(self, stratum: str, index: int):
        return random.Random(f"{self.workload}:{self.seed}:{stratum}:{index}")

    def write(self, name: str, doc: dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    # In-process calls ----------------------------------------------------

    def cli(self, argv: list[str]) -> tuple[float, int, str]:
        import dutchbook.cli
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = dutchbook.cli.main(argv)
        return time.perf_counter() - start, code, buf.getvalue()

    def _in_process(self, body, traced: bool):
        if not traced:
            return body()
        self.tracer.install()
        try:
            with self.tracer.span("op"):
                return body()
        finally:
            self.tracer.uninstall()

    def audit_op(self, path: str, facts: dict, kind: str) -> Op:
        argv = ["audit", path, "--format", "structured"]
        if kind == "temporal":
            argv.insert(1, "--temporal")

        def run(traced):
            seconds, code, out = self._in_process(lambda: self.cli(argv), traced)
            return seconds, (code, out)

        def verify(payload):
            code, out = payload
            report = json.loads(out)
            if kind == "temporal":
                return check.temporal(report, code, facts)
            return check.synchronic(report, code, facts)

        return Op(run, verify, [path])

    def quantum_op(self, path: str, doc: dict) -> Op:
        import numpy as np
        import dutchbook.quantum as q
        argv = ["demo-quantum", path, "--format", "structured"]

        def body():
            seconds, code, out = self.cli(argv)
            report = json.loads(out)
            start = time.perf_counter()
            effects = [np.array([complex(*z) for z in e]).reshape(doc["dim"], -1)
                       for e in doc["povm"]]
            rho = q.reconstruct_state(q.Povm(tuple(effects)),
                                      report["reflection"])
            seconds += time.perf_counter() - start
            return seconds, (code, report, rho.matrix)

        def run(traced):
            return self._in_process(body, traced)

        def verify(payload):
            code, report, rho = payload
            return check.quantum(report, code, doc, rho)

        return Op(run, verify, [path])

    def polarization_op(self, n: int) -> Op:
        argv = ["demo-polarization", "--n", str(n), "--format", "structured"]
        if n not in self._pi:
            self._pi[n] = gen.pi_bits(n)

        def run(traced):
            seconds, code, out = self._in_process(lambda: self.cli(argv), traced)
            return seconds, (code, out)

        def verify(payload):
            code, out = payload
            return check.polarization(json.loads(out), code, n, self._pi[n])

        return Op(run, verify)

    # Child interpreters --------------------------------------------------

    def child_op(self, name: str, argv: list[str], code: int) -> Op:
        expected = (BENCH / "expected" / f"{name}.json").read_bytes()
        argv = argv + ["--format", "structured"]
        spans = self.work / f"spans-{name}.json"

        def run(traced):
            if traced:
                cmd = [sys.executable, str(BENCH / "child.py"), str(spans), *argv]
            else:
                cmd = [sys.executable, "-m", "dutchbook.cli", *argv]
            ctx = self.tracer.span("op") if traced else contextlib.nullcontext()
            with ctx as op_span:
                start = time.perf_counter()
                try:
                    proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                          capture_output=True,
                                          timeout=BUDGET_S[self.workload])
                except subprocess.TimeoutExpired:
                    raise Overrun() from None
                seconds = time.perf_counter() - start
            if traced:
                child = json.loads(spans.read_text(encoding="utf-8"))
                self.tracer.adopt(child, op_span)
            return seconds, proc

        def verify(proc):
            if proc.returncode != code:
                raise check.Mismatch(f"{name}: exit code {proc.returncode}, "
                                     f"expected {code}")
            if proc.stdout != expected:
                raise check.Mismatch(
                    f"{name}: report differs from the recorded one")
            return "coherent" if code == 0 else "incoherent"

        return Op(run, verify)

    # Workloads -----------------------------------------------------------

    def strata(self) -> list[Stratum]:
        tiny = self.tiny

        if self.workload == "cli-samples":
            order = []

            def sample(i):
                # One round visits every command once, in a seeded order.
                if not order or i % len(CLI_SAMPLES) == 0:
                    order[:] = list(CLI_SAMPLES)
                    self.rng("round", i).shuffle(order)
                return self.child_op(*order[i % len(CLI_SAMPLES)])

            return [Stratum("samples", 1.0, sample)]

        if self.workload in ("audit-dense", "audit-wide"):
            # (size, time share).  The cheapest class holds most of the
            # operations, so a run has enough distinct books for a steady
            # median; dense 32x16 gets the largest share so its books fill
            # the tail; the wide rungs past 256x8 reach 16 prices and 1024
            # atoms.
            if self.workload == "audit-dense":
                ladder = [((6, 4), 0.5), ((8, 5), 0.5)] if tiny else [
                    ((12, 10), 0.15), ((32, 16), 0.45), ((48, 24), 0.2),
                    ((64, 32), 0.2)]
                make_book = gen.dense_book
                names = [f"{a}x{p}" for (a, p), _ in ladder]
            else:
                ladder = [((5, 4), 1.0)] if tiny else [
                    ((8, 8), 0.7), ((8, 16), 0.1), ((9, 12), 0.1),
                    ((10, 8), 0.1)]
                make_book = gen.wide_book
                names = [f"{1 << c}x{p}" for (c, p), _ in ladder]

            def maker(size, name):
                def make(i):
                    b = make_book(self.rng(name, i), *size,
                                  (i + self.seed) % 2 == 0)
                    path = self.write(f"{name}-{i}.json", b["doc"])
                    return self.audit_op(path, b, "synchronic")
                return make

            return [Stratum(n, share, maker(size, n))
                    for (size, share), n in zip(ladder, names)]

        # temporal-quantum
        ks = [4, 8] if tiny else [64, 128, 256]
        dims = [2] if tiny else [2, 4, 8]
        n_bits = 64 if tiny else 16384
        # The 256-value class gets the largest share: its strategy models
        # are the slowest operations, and the tail percentile falls there.
        shares = [0.3, 0.3] if tiny else [0.15, 0.1, 0.45]

        def temporal_maker(k):
            name = f"temporal-{k}"

            def make(i):
                m = gen.temporal_model(self.rng(name, i), k,
                                       strategy=(i + self.seed) % 4 >= 2,
                                       coherent=(i + self.seed) % 2 == 0)
                path = self.write(f"{name}-{i}.json", m["doc"])
                return self.audit_op(path, m["facts"], "temporal")
            return make

        def quantum(i):
            t = gen.quantum_triple(self.rng("quantum", i), dims[i % len(dims)])
            return self.quantum_op(self.write(f"quantum-{i}.json", t["doc"]),
                                   t["doc"])

        return ([Stratum(f"temporal-{k}", share, temporal_maker(k))
                 for k, share in zip(ks, shares)]
                + [Stratum("quantum", 0.1 if not tiny else 0.2, quantum),
                   Stratum("polarization", 0.2,
                           lambda i: self.polarization_op(n_bits))])


# --------------------------------------------------------------------------
# Measurement


def setup_probes(env: dict, count: int) -> tuple[list[float], list[float]]:
    """Wall seconds of a fresh interpreter through `import dutchbook.cli`,
    and the import's own share of each, over `count` probes (after one
    unmeasured probe that fills the bytecode cache)."""
    walls, imports = [], []
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            walls.append(wall)
            imports.append(float(proc.stdout))
    return walls, imports


def execute(op: Op, budget: float, traced: bool):
    """Run one operation under its budget; returns (seconds, payload, failure)."""
    start = time.perf_counter()
    try:
        with _budget(budget):
            seconds, payload = op.run(traced)
        return seconds, payload, None
    except Overrun:
        return time.perf_counter() - start, None, f"overran {budget} s budget"
    except Exception as exc:  # a crash of the program fails this operation
        return (time.perf_counter() - start, None,
                f"wrong output: crashed: {type(exc).__name__}: {exc}")


def run_workload(h: Harness, seconds: float, traced: bool) -> list[Record]:
    """Closed loop, one caller.  Each step runs the stratum furthest below
    its share of operation time, and the run ends when each has had at
    least its share, so every size class gets its share of the run however
    slow its operations are."""
    strata = h.strata()
    h.shares = {s.name: s.share for s in strata}
    budget = BUDGET_S[h.workload]
    records: list[Record] = []
    ref, every = CALIBRATION["child" if h.workload == "cli-samples" else "loop"]
    cal: list[tuple[float, float]] = []  # (when, seconds)
    verdicts: set[str] = set()
    busy = last_cal = 0.0
    while True:
        if not cal or busy - last_cal >= every:
            cal.append((time.perf_counter(), h.calibrate()))
            last_cal = busy
        s = min(strata, key=lambda s: s.used / s.share)
        # Stop once every stratum has had its share and both verdicts
        # occurred (3x the run as a cap, should one never occur).
        if busy >= 3 * seconds or (s.used >= s.share * seconds and verdicts
                                   >= {"coherent", "incoherent"}):
            break
        op = s.make(s.count)
        s.count += 1
        h.tracer.op = len(records)
        # In traced runs the same input runs untraced and traced, in
        # alternating order, so the overhead is measured on equal work.
        passes = [False, True] if traced else [False]
        if traced and len(records) % 2:
            passes.reverse()
        rec = Record(s.name, 0.0, None, start=time.perf_counter())
        for on in passes:
            took, payload, failure = execute(op, budget, on)
            s.used += took
            busy += took
            if on:
                rec.traced_seconds = took
            else:
                rec.seconds = took
            if failure is None:
                try:
                    verdict = op.check(payload)
                except Exception as exc:  # any check failure is a failed op
                    failure = f"wrong output: {type(exc).__name__}: {exc}"
                else:
                    rec.verdict = verdict
                    verdicts.add(verdict)
            if failure is not None:
                rec.failure = rec.failure or failure
                rec.verdict = None
        for path in op.cleanup:
            Path(path).unlink(missing_ok=True)
        records.append(rec)
    cal.append((time.perf_counter(), h.calibrate()))
    for rec in records:
        near = [c for t, c in cal if abs(t - rec.start) <= CAL_NEAR_S]
        if len(near) < 3:
            near = [c for _, c in sorted(cal, key=lambda tc:
                                         abs(tc[0] - rec.start))[:3]]
        rec.scale = ref / statistics.median(near)
    return records


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(h: Harness, records, probes) -> tuple[dict, list[str]]:
    times = [r.seconds * r.scale * 1000 for r in records]
    by_stratum: dict[str, list] = {}
    for r in records:
        by_stratum.setdefault(r.stratum, []).append(r)
    # Throughput at the nominal mix: each stratum's own rate, weighted by
    # its share of the run.  An operation that overshoots the end of the
    # run then moves no other stratum's count.
    ops_per_s = sum(h.shares[name] * len(rs) / sum(r.seconds * r.scale
                                                   for r in rs)
                    for name, rs in by_stratum.items())
    pct = TAIL_PCT[h.workload]

    def p50(verdict):
        vals = [t for t, r in zip(times, records) if r.verdict == verdict]
        return statistics.median(vals) if vals else 0.0

    # cli-samples runs the program in children; the set-up probes are
    # children too, but they only import.
    usage = resource.RUSAGE_CHILDREN if h.workload == "cli-samples" \
        else resource.RUSAGE_SELF
    peak = resource.getrusage(usage).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(probes[0]), "s"),
        "peak_rss_mb": (peak, "MB"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_tail": (percentile(times, pct), "ms"),
        "coherent_ms_p50": (p50("coherent"), "ms"),
        "incoherent_ms_p50": (p50("incoherent"), "ms"),
    }
    failed = sum(r.failure is not None for r in records)
    beyond = sum(t > metrics["op_ms_tail"][0] for t in times)
    raw = [r.seconds * 1000 for r in records]
    notes = [
        f"op_ms_tail is p{pct} over {len(times)} operations, "
        f"{beyond} beyond it",
        f"failed_share {failed}/{len(records)} = {failed / len(records):.4f}",
        f"calibration scale median {statistics.median(r.scale for r in records):.3f}; "
        f"unscaled op_ms_p50 {statistics.median(raw):.3f}, "
        f"op_ms_tail {percentile(raw, pct):.3f}",
    ]
    for name, rs in by_stratum.items():
        notes.append(f"stratum {name}: {len(rs)} ops, median "
                     f"{statistics.median(r.seconds for r in rs) * 1000:.2f} "
                     "ms unscaled")
    return metrics, notes


def per_layer(h: Harness, records, probes) -> tuple[dict, list[str]]:
    spans = h.tracer.spans
    totals = layer_totals(spans)
    n = len(records)

    def ms(name, kind="incl"):
        return totals.get(name, {}).get(kind, 0.0) * 1000 / n

    metrics = {}
    for name in ("simplex.solve", "synchronic.check", "synchronic.dutch_book",
                 "synchronic.settle", "formats.load", "formats.render",
                 "cli.main", "diachronic.reflection", "diachronic.strategy",
                 "diachronic.dutch_book", "diachronic.realize",
                 "quantum.first_probs", "quantum.post_state",
                 "quantum.reflection", "quantum.decohere",
                 "quantum.reconstruct", "exchangeable.pi_bits",
                 "exchangeable.scenario"):
        metrics[f"{name}_ms"] = (ms(name), "ms")
    metrics["synchronic.rows_ms"] = (ms("synchronic.check", "self"), "ms")

    stats = list(h.tracer.stats.values())
    for key in ("rows", "cols", "max_bits"):
        metrics[f"simplex.{key}"] = (max((s[key] for s in stats), default=0),
                                     "count")
    op_total = totals.get("op", {}).get("incl", 0.0)
    solve_total = totals.get("simplex.solve", {}).get("incl", 0.0)
    metrics["simplex.op_share_pct"] = (
        100 * solve_total / op_total if op_total else 0.0, "%")

    if h.workload == "cli-samples":
        # Interpreter start and exit: the child's wall minus its import and
        # its main, as seen from here.
        child = totals.get("cli.import", {}).get("incl", 0.0) + \
            totals.get("cli.main", {}).get("incl", 0.0)
        metrics["cli.interp_ms"] = ((op_total - child) * 1000 / n, "ms")
        metrics["cli.import_ms"] = (ms("cli.import"), "ms")
    else:
        walls, imports = probes
        metrics["cli.interp_ms"] = (
            statistics.median(w - i for w, i in zip(walls, imports)) * 1000,
            "ms")
        metrics["cli.import_ms"] = (statistics.median(imports) * 1000, "ms")

    plain = sum(r.seconds for r in records)
    traced = sum(r.traced_seconds or 0.0 for r in records)
    metrics["trace.overhead_pct"] = (100 * (traced - plain) / plain, "%")
    notes = [f"{n} operations traced, {len(spans)} spans",
             f"untraced {plain:.3f} s, traced {traced:.3f} s",
             "per operation, inclusive / self ms:"]
    for name, t in sorted(totals.items()):
        notes.append(f"  {name:<24} {t['incl'] * 1000 / n:12.4f} "
                     f"{t['self'] * 1000 / n:12.4f}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the harness smoke test")
    args = parser.parse_args(argv)

    for needed in (SRC / "dutchbook" / "__init__.py", ROOT / "samples"):
        if not needed.exists():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a "
                  "checkout of the dutchbook repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    h = Harness(args.workload, args.seed, args.tiny, Tracer())
    h.work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        probes = setup_probes(h.env, 3 if args.tiny else SETUP_PROBES)
        import dutchbook.cli  # noqa: F401  (in-process workloads import once)
        records = run_workload(h, args.seconds, bool(args.trace))
        if args.trace:
            metrics, notes = per_layer(h, records, probes)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            h.tracer.dump(str(trace_path))
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, notes = end_to_end(h, records, probes)
    finally:
        shutil.rmtree(h.work, ignore_errors=True)

    failures = [r.failure for r in records if r.failure]
    wrong = [f for f in failures if f.startswith("wrong output")]
    for f in dict.fromkeys(failures):
        print(f"FAILED: {f}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(records)} operations, {len(failures)} failed")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
