"""Smoke test of the benchmark harness itself.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload at its tiniest size in both modes and checks the result
line against BENCHMARK.json; checks that the output checker rejects a
tampered report and that an operation over its budget counts as failed;
and checks that the benchmark refuses to run without the source tree.
"""

import contextlib
import io
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _audit(path, temporal=False):
    import dutchbook.cli
    argv = ["audit", str(path), "--format", "structured"]
    if temporal:
        argv.insert(1, "--temporal")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dutchbook.cli.main(argv)
    return code, json.loads(buf.getvalue())


def test_checker_rejects_tampered_reports(tmp_path):
    for coherent in (True, False):
        book = gen.dense_book(random.Random(3), 8, 6, coherent)
        path = tmp_path / "book.json"
        path.write_text(json.dumps(book["doc"]))
        code, report = _audit(path)
        verdict = check.synchronic(report, code, book)
        if verdict == "coherent":
            label = book["doc"]["atoms"][0]
            report["witness"][label] = str(
                Fraction(report["witness"][label]) + 1)
        else:
            leg = report["portfolio"][0]
            leg["direction"] = "sell" if leg["direction"] == "buy" else "buy"
        with pytest.raises(check.Mismatch):
            check.synchronic(report, code, book)

    model = gen.temporal_model(random.Random(4), 6, strategy=True,
                               coherent=False)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model["doc"]))
    code, report = _audit(path, temporal=True)
    assert check.temporal(report, code, model["facts"]) == "incoherent"
    first = next(iter(report["losses"]))
    report["losses"][first] = "-1/1000"
    with pytest.raises(check.Mismatch):
        check.temporal(report, code, model["facts"])


def test_overrun_counts_as_failed():
    op = run.Op(run=lambda traced: (time.sleep(5), None), check=None)
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        _, payload, failure = run.execute(op, 0.2, False)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failure and "budget" in failure and payload is None
    assert time.perf_counter() - start < 2


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-samples", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
