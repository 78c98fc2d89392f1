"""End-to-end tests for the command-line interface.

Exit codes are the contract: 0 coherent/success, 2 detected incoherence,
1 input errors (including bad flags, which argparse would otherwise
report with its own exit code).
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dutchbook
from dutchbook.cli import main
from dutchbook.exchangeable import MAX_PI_BITS, pi_fractional_bits
from dutchbook.formats import render_structured

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spawn(*argv) -> subprocess.CompletedProcess:
    """Run a command whose Python imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(dutchbook.__file__).parents[1]))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------- audit


def test_audit_coherent_book(capsys):
    code, out, _ = _run(capsys, "audit", str(SAMPLES / "coherent_book.json"))
    assert code == 0
    assert "verdict: coherent" in out
    assert "witness" in out


def test_audit_incoherent_book(capsys):
    code, out, _ = _run(capsys, "audit", str(SAMPLES / "incoherent_book.json"))
    assert code == 2
    assert "verdict: incoherent" in out
    assert "sure-loss portfolio" in out


def test_audit_incoherent_structured(capsys):
    code, out, _ = _run(capsys, "audit", "--format", "structured",
                        str(SAMPLES / "incoherent_book.json"))
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "synchronic-audit"
    assert report["verdict"] == "incoherent"
    assert report["witness"] is None
    assert len(report["portfolio"]) == 2
    # Every atom settles strictly negative for the agent.
    assert all(F(v) < 0 for v in report["losses"].values())
    # The console output is already in canonical form.
    assert render_structured(report) == out


def test_audit_product_rule_violation(capsys):
    code, out, _ = _run(capsys, "audit", "--format", "structured",
                        str(SAMPLES / "product_rule_violation.json"))
    assert code == 2
    report = json.loads(out)
    assert all(F(v) < 0 for v in report["losses"].values())


def test_audit_coherent_structured_witness(capsys):
    code, out, _ = _run(capsys, "audit", "--format", "structured",
                        str(SAMPLES / "coherent_book.json"))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "coherent"
    witness = {k: F(v) for k, v in report["witness"].items()}
    assert sum(witness.values()) == 1
    assert witness["a"] + witness["b"] == F(3, 5)


def test_audit_temporal_flag_required_mismatches(capsys):
    code, _, err = _run(capsys, "audit",
                        str(SAMPLES / "temporal_reflection_violation.json"))
    assert code == 1
    assert "document.assessments" in err
    code, _, err = _run(capsys, "audit", "--temporal",
                        str(SAMPLES / "coherent_book.json"))
    assert code == 1
    assert "document.temporal" in err


def test_audit_temporal_reflection_violation(capsys):
    code, out, _ = _run(capsys, "audit", "--temporal", "--format", "structured",
                        str(SAMPLES / "temporal_reflection_violation.json"))
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "temporal-audit"
    assert report["violations"] == [
        {"q": "1/2", "conditional": "7/10", "gap": "1/5"}]
    assert len(report["portfolio"]) == 3
    assert all(F(v) < 0 for v in report["losses"].values())
    assert set(report["losses"]) == {"Q&E", "Q&~E", "~Q&E", "~Q&~E"}


def test_audit_conditioning_strategy(capsys):
    code, out, _ = _run(capsys, "audit", "--temporal", "--format", "structured",
                        str(SAMPLES / "conditioning_strategy.json"))
    assert code == 2
    report = json.loads(out)
    assert report["violations"] == []
    assert report["strategy"] == {"on": "D", "declared": "1/2",
                                  "forced": "3/4"}
    assert set(report["losses"]) == {"D&E", "D&~E", "~D&E", "~D&~E"}
    assert all(F(v) < 0 for v in report["losses"].values())


def test_audit_error_paths(capsys, tmp_path):
    code, _, err = _run(capsys, "audit", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = _run(capsys, "audit", str(bad))
    assert code == 1
    assert "not valid JSON" in err


_BOOK = ('{"atoms": ["x", "y"], "events": %s, "assessments": '
         '[{"type": "unconditional", "event": ["x"], "price": %s}]}')
_TEMPORAL = ('{"temporal": {"qs": [%s], "joint": [{"q": "1/2", "e": true, '
             '"mass": %s}, {"q": "1/2", "e": false, "mass": "0"}]}}')
_Z0, _Z1 = [[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]


def _scenario(rho0, instrument=([_Z0], [_Z1])):
    return json.dumps({"dim": 2, "rho0": rho0, "instrument": instrument,
                       "povm": [_Z0, _Z1]})


@pytest.mark.parametrize("argv, text, field", [
    (["audit"], _BOOK % ("{}", '"1/0"'), "assessments[0].price"),
    (["audit"], _BOOK % ("{}", '"1e-20000"'), "assessments[0].price"),
    (["audit"], _BOOK % ("{}", "true"), "assessments[0].price"),
    (["audit"], _BOOK % ('["x"]', '"1/2"'), "document.events"),
    (["audit", "--temporal"], _TEMPORAL % ('"1/0"', '"1"'), "qs[0]"),
    (["audit", "--temporal"], _TEMPORAL % ('"1/2"', "true"), "joint[0].mass"),
    (["demo-quantum"], _scenario([[float("nan")] * 2] * 4), "NaN"),
    (["demo-quantum"], _scenario([[True, False]] + _Z0[1:]), "rho0[0]"),
    (["demo-quantum"], _scenario(_Z0, [[_Z0]]), "sum K†K = identity"),
    (["audit"], "[" * 100_000 + "]" * 100_000, "not valid JSON"),
    (["audit"], _BOOK % ('{"e": ["x", "y", "x"]}', '"1/2"'),
     "events.e: atom label 'x' listed twice"),
    (["audit", "--temporal"], _TEMPORAL % ('"1/2"', '"1/3"'),
     "document.temporal.joint: pmf masses must sum to exactly 1, got 1/3"),
    (["audit", "--temporal"], json.dumps({"temporal": {
        "qs": [f"{i}/16385" for i in range(16385)],
        "joint": [{"q": "0/16385", "e": True, "d": True, "mass": "1"}]}}),
     "document.temporal.joint: outcome space must have 1..65536 atoms, "
     "got 65540"),
], ids=["zero-denominator", "huge-exponent", "bool-price", "events-list",
        "zero-denominator-q", "bool-mass", "nan-state", "bool-entry",
        "not-trace-preserving", "deep-nesting", "duplicate-label",
        "temporal-bad-sum", "temporal-over-cap"])
def test_malformed_documents_exit_one(capsys, tmp_path, argv, text, field):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = _run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("dutchbook: error:") and err.count("\n") == 1
    assert field in err


def _chained_book(contradiction: bool) -> dict:
    """12 atoms: P(a0), then P(a_k | {a_k..a11}) for k = 1..10, each 1/q
    with q a 495-digit number, so the input is under every cap.  The unique
    witness multiplies the ten denominators (about 5400 digits); with a
    contradicting price on a11 the sure-loss quantities grow the same way."""
    atoms = [f"a{k}" for k in range(12)]
    big = 10 ** 494
    entries = [{"type": "unconditional", "event": ["a0"],
                "price": f"1/{big + 1}"}]
    for k in range(1, 11):
        entries.append({"type": "called_off", "event": [f"a{k}"],
                        "condition": atoms[k:], "price": f"1/{big + 2 * k + 1}"})
    if contradiction:
        entries.append({"type": "unconditional", "event": ["a11"],
                        "price": "1/2"})
    return {"atoms": atoms, "assessments": entries}


@pytest.mark.parametrize("contradiction", [False, True],
                         ids=["witness", "portfolio"])
def test_results_too_long_to_print_exit_one(capsys, tmp_path, contradiction):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_chained_book(contradiction)))
    code, out, err = _run(capsys, "audit", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("dutchbook: error:") and err.count("\n") == 1
    assert "int-to-str limit" in err


def test_bad_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--bogus", "x.json"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["demo-polarization", "--pi", "--bits", "f"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process.  Calls after a bad-argument
    # exit, and before one, must print what a fresh process prints and
    # exit with the same code.
    monkeypatch.setenv("COLUMNS", "80")
    commands = (
        ["audit", "--bogus", str(SAMPLES / "coherent_book.json")],
        ["audit", str(SAMPLES / "incoherent_book.json")],
        ["demo-polarization", "--pi", "--bits", "f"],
        ["audit", "--format", "structured",
         str(SAMPLES / "coherent_book.json")],
    )
    fresh = []
    for argv in commands:
        done = _spawn(sys.executable, "-m", "dutchbook.cli", *argv)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in fresh] == [1, 2, 1, 0]
    for _ in range(2):
        for argv, want in zip(commands, fresh):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want


# ---------------------------------------------------------------------- demos


def test_demo_reflection(capsys):
    code, out, _ = _run(capsys, "demo-reflection")
    assert code == 2
    assert "gap d = 1/5" in out
    assert "sure loss on every branch" in out


def test_demo_reflection_structured(capsys):
    code, out, _ = _run(capsys, "demo-reflection", "--format", "structured")
    assert code == 2
    report = json.loads(out)
    assert report["kind"] == "reflection-demo"
    assert report["losses"] == {"Q&E": "-7/50", "Q&~E": "-7/50",
                                "~Q&E": "-1/25", "~Q&~E": "-1/25"}


def test_demo_polarization_small(capsys):
    code, out, _ = _run(capsys, "demo-polarization", "--n", "16",
                        "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "polarization-demo"
    assert report["n"] == 16
    assert report["zeros"] + report["ones"] == 16
    want = (report["zeros"] + 1) / 18
    assert abs(report["conditioning_next_zero"] - want) < 1e-12
    assert report["conditioning_coherent"] is True
    assert report["maverick_coherent"] is True
    assert report["maverick_q"] == 0.99


def test_demo_polarization_incoherent_maverick(capsys):
    # A negative value reads the same after a space as after "=".
    for maverick in (["--maverick", "1.5"], ["--maverick", "-1e3"],
                     ["--maverick=-1e3"], ["--maverick", "-.5"]):
        code, out, _ = _run(capsys, "demo-polarization", "--n", "16",
                            *maverick, "--format", "structured")
        assert code == 2
        report = json.loads(out)
        assert report["maverick_coherent"] is False
        assert report["conditioning_coherent"] is True


def test_demo_polarization_bits_file(capsys, tmp_path):
    bits = tmp_path / "bits.txt"
    bits.write_text("0101\n")
    code, out, _ = _run(capsys, "demo-polarization", "--bits", str(bits),
                        "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 4
    assert abs(report["conditioning_next_zero"] - 0.5) < 1e-12

    # An explicit --n that disagrees with the file is an input error.
    code, _, err = _run(capsys, "demo-polarization", "--bits", str(bits),
                        "--n", "5")
    assert code == 1
    assert "error" in err


def test_demo_polarization_bits_file_matches_computed_bits(capsys, tmp_path):
    # Both paths of the demo give the same report at the cap: the file's
    # bits, read through whitespace, and the bits computed from scratch.
    text = "".join(map(str, pi_fractional_bits(MAX_PI_BITS).bits))
    bits = tmp_path / "pi.txt"
    bits.write_text("\n".join(text[i:i + 72] for i in range(0, len(text), 72)))
    for fmt in ("text", "structured"):
        from_file = _run(capsys, "demo-polarization", "--bits", str(bits),
                         "--format", fmt)
        computed = _run(capsys, "demo-polarization", "--n", str(MAX_PI_BITS),
                        "--format", fmt)
        assert from_file == computed
        assert from_file[0] == 0


def test_demo_polarization_input_errors(capsys, tmp_path):
    code, _, err = _run(capsys, "demo-polarization", "--n", "99999")
    assert code == 1
    assert "error" in err
    code, _, err = _run(capsys, "demo-polarization", "--bits",
                        str(tmp_path / "nope.txt"))
    assert code == 1
    # A file that is not UTF-8, or holds a character other than 0 or 1, is
    # named in its error line.
    junk = tmp_path / "junk.txt"
    junk.write_text("01x")
    code, out, err = _run(capsys, "demo-polarization", "--bits", str(junk))
    assert (code, out) == (1, "")
    assert err == (f"dutchbook: error: {junk}: unexpected character 'x' "
                   "in bit data\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"01\xff")
    code, out, err = _run(capsys, "demo-polarization", "--bits", str(binary))
    assert (code, out) == (1, "")
    assert err == (f"dutchbook: error: {binary}: 'utf-8' codec can't decode "
                   "byte 0xff in position 2: invalid start byte\n")
    # NaN and infinities are no JSON, and no value a price can take; each
    # is refused alike after "=" and after a space.
    for value in ("nan", "inf", "-inf", "-nan", "-Infinity"):
        for maverick in ([f"--maverick={value}"], ["--maverick", value]):
            for fmt in ("text", "structured"):
                code, out, err = _run(capsys, "demo-polarization", "--n", "8",
                                      *maverick, "--format", fmt)
                assert (code, out) == (1, "")
                assert err == ("dutchbook: error: maverick value must be "
                               f"finite, got {float(value)}\n")


def test_demo_quantum(capsys):
    code, out, _ = _run(capsys, "demo-quantum", "--format", "structured",
                        str(SAMPLES / "qubit_z_then_x.json"))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "quantum-demo"
    assert report["dim"] == 2
    assert abs(report["first_probs"][0] - 0.5) < 1e-12
    assert abs(report["reflection"][0] - 0.5) < 1e-12
    assert abs(report["reflection"][1] - 0.5) < 1e-12
    assert abs(report["direct"][0] - 1.0) < 1e-12
    assert abs(report["direct"][1] - 0.0) < 1e-12
    # Decohered state is I/2, row-major [re, im] pairs.
    want = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    flat = report["decohered"]
    assert all(abs(a - b) < 1e-12
               for pair, wpair in zip(flat, want) for a, b in zip(pair, wpair))
    assert report["crosscheck"] == report["reflection"]


def test_demo_quantum_text_mentions_probabilities(capsys):
    code, out, _ = _run(capsys, "demo-quantum",
                        str(SAMPLES / "qubit_z_then_x.json"))
    assert code == 0
    assert "reflection P0(j)" in out
    assert "decohered" in out


def test_demo_quantum_zero_probability_outcome(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(_scenario(_Z0))  # state |0><0|: Z outcome 1 never occurs
    code, out, _ = _run(capsys, "demo-quantum", str(path))
    assert code == 0
    assert "outcome 1: probability 0, no posterior state" in out
    code, out, _ = _run(capsys, "demo-quantum", "--format", "structured",
                        str(path))
    report = json.loads(out)
    assert report["post_states"][0] is not None
    assert report["post_states"][1] is None
    assert report["posterior_probs"][1] is None


def test_demo_quantum_tiny_outcome_gets_a_posterior_state(capsys, tmp_path):
    # Outcome 1 has probability ~1e-10: |v><v| with v = u0 + 1e-5 i u1 for
    # the basis u rotated by 0.3 rad, Lueders projectors on u0 and u1 as
    # both instrument and POVM.  Normalizing its image must not end in a
    # traceback.
    import numpy as np

    def pairs(m):
        return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]

    u0 = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
    u1 = np.array([-np.sin(0.3), np.cos(0.3)], dtype=complex)
    v = u0 + 1e-5j * u1
    p0, p1 = pairs(np.outer(u0, u0.conj())), pairs(np.outer(u1, u1.conj()))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dim": 2, "rho0": pairs(np.outer(v, v.conj()) / np.vdot(v, v).real),
        "instrument": [[p0], [p1]], "povm": [p0, p1]}))
    code, out, err = _run(capsys, "demo-quantum", str(path))
    assert (code, err) == (0, "")
    assert "outcome 1: posterior state" in out
    code, out, _ = _run(capsys, "demo-quantum", "--format", "structured",
                        str(path))
    report = json.loads(out)
    assert abs(report["first_probs"][1] - 1e-10) <= 1e-15
    post = [complex(re, im) for re, im in report["post_states"][1]]
    assert max(abs(a - b) for a, b in
               zip(post, np.outer(u1, u1.conj()).reshape(-1))) <= 1e-6


def test_demo_quantum_too_small_outcome_keeps_the_report(capsys, tmp_path):
    # Outcome 1 has probability ~1e-12, just above the zero floor, and its
    # normalized image is not positive in floating point: |v><v| with
    # v = u0 + 1e-6 u1 for the basis u rotated by 0.8 rad, Lueders
    # projectors on u0 and u1 as both instrument and POVM.  That outcome
    # gets a null posterior and the rest of the report stays.  Which angles
    # show it depends on the rounding of the matrix products.
    import numpy as np

    def pairs(m):
        return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]

    u0 = np.array([np.cos(0.8), np.sin(0.8)], dtype=complex)
    u1 = np.array([-np.sin(0.8), np.cos(0.8)], dtype=complex)
    v = u0 + 1e-6 * u1
    p0, p1 = pairs(np.outer(u0, u0.conj())), pairs(np.outer(u1, u1.conj()))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dim": 2, "rho0": pairs(np.outer(v, v.conj()) / np.vdot(v, v).real),
        "instrument": [[p0], [p1]], "povm": [p0, p1]}))
    code, out, err = _run(capsys, "demo-quantum", "--format", "structured",
                          str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert 1e-12 < report["first_probs"][1] <= 2e-12
    assert report["post_states"][0] is not None
    assert report["posterior_probs"][0] is not None
    assert report["post_states"][1] is None
    assert report["posterior_probs"][1] is None
    assert abs(sum(report["reflection"]) - 1) <= 1e-12
    code, out, err = _run(capsys, "demo-quantum", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "outcome 0: posterior state" in lines
    assert (f"outcome 1: probability {report['first_probs'][1]:.10g}, too "
            "small for a posterior state in floating point") in lines
    assert "predictive (decohered) state:" in lines


def test_demo_quantum_overflowing_state_prints_one_error_line(tmp_path):
    # The trace of this finite state overflows; the one error line must
    # not be preceded by numpy warnings, so run the CLI as a user does.
    path = tmp_path / "scenario.json"
    path.write_text(_scenario([[1e308, 0]] * 4))
    done = _spawn(sys.executable, "-W", "default", "-m", "dutchbook.cli",
                  "demo-quantum", str(path))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("dutchbook: error: scenario.rho0: density operator "
                           "trace must be 1, got inf+0j\n")


_HUGE = [1.7e308, 1.7e308]  # finite parts, but |z| overflows a float


@pytest.mark.parametrize("doc, message", [
    ({"rho0": [_HUGE] * 4}, "scenario.rho0: density operator must be Hermitian"),
    ({"rho0": [[0.5, 0], _HUGE, [0, 0], [0.5, 0]]},
     "scenario.rho0: density operator must be Hermitian"),
    ({"instrument": [[[[1, 0], _HUGE, [0, 0], [0, 0]]]]},
     "scenario.instrument: Kraus operators must satisfy sum K†K = identity"),
    ({"povm": [[[0.5, 0], _HUGE, [0, 0], [0.5, 0]], _Z1]},
     "scenario.povm: effect 0 must be Hermitian"),
], ids=["state", "state-entry", "kraus-entry", "effect-entry"])
def test_demo_quantum_huge_entries_print_one_error_line(tmp_path, doc, message):
    # Checks whose residual or absolute value leaves the float range fail
    # as checks; the error is one line, with no traceback or warning.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**json.loads(_scenario([[0.5, 0], [0, 0],
                                                        [0, 0], [0.5, 0]])),
                                **doc}))
    done = _spawn(sys.executable, "-W", "default", "-m", "dutchbook.cli",
                  "demo-quantum", str(path))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"dutchbook: error: {message}\n"


def _pairs(matrix):
    return [[x, 0] for row in matrix for x in row]


def test_demo_quantum_normalizes_the_decohered_state(capsys, tmp_path):
    # The one Kraus operator [[a, b], [b, a]] is off trace preserving by
    # 0.95e-10 per entry of sum K†K - I, within tolerance, but the image of
    # |+> has trace 1 + 1.9e-10.  The decohered state is normalized like a
    # posterior, and the report stands.
    s = math.sqrt(1 + 1.9e-10)
    a, b = (s + 1) / 2, (s - 1) / 2
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dim": 2, "rho0": _pairs([[0.5, 0.5], [0.5, 0.5]]),
        "instrument": [[_pairs([[a, b], [b, a]])]], "povm": [_Z0, _Z1]}))
    code, out, err = _run(capsys, "demo-quantum", "--format", "structured",
                          str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["decohered"] == report["post_states"][0]
    assert report["crosscheck"] == report["direct"] == [0.5, 0.5]


def test_demo_quantum_decohered_state_that_is_not_a_state(capsys, tmp_path):
    # rho0 has eigenvalues -0.9e-10 on |1> and |2>, within the floor; the
    # instrument moves both onto |1>, where -1.8e-10 is below it.
    eye = [[int(r == c) for c in range(3)] for r in range(3)]

    def unit(r, c):
        return _pairs([[int((i, j) == (r, c)) for j in range(3)]
                       for i in range(3)])

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dim": 3,
        "rho0": _pairs([[1 + 1.8e-10, 0, 0], [0, -0.9e-10, 0], [0, 0, -0.9e-10]]),
        "instrument": [[unit(0, 0)], [unit(1, 1), unit(1, 2)]],
        "povm": [_pairs(eye)]}))
    code, out, err = _run(capsys, "demo-quantum", str(path))
    assert (code, out) == (1, "")
    assert err == ("dutchbook: error: decohered state: density operator must "
                   "be positive semidefinite\n")


def test_demo_quantum_bad_file(capsys):
    code, _, err = _run(capsys, "demo-quantum",
                        str(SAMPLES / "coherent_book.json"))
    assert code == 1
    assert "scenario" in err


def test_demo_quantum_error_in_a_computation_exits_one(capsys, monkeypatch):
    import dutchbook.quantum

    def mismatch(*args):
        raise dutchbook.quantum.DimensionMismatchError("dimension mismatch")

    monkeypatch.setattr(dutchbook.quantum, "reflection_prob", mismatch)
    code, out, err = _run(capsys, "demo-quantum",
                          str(SAMPLES / "qubit_z_then_x.json"))
    assert (code, out, err) == (1, "", "dutchbook: error: dimension mismatch\n")


# ---------------------------------------------------------------- text output

EXPECTED_TEXT = ROOT / "tests" / "expected_text"

# The eight sample commands, each with the exit code its recorded text
# output came with.
SAMPLE_COMMANDS = [
    ("audit-coherent", ["audit", "coherent_book.json"], 0),
    ("audit-incoherent", ["audit", "incoherent_book.json"], 2),
    ("audit-product-rule", ["audit", "product_rule_violation.json"], 2),
    ("temporal-reflection",
     ["audit", "--temporal", "temporal_reflection_violation.json"], 2),
    ("temporal-strategy",
     ["audit", "--temporal", "conditioning_strategy.json"], 2),
    ("demo-quantum", ["demo-quantum", "qubit_z_then_x.json"], 0),
    ("demo-reflection", ["demo-reflection"], 2),
    ("demo-polarization", ["demo-polarization", "--n", "4000"], 0),
]


def _sample_argv(argv):
    return [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("name, argv, want_code", SAMPLE_COMMANDS,
                         ids=[c[0] for c in SAMPLE_COMMANDS])
def test_sample_text_output_is_byte_stable(capsys, name, argv, want_code):
    code, out, err = _run(capsys, *_sample_argv(argv), "--format", "text")
    assert (code, err) == (want_code, "")
    assert out.encode("utf-8") == (EXPECTED_TEXT / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name, argv, want_code", SAMPLE_COMMANDS,
                         ids=[c[0] for c in SAMPLE_COMMANDS])
def test_sample_structured_output_is_byte_stable(capsys, name, argv, want_code):
    # The benchmark's recorded reports, read and never written here.
    expected = ROOT / "bench" / "expected" / f"{name}.json"
    code, out, err = _run(capsys, *_sample_argv(argv), "--format", "structured")
    assert (code, err) == (want_code, "")
    assert out.encode("utf-8") == expected.read_bytes()


def test_structured_runs_render_no_text(capsys, monkeypatch):
    import dutchbook.cli

    def refuse(report):
        raise AssertionError(f"text rendered for {report['kind']}")

    monkeypatch.setattr(dutchbook.cli, "_TEXT",
                        dict.fromkeys(dutchbook.cli._TEXT, refuse))
    for _, argv, want_code in SAMPLE_COMMANDS:
        code, out, _ = _run(capsys, *_sample_argv(argv),
                            "--format", "structured")
        assert code == want_code
        assert json.loads(out)["kind"] in dutchbook.cli._TEXT


# ------------------------------------------------------------ lazy modules

# Prints, as the interpreter exits, the `dutchbook` submodules it imported
# and, on a second line, which of `dataclasses` and the code-inspecting
# modules it pulls in were imported.
_REPORT_MODULES = ("import atexit, sys\n"
                   "atexit.register(lambda: print(' '.join(sorted("
                   "m.partition('.')[2] for m in sys.modules "
                   "if m.startswith('dutchbook.'))), ' '.join(sorted("
                   "{'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys())),"
                   " sep='\\n', file=sys.stderr))\n")
_RUN_CLI = "import runpy\nrunpy.run_module('dutchbook.cli', run_name='__main__')"
_AUDIT_MODULES = ["beliefs", "formats", "synchronic", "simplex"]


@pytest.mark.parametrize("statement, argv, code, modules", [
    ("import dutchbook", [], 0, []),
    ("import dutchbook.cli", [], 0, ["cli", "formats", "beliefs"]),
    (_RUN_CLI, ["audit", str(SAMPLES / "coherent_book.json")], 0,
     _AUDIT_MODULES),
    (_RUN_CLI, ["audit", "--temporal",
                str(SAMPLES / "temporal_reflection_violation.json")], 2,
     [*_AUDIT_MODULES, "diachronic"]),
    (_RUN_CLI, ["demo-reflection"], 2, [*_AUDIT_MODULES, "diachronic"]),
    (_RUN_CLI, ["demo-polarization"], 0,
     ["beliefs", "formats", "exchangeable"]),
    (_RUN_CLI, ["demo-quantum", str(SAMPLES / "qubit_z_then_x.json")], 0,
     ["beliefs", "formats", "quantum"]),
    # Importing a submodule directly shows the probe sees it.
    ("import dutchbook.quantum", [], 0, ["quantum"]),
], ids=["import-package", "import-cli", "audit", "audit-temporal",
        "demo-reflection", "demo-polarization", "demo-quantum",
        "import-quantum"])
def test_each_command_loads_only_the_modules_it_runs(statement, argv, code,
                                                     modules):
    done = _spawn(sys.executable, "-c", _REPORT_MODULES + statement, *argv)
    assert done.returncode == code, done.stderr
    ours, code_generation = done.stderr.split("\n")[:2]
    assert ours.split() == sorted(modules)
    assert code_generation.split() == []


def test_every_public_name_resolves():
    for name in dutchbook.__all__:
        assert getattr(dutchbook, name) is not None, name
    assert set(dutchbook.__all__) <= set(dir(dutchbook))
    namespace = {}
    exec("from dutchbook import *", namespace)
    assert set(dutchbook.__all__) <= set(namespace)
    from dutchbook.quantum import DensityOperator
    assert dutchbook.DensityOperator is DensityOperator
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        dutchbook.nowhere


# --------------------------------------------------------------------- report


def test_report_file_matches_structured_output(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "audit", "--format", "structured",
                        "--report", str(out_path),
                        str(SAMPLES / "incoherent_book.json"))
    assert code == 2
    assert out_path.read_text(encoding="utf-8") == out


def test_report_written_even_in_text_mode(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "demo-reflection", "--report", str(out_path))
    assert code == 2
    assert "sure-loss portfolio" in out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["kind"] == "reflection-demo"


def test_report_unwritable_path(capsys, tmp_path):
    code, _, err = _run(capsys, "demo-reflection", "--report",
                        str(tmp_path / "no_dir" / "report.json"))
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------- installed entry


def _console_script() -> list[str]:
    """The installed `dutchbook` script, or, where it is not installed, an
    interpreter calling the `module:function` that pyproject.toml names."""
    exe = shutil.which("dutchbook")
    if exe is not None:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dutchbook"]
    module, function = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {function}; "
            f"sys.exit({function}())"]


def test_console_script_round_trip():
    script = _console_script()
    done = _spawn(*script, "audit", str(SAMPLES / "coherent_book.json"))
    assert done.returncode == 0
    assert "verdict: coherent" in done.stdout
    done = _spawn(*script, "audit", str(SAMPLES / "incoherent_book.json"))
    assert done.returncode == 2
