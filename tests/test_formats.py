"""Tests for input-file parsing and canonical report rendering."""

import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.formats import (
    AuditDocument,
    AuditFileError,
    load_audit_file,
    load_quantum_file,
    matrix_from_pairs,
    matrix_to_pairs,
    parse_audit_document,
    parse_quantum_scenario,
    render_structured,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _minimal_book(**overrides):
    data = {
        "atoms": ["x", "y"],
        "events": {"E": ["x"]},
        "assessments": [
            {"type": "unconditional", "event": "E", "price": "1/2"},
        ],
    }
    data.update(overrides)
    return data


# -------------------------------------------------------------------- samples


def test_load_sample_books():
    for name, n_assessments in [("coherent_book.json", 2),
                                ("incoherent_book.json", 2),
                                ("product_rule_violation.json", 3)]:
        doc = load_audit_file(str(SAMPLES / name))
        assert doc.temporal is None
        assert len(doc.book.assessments) == n_assessments


def test_load_sample_temporal():
    doc = load_audit_file(str(SAMPLES / "temporal_reflection_violation.json"))
    assert doc.book is None
    assert doc.declared_q is None
    assert doc.temporal.qs == (F(1, 2), F(1, 4))
    assert not doc.temporal.has_base


def test_load_sample_strategy():
    doc = load_audit_file(str(SAMPLES / "conditioning_strategy.json"))
    assert doc.declared_q == F(1, 2)
    assert doc.temporal.has_base


def test_load_sample_quantum():
    sc = load_quantum_file(str(SAMPLES / "qubit_z_then_x.json"))
    assert sc.rho0.dim == 2
    assert sc.instrument.n_outcomes == 2
    assert sc.povm.n_outcomes == 2
    assert np.abs(sc.rho0.matrix - 0.5).max() == 0.0


# ----------------------------------------------------------- audit documents


def test_parse_rejects_non_object():
    with pytest.raises(AuditFileError, match="top level"):
        parse_audit_document([1, 2, 3])


def test_document_needs_some_content():
    with pytest.raises(AuditFileError, match="assessments, a temporal block"):
        parse_audit_document({"atoms": ["x"]})
    with pytest.raises(AuditFileError):
        AuditDocument(None, None, None)


def test_missing_atoms_named_in_error():
    data = _minimal_book()
    del data["atoms"]
    with pytest.raises(AuditFileError, match=r"document\.atoms"):
        parse_audit_document(data)


def test_unknown_event_name_named_in_error():
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": "X", "price": "1/2"}])
    with pytest.raises(AuditFileError,
                       match=r"document\.assessments\[0\]\.event.*'X'"):
        parse_audit_document(data)


def test_float_price_rejected_with_field():
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": "E", "price": 0.6}])
    with pytest.raises(AuditFileError, match=r"assessments\[0\]\.price"):
        parse_audit_document(data)


def test_price_out_of_range_named():
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": "E", "price": "3/2"}])
    with pytest.raises(AuditFileError, match=r"assessments\[0\]"):
        parse_audit_document(data)


def test_unknown_assessment_type():
    data = _minimal_book(assessments=[
        {"type": "mystery", "event": "E", "price": "1/2"}])
    with pytest.raises(AuditFileError, match=r"assessments\[0\]\.type"):
        parse_audit_document(data)


def test_condition_forbidden_on_unconditional():
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": "E", "condition": "E",
         "price": "1/2"}])
    with pytest.raises(AuditFileError, match=r"assessments\[0\]\.condition"):
        parse_audit_document(data)


def test_called_off_requires_condition():
    data = _minimal_book(assessments=[
        {"type": "called_off", "event": "E", "price": "1/2"}])
    with pytest.raises(AuditFileError, match=r"assessments\[0\]\.condition"):
        parse_audit_document(data)


def test_event_as_label_list_and_bad_label():
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": ["x", "y"], "price": "1"}])
    doc = parse_audit_document(data)
    assert doc.book.assessments[0].event.labels() == ("x", "y")
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": ["zzz"], "price": "1"}])
    with pytest.raises(AuditFileError, match=r"assessments\[0\]\.event"):
        parse_audit_document(data)
    data = _minimal_book(assessments=[
        {"type": "unconditional", "event": [["x"]], "price": "1"}])
    with pytest.raises(AuditFileError, match=r"event: expected a list of atom label strings"):
        parse_audit_document(data)


def test_bad_named_event_definition():
    data = _minimal_book(events={"E": "x"})
    with pytest.raises(AuditFileError, match=r"document\.events\.E"):
        parse_audit_document(data)
    with pytest.raises(AuditFileError, match=r"document\.events: expected an object"):
        parse_audit_document(_minimal_book(events=["x"]))
    with pytest.raises(AuditFileError, match=r"document\.events\.E: expected a list of atom label strings"):
        parse_audit_document(_minimal_book(events={"E": [1]}))
    for falsy in (0, "", [], False, None):
        with pytest.raises(AuditFileError, match=r"document\.events: expected an object"):
            parse_audit_document(_minimal_book(events=falsy))
    no_events = _minimal_book(assessments=[
        {"type": "unconditional", "event": ["x"], "price": "1/2"}])
    del no_events["events"]
    for data in (no_events, dict(no_events, events={})):
        assert parse_audit_document(data).book.space.atoms == ("x", "y")


def test_temporal_rows_validated():
    base = {
        "qs": ["1/2"],
        "joint": [{"q": "1/2", "e": True, "mass": "1/2"},
                  {"q": "1/2", "e": False, "mass": "1/2"}],
    }
    ok = parse_audit_document({"temporal": base})
    assert ok.temporal.qs == (F(1, 2),)

    bad = dict(base, joint=base["joint"] + [{"q": "1/2", "e": True,
                                             "mass": "1/4"}])
    with pytest.raises(AuditFileError, match=r"joint\[2\].*duplicate"):
        parse_audit_document({"temporal": bad})

    bad = dict(base, joint=[{"q": "1/3", "e": True, "mass": "1"}])
    with pytest.raises(AuditFileError, match=r"joint\[0\]\.q"):
        parse_audit_document({"temporal": bad})

    bad = dict(base, joint=[{"q": "1/2", "e": "yes", "mass": "1"}])
    with pytest.raises(AuditFileError, match=r"joint\[0\]\.e"):
        parse_audit_document({"temporal": bad})

    bad = dict(base, joint=[{"q": "1/2", "e": True, "d": 1, "mass": "1"}])
    with pytest.raises(AuditFileError, match=r"joint\[0\]\.d"):
        parse_audit_document({"temporal": bad})


def test_temporal_row_values_match_qs_by_value():
    rows = [{"q": "0.5", "e": True, "mass": "1/4"},
            {"q": "2/4", "e": False, "mass": "1/4"},
            {"q": "0.25", "e": True, "mass": "1/8"},
            {"q": "1/4", "e": False, "mass": "3/8"}]
    m = parse_audit_document({"temporal": {"qs": ["1/2", "1/4"],
                                           "joint": rows}}).temporal
    assert m.qs == (F(1, 2), F(1, 4))
    assert (m.value_mass(0), m.value_mass(1)) == (F(1, 2), F(1, 2))
    assert m.joint.pmf == (F(1, 4), F(1, 4), F(1, 8), F(3, 8))

    same_cell = [{"q": "1/2", "e": True, "mass": "1/2"},
                 {"q": "0.5", "e": True, "mass": "1/2"}]
    with pytest.raises(AuditFileError, match=r"joint\[1\]: duplicate"):
        parse_audit_document({"temporal": {"qs": ["1/2"], "joint": same_cell}})


def test_duplicate_temporal_values_refused():
    rows = [{"q": "0.5", "e": True, "mass": "1/2"},
            {"q": "1/2", "e": False, "mass": "1/2"}]
    for qs in (["1/2", "0.5"], ["1/2", "1/3", "2/4"]):
        with pytest.raises(AuditFileError) as exc:
            parse_audit_document({"temporal": {"qs": qs, "joint": rows}})
        assert str(exc.value) == ("document.temporal.joint: candidate "
                                  "future values must be distinct")


def test_temporal_masses_must_sum_to_one():
    data = {"temporal": {"qs": ["1/2"],
                         "joint": [{"q": "1/2", "e": True, "mass": "1/3"}]}}
    with pytest.raises(AuditFileError, match=r"document\.temporal\.joint"):
        parse_audit_document(data)


def test_strategy_validation():
    cells = [{"q": "1/2", "e": True, "d": True, "mass": "1/2"},
             {"q": "1/2", "e": False, "d": False, "mass": "1/2"}]
    data = {"temporal": {"qs": ["1/2"], "joint": cells,
                         "strategy": {"on": "E", "q": "1/2"}}}
    with pytest.raises(AuditFileError, match=r"strategy\.on"):
        parse_audit_document(data)

    no_d = [{"q": "1/2", "e": True, "mass": "1/2"},
            {"q": "1/2", "e": False, "mass": "1/2"}]
    data = {"temporal": {"qs": ["1/2"], "joint": no_d,
                         "strategy": {"on": "D", "q": "1/2"}}}
    with pytest.raises(AuditFileError, match="no d column"):
        parse_audit_document(data)


def test_load_errors_name_the_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(AuditFileError, match="nope.json"):
        load_audit_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(AuditFileError, match="not valid JSON"):
        load_audit_file(str(bad))
    with pytest.raises(AuditFileError, match="not valid JSON"):
        load_quantum_file(str(bad))


def test_load_refuses_nan_and_infinity(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(_minimal_scenario()).replace("0.5", token))
        with pytest.raises(AuditFileError, match=f"not valid JSON .*{token}"):
            load_quantum_file(str(path))
        with pytest.raises(AuditFileError, match="not valid JSON"):
            load_audit_file(str(path))


# ----------------------------------------------------------- quantum scenarios


def _minimal_scenario(**overrides):
    eye_half = [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]
    z0 = [[1, 0], [0, 0], [0, 0], [0, 0]]
    z1 = [[0, 0], [0, 0], [0, 0], [1, 0]]
    data = {"dim": 2, "rho0": eye_half, "instrument": [[z0], [z1]],
            "povm": [z0, z1]}
    data.update(overrides)
    return data


def test_parse_minimal_scenario():
    sc = parse_quantum_scenario(_minimal_scenario())
    assert sc.rho0.dim == 2
    assert sc.instrument.n_outcomes == 2


def test_scenario_dim_validation():
    with pytest.raises(AuditFileError, match=r"scenario\.dim"):
        parse_quantum_scenario(_minimal_scenario(dim=1))
    with pytest.raises(AuditFileError, match=r"scenario\.dim"):
        parse_quantum_scenario(_minimal_scenario(dim="2"))
    with pytest.raises(AuditFileError, match="top level"):
        parse_quantum_scenario("nope")


def test_scenario_rho_validation():
    with pytest.raises(AuditFileError, match=r"scenario\.rho0"):
        parse_quantum_scenario(_minimal_scenario(rho0=[[1, 0]]))
    with pytest.raises(AuditFileError, match=r"scenario\.rho0\[2\]"):
        parse_quantum_scenario(_minimal_scenario(
            rho0=[[1, 0], [0, 0], [0], [0, 0]]))
    # Trace 2: structurally a matrix, but not a state.
    with pytest.raises(AuditFileError, match=r"scenario\.rho0"):
        parse_quantum_scenario(_minimal_scenario(
            rho0=[[1, 0], [0, 0], [0, 0], [1, 0]]))


def test_scenario_instrument_validation():
    with pytest.raises(AuditFileError, match=r"scenario\.instrument"):
        parse_quantum_scenario(_minimal_scenario(instrument=[]))
    with pytest.raises(AuditFileError, match=r"scenario\.instrument\[0\]"):
        parse_quantum_scenario(_minimal_scenario(instrument=[[]]))
    # Only one Z projector: sum K†K is not the identity.
    z0 = [[1, 0], [0, 0], [0, 0], [0, 0]]
    with pytest.raises(AuditFileError, match=r"scenario\.instrument"):
        parse_quantum_scenario(_minimal_scenario(instrument=[[z0]]))


def test_scenario_povm_validation():
    with pytest.raises(AuditFileError, match=r"scenario\.povm"):
        parse_quantum_scenario(_minimal_scenario(povm=[]))
    half = [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]
    with pytest.raises(AuditFileError, match=r"scenario\.povm"):
        parse_quantum_scenario(_minimal_scenario(povm=[half, half, half]))


def test_missing_scenario_fields_named():
    data = _minimal_scenario()
    del data["povm"]
    with pytest.raises(AuditFileError, match=r"scenario\.povm"):
        parse_quantum_scenario(data)


# ------------------------------------------------------------- matrix pairs


def test_matrix_pairs_round_trip(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pairs = matrix_to_pairs(m)
    assert len(pairs) == 9
    back = matrix_from_pairs(pairs, 3, "m")
    assert np.abs(back - m).max() == 0.0


def test_matrix_from_pairs_errors():
    with pytest.raises(AuditFileError, match="m: expected 4"):
        matrix_from_pairs([[1, 0]], 2, "m")
    with pytest.raises(AuditFileError, match=r"m\[1\]"):
        matrix_from_pairs([[1, 0], "x", [0, 0], [1, 0]], 2, "m")
    with pytest.raises(AuditFileError, match=r"m\[0\]"):  # bools are not numbers
        matrix_from_pairs([[True, False], [0, 0], [0, 0], [0, 0]], 2, "m")
    with pytest.raises(AuditFileError, match=r"m\[3\]"):
        matrix_from_pairs([[1, 0], [0, 0], [0, 0], [1, 0, 0]], 2, "m")
    with pytest.raises(AuditFileError, match=r"m\[1\]: number too large"):
        matrix_from_pairs([[1, 0], [0, 10**400], [0, 0], [1, 0]], 2, "m")


# ------------------------------------------------------------------ rendering


def test_render_structured_is_canonical():
    report = {"b": 1, "a": [1, 2], "nested": {"z": None, "y": "s"}}
    text = render_structured(report)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == report
    # Parse-then-render is byte-identical: the format is a fixed point.
    assert render_structured(json.loads(text)) == text


# --------------------------------------------------------------------- fuzzing

# Any JSON value, biased toward the field names, tokens and shapes the two
# document formats use, so that generated documents get past the top-level
# checks and reach the deeper ones.
_KEYS = st.sampled_from([
    "atoms", "events", "assessments", "type", "event", "condition", "price",
    "temporal", "qs", "joint", "q", "e", "d", "mass", "strategy", "on",
    "dim", "rho0", "instrument", "povm",
])
_TOKENS = st.sampled_from([
    "x", "y", "E", "D", "unconditional", "called_off", "0", "1", "1/2",
    "-1/3", "1/0", "0.25", "1e-3", "1e99999", "2/1", "",
])
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-3, max_value=3) | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | _TOKENS | st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=5)
                  | st.dictionaries(_KEYS | st.text(max_size=4), kids,
                                    max_size=5)),
    max_leaves=40,
)


def _or_any(strategy):
    return strategy | _JSON


_LABELS = st.lists(st.sampled_from(["x", "y", "z"]), max_size=4)
_ASSESSMENT = st.fixed_dictionaries(
    {"type": _or_any(st.sampled_from(["unconditional", "called_off"])),
     "event": _or_any(_LABELS | st.just("E")),
     "price": _or_any(_TOKENS)},
    optional={"condition": _or_any(_LABELS | st.just("E"))},
)
_TEMPORAL = st.fixed_dictionaries(
    {"qs": _or_any(st.lists(_TOKENS, max_size=3)),
     "joint": _or_any(st.lists(st.fixed_dictionaries(
         {"q": _or_any(_TOKENS), "e": _or_any(st.booleans()),
          "mass": _or_any(_TOKENS)},
         optional={"d": _or_any(st.booleans())}), max_size=5))},
    optional={"strategy": _or_any(st.fixed_dictionaries(
        {"on": _or_any(st.just("D")), "q": _or_any(_TOKENS)}))},
)
_AUDIT = st.fixed_dictionaries(
    {"atoms": _or_any(st.just(["x", "y", "z"]))},
    optional={"events": _or_any(st.fixed_dictionaries({"E": _LABELS})),
              "assessments": _or_any(st.lists(_ASSESSMENT, max_size=3)),
              "temporal": _or_any(_TEMPORAL)},
)
_NUMBER = (st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0, 1, 0.5, -0.5, 1e308, -1e308, 10**400]))
_PAIRS = st.lists(_or_any(st.lists(_NUMBER, min_size=2, max_size=2)),
                  min_size=4, max_size=4)
_SCENARIO = st.fixed_dictionaries(
    {"dim": _or_any(st.just(2)), "rho0": _or_any(_PAIRS)},
    optional={"instrument": _or_any(st.lists(st.lists(_PAIRS, max_size=2),
                                             max_size=2)),
              "povm": _or_any(st.lists(_PAIRS, max_size=3))},
)


@settings(max_examples=400, deadline=None)
@given(_AUDIT | _JSON)
def test_any_json_audit_document_parses_or_raises_audit_file_error(data):
    try:
        parse_audit_document(data)
    except AuditFileError:
        pass


@settings(max_examples=400, deadline=None)
@given(_SCENARIO | _JSON)
def test_any_json_scenario_parses_or_raises_audit_file_error(data):
    try:
        parse_quantum_scenario(data)
    except AuditFileError:
        pass
