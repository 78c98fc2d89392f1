"""Audit and scenario file parsing, plus canonical report rendering.

Input files are JSON documents.  A betting audit file lists atoms, named
events as atom-label lists, and assessments {type, event, condition?,
price}; rationals are written exactly as "p/q" or decimal strings.  A
`temporal` block extends the same file with candidate future values, a
joint pmf over (q, E[, D]) cells, and an optional declared strategy.
A quantum scenario file carries a dimension, a state, an instrument, and
a POVM, with every matrix encoded as a row-major list of [re, im] pairs
and read into rows of Python `complex`.

Reports are plain dicts rendered canonically (sorted keys, two-space
indent, trailing newline), so parsing an emitted report and re-rendering
it is byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, NamedTuple

from .beliefs import OutcomeSpace, as_fraction

if TYPE_CHECKING:
    from .diachronic import TemporalModel
    from .synchronic import PriceBook

__all__ = [
    "AuditFileError",
    "AuditDocument",
    "QuantumScenario",
    "parse_audit_document",
    "load_audit_file",
    "parse_quantum_scenario",
    "load_quantum_file",
    "matrix_to_pairs",
    "render_structured",
]


class AuditFileError(ValueError):
    """A malformed input file; the message names the offending field."""


def _fail(field: str, problem: str):
    raise AuditFileError(f"{field}: {problem}")


def _get(mapping: Any, key: str, field: str) -> Any:
    if not isinstance(mapping, dict):
        _fail(field, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        _fail(f"{field}.{key}", "missing required field")
    return mapping[key]


def _as_frac(value: Any, field: str) -> Fraction:
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise AuditFileError(f"{field}: {exc}") from None


def _event_from_labels(labels: list, space: OutcomeSpace, field: str) -> frozenset[int]:
    if not all(isinstance(a, str) for a in labels):
        _fail(field, "expected a list of atom label strings")
    try:
        event = space.event(labels)
    except (KeyError, ValueError) as exc:
        raise AuditFileError(f"{field}: {exc}") from None
    if len(event) != len(labels):  # a label is listed twice
        seen = set()
        for label in labels:
            if label in seen:
                _fail(field, f"atom label {label!r} listed twice")
            seen.add(label)
    return event


def _resolve_event(ref: Any, space: OutcomeSpace,
                   named: dict[str, frozenset[int]], field: str) -> frozenset[int]:
    if isinstance(ref, str):
        if ref not in named:
            _fail(field, f"unknown event name {ref!r}")
        return named[ref]
    if isinstance(ref, list):
        return _event_from_labels(ref, space, field)
    _fail(field, "expected an event name or a list of atom labels")


class AuditDocument:
    """Parsed audit file: a price book, a temporal model, or both."""

    __slots__ = ("book", "temporal", "declared_q")

    def __init__(self, book: PriceBook | None, temporal: TemporalModel | None,
                 declared_q: Fraction | None):
        # `declared_q` comes from the temporal strategy block, if any.
        if book is None and temporal is None:
            raise AuditFileError(
                "document: needs assessments, a temporal block, or both")
        self.book = book
        self.temporal = temporal
        self.declared_q = declared_q


def _parse_book(data: dict, field: str) -> PriceBook:
    from .synchronic import Assessment, PriceBook

    atoms = _get(data, "atoms", field)
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        _fail(f"{field}.atoms", "expected a list of atom label strings")
    try:
        space = OutcomeSpace(atoms)
    except ValueError as exc:
        raise AuditFileError(f"{field}.atoms: {exc}") from None

    events = data.get("events", {})
    if not isinstance(events, dict):
        _fail(f"{field}.events", "expected an object of named atom-label lists")
    named: dict[str, frozenset[int]] = {}
    for name, labels in events.items():
        if not isinstance(labels, list):
            _fail(f"{field}.events.{name}", "expected a list of atom labels")
        named[name] = _event_from_labels(labels, space, f"{field}.events.{name}")

    raw = data.get("assessments")
    if not isinstance(raw, list) or not raw:
        _fail(f"{field}.assessments", "expected a non-empty list")
    assessments = []
    for i, entry in enumerate(raw):
        here = f"{field}.assessments[{i}]"
        kind = _get(entry, "type", here)
        event = _resolve_event(_get(entry, "event", here), space, named,
                               f"{here}.event")
        price = _as_frac(_get(entry, "price", here), f"{here}.price")
        if kind == "unconditional":
            if "condition" in entry:
                _fail(f"{here}.condition", "not allowed on an unconditional price")
            condition = None
        elif kind == "called_off":
            condition = _resolve_event(_get(entry, "condition", here), space,
                                       named, f"{here}.condition")
        else:
            _fail(f"{here}.type", f"expected unconditional or called_off, got {kind!r}")
        try:
            assessments.append(Assessment(event, price, condition))
        except ValueError as exc:
            raise AuditFileError(f"{here}: {exc}") from None
    return PriceBook(space, tuple(assessments))


def _parse_temporal(data: dict, field: str) -> tuple[TemporalModel, Fraction | None]:
    from .diachronic import TemporalModel

    raw_qs = _get(data, "qs", field)
    if not isinstance(raw_qs, list) or not raw_qs:
        _fail(f"{field}.qs", "expected a non-empty list of rationals")
    qs = [_as_frac(q, f"{field}.qs[{i}]") for i, q in enumerate(raw_qs)]
    # First index of each value, as `qs.index` gives; Fractions hash by
    # value, so "1/2" and "0.5" share one entry.
    position: dict[Fraction, int] = {}
    for i, q in enumerate(qs):
        position.setdefault(q, i)
    # A row spelling its q as one of the qs strings already parsed is
    # looked up by that string; any other spelling is parsed and checked.
    spelled = {raw: position[q] for raw, q in zip(raw_qs, qs)}

    raw_rows = _get(data, "joint", field)
    if not isinstance(raw_rows, list) or not raw_rows:
        _fail(f"{field}.joint", "expected a non-empty list of mass rows")
    joint: dict[tuple, Fraction] = {}
    for i, row in enumerate(raw_rows):
        here = f"{field}.joint[{i}]"
        raw_q = _get(row, "q", here)
        cell = spelled.get(raw_q) if isinstance(raw_q, str) else None
        if cell is None:
            q = _as_frac(raw_q, f"{here}.q")
            cell = position.get(q)
            if cell is None:
                _fail(f"{here}.q", f"value {q} is not listed in qs")
        e = _get(row, "e", here)
        if not isinstance(e, bool):
            _fail(f"{here}.e", "expected true or false")
        mass = _as_frac(_get(row, "mass", here), f"{here}.mass")
        key: tuple = (cell, e)
        if "d" in row:
            if not isinstance(row["d"], bool):
                _fail(f"{here}.d", "expected true or false")
            key = (cell, e, row["d"])
        if key in joint:
            _fail(here, "duplicate (q, e, d) cell")
        joint[key] = mass
    try:
        model = TemporalModel(qs, joint)
    except ValueError as exc:
        raise AuditFileError(f"{field}.joint: {exc}") from None

    declared_q = None
    if "strategy" in data:
        here = f"{field}.strategy"
        on = _get(data["strategy"], "on", here)
        if on != "D":
            _fail(f"{here}.on", f'only the base event "D" can be learned, got {on!r}')
        if not model.has_base:
            _fail(here, "strategy declared but the joint has no d column")
        declared_q = _as_frac(_get(data["strategy"], "q", here), f"{here}.q")
    return model, declared_q


def parse_audit_document(data: Any) -> AuditDocument:
    if not isinstance(data, dict):
        _fail("document", "top level must be a JSON object")
    book = _parse_book(data, "document") if "assessments" in data else None
    temporal, declared_q = (
        _parse_temporal(data["temporal"], "document.temporal")
        if "temporal" in data else (None, None)
    )
    return AuditDocument(book, temporal, declared_q)


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _load_json(path: str) -> Any:
    """Read one JSON document; NaN and Infinity tokens are refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise AuditFileError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise AuditFileError(f"{path}: not valid JSON ({exc})") from None


def load_audit_file(path: str) -> AuditDocument:
    return parse_audit_document(_load_json(path))


def matrix_to_pairs(matrix) -> list[list[float]]:
    """Row-major [re, im] pairs for one square complex matrix, given as a
    sequence of rows."""
    return [[float(z.real), float(z.imag)] for row in matrix for z in row]


_NUMBER = (int, float)  # not bool: JSON true and false are not numbers


def _matrix_from_pairs(pairs: Any, dim: int, field: str) -> tuple:
    """The dim x dim matrix of row-major [re, im] pairs, as rows of
    `complex`."""
    if not isinstance(pairs, list) or len(pairs) != dim * dim:
        _fail(field, f"expected {dim * dim} [re, im] pairs (row-major)")
    values = []
    for i, pair in enumerate(pairs):
        if (not isinstance(pair, list) or len(pair) != 2
                or type(pair[0]) not in _NUMBER or type(pair[1]) not in _NUMBER):
            _fail(f"{field}[{i}]", "expected an [re, im] pair of numbers")
        try:
            values.append(complex(pair[0], pair[1]))
        except OverflowError:
            _fail(f"{field}[{i}]", "number too large for a float")
    return tuple(tuple(values[r:r + dim]) for r in range(0, dim * dim, dim))


class QuantumScenario(NamedTuple):
    """Two-time measurement setup: initial state, instrument, POVM (from
    `dutchbook.quantum`, which loads on the first scenario parsed)."""

    rho0: Any
    instrument: Any
    povm: Any


def parse_quantum_scenario(data: Any) -> QuantumScenario:
    from .quantum import DensityOperator, Instrument, Povm, QuantumError

    if not isinstance(data, dict):
        _fail("scenario", "top level must be a JSON object")
    dim = _get(data, "dim", "scenario")
    if not isinstance(dim, int) or dim < 2:
        _fail("scenario.dim", f"expected an integer >= 2, got {dim!r}")

    rho0_matrix = _matrix_from_pairs(_get(data, "rho0", "scenario"), dim,
                                     "scenario.rho0")
    try:
        rho0 = DensityOperator(rho0_matrix)
    except ValueError as exc:
        raise AuditFileError(f"scenario.rho0: {exc}") from None

    raw_ins = _get(data, "instrument", "scenario")
    if not isinstance(raw_ins, list) or not raw_ins:
        _fail("scenario.instrument", "expected a non-empty list of outcomes")
    outcomes = []
    for i, kraus_list in enumerate(raw_ins):
        here = f"scenario.instrument[{i}]"
        if not isinstance(kraus_list, list) or not kraus_list:
            _fail(here, "expected a non-empty list of Kraus matrices")
        outcomes.append(tuple(
            _matrix_from_pairs(k, dim, f"{here}[{j}]")
            for j, k in enumerate(kraus_list)
        ))
    try:
        instrument = Instrument(tuple(outcomes))
    except (ValueError, QuantumError) as exc:
        raise AuditFileError(f"scenario.instrument: {exc}") from None

    raw_povm = _get(data, "povm", "scenario")
    if not isinstance(raw_povm, list) or not raw_povm:
        _fail("scenario.povm", "expected a non-empty list of effects")
    effects = tuple(
        _matrix_from_pairs(e, dim, f"scenario.povm[{j}]")
        for j, e in enumerate(raw_povm)
    )
    try:
        povm = Povm(effects)
    except (ValueError, QuantumError) as exc:
        raise AuditFileError(f"scenario.povm: {exc}") from None
    return QuantumScenario(rho0, instrument, povm)


def load_quantum_file(path: str) -> QuantumScenario:
    return parse_quantum_scenario(_load_json(path))


def render_structured(report: dict) -> str:
    """Canonical rendering: sorted keys, indent 2, trailing newline.

    Rendering the `json.loads` of its output reproduces it byte for byte.
    """
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
