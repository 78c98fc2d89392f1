"""In-memory spans around the public calls the benchmark makes into dutchbook.

The tracer replaces module attributes with timing wrappers, so it sees
exactly the names a caller looks up (``dutchbook.cli.check_coherence`` is
the name the CLI resolves, ``dutchbook.synchronic.solve_equality_feasibility``
the one `check_coherence` resolves).  A name that a later version of the
program no longer has is skipped; its layer then reports zero.

A span is ``[name, start, end, parent, op]`` with `time.perf_counter`
seconds (CLOCK_MONOTONIC on Linux, so spans written by a child interpreter
line up with the parent's), the index of the enclosing span or None, and
the benchmark's operation id.  The simplex span also carries the tableau
size and the largest bit length in the returned witness or certificate.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name): the boundaries of each layer as the
# program's own callers see them.
WRAPPED = (
    ("dutchbook.cli", "main", "cli.main"),
    ("dutchbook.cli", "load_audit_file", "formats.load"),
    ("dutchbook.cli", "load_quantum_file", "formats.load"),
    ("dutchbook.cli", "render_structured", "formats.render"),
    ("dutchbook.cli", "check_coherence", "synchronic.check"),
    ("dutchbook.cli", "build_dutch_book", "synchronic.dutch_book"),
    ("dutchbook.cli", "settle", "synchronic.settle"),
    ("dutchbook.synchronic", "solve_equality_feasibility", "simplex.solve"),
    ("dutchbook.cli", "reflection_check", "diachronic.reflection"),
    ("dutchbook.cli", "conditioning_strategy_check", "diachronic.strategy"),
    ("dutchbook.cli", "build_reflection_dutch_book", "diachronic.dutch_book"),
    ("dutchbook.cli", "realize", "diachronic.realize"),
    ("dutchbook.cli", "first_outcome_probs", "quantum.first_probs"),
    ("dutchbook.cli", "post_state", "quantum.post_state"),
    ("dutchbook.cli", "reflection_prob", "quantum.reflection"),
    ("dutchbook.cli", "decohered_state", "quantum.decohere"),
    ("dutchbook.quantum", "reconstruct_state", "quantum.reconstruct"),
    ("dutchbook.cli", "pi_fractional_bits", "exchangeable.pi_bits"),
    ("dutchbook.cli", "scenario_report", "exchangeable.scenario"),
)


def _max_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _simplex_stats(args, result) -> dict:
    rows = args[0]
    returned = result.solution if result.feasible else result.certificate
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "max_bits": _max_bits(returned or ())}


_STATS = {"simplex.solve": _simplex_stats}


class Tracer:
    """Collects spans in memory; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[int, dict] = {}
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str):
        stats = _STATS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if stats is not None:
                self.stats[idx] = stats(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def adopt(self, child: dict, parent: int) -> None:
        """Append spans a child interpreter wrote, under span `parent`."""
        base = len(self.spans)
        for name, start, end, up, _ in child["spans"]:
            self.spans.append([name, start, end,
                               parent if up is None else base + up, self.op])
        for idx, stats in child["stats"].items():
            self.stats[base + int(idx)] = stats

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "stats": self.stats}, fh)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Inclusive and self seconds per span name, summed over all spans.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap (one thread, nested calls).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        entry = totals.setdefault(name, {"incl": 0.0, "self": 0.0})
        entry["incl"] += end - start
        entry["self"] += end - start - inner
    return totals
