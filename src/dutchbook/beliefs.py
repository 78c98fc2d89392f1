"""Finite outcome spaces, events, and exact belief states.

Everything here is exact: probabilities and payoffs are `fractions.Fraction`
values, so audit verdicts built on top of this module are tolerance-free.
All types are immutable after construction and safe to share across threads.

A `BeliefState` is validated and summed in Python ints: its pmf is scaled
once to integer numerators over one common denominator, the lcm of the
masses' denominators, and every probability it reports is one `Fraction`
built from an integer sum of those numerators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

__all__ = [
    "MAX_ATOMS",
    "MAX_EXACT_CHARS",
    "MAX_EXPONENT",
    "Rational",
    "SpaceMismatchError",
    "UndefinedConditionalError",
    "as_fraction",
    "OutcomeSpace",
    "Event",
    "BeliefState",
]

#: Audit problems are desk scale; spaces beyond this are rejected.
MAX_ATOMS = 1 << 16
#: Longest exact string `as_fraction` parses, and the largest decimal
#: exponent it admits.  Together they keep every parsed value well under
#: Python's int-to-str digit limit and keep the parse itself cheap.
MAX_EXACT_CHARS = 1000
MAX_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*$")

Rational = Union[Fraction, int, str]


class SpaceMismatchError(ValueError):
    """Two objects built over different outcome spaces were combined."""


class UndefinedConditionalError(ValueError):
    """Conditioning on an event of probability zero."""


def as_fraction(value: Rational) -> Fraction:
    """Parse a rational exactly.

    Accepts Fraction, int, or a string in "p/q" or decimal form ("3/5",
    "0.6").  Floats and bools are rejected: binary floats rarely equal the
    decimal the caller had in mind, and exactness is the whole point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_EXACT_CHARS:
            raise ValueError(f"exact string longer than {MAX_EXACT_CHARS} characters")
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond +-{MAX_EXPONENT}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value.strip()!r}") from None
    raise TypeError(
        f"expected Fraction, int, or exact string, got {type(value).__name__}"
    )


def _scaled(entries) -> tuple[int, list[int]]:
    """The lcm ``s`` of the denominators of `entries`, and ``s * entries`` in ints."""
    s = lcm(*(v.denominator for v in entries))
    return s, [v.numerator * (s // v.denominator) for v in entries]


def _check_same_space(a, b) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError("operands belong to different outcome spaces")


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered finite set of mutually exclusive, exhaustive atoms."""

    atoms: tuple[str, ...]

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not 1 <= len(atoms) <= MAX_ATOMS:
            raise ValueError(f"outcome space must have 1..{MAX_ATOMS} atoms, got {len(atoms)}")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be unique")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(atoms)})

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown atom label {label!r}") from None

    def event(self, labels: Iterable[str]) -> Event:
        """Event containing the named atoms."""
        return Event(self, frozenset(self.index(lab) for lab in labels))

    def __eq__(self, other) -> bool:
        return isinstance(other, OutcomeSpace) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)


@dataclass(frozen=True)
class Event:
    """A subset of a space's atoms, closed under Boolean operations."""

    space: OutcomeSpace
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not all(0 <= i < self.space.size for i in self.members):
            raise ValueError("event members out of range for its space")

    def __and__(self, other: Event) -> Event:
        _check_same_space(self, other)
        return Event(self.space, self.members & other.members)

    def __or__(self, other: Event) -> Event:
        _check_same_space(self, other)
        return Event(self.space, self.members | other.members)

    def __invert__(self) -> Event:
        return Event(self.space, frozenset(range(self.space.size)) - self.members)

    def __contains__(self, atom: int) -> bool:
        return atom in self.members

    def labels(self) -> tuple[str, ...]:
        return tuple(self.space.atoms[i] for i in sorted(self.members))


@dataclass(frozen=True)
class BeliefState:
    """An exact probability mass function over a finite outcome space."""

    space: OutcomeSpace
    pmf: tuple[Fraction, ...]

    def __post_init__(self):
        pmf = tuple(as_fraction(p) for p in self.pmf)
        if len(pmf) != self.space.size:
            raise ValueError("pmf must assign mass to every atom")
        denom, numerators = _scaled(pmf)
        if any(n < 0 for n in numerators):
            raise ValueError("pmf masses must be nonnegative")
        total = sum(numerators)
        if total != denom:
            raise ValueError(
                f"pmf masses must sum to exactly 1, got {Fraction(total, denom)}")
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "_scaled_pmf", (denom, tuple(numerators)))

    @property
    def scaled_pmf(self) -> tuple[int, tuple[int, ...]]:
        """``(L, numerators)``: L is the lcm of the masses' denominators, and
        mass i is ``numerators[i] / L``."""
        return self._scaled_pmf

    def _weight(self, e: Event) -> int:
        # The event's probability times L.
        numerators = self._scaled_pmf[1]
        return sum(numerators[i] for i in e.members)

    def prob(self, e: Event) -> Fraction:
        """Probability of the event: the sum of its atoms' masses."""
        _check_same_space(self, e)
        return Fraction(self._weight(e), self._scaled_pmf[0])

    def cond_prob(self, e: Event, d: Event) -> Fraction:
        """Conditional probability prob(e and d) / prob(d), exactly."""
        _check_same_space(self, e)
        _check_same_space(self, d)
        weight_d = self._weight(d)
        if weight_d == 0:
            raise UndefinedConditionalError(
                "conditional probability undefined: condition has probability 0"
            )
        return Fraction(self._weight(e & d), weight_d)
