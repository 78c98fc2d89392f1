"""Finite outcome spaces, events as frozensets of atom indices, and exact
parsing and pmf checks.

Everything here is exact: probabilities and payoffs are `fractions.Fraction`
values, so audit verdicts built on top of this module are tolerance-free.
All types are immutable after construction, compare by value, and are safe
to share across threads.

A belief state is an exact pmf: one `Fraction` mass per atom, in the
space's atom order.  A coherence witness is the solver's point, checked
by the solver.  A temporal model's joint is checked here, by one exact-pmf
check: it scales the masses to integer numerators over the lcm of their
denominators, and refuses a negative numerator or a sum other than that
lcm.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

__all__ = [
    "MAX_ATOMS",
    "MAX_EXACT_CHARS",
    "MAX_EXPONENT",
    "Rational",
    "as_fraction",
    "OutcomeSpace",
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


def _scaled_pmf(pmf) -> tuple[int, list[int]]:
    """`_scaled` of an exact pmf, refusing negative masses and a sum other
    than exactly 1."""
    denom, numerators = _scaled(pmf)
    if any(n < 0 for n in numerators):
        raise ValueError("pmf masses must be nonnegative")
    total = sum(numerators)
    if total != denom:
        raise ValueError(
            f"pmf masses must sum to exactly 1, got {Fraction(total, denom)}")
    return denom, numerators


class _Record:
    """An immutable `__slots__` class: `__init__` sets each field once, and
    the public fields give its equality, hash and repr."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__
                     if name[0] != "_")

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}{self._values()!r}"


class OutcomeSpace(_Record):
    """An ordered finite set of mutually exclusive, exhaustive atoms."""

    __slots__ = ("atoms", "_index")

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not 1 <= len(atoms) <= MAX_ATOMS:
            raise ValueError(f"outcome space must have 1..{MAX_ATOMS} atoms, got {len(atoms)}")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom labels must be unique")
        self.atoms = atoms
        self._index = {label: i for i, label in enumerate(atoms)}

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown atom label {label!r}") from None

    def event(self, labels: Iterable[str]) -> frozenset[int]:
        """The indices of the named atoms."""
        return frozenset(self.index(lab) for lab in labels)

    def labels(self, event: frozenset[int]) -> tuple[str, ...]:
        """The labels of `event`'s atoms, in atom order."""
        return tuple(self.atoms[i] for i in sorted(event))
