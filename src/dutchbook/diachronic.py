"""Two-time coherence: beliefs about future beliefs.

A `TemporalModel` is a t=0 joint distribution over propositions
"my t=tau probability for E will be q" (one cell per candidate value q)
together with E itself, and optionally a base event D whose truth will be
revealed at t=tau.  The tools here:

* detect violations of the constraint P0(E | Ptau(E)=q) = q;
* build the canonical three-transaction sure-loss portfolio against any
  violation: a price book on the four (condition, E) branches whose last
  leg is a trade committed for t=tau, settled by `synchronic.settle`;
* recover strict conditionalization as the special case where one event D
  determines the future value with certainty.

Money at the two times trades at par: a zero interest rate is hard-coded.
Negative realized amounts are agent losses.

A model sums its joint once, in ints: it reads the integer numerators its
`BeliefState` validated over their common denominator, and stores every
value cell's mass, E-mass, D-mass and (E and D)-mass.  The audits read
those sums; each conditional they report is one `Fraction` of two stored
integers, so an audit adds no fractions and builds no events.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .beliefs import (
    BeliefState,
    Event,
    OutcomeSpace,
    Rational,
    as_fraction,
)
from .synchronic import Assessment, Portfolio, PortfolioLeg, PriceBook

__all__ = [
    "PositivityError",
    "NoViolationError",
    "StrategyNotAdoptedError",
    "Violation",
    "TemporalModel",
    "reflection_check",
    "build_reflection_dutch_book",
    "ConditioningResult",
    "conditioning_strategy_check",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class PositivityError(ValueError):
    """The targeted future-value proposition has probability zero."""


class NoViolationError(ValueError):
    """A sure-loss portfolio was requested where no violation exists."""


class StrategyNotAdoptedError(ValueError):
    """The joint does not encode certainty about the post-learning value."""


@dataclass(frozen=True)
class Violation:
    """One future value whose t=0 conditional disagrees with it."""

    q: Fraction
    conditional: Fraction  # t=0 probability of E given the value proposition
    gap: Fraction          # conditional - q


class TemporalModel:
    """t=0 joint over (future value of P(E), truth of E[, truth of D]).

    The value cells partition the space: the marginal over candidate values
    sums to one, and the mass of cell i is the t=0 probability that the
    agent's t=tau value for E will be ``qs[i]``.
    """

    def __init__(
        self,
        qs: Sequence[Rational],
        joint: Mapping[tuple, Rational],
        condition_label: str = "Q",
    ):
        self.qs = tuple(as_fraction(q) for q in qs)
        if len(set(self.qs)) != len(self.qs):
            raise ValueError("candidate future values must be distinct")
        if any(not 0 <= q <= 1 for q in self.qs):
            raise ValueError("candidate future values must lie in [0, 1]")
        key_lens = {len(k) for k in joint}
        if key_lens - {2, 3} or len(key_lens) != 1:
            raise ValueError("joint keys must be uniformly (i, e) or (i, e, d)")
        self.has_base = key_lens == {3}
        self.condition_label = condition_label

        # Each value cell's atoms are contiguous, one per (e, d) branch in
        # this order.
        branches = [
            (e, d, ("E" if e else "~E") + ("" if d is None else ",D" if d else ",~D"))
            for e in (True, False)
            for d in ((True, False) if self.has_base else (None,))
        ]
        labels = []
        index = {}
        cells = []
        e_members = []
        d_members = []
        for i, q in enumerate(self.qs):
            prefix = f"q={q},"
            start = len(labels)
            for e, d, branch in branches:
                idx = len(labels)
                index[(i, e) if d is None else (i, e, d)] = idx
                labels.append(prefix + branch)
                if e:
                    e_members.append(idx)
                if d:
                    d_members.append(idx)
            cells.append(frozenset(range(start, len(labels))))
        space = OutcomeSpace(labels)
        pmf = [_ZERO] * len(labels)
        for key, mass in joint.items():
            if key not in index:
                raise ValueError(f"joint key {key!r} does not match the model shape")
            pmf[index[key]] = as_fraction(mass)
        self.joint = BeliefState(space, tuple(pmf))
        self._cells = tuple(cells)
        self._e = frozenset(e_members)
        self._d = frozenset(d_members)

        # Per value cell: its mass and the masses of E, D and (E and D)
        # within it, as numerators over the joint's common denominator.
        self._scale, numerators = self.joint.scaled_pmf
        mass, e_mass, d_mass, ed_mass = [], [], [], []
        # zip over one iterator repeated yields each cell's atoms in turn.
        cell_atoms = [iter(numerators)] * len(branches)
        if self.has_base:
            for ed, e_nd, ne_d, ne_nd in zip(*cell_atoms):
                mass.append(ed + e_nd + ne_d + ne_nd)
                e_mass.append(ed + e_nd)
                d_mass.append(ed + ne_d)
                ed_mass.append(ed)
        else:
            for e, ne in zip(*cell_atoms):
                mass.append(e + ne)
                e_mass.append(e)
            d_mass = ed_mass = [0] * len(self.qs)
        self._mass = tuple(mass)
        self._e_mass = tuple(e_mass)
        self._d_mass = tuple(d_mass)
        self._ed_mass = tuple(ed_mass)

    @classmethod
    def from_conditionals(
        cls,
        qs: Sequence[Rational],
        masses: Sequence[Rational],
        e_given_q: Sequence[Rational],
        condition_label: str = "Q",
    ) -> TemporalModel:
        """Build a base-event-free model from per-cell mass and P(E | cell)."""
        qs = [as_fraction(q) for q in qs]
        masses = [as_fraction(m) for m in masses]
        conds = [as_fraction(c) for c in e_given_q]
        if not len(qs) == len(masses) == len(conds):
            raise ValueError("qs, masses, and conditionals must align")
        joint = {}
        for i, (m, c) in enumerate(zip(masses, conds)):
            joint[(i, True)] = m * c
            joint[(i, False)] = m * (1 - c)
        return cls(qs, joint, condition_label)

    @property
    def space(self) -> OutcomeSpace:
        return self.joint.space

    def value_event(self, i: int) -> Event:
        """Proposition: the t=tau value equals qs[i]."""
        return Event(self.space, self._cells[i])

    def e_event(self) -> Event:
        return Event(self.space, self._e)

    def d_event(self) -> Event:
        if not self.has_base:
            raise ValueError("model has no base event")
        return Event(self.space, self._d)

    def value_mass(self, i: int) -> Fraction:
        return Fraction(self._mass[i], self._scale)


def reflection_check(m: TemporalModel) -> list[Violation]:
    """Report every positive-mass value cell whose conditional misses it.

    Zero-mass cells are skipped: with nothing staked on the proposition, no
    transaction can be hung on it.  An empty list means the model's t=0
    conditionals match the announced future values exactly.
    """
    violations = []
    for q, cell_mass, cell_e in zip(m.qs, m._mass, m._e_mass):
        # cell_e / cell_mass == q, compared without building the Fraction.
        if cell_mass == 0 or cell_e * q.denominator == q.numerator * cell_mass:
            continue
        cond = Fraction(cell_e, cell_mass)
        violations.append(Violation(q, cond, cond - q))
    return violations


def _three_leg_book(
    cond_mass: Fraction,
    cond_value: Fraction,
    declared: Fraction,
    label: str,
) -> Portfolio:
    """The canonical sure-loss construction against one condition cell.

    The book lives on the branches ``label&E``, ``label&~E``, ``~label&E``
    and ``~label&~E``.  `cond_value` is the t=0 conditional of E given the
    cell, `declared` the price the agent is sure to trade at t=tau once the
    cell is true.  For a positive gap: buy the called-off ticket, buy the
    side bet, sell at t=tau; a negative gap mirrors the outer legs and
    keeps the side bet.
    """
    space = OutcomeSpace([f"{c}{label}&{e}E" for c in ("", "~") for e in ("", "~")])
    cond = space.event([f"{label}&E", f"{label}&~E"])
    e = space.event([f"{label}&E", f"~{label}&E"])
    book = PriceBook(space, (
        Assessment(e, cond_value, cond),
        Assessment(cond, cond_mass),
        Assessment(e, declared, cond),
    ))
    gap = cond_value - declared
    outer, inner = ("buy", "sell") if gap > 0 else ("sell", "buy")
    return Portfolio(book, (
        PortfolioLeg(0, outer, _ONE),
        PortfolioLeg(1, "buy", abs(gap) * _HALF),
        PortfolioLeg(2, inner, _ONE, "t_tau"),
    ))


def build_reflection_dutch_book(m: TemporalModel, q: Rational) -> Portfolio:
    """Sure-loss transactions against a positive-mass cell missing its value.

    The portfolio trades on a four-atom book over the branches (cell true
    or not) x (E true or not), named ``Q&E`` ... ``~Q&~E`` after the model's
    condition label.  Three legs: a called-off ticket on E given the cell
    at the t=0 conditional, a bet on the cell of stake |gap|/2 at its mass,
    and a t=tau trade on E, called off unless the cell is true, at the
    announced value.  `synchronic.settle` gives strictly negative cash on
    all four branches: -(mass+1)*|gap|/2 when the cell is true,
    -mass*|gap|/2 when false.
    """
    q = as_fraction(q)
    try:
        i = m.qs.index(q)
    except ValueError:
        raise ValueError(f"{q} is not among the model's candidate values") from None
    if m._mass[i] == 0:
        raise PositivityError(f"cell for value {q} has probability zero")
    cond = Fraction(m._e_mass[i], m._mass[i])
    if cond == q:
        raise NoViolationError(f"no violation at value {q}; conditional equals it")
    return _three_leg_book(m.value_mass(i), cond, q, m.condition_label)


@dataclass(frozen=True)
class ConditioningResult:
    """Outcome of auditing an adopted learn-D-then-set-q strategy."""

    forced_q: Fraction
    declared_q: Fraction
    portfolio: Portfolio | None

    @property
    def coherent(self) -> bool:
        return self.portfolio is None


def conditioning_strategy_check(
    m: TemporalModel,
    declared_q: Rational | None = None,
) -> ConditioningResult:
    """Audit a strategy "on learning D, my value for E becomes q".

    The strategy must be encoded in the joint: conditional on D, exactly one
    value cell carries all the mass (that cell's value is the declared q;
    an explicit `declared_q` is cross-checked against it).  Coherence then
    forces q to equal the t=0 conditional of E given D; any other declared
    value admits the same three-leg construction with D as the condition.
    """
    if not m.has_base:
        raise StrategyNotAdoptedError("model carries no base event to learn")
    d_mass = sum(m._d_mass)
    if d_mass == 0:
        raise StrategyNotAdoptedError("base event has probability zero")
    # A cell is certain given D when it holds all of D's mass.
    certain = [i for i, mass in enumerate(m._d_mass) if mass == d_mass]
    if len(certain) != 1:
        raise StrategyNotAdoptedError(
            "joint does not make any single future value certain given the base event"
        )
    adopted = m.qs[certain[0]]
    if declared_q is not None and as_fraction(declared_q) != adopted:
        raise StrategyNotAdoptedError(
            f"declared value {declared_q} differs from the encoded value {adopted}"
        )
    forced = Fraction(sum(m._ed_mass), d_mass)
    if forced == adopted:
        return ConditioningResult(forced, adopted, None)
    book = _three_leg_book(Fraction(d_mass, m._scale), forced, adopted, "D")
    return ConditioningResult(forced, adopted, book)
