"""Two-time coherence: beliefs about future beliefs.

A `TemporalModel` is a t=0 joint distribution over propositions
"my t=tau probability for E will be q" (one cell per candidate value q)
together with E itself, and optionally a base event D whose truth will be
revealed at t=tau.  The tools here:

* `reflection_check` reports every violation of the constraint
  P0(E | Ptau(E)=q) = q, together with the canonical three-transaction
  sure-loss portfolio against the first one: a price book on the four
  (condition, E) branches whose last leg is a trade committed for t=tau,
  settled by `synchronic.settle`;
* `conditioning_strategy_check` recovers strict conditionalization as the
  special case where one event D determines the future value with
  certainty, and builds the same portfolio with D as the condition.

Money at the two times trades at par: a zero interest rate is hard-coded.
Negative realized amounts are agent losses.

Both constraints are statements about value-cell sums, so a model stores
nothing else.  It reads its joint in one pass, each key's value cell and
E (and D) flags straight from the key, checks in ints that the masses are
nonnegative and sum to exactly 1 (`beliefs._scaled_pmf`), and keeps every
value cell's mass, E-mass, D-mass and (E and D)-mass as numerators over
the masses' common denominator.  The audits read those sums; each
conditional they report is one `Fraction` of two stored integers, so an
audit adds no fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .beliefs import MAX_ATOMS, OutcomeSpace, Rational, _scaled_pmf, as_fraction
from .synchronic import Assessment, Portfolio, PortfolioLeg, PriceBook

__all__ = [
    "StrategyNotAdoptedError",
    "Violation",
    "TemporalModel",
    "ReflectionResult",
    "reflection_check",
    "ConditioningResult",
    "conditioning_strategy_check",
]

_FLAGS = frozenset((True, False))
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class StrategyNotAdoptedError(ValueError):
    """The joint does not encode certainty about the post-learning value."""


class Violation(NamedTuple):
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

    def __init__(self, qs: Sequence[Rational], joint: Mapping[tuple, Rational]):
        self.qs = tuple(as_fraction(q) for q in qs)
        if len(set(self.qs)) != len(self.qs):
            raise ValueError("candidate future values must be distinct")
        if any(not 0 <= q <= 1 for q in self.qs):
            raise ValueError("candidate future values must lie in [0, 1]")
        key_lens = {len(k) for k in joint}
        if key_lens - {2, 3} or len(key_lens) != 1:
            raise ValueError("joint keys must be uniformly (i, e) or (i, e, d)")
        self.has_base = key_lens == {3}

        n = len(self.qs)
        size = n * (4 if self.has_base else 2)
        if not 1 <= size <= MAX_ATOMS:
            raise ValueError(f"outcome space must have 1..{MAX_ATOMS} atoms, got {size}")
        # A key names its value cell and its E (and D) branch by hash and
        # equality, as a dict lookup would: (0, 1) and (0.0, True) are the
        # key (0, True).  A number equal to cell i hashes to i, so the cell
        # is found without a search.
        cells, masses = [], []
        for key, value in joint.items():
            if not (isinstance(key, tuple) and 0 <= (i := hash(key[0])) < n
                    and key[0] == i and _FLAGS.issuperset(key[1:])):
                raise ValueError(f"joint key {key!r} does not match the model shape")
            cells.append((i, key[1], self.has_base and key[2]))
            masses.append(as_fraction(value))

        # Per value cell: its mass and the masses of E, D and (E and D)
        # within it, as numerators over the joint's common denominator.
        self._scale, numerators = _scaled_pmf(masses)
        mass, e_mass, d_mass, ed_mass = ([0] * n for _ in range(4))
        for (i, e, d), x in zip(cells, numerators):
            mass[i] += x
            if e:
                e_mass[i] += x
            if d:
                d_mass[i] += x
                if e:
                    ed_mass[i] += x
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
    ) -> TemporalModel:
        """Build a base-event-free model from per-cell mass and P(E | cell)."""
        masses = [as_fraction(m) for m in masses]
        conds = [as_fraction(c) for c in e_given_q]
        if not len(qs) == len(masses) == len(conds):
            raise ValueError("qs, masses, and conditionals must align")
        joint = {}
        for i, (m, c) in enumerate(zip(masses, conds)):
            joint[(i, True)] = m * c
            joint[(i, False)] = m * (1 - c)
        return cls(qs, joint)

    def value_mass(self, i: int) -> Fraction:
        return Fraction(self._mass[i], self._scale)


class ReflectionResult(NamedTuple):
    """Every reflection violation, and a sure-loss book against the first."""

    violations: list[Violation]
    portfolio: Portfolio | None


def reflection_check(m: TemporalModel) -> ReflectionResult:
    """Report every positive-mass value cell whose conditional misses it.

    Zero-mass cells are skipped: with nothing staked on the proposition, no
    transaction can be hung on it.  No violations means the model's t=0
    conditionals match the announced future values exactly, and the
    portfolio is None.  Otherwise the portfolio is the three-leg book on
    the branches (cell true or not) x (E true or not), named ``Q&E`` ...
    ``~Q&~E``, against the first violating cell: a called-off ticket on E
    given the cell at the t=0 conditional, a bet on the cell of stake
    |gap|/2 at its mass, and a t=tau trade on E, called off unless the
    cell is true, at the announced value.  `synchronic.settle` gives
    strictly negative cash on all four branches: -(mass+1)*|gap|/2 when
    the cell is true, -mass*|gap|/2 when false.
    """
    violations = []
    portfolio = None
    for i, (q, cell_mass, cell_e) in enumerate(zip(m.qs, m._mass, m._e_mass)):
        # cell_e / cell_mass == q, compared without building the Fraction.
        if cell_mass == 0 or cell_e * q.denominator == q.numerator * cell_mass:
            continue
        cond = Fraction(cell_e, cell_mass)
        violations.append(Violation(q, cond, cond - q))
        if portfolio is None:
            portfolio = _three_leg_book(m.value_mass(i), cond, q, "Q")
    return ReflectionResult(violations, portfolio)


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
    side bet, sell at t=tau; a negative gap flips the signs of the outer
    legs' quantities and keeps the side bet.
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
    outer = _ONE if gap > 0 else -_ONE
    return Portfolio(book, (
        PortfolioLeg(0, outer),
        PortfolioLeg(1, abs(gap) * _HALF),
        PortfolioLeg(2, -outer, "t_tau"),
    ))


class ConditioningResult(NamedTuple):
    """Outcome of auditing an adopted learn-D-then-set-q strategy."""

    forced_q: Fraction
    declared_q: Fraction
    portfolio: Portfolio | None


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
