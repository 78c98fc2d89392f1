"""Single-time coherence audits of priced gambles.

A book of announced ticket prices is coherent exactly when some probability
measure reproduces every price.  The audit solves that question as an exact
linear feasibility problem over the atoms; an infeasible book yields a
Farkas certificate, and the audit turns its sign pattern into an explicit
sure-loss portfolio.

Conventions for tickets (the $1 stake is the unit):

* unconditional ticket on E at price p: pays $1 if E, costs $p;
* called-off ticket on E given D at price q: pays $1 if E and D, refunds
  the $q price if D is false, pays $0 if D true but E false.

Called-off prices enter the feasibility system linearized as
``p(E and D) - q * p(D) = 0``, never as a ratio: a ticket's row holds its
nets on every atom (`_payoffs`).  `settle` sums the same nets, leg by leg,
into a portfolio's net in every world in one pass, in ints over one
common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, NamedTuple

from .beliefs import OutcomeSpace, Rational, _Record, as_fraction
from .simplex import solve_equality_feasibility

__all__ = [
    "Assessment",
    "PriceBook",
    "PortfolioLeg",
    "Portfolio",
    "CoherenceResult",
    "check_coherence",
    "settle",
]


class Assessment(_Record):
    """One announced fair price: unconditional, or called off on a condition."""

    # `event` and `condition` hold atom indices on the space of the book
    # holding the assessment.
    __slots__ = ("event", "price", "condition")

    def __init__(self, event: frozenset[int], price: Rational,
                 condition: frozenset[int] | None = None):
        price = as_fraction(price)
        if not 0 <= price <= 1:
            raise ValueError(f"price must lie in [0, 1], got {price}")
        self.event = event
        self.price = price
        self.condition = condition


def _payoffs(a: Assessment, n: int, lost, won) -> list:
    """One ticket's net to its buyer on each of `n` atoms: `won` on its
    event, `lost` elsewhere in its condition, 0 off it (the refund)."""
    nets = [0] * n
    for atom in range(n) if a.condition is None else a.condition:
        nets[atom] = won if atom in a.event else lost
    return nets


class PriceBook(_Record):
    """A set of priced gambles awaiting audit, all over one space."""

    __slots__ = ("space", "assessments")

    def __init__(self, space: OutcomeSpace, assessments: Iterable[Assessment]):
        self.space = space
        self.assessments = assessments = tuple(assessments)
        n = space.size
        for a in assessments:
            for event in (a.event, a.condition):
                if event and (min(event) < 0 or max(event) >= n):
                    raise ValueError("event members out of range for the book's space")


class PortfolioLeg(_Record):
    """A signed stake in one ticket: a negative quantity means the agent sells."""

    __slots__ = ("assessment", "quantity", "time")  # time: when it trades

    def __init__(self, assessment: int, quantity: Rational, time: str = "t0"):
        if time not in ("t0", "t_tau"):
            raise ValueError(f"time must be t0 or t_tau, got {time!r}")
        quantity = as_fraction(quantity)
        if not quantity:
            raise ValueError("leg quantity must be nonzero")
        self.assessment = assessment
        self.quantity = quantity
        self.time = time


class Portfolio(_Record):
    """Buy/sell combination of one book's tickets; net payoff computable per atom."""

    __slots__ = ("book", "legs")

    def __init__(self, book: PriceBook, legs: Iterable[PortfolioLeg]):
        self.book = book
        self.legs = legs = tuple(legs)
        assessments = book.assessments
        for leg in legs:
            if not 0 <= leg.assessment < len(assessments):
                raise ValueError("leg refers to an assessment outside the book")
            # Settlement reads "no trade" off the condition of a t_tau leg.
            if leg.time == "t_tau" and assessments[leg.assessment].condition is None:
                raise ValueError("a t_tau leg must trade a called-off ticket")


class CoherenceResult(NamedTuple):
    """A witness pmf for a coherent book, or a sure-loss portfolio."""

    witness: tuple[Fraction, ...] | None  # the mass of each atom, in atom order
    portfolio: Portfolio | None

    @property
    def coherent(self) -> bool:
        return self.witness is not None


def check_coherence(book: PriceBook) -> CoherenceResult:
    """Decide whether some probability measure reproduces every price.

    Coherent books come back with the solver's checked point as a witness
    pmf; incoherent books come back with a sure-loss portfolio built from
    the Farkas certificate of the infeasible system.
    """
    if not book.assessments:
        raise ValueError("cannot audit an empty book")
    n = book.space.size
    rows = [[1] * n] + [_payoffs(a, n, -a.price, 1 - a.price) for a in book.assessments]
    rhs = [1] + [0] * len(book.assessments)
    result = solve_equality_feasibility(rows, rhs)
    if result.feasible:
        return CoherenceResult(result.solution, None)
    # The first multiplier is the total-mass-one row's; the rest price the
    # assessments, one each.
    return CoherenceResult(None, _dutch_book(book, result.certificate[1:]))


def _dutch_book(book: PriceBook, quantities: tuple[Fraction, ...]) -> Portfolio:
    """Turn a certificate's price multipliers into a sure-loss portfolio.

    The nonzero multipliers are the legs' signed quantities.  `settle`
    nets them at unit scale, and they are then scaled so the largest
    per-atom loss is exactly $1; every atom settles strictly negative for
    the agent.
    """
    unit = Portfolio(book, tuple(
        PortfolioLeg(i, q) for i, q in enumerate(quantities) if q))
    nets = settle(unit)
    # A checked certificate nets at most -y0 < 0 on every atom, so this
    # fails only on a bug.
    if max(nets) >= 0:
        raise RuntimeError("certificate does not yield a sure loss on this book")
    scale = 1 / -min(nets)
    return Portfolio(book, tuple(
        PortfolioLeg(leg.assessment, leg.quantity * scale)
        for leg in unit.legs))


def settle(portfolio: Portfolio) -> tuple[Fraction, ...]:
    """Exact net cash to the agent in each world, in atom order.

    One ledger settles synchronic and diachronic books alike.  A ``t_tau``
    leg is a trade the agent is committed to at the later time, on a
    ticket called off unless its condition holds: off the condition it
    nets zero, exactly as the trade that never happens.  Money at the two
    times trades at par.  A sell leg's negative quantity negates its net.
    """
    book = portfolio.book
    legs = [(leg.quantity, book.assessments[leg.assessment]) for leg in portfolio.legs]
    denom = lcm(*(q.denominator * a.price.denominator for q, a in legs))
    nets = [0] * book.space.size
    for q, a in legs:
        p = a.price
        k = q.numerator * (denom // (q.denominator * p.denominator))
        won, lost = k * (p.denominator - p.numerator), -k * p.numerator
        nets = list(map(add, nets, _payoffs(a, len(nets), lost, won)))
    return tuple(Fraction(v, denom) for v in nets)
