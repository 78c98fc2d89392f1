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
``p(E and D) - q * p(D) = 0``, never as a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .beliefs import OutcomeSpace, as_fraction
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Assessment:
    """One announced fair price: unconditional, or called off on a condition."""

    event: frozenset[int]  # atom indices on the space of the book holding it
    price: Fraction
    condition: frozenset[int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "price", as_fraction(self.price))
        if not 0 <= self.price <= 1:
            raise ValueError(f"price must lie in [0, 1], got {self.price}")

    def net_buy_payoff(self, atom: int) -> Fraction:
        """Settlement cash to a buyer of one ticket, price already paid."""
        if self.condition is not None and atom not in self.condition:
            return _ZERO  # refund cancels the price
        won = atom in self.event
        return (_ONE if won else _ZERO) - self.price


@dataclass(frozen=True)
class PriceBook:
    """A set of priced gambles awaiting audit, all over one space."""

    space: OutcomeSpace
    assessments: tuple[Assessment, ...]

    def __post_init__(self):
        object.__setattr__(self, "assessments", tuple(self.assessments))
        n = self.space.size
        for a in self.assessments:
            for event in (a.event, a.condition):
                if event and (min(event) < 0 or max(event) >= n):
                    raise ValueError("event members out of range for the book's space")


@dataclass(frozen=True)
class PortfolioLeg:
    """A signed stake in one ticket: a negative quantity means the agent sells."""

    assessment: int
    quantity: Fraction
    time: str = "t0"  # "t0" | "t_tau": when the agent makes the trade

    def __post_init__(self):
        if self.time not in ("t0", "t_tau"):
            raise ValueError(f"time must be t0 or t_tau, got {self.time!r}")
        object.__setattr__(self, "quantity", as_fraction(self.quantity))
        if not self.quantity:
            raise ValueError("leg quantity must be nonzero")


@dataclass(frozen=True)
class Portfolio:
    """Buy/sell combination of one book's tickets; net payoff computable per atom."""

    book: PriceBook
    legs: tuple[PortfolioLeg, ...]

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        assessments = self.book.assessments
        for leg in self.legs:
            if not 0 <= leg.assessment < len(assessments):
                raise ValueError("leg refers to an assessment outside the book")
            # Settlement reads "no trade" off the condition of a t_tau leg.
            if leg.time == "t_tau" and assessments[leg.assessment].condition is None:
                raise ValueError("a t_tau leg must trade a called-off ticket")


@dataclass(frozen=True)
class CoherenceResult:
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
    rows: list[list[Fraction]] = [[_ONE] * n]
    rhs: list[Fraction] = [_ONE]
    for a in book.assessments:
        rows.append([a.net_buy_payoff(atom) for atom in range(n)])
        rhs.append(_ZERO)
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
    nets = [settle(unit, atom) for atom in range(book.space.size)]
    # A checked certificate nets at most -y0 < 0 on every atom, so this
    # fails only on a bug.
    if max(nets) >= 0:
        raise RuntimeError("certificate does not yield a sure loss on this book")
    scale = _ONE / -min(nets)
    return Portfolio(book, tuple(
        PortfolioLeg(leg.assessment, leg.quantity * scale)
        for leg in unit.legs))


def settle(portfolio: Portfolio, atom: int | str) -> Fraction:
    """Exact net cash to the agent if `atom` is the true world.

    One ledger settles synchronic and diachronic books alike.  A ``t_tau``
    leg is a trade the agent is committed to at the later time, on a
    ticket called off unless its condition holds: off the condition it
    nets zero, exactly as the trade that never happens.  Money at the two
    times trades at par.  A sell leg's negative quantity negates its net.
    """
    book = portfolio.book
    if isinstance(atom, str):
        atom = book.space.index(atom)
    if not 0 <= atom < book.space.size:
        raise ValueError(f"atom index {atom} out of range")
    return sum((leg.quantity * book.assessments[leg.assessment].net_buy_payoff(atom)
                for leg in portfolio.legs), _ZERO)
