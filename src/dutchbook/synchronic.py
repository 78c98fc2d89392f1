"""Single-time coherence audits of priced gambles.

A book of announced ticket prices is coherent exactly when some probability
measure reproduces every price.  The audit solves that question as an exact
linear feasibility problem over the atoms; an infeasible book yields a
Farkas certificate whose sign pattern is an explicit sure-loss portfolio.

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

from .beliefs import (
    BeliefState,
    Event,
    OutcomeSpace,
    Rational,
    as_fraction,
)
from .simplex import solve_equality_feasibility

__all__ = [
    "CoherentBookError",
    "Assessment",
    "PriceBook",
    "PortfolioLeg",
    "Portfolio",
    "FarkasCertificate",
    "CoherenceResult",
    "check_coherence",
    "build_dutch_book",
    "settle",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CoherentBookError(ValueError):
    """A sure-loss portfolio was requested for a coherent book."""


@dataclass(frozen=True)
class Assessment:
    """One announced fair price: unconditional, or called off on a condition."""

    event: Event
    price: Fraction
    condition: Event | None = None

    def __post_init__(self):
        object.__setattr__(self, "price", as_fraction(self.price))
        if not 0 <= self.price <= 1:
            raise ValueError(f"price must lie in [0, 1], got {self.price}")
        if self.condition is not None and self.condition.space != self.event.space:
            raise ValueError("event and condition must share an outcome space")

    @property
    def is_conditional(self) -> bool:
        return self.condition is not None

    def net_buy_payoff(self, atom: int) -> Fraction:
        """Settlement cash to a buyer of one ticket, price already paid."""
        if self.condition is None:
            won = atom in self.event
            return (_ONE if won else _ZERO) - self.price
        if atom not in self.condition:
            return _ZERO  # refund cancels the price
        won = atom in self.event
        return (_ONE if won else _ZERO) - self.price

    def describe(self) -> str:
        ev = "{" + ",".join(self.event.labels()) + "}"
        if self.condition is None:
            return f"P({ev}) = {self.price}"
        cond = "{" + ",".join(self.condition.labels()) + "}"
        return f"P({ev} | {cond}) = {self.price}"


@dataclass(frozen=True)
class PriceBook:
    """A set of priced gambles awaiting audit, all over one space."""

    space: OutcomeSpace
    assessments: tuple[Assessment, ...]

    def __post_init__(self):
        object.__setattr__(self, "assessments", tuple(self.assessments))
        for a in self.assessments:
            if a.event.space != self.space:
                raise ValueError("all assessments must live on the book's space")


@dataclass(frozen=True)
class PortfolioLeg:
    assessment: int
    direction: str  # "buy" | "sell", from the audited agent's side
    quantity: Fraction
    time: str = "t0"  # "t0" | "t_tau": when the agent makes the trade

    def __post_init__(self):
        if self.direction not in ("buy", "sell"):
            raise ValueError(f"direction must be buy or sell, got {self.direction!r}")
        if self.time not in ("t0", "t_tau"):
            raise ValueError(f"time must be t0 or t_tau, got {self.time!r}")
        object.__setattr__(self, "quantity", as_fraction(self.quantity))
        if self.quantity <= 0:
            raise ValueError("leg quantity must be positive")


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
            if leg.time == "t_tau" and not assessments[leg.assessment].is_conditional:
                raise ValueError("a t_tau leg must trade a called-off ticket")


@dataclass(frozen=True)
class FarkasCertificate:
    """Dual multipliers proving price infeasibility.

    `normalization` multiplies the total-mass-one row; `multipliers` hold one
    entry per assessment, whose sign pattern encodes buy/sell directions.
    """

    normalization: Fraction
    multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class CoherenceResult:
    witness: BeliefState | None
    certificate: FarkasCertificate | None

    @property
    def coherent(self) -> bool:
        return self.witness is not None


def check_coherence(book: PriceBook) -> CoherenceResult:
    """Decide whether some probability measure reproduces every price.

    Coherent books come back with a witness belief state satisfying each
    price constraint exactly; incoherent books come back with a Farkas
    certificate for `build_dutch_book`.
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
        return CoherenceResult(BeliefState(book.space, result.solution), None)
    y = result.certificate
    return CoherenceResult(None, FarkasCertificate(y[0], tuple(y[1:])))


def build_dutch_book(
    book: PriceBook,
    certificate: FarkasCertificate | None,
    worst_loss: Rational = 1,
) -> Portfolio:
    """Turn a Farkas certificate into an explicit sure-loss portfolio.

    The returned legs follow the certificate's sign pattern (positive
    multiplier: buy, negative: sell) and are scaled so the largest per-atom
    loss equals `worst_loss` dollars exactly; every atom settles strictly
    negative for the agent.
    """
    if certificate is None:
        raise CoherentBookError("no sure-loss portfolio exists for a coherent book")
    worst_loss = as_fraction(worst_loss)
    if worst_loss <= 0:
        raise ValueError("worst_loss must be positive")
    quantities = certificate.multipliers
    if len(quantities) != len(book.assessments):
        raise ValueError("certificate does not match the book")
    nets = [
        sum((q * a.net_buy_payoff(atom) for q, a in zip(quantities, book.assessments)),
            _ZERO)
        for atom in range(book.space.size)
    ]
    worst = min(nets)
    if max(nets) >= 0:
        raise ValueError("certificate does not yield a sure loss on this book")
    scale = worst_loss / -worst
    legs = [
        PortfolioLeg(i, "buy" if q > 0 else "sell", abs(q) * scale)
        for i, q in enumerate(quantities)
        if q != 0
    ]
    return Portfolio(book, tuple(legs))


def settle(portfolio: Portfolio, atom: int | str) -> Fraction:
    """Exact net cash to the agent if `atom` is the true world.

    One ledger settles synchronic and diachronic books alike.  A ``t_tau``
    leg is a trade the agent is committed to at the later time, on a
    ticket called off unless its condition holds: off the condition it
    nets zero, exactly as the trade that never happens.  Money at the two
    times trades at par.
    """
    book = portfolio.book
    if isinstance(atom, str):
        atom = book.space.index(atom)
    if not 0 <= atom < book.space.size:
        raise ValueError(f"atom index {atom} out of range")
    total = _ZERO
    for leg in portfolio.legs:
        net = book.assessments[leg.assessment].net_buy_payoff(atom)
        signed = net if leg.direction == "buy" else -net
        total += leg.quantity * signed
    return total
