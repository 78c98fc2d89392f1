"""Synchronic coherence audits and explicit Dutch books."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook import synchronic
from dutchbook.beliefs import OutcomeSpace
from dutchbook.simplex import solve_equality_feasibility
from dutchbook.synchronic import (
    Assessment,
    Portfolio,
    PortfolioLeg,
    PriceBook,
    check_coherence,
    settle,
)
from belief_fixtures import cond_prob, prob, reference_settle


def _book(space, *specs):
    """specs: (labels, price) or (labels, price, condition_labels)."""
    assessments = []
    for spec in specs:
        if len(spec) == 2:
            labels, price = spec
            assessments.append(Assessment(space.event(labels), F(price)))
        else:
            labels, price, cond = spec
            assessments.append(
                Assessment(space.event(labels), F(price),
                           condition=space.event(cond)))
    return PriceBook(space, tuple(assessments))


def _verify_sure_loss(book, portfolio):
    assert portfolio.book == book
    amounts = settle(portfolio)
    assert amounts == reference_settle(portfolio)
    assert max(amounts) < 0
    assert min(amounts) == -1  # scaled so the worst atom loses exactly $1
    return amounts


def test_consistent_book_is_coherent_with_exact_witness(monkeypatch):
    # The book of samples/coherent_book.json.  The solver checks its point
    # against every row before returning it; the audit hands it on as is.
    space = OutcomeSpace(["a", "b", "c", "d"])
    book = _book(space, (["a", "b"], "3/5"), (["a", "b", "c", "d"], 1))
    solved = []

    def recording(rows, rhs):
        solved.append(solve_equality_feasibility(rows, rhs))
        return solved[-1]

    monkeypatch.setattr(synchronic, "solve_equality_feasibility", recording)
    result = check_coherence(book)
    assert result.coherent
    w = result.witness
    assert w == solved[0].solution and len(w) == space.size
    for a in book.assessments:
        assert prob(w, a.event) == a.price


def test_complementary_overpricing_is_incoherent():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "3/5"), (["not_e"], "3/5"))
    result = check_coherence(book)
    assert not result.coherent
    portfolio = result.portfolio
    amounts = _verify_sure_loss(book, portfolio)
    # Buying both unit tickets costs 1.2 against a certain $1 payout, a
    # net of -$0.2 on every atom; scaled so the worst atom loses exactly
    # $1, that is five of each.
    assert amounts == (F(-1), F(-1))
    assert [leg.quantity for leg in portfolio.legs] == [5, 5]


def test_two_prices_for_one_event():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "1/5"), (["e"], "2/5"))
    result = check_coherence(book)
    assert not result.coherent
    portfolio = result.portfolio
    _verify_sure_loss(book, portfolio)
    signs = {leg.assessment: leg.quantity > 0 for leg in portfolio.legs}
    # The signs are the assessor's forced trades: sell the underpriced
    # ticket, buy the overpriced one, losing the spread on every atom.
    assert signs == {0: False, 1: True}


def test_product_rule_violation_is_incoherent():
    space = OutcomeSpace(["ed", "nd", "en", "nn"])
    e = ["ed", "en"]
    d = ["ed", "nd"]
    book = _book(space, (["ed"], "3/10"), (d, "1/2"), (e, "7/10", d))
    result = check_coherence(book)
    assert not result.coherent
    _verify_sure_loss(book, result.portfolio)


def test_product_rule_holds_when_prices_agree():
    space = OutcomeSpace(["ed", "nd", "en", "nn"])
    e = ["ed", "en"]
    d = ["ed", "nd"]
    book = _book(space, (["ed"], "7/20"), (d, "1/2"), (e, "7/10", d))
    assert check_coherence(book).coherent


def test_called_off_price_constrains_only_inside_condition():
    # P(E|D) = 1/2 with P(D) left free is satisfiable many ways.
    space = OutcomeSpace(["ed", "nd", "en", "nn"])
    book = _book(space, (["ed", "en"], "1/2", ["ed", "nd"]))
    result = check_coherence(book)
    assert result.coherent
    w = result.witness
    a = book.assessments[0]
    cond = a.condition
    assert prob(w, a.event & cond) == a.price * prob(w, cond)


def test_settle_basics():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "3/5"))
    assert settle(Portfolio(book, ())) == (0, 0)
    result = check_coherence(book)
    assert result.coherent

    bought = Portfolio(book, (PortfolioLeg(0, F(1)),))
    assert dict(zip(space.atoms, settle(bought))) == {"e": F(2, 5), "not_e": F(-3, 5)}
    sold = Portfolio(book, (PortfolioLeg(0, "-3/2"),))
    assert dict(zip(space.atoms, settle(sold))) == {"e": F(-3, 5), "not_e": F(9, 10)}
    with pytest.raises(ValueError):  # the book has no assessment 1
        Portfolio(book, (PortfolioLeg(1, F(1)),))


def test_records_are_immutable_values():
    # Two portfolios built apart from equal parts are one value.
    def portfolio():
        book = _book(OutcomeSpace(["e", "not_e"]), (["e"], "3/5"),
                     (["not_e"], "1/2", ["not_e"]))
        return Portfolio(book, (PortfolioLeg(0, 1), PortfolioLeg(1, -2, "t_tau")))

    first, second = portfolio(), portfolio()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != Portfolio(first.book, (PortfolioLeg(0, 1),))
    book, leg = first.book, first.legs[0]
    for record, field, value in [(first, "legs", ()), (book, "assessments", ()),
                                 (book.assessments[0], "price", F(1)),
                                 (leg, "quantity", F(3)), (book.space, "atoms", ())]:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert first == second and leg.quantity == 1


def test_empty_book_and_bad_prices_are_rejected():
    space = OutcomeSpace(["e", "not_e"])
    with pytest.raises(ValueError):
        check_coherence(PriceBook(space, ()))
    with pytest.raises(ValueError):
        Assessment(space.event(["e"]), F(6, 5))
    with pytest.raises(ValueError):
        Assessment(space.event(["e"]), F(-1, 5))


def test_book_refuses_events_outside_its_space():
    space = OutcomeSpace(["a", "b", "c", "d"])
    inside = frozenset({0, 3})
    PriceBook(space, (Assessment(inside, F(1, 2), inside),))
    PriceBook(space, (Assessment(frozenset(), F(0), inside),))
    for members in ({-1}, {4}, {0, 4}, {-1, 2}):
        outside = frozenset(members)
        for a in (Assessment(outside, F(1, 2)),
                  Assessment(inside, F(1, 2), outside)):
            with pytest.raises(
                    ValueError,
                    match="^event members out of range for the book's space$"):
                PriceBook(space, (a,))


_price = st.fractions(min_value=0, max_value=1, max_denominator=10)


@st.composite
def _random_book(draw, max_atoms=6, max_assessments=5):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    space = OutcomeSpace([f"w{i}" for i in range(n)])
    count = draw(st.integers(min_value=1, max_value=max_assessments))
    assessments = []
    subsets = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    for _ in range(count):
        event = draw(subsets)
        price = draw(_price)
        if draw(st.booleans()):
            cond = draw(subsets.filter(lambda s: len(s) > 0))
            assessments.append(Assessment(event, price, cond))
        else:
            assessments.append(Assessment(event, price))
    return PriceBook(space, tuple(assessments))


@settings(max_examples=120, deadline=None)
@given(_random_book())
def test_exactly_one_of_witness_or_sure_loss(book):
    result = check_coherence(book)
    # Exactly one of the witness and the portfolio is None.
    assert (result.witness is None) != (result.portfolio is None)
    if result.coherent:
        w = result.witness
        for a in book.assessments:
            if a.condition is None:
                assert prob(w, a.event) == a.price
            else:
                cond = a.condition
                assert prob(w, a.event & cond) == a.price * prob(w, cond)
    else:
        _verify_sure_loss(book, result.portfolio)


_quantity = st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool)


@st.composite
def _random_portfolio(draw):
    """Legs of any sign on a random book, a ticket traded any number of
    times; a called-off ticket's legs trade at t0 or t_tau."""
    book = draw(_random_book())
    legs = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=len(book.assessments) - 1))
        called_off = book.assessments[i].condition is not None
        time = draw(st.sampled_from(("t0", "t_tau"))) if called_off else "t0"
        legs.append(PortfolioLeg(i, draw(_quantity), time))
    return Portfolio(book, legs)


@settings(max_examples=150, deadline=None)
@given(_random_portfolio())
def test_settle_matches_reference(portfolio):
    nets = settle(portfolio)
    assert nets == reference_settle(portfolio)
    assert all(type(v) is F for v in nets)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_books_priced_by_a_measure_are_coherent(data):
    weights = data.draw(st.lists(st.integers(min_value=0, max_value=9),
                                 min_size=2, max_size=6)
                        .filter(lambda ws: sum(ws) > 0))
    n = len(weights)
    space = OutcomeSpace([f"w{i}" for i in range(n)])
    total = sum(weights)
    pmf = tuple(F(w, total) for w in weights)
    subsets = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    assessments = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        event = data.draw(subsets)
        cond = data.draw(subsets)
        if prob(pmf, cond) > 0:
            price = cond_prob(pmf, event, cond)
            assessments.append(Assessment(event, price, cond))
        else:
            assessments.append(Assessment(event, prob(pmf, event)))
    assert check_coherence(PriceBook(space, tuple(assessments))).coherent
