"""Synchronic coherence audits and explicit Dutch books."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.beliefs import BeliefState, OutcomeSpace
from dutchbook.synchronic import (
    Assessment,
    CoherentBookError,
    Portfolio,
    PortfolioLeg,
    PriceBook,
    build_dutch_book,
    check_coherence,
    settle,
)


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
    amounts = [settle(portfolio, atom) for atom in range(book.space.size)]
    assert max(amounts) < 0
    return amounts


def test_consistent_book_is_coherent_with_exact_witness():
    space = OutcomeSpace(["a", "b", "c", "d"])
    book = _book(space, (["a", "b"], "3/5"), (["a", "b", "c", "d"], 1))
    result = check_coherence(book)
    assert result.coherent
    w = result.witness
    for a in book.assessments:
        assert w.prob(a.event) == a.price


def test_complementary_overpricing_is_incoherent():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "3/5"), (["not_e"], "3/5"))
    result = check_coherence(book)
    assert not result.coherent
    portfolio = build_dutch_book(book, result.certificate)
    amounts = _verify_sure_loss(book, portfolio)
    # Normalized scale: the worst atom loses exactly $1.
    assert min(amounts) == F(-1)
    # Buying both unit tickets costs 1.2 against a certain $1 payout,
    # so at scale 1/5 the net is -$0.2 on every atom.
    fifth = build_dutch_book(book, result.certificate, worst_loss=F(1, 5))
    assert _verify_sure_loss(book, fifth) == [F(-1, 5), F(-1, 5)]
    assert {leg.direction for leg in fifth.legs} == {"buy"}


def test_two_prices_for_one_event():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "1/5"), (["e"], "2/5"))
    result = check_coherence(book)
    assert not result.coherent
    portfolio = build_dutch_book(book, result.certificate)
    _verify_sure_loss(book, portfolio)
    directions = {leg.assessment: leg.direction for leg in portfolio.legs}
    # Directions are the assessor's forced trades: sell the underpriced
    # ticket, buy the overpriced one, losing the spread on every atom.
    assert directions == {0: "sell", 1: "buy"}


def test_product_rule_violation_is_incoherent():
    space = OutcomeSpace(["ed", "nd", "en", "nn"])
    e = ["ed", "en"]
    d = ["ed", "nd"]
    book = _book(space, (["ed"], "3/10"), (d, "1/2"), (e, "7/10", d))
    result = check_coherence(book)
    assert not result.coherent
    portfolio = build_dutch_book(book, result.certificate)
    _verify_sure_loss(book, portfolio)


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
    assert w.prob(a.event & a.condition) == a.price * w.prob(a.condition)


def test_settle_basics():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "3/5"))
    assert settle(Portfolio(book, ()), 0) == 0
    result = check_coherence(book)
    assert result.coherent

    bought = Portfolio(book, (PortfolioLeg(0, "buy", F(1)),))
    assert settle(bought, "e") == F(2, 5)
    assert settle(bought, "not_e") == F(-3, 5)
    with pytest.raises(ValueError):
        settle(bought, 9)
    with pytest.raises(ValueError):  # the book has no assessment 1
        Portfolio(book, (PortfolioLeg(1, "buy", F(1)),))


def test_build_dutch_book_on_coherent_book_is_a_logic_error():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "3/5"))
    result = check_coherence(book)
    with pytest.raises(CoherentBookError):
        build_dutch_book(book, result.certificate)


def test_certificate_book_mismatch_is_rejected():
    space = OutcomeSpace(["e", "not_e"])
    bad = _book(space, (["e"], "3/5"), (["not_e"], "3/5"))
    good = _book(space, (["e"], "3/5"))
    cert = check_coherence(bad).certificate
    with pytest.raises(ValueError):
        build_dutch_book(good, cert)


def test_empty_book_and_bad_prices_are_rejected():
    space = OutcomeSpace(["e", "not_e"])
    with pytest.raises(ValueError):
        check_coherence(PriceBook(space, ()))
    with pytest.raises(ValueError):
        Assessment(space.event(["e"]), F(6, 5))
    with pytest.raises(ValueError):
        Assessment(space.event(["e"]), F(-1, 5))


def test_worst_loss_must_be_positive():
    space = OutcomeSpace(["e", "not_e"])
    book = _book(space, (["e"], "3/5"), (["not_e"], "3/5"))
    cert = check_coherence(book).certificate
    with pytest.raises(ValueError):
        build_dutch_book(book, cert, worst_loss=0)


_price = st.fractions(min_value=0, max_value=1, max_denominator=10)


@st.composite
def _random_book(draw, max_atoms=6, max_assessments=5):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    space = OutcomeSpace([f"w{i}" for i in range(n)])
    count = draw(st.integers(min_value=1, max_value=max_assessments))
    assessments = []
    subsets = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    from dutchbook.beliefs import Event

    for _ in range(count):
        event = Event(space, draw(subsets))
        price = draw(_price)
        if draw(st.booleans()):
            cond = draw(subsets.filter(lambda s: len(s) > 0))
            assessments.append(Assessment(event, price, Event(space, cond)))
        else:
            assessments.append(Assessment(event, price))
    return PriceBook(space, tuple(assessments))


@settings(max_examples=120, deadline=None)
@given(_random_book())
def test_exactly_one_of_witness_or_sure_loss(book):
    result = check_coherence(book)
    if result.coherent:
        assert result.certificate is None
        w = result.witness
        for a in book.assessments:
            if a.condition is None:
                assert w.prob(a.event) == a.price
            else:
                assert w.prob(a.event & a.condition) == a.price * w.prob(a.condition)
    else:
        assert result.witness is None
        portfolio = build_dutch_book(book, result.certificate)
        _verify_sure_loss(book, portfolio)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_books_priced_by_a_measure_are_coherent(data):
    weights = data.draw(st.lists(st.integers(min_value=0, max_value=9),
                                 min_size=2, max_size=6)
                        .filter(lambda ws: sum(ws) > 0))
    n = len(weights)
    space = OutcomeSpace([f"w{i}" for i in range(n)])
    total = sum(weights)
    state = BeliefState(space, tuple(F(w, total) for w in weights))
    from dutchbook.beliefs import Event

    subsets = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    assessments = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        event = Event(space, data.draw(subsets))
        cond = Event(space, data.draw(subsets))
        if state.prob(cond) > 0:
            assessments.append(
                Assessment(event, state.cond_prob(event, cond), cond))
        else:
            assessments.append(Assessment(event, state.prob(event)))
    assert check_coherence(PriceBook(space, tuple(assessments))).coherent
