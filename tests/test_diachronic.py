"""Temporal models: reflection, Goldstein's identity, the three-leg sure
loss, and conditioning."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.beliefs import as_fraction
from dutchbook.diachronic import (
    ConditioningResult,
    NoViolationError,
    PositivityError,
    StrategyNotAdoptedError,
    TemporalModel,
    Violation,
    _three_leg_book,
    build_reflection_dutch_book,
    conditioning_strategy_check,
    reflection_check,
)
from dutchbook.synchronic import Portfolio, PortfolioLeg, settle

WORKED = dict(qs=(F(1, 2), F(1, 4)), masses=(F(2, 5), F(3, 5)),
              e_given_q=(F(7, 10), F(1, 4)))


def _goldstein_sides(m):
    """Goldstein's identity as two sides: the t=0 average of the announced
    values, sum of mass * q over the value cells, and P0(E)."""
    averaged = sum((m.value_mass(i) * q for i, q in enumerate(m.qs)), F(0))
    return averaged, m.joint.prob(m.e_event())


def _all_branches(portfolio):
    """Settlement keyed by (condition true, E true); atoms run C&E ... ~C&~E."""
    keys = [(c, e) for c in (True, False) for e in (True, False)]
    return {key: settle(portfolio, atom)
            for key, atom in zip(keys, portfolio.book.space.atoms)}


def test_reflection_by_construction_has_no_violations():
    m = TemporalModel.from_conditionals(
        qs=(F(1, 5), F(4, 5)), masses=(F(1, 4), F(3, 4)),
        e_given_q=(F(1, 5), F(4, 5)))
    assert reflection_check(m) == []
    assert _goldstein_sides(m) == (F(13, 20), F(13, 20))


def test_worked_example_violation():
    m = TemporalModel.from_conditionals(**WORKED)
    violations = reflection_check(m)
    assert len(violations) == 1
    v = violations[0]
    assert (v.q, v.conditional, v.gap) == (F(1, 2), F(7, 10), F(1, 5))


def test_zero_mass_values_are_skipped():
    m = TemporalModel((F(1, 2), F(9, 10)),
                      {(0, True): F(1, 2), (0, False): F(1, 2),
                       (1, True): F(0), (1, False): F(0)})
    assert reflection_check(m) == []


def test_goldstein_point_mass_and_indicator():
    point = TemporalModel.from_conditionals(
        qs=(F(1, 2),), masses=(F(1),), e_given_q=(F(1, 2),))
    assert _goldstein_sides(point) == (F(1, 2), F(1, 2))

    for p in (F(0), F(1, 3), F(1)):
        m = TemporalModel((F(0), F(1)),
                          {(0, True): F(0), (0, False): p,
                           (1, True): 1 - p, (1, False): F(0)})
        assert _goldstein_sides(m) == (1 - p, 1 - p)


def test_goldstein_requires_reflection():
    # The worked violation: averaged values 2/5*1/2 + 3/5*1/4 = 7/20, while
    # P0(E) = 2/5*7/10 + 3/5*1/4 = 43/100.
    m = TemporalModel.from_conditionals(**WORKED)
    assert reflection_check(m)
    assert _goldstein_sides(m) == (F(7, 20), F(43, 100))


def test_worked_example_book_loses_exact_amounts():
    m = TemporalModel.from_conditionals(**WORKED)
    book = build_reflection_dutch_book(m, F(1, 2))
    assert book.book.space.atoms == ("Q&E", "Q&~E", "~Q&E", "~Q&~E")
    # Called-off E given Q at the conditional, Q at its mass with stake
    # |gap|/2, and E given Q at the announced value, traded at t=tau.
    q_cell = book.book.space.event(["Q&E", "Q&~E"])
    e = book.book.space.event(["Q&E", "~Q&E"])
    assert [(a.event, a.price, a.condition) for a in book.book.assessments] == [
        (e, F(7, 10), q_cell), (q_cell, F(2, 5), None), (e, F(1, 2), q_cell)]
    assert [(leg.assessment, leg.direction, leg.quantity, leg.time)
            for leg in book.legs] == [
        (0, "buy", 1, "t0"), (1, "buy", F(1, 10), "t0"), (2, "sell", 1, "t_tau")]
    branches = _all_branches(book)
    assert branches[(True, True)] == F(-7, 50)
    assert branches[(True, False)] == F(-7, 50)
    assert branches[(False, True)] == F(-1, 25)
    assert branches[(False, False)] == F(-1, 25)


def test_mirrored_gap_loses_the_same_amounts():
    m = TemporalModel.from_conditionals(
        qs=(F(1, 2), F(1, 4)), masses=(F(2, 5), F(3, 5)),
        e_given_q=(F(3, 10), F(1, 4)))
    book = build_reflection_dutch_book(m, F(1, 2))
    branches = _all_branches(book)
    assert branches[(True, True)] == F(-7, 50)
    assert branches[(True, False)] == F(-7, 50)
    assert branches[(False, True)] == F(-1, 25)
    # Directions mirror the positive-gap construction except the side bet.
    assert [leg.direction for leg in book.legs] == ["sell", "buy", "buy"]


def test_book_requires_a_violation_and_positive_mass():
    fine = TemporalModel.from_conditionals(
        qs=(F(1, 2),), masses=(F(1),), e_given_q=(F(1, 2),))
    with pytest.raises(NoViolationError):
        build_reflection_dutch_book(fine, F(1, 2))

    hollow = TemporalModel((F(1, 2), F(1, 3)),
                           {(0, True): F(1, 2), (0, False): F(1, 2),
                            (1, True): F(0), (1, False): F(0)})
    with pytest.raises(PositivityError):
        build_reflection_dutch_book(hollow, F(1, 3))
    with pytest.raises(ValueError):
        build_reflection_dutch_book(hollow, F(9, 10))


def test_realize_empty_portfolio():
    book = build_reflection_dutch_book(
        TemporalModel.from_conditionals(**WORKED), F(1, 2)).book
    assert settle(Portfolio(book, ()), "Q&~E") == 0


def test_timed_leg_validation():
    assert PortfolioLeg(0, "buy", F(1)).time == "t0"
    assert PortfolioLeg(0, "buy", F(1), "t_tau").time == "t_tau"
    with pytest.raises(ValueError):
        PortfolioLeg(0, "buy", F(1), "later")
    with pytest.raises(ValueError):
        PortfolioLeg(0, "hold", F(1), "t0")
    book = build_reflection_dutch_book(
        TemporalModel.from_conditionals(**WORKED), F(1, 2)).book
    with pytest.raises(ValueError, match="called-off"):  # assessment 1 is on Q
        Portfolio(book, (PortfolioLeg(1, "buy", F(1), "t_tau"),))


def test_temporal_model_validation():
    with pytest.raises(ValueError):
        TemporalModel((F(1, 2), F(1, 2)), {(0, True): F(1)})
    with pytest.raises(ValueError):
        TemporalModel((F(3, 2),), {(0, True): F(1)})
    with pytest.raises(ValueError):
        TemporalModel((F(1, 2),), {(0, True): F(1, 2), (0, True, True): F(1, 2)})
    with pytest.raises(ValueError):
        TemporalModel((F(1, 2),), {(4, True): F(1)})
    with pytest.raises(ValueError):  # masses must total 1
        TemporalModel((F(1, 2),), {(0, True): F(1, 3)})
    no_base = TemporalModel((F(1, 2),), {(0, True): F(1, 2), (0, False): F(1, 2)})
    with pytest.raises(ValueError):
        no_base.d_event()


CONDITIONING = {
    (0, True, True): F(3, 10), (0, False, True): F(1, 10),
    (1, True, False): F(1, 5), (1, False, False): F(2, 5),
}


def test_conditioning_mismatch_yields_exact_losses():
    m = TemporalModel((F(1, 2), F(1, 3)), CONDITIONING)
    outcome = conditioning_strategy_check(m, declared_q=F(1, 2))
    assert not outcome.coherent
    assert outcome.forced_q == F(3, 4)
    assert outcome.declared_q == F(1, 2)
    branches = _all_branches(outcome.portfolio)
    # d = 1/4 and P0(D) = 2/5: losses (P0(D)+1)d/2 and P0(D)d/2.
    assert branches[(True, True)] == F(-7, 40)
    assert branches[(True, False)] == F(-7, 40)
    assert branches[(False, True)] == F(-1, 20)
    assert branches[(False, False)] == F(-1, 20)
    assert outcome.portfolio.book.space.atoms == ("D&E", "D&~E", "~D&E", "~D&~E")


def test_conditioning_consistent_strategy_is_confirmed():
    joint = {
        (0, True, True): F(3, 10), (0, False, True): F(1, 10),
        (1, True, False): F(1, 5), (1, False, False): F(2, 5),
    }
    m = TemporalModel((F(3, 4), F(1, 3)), joint)
    outcome = conditioning_strategy_check(m)
    assert outcome.coherent
    assert outcome.forced_q == outcome.declared_q == F(3, 4)


def test_conditioning_strategy_requirements():
    no_base = TemporalModel.from_conditionals(**WORKED)
    with pytest.raises(StrategyNotAdoptedError):
        conditioning_strategy_check(no_base)

    zero_d = TemporalModel((F(1, 2),),
                           {(0, True, True): F(0), (0, False, True): F(0),
                            (0, True, False): F(1, 2), (0, False, False): F(1, 2)})
    with pytest.raises(StrategyNotAdoptedError):
        conditioning_strategy_check(zero_d)

    # Mass on D spread over two value cells: no certainty, no strategy.
    split = TemporalModel((F(1, 2), F(1, 3)),
                          {(0, True, True): F(1, 4), (0, False, True): F(1, 4),
                           (1, True, True): F(1, 4), (1, False, True): F(1, 4)})
    with pytest.raises(StrategyNotAdoptedError):
        conditioning_strategy_check(split)

    m = TemporalModel((F(1, 2), F(1, 3)), CONDITIONING)
    with pytest.raises(StrategyNotAdoptedError):
        conditioning_strategy_check(m, declared_q=F(1, 3))


def test_bijection_case_reflection_and_conditioning_agree():
    # When the value cells are pinned to D / not-D and reflection holds,
    # the strategy audit confirms q = P0(E|D) = the cell's value.
    joint = {
        (0, True, True): F(3, 10), (0, False, True): F(1, 10),
        (1, True, False): F(1, 5), (1, False, False): F(2, 5),
    }
    m = TemporalModel((F(3, 4), F(1, 3)), joint)
    assert reflection_check(m) == []
    outcome = conditioning_strategy_check(m)
    assert outcome.coherent
    assert outcome.forced_q == m.joint.cond_prob(m.e_event(), m.d_event())


_q = st.fractions(min_value=0, max_value=1, max_denominator=12)
_mass = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(_q, _q, st.fractions(min_value=F(1, 12), max_value=F(11, 12),
                            max_denominator=12))
def test_any_gap_loses_on_every_branch(declared, conditional, mass):
    if declared == conditional:
        return
    other = F(1, 3) if declared != F(1, 3) else F(2, 3)
    m = TemporalModel.from_conditionals(
        qs=(declared, other), masses=(mass, 1 - mass),
        e_given_q=(conditional, other))
    book = build_reflection_dutch_book(m, declared)
    branches = _all_branches(book)
    assert all(v < 0 for v in branches.values())
    gap = abs(conditional - declared)
    assert branches[(True, True)] == -(mass + 1) * gap / 2
    assert branches[(True, False)] == -(mass + 1) * gap / 2
    assert branches[(False, True)] == -mass * gap / 2
    assert branches[(False, False)] == -mass * gap / 2
    # The on-branch loss strictly exceeds the off-branch loss.
    assert abs(branches[(True, True)]) > abs(branches[(False, False)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_q, st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=4, unique_by=lambda t: t[0]))
def test_reflection_models_satisfy_goldstein(cells):
    total = sum(w for _, w in cells)
    if total == 0:
        return
    qs = [q for q, _ in cells]
    masses = [F(w, total) for _, w in cells]
    m = TemporalModel.from_conditionals(qs=qs, masses=masses, e_given_q=qs)
    assert reflection_check(m) == []
    expected = sum(mass * q for q, mass in zip(qs, masses))
    assert _goldstein_sides(m) == (expected, expected)


# ------------------------------------------------ reference (quadratic) audits
#
# The two audits below are the earlier cell-by-cell versions, kept verbatim as
# references: each cell's mass and conditional come from a fresh sum over the
# whole joint.  The library versions read every cell from one pass and must
# agree with them exactly.


def _reference_reflection_check(m):
    violations = []
    e = m.e_event()
    for i, q in enumerate(m.qs):
        cell = m.value_event(i)
        if m.joint.prob(cell) == 0:
            continue
        cond = m.joint.cond_prob(e, cell)
        if cond != q:
            violations.append(Violation(q, cond, cond - q))
    return violations


def _reference_conditioning_strategy_check(m, declared_q=None):
    if not m.has_base:
        raise StrategyNotAdoptedError("model carries no base event to learn")
    d_event = m.d_event()
    d_mass = m.joint.prob(d_event)
    if d_mass == 0:
        raise StrategyNotAdoptedError("base event has probability zero")
    certain = [
        i for i in range(len(m.qs))
        if m.joint.cond_prob(m.value_event(i), d_event) == 1
    ]
    if len(certain) != 1:
        raise StrategyNotAdoptedError(
            "joint does not make any single future value certain given the base event"
        )
    adopted = m.qs[certain[0]]
    if declared_q is not None and as_fraction(declared_q) != adopted:
        raise StrategyNotAdoptedError(
            f"declared value {declared_q} differs from the encoded value {adopted}"
        )
    forced = m.joint.cond_prob(m.e_event(), d_event)
    if forced == adopted:
        return ConditioningResult(forced, adopted, None)
    book = _three_leg_book(d_mass, forced, adopted, "D")
    return ConditioningResult(forced, adopted, book)


def _outcome(check, *args):
    try:
        return check(*args)
    except StrategyNotAdoptedError as exc:
        return ("refused", str(exc))


def _assert_audits_match_reference(m, declared):
    assert reflection_check(m) == _reference_reflection_check(m)
    for q in (None, declared):
        got = _outcome(conditioning_strategy_check, m, q)
        want = _outcome(_reference_conditioning_strategy_check, m, q)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert (got.forced_q, got.declared_q) == (want.forced_q, want.declared_q)
        assert (got.portfolio is None) == (want.portfolio is None)
        if want.portfolio is not None:
            assert got.portfolio.book == want.portfolio.book
            assert got.portfolio.legs == want.portfolio.legs


def _model(qs, weights, base, star):
    """A joint over the (cell, e[, d]) keys from integer weights; with a
    `star` cell, every other cell gets no mass on D (a strategy shape)."""
    keys = [(i, e) + ((d,) if base else ())
            for i in range(len(qs)) for e in (True, False)
            for d in ((True, False) if base else (None,))]
    weights = [0 if star is not None and key[2] and key[0] != star else w
               for key, w in zip(keys, weights)]
    total = sum(weights)
    if total == 0:
        weights[0], total = 1, 1
    return TemporalModel(qs, {key: F(w, total) for key, w in zip(keys, weights)})


@st.composite
def _temporal_models(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    qs = draw(st.lists(_q, min_size=k, max_size=k, unique=True))
    base = draw(st.booleans())
    star = draw(st.none() | st.integers(min_value=0, max_value=k - 1)) if base else None
    size = k * (4 if base else 2)
    weights = draw(st.lists(st.integers(min_value=0, max_value=4),
                            min_size=size, max_size=size))
    return _model(qs, weights, base, star), draw(_q)


@settings(max_examples=200, deadline=None)
@given(_temporal_models())
def test_audits_match_reference_on_small_models(drawn):
    m, declared = drawn
    _assert_audits_match_reference(m, declared)


@pytest.mark.parametrize("k", [1, 2, 7, 32, 64, 256])
def test_audits_match_reference_on_seeded_models(k, seed):
    rnd = random.Random(seed * 1000 + k)
    # Reflection holds by construction, some cells empty.
    qs = [F(v, 8 * k) for v in rnd.sample(range(8 * k + 1), k)]
    weights = [max(0, rnd.randint(-2, 8)) for _ in range(k - 1)] + [1]
    m = TemporalModel.from_conditionals(
        qs, [F(w, sum(weights)) for w in weights], qs)
    assert reflection_check(m) == []
    _assert_audits_match_reference(m, qs[0])
    for base in (False, True):
        for star in ((None, rnd.randrange(k)) if base else (None,)):
            denom = 8 * k
            qs = [F(v, denom) for v in rnd.sample(range(denom + 1), k)]
            size = k * (4 if base else 2)
            # About a third of the weights are zero, so some cells are empty.
            weights = [max(0, rnd.randint(-4, 8)) for _ in range(size)]
            m = _model(qs, weights, base, star)
            declared = qs[star] if star is not None else rnd.choice(qs)
            _assert_audits_match_reference(m, declared)
            outcome = _outcome(conditioning_strategy_check, m)
            if star is not None and not isinstance(outcome, tuple) \
                    and outcome.forced_q not in qs:
                # Coherent twin: the starred value set to P0(E | D).
                qs[star] = outcome.forced_q
                twin = _model(qs, weights, base, star)
                assert conditioning_strategy_check(twin).coherent
                _assert_audits_match_reference(twin, outcome.forced_q)


def test_model_and_audits_add_no_fractions(monkeypatch):
    # The joint is validated and summed once, in ints, and the audits read
    # those sums: building a 1024-value strategy model and auditing it adds
    # no two Fractions.
    k, star = 1024, 17
    rnd = random.Random(k)
    qs = [F(v, 8 * k) for v in rnd.sample(range(8 * k + 1), k)]
    weights = [rnd.randint(1, 8) for _ in range(4 * k)]
    adds = []
    for name in ("__add__", "__radd__"):
        def counting(a, b, name=name, original=getattr(F, name)):
            adds.append(name)
            return original(a, b)
        monkeypatch.setattr(F, name, counting)
    m = _model(qs, weights, True, star)
    violations = reflection_check(m)
    outcome = conditioning_strategy_check(m, qs[star])
    build_reflection_dutch_book(m, violations[0].q)
    monkeypatch.undo()
    assert violations and not outcome.coherent
    assert adds == []
