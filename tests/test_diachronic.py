"""Temporal models: reflection, Goldstein's identity, the three-leg sure
loss, and conditioning."""

import random
from collections import namedtuple
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.beliefs import as_fraction
from dutchbook.diachronic import (
    ConditioningResult,
    ReflectionResult,
    StrategyNotAdoptedError,
    TemporalModel,
    Violation,
    _three_leg_book,
    conditioning_strategy_check,
    reflection_check,
)
from dutchbook.synchronic import Portfolio, PortfolioLeg, settle
from belief_fixtures import (
    cond_prob,
    labelled_conditionals,
    labelled_joint,
    prob,
    reference_settle,
)

WORKED = dict(qs=(F(1, 2), F(1, 4)), masses=(F(2, 5), F(3, 5)),
              e_given_q=(F(7, 10), F(1, 4)))


def _from_conditionals(**kwargs):
    """The model and its labelled reference joint, built from the same
    `from_conditionals` arguments."""
    return (TemporalModel.from_conditionals(**kwargs),
            labelled_conditionals(**kwargs))


def _goldstein_sides(m, ref):
    """Goldstein's identity as two sides: the t=0 average of the announced
    values, sum of mass * q over the model's value cells, and P0(E) summed
    over the reference joint."""
    averaged = sum((m.value_mass(i) * q for i, q in enumerate(m.qs)), F(0))
    return averaged, prob(ref.pmf, ref.e)


def _all_branches(portfolio):
    """Settlement keyed by (condition true, E true); atoms run C&E ... ~C&~E."""
    keys = [(c, e) for c in (True, False) for e in (True, False)]
    nets = settle(portfolio)
    assert nets == reference_settle(portfolio)
    return dict(zip(keys, nets))


def test_reflection_by_construction_has_no_violations():
    m, ref = _from_conditionals(
        qs=(F(1, 5), F(4, 5)), masses=(F(1, 4), F(3, 4)),
        e_given_q=(F(1, 5), F(4, 5)))
    assert reflection_check(m).violations == []
    assert _goldstein_sides(m, ref) == (F(13, 20), F(13, 20))


def test_worked_example_violation():
    m = TemporalModel.from_conditionals(**WORKED)
    violations = reflection_check(m).violations
    assert len(violations) == 1
    v = violations[0]
    assert (v.q, v.conditional, v.gap) == (F(1, 2), F(7, 10), F(1, 5))


def test_zero_mass_values_are_skipped():
    m = TemporalModel((F(1, 2), F(9, 10)),
                      {(0, True): F(1, 2), (0, False): F(1, 2),
                       (1, True): F(0), (1, False): F(0)})
    assert reflection_check(m).violations == []


def test_goldstein_point_mass_and_indicator():
    point = _from_conditionals(
        qs=(F(1, 2),), masses=(F(1),), e_given_q=(F(1, 2),))
    assert _goldstein_sides(*point) == (F(1, 2), F(1, 2))

    for p in (F(0), F(1, 3), F(1)):
        qs = (F(0), F(1))
        joint = {(0, True): F(0), (0, False): p,
                 (1, True): 1 - p, (1, False): F(0)}
        m = TemporalModel(qs, joint)
        assert _goldstein_sides(m, labelled_joint(qs, joint)) == (1 - p, 1 - p)


def test_goldstein_requires_reflection():
    # The worked violation: averaged values 2/5*1/2 + 3/5*1/4 = 7/20, while
    # P0(E) = 2/5*7/10 + 3/5*1/4 = 43/100.
    m, ref = _from_conditionals(**WORKED)
    assert reflection_check(m).violations
    assert _goldstein_sides(m, ref) == (F(7, 20), F(43, 100))


def test_worked_example_book_loses_exact_amounts():
    m = TemporalModel.from_conditionals(**WORKED)
    book = reflection_check(m).portfolio
    assert book.book.space.atoms == ("Q&E", "Q&~E", "~Q&E", "~Q&~E")
    # Called-off E given Q at the conditional, Q at its mass with stake
    # |gap|/2, and E given Q at the announced value, traded at t=tau.
    q_cell = book.book.space.event(["Q&E", "Q&~E"])
    e = book.book.space.event(["Q&E", "~Q&E"])
    assert [(a.event, a.price, a.condition) for a in book.book.assessments] == [
        (e, F(7, 10), q_cell), (q_cell, F(2, 5), None), (e, F(1, 2), q_cell)]
    assert [(leg.assessment, leg.quantity, leg.time) for leg in book.legs] == [
        (0, 1, "t0"), (1, F(1, 10), "t0"), (2, -1, "t_tau")]
    branches = _all_branches(book)
    assert branches[(True, True)] == F(-7, 50)
    assert branches[(True, False)] == F(-7, 50)
    assert branches[(False, True)] == F(-1, 25)
    assert branches[(False, False)] == F(-1, 25)


def test_mirrored_gap_loses_the_same_amounts():
    m = TemporalModel.from_conditionals(
        qs=(F(1, 2), F(1, 4)), masses=(F(2, 5), F(3, 5)),
        e_given_q=(F(3, 10), F(1, 4)))
    book = reflection_check(m).portfolio
    branches = _all_branches(book)
    assert branches[(True, True)] == F(-7, 50)
    assert branches[(True, False)] == F(-7, 50)
    assert branches[(False, True)] == F(-1, 25)
    # Signs mirror the positive-gap construction except the side bet.
    assert [leg.quantity for leg in book.legs] == [-1, F(1, 10), 1]


def test_two_violations_book_against_the_first():
    # The first cell meets its value; the next two miss theirs, and the book
    # is priced at the first violation's conditional and cell mass.
    m, ref = _from_conditionals(
        qs=(F(1, 4), F(1, 2), F(1, 5)), masses=(F(1, 2), F(3, 10), F(1, 5)),
        e_given_q=(F(1, 4), F(7, 10), F(1, 10)))
    result = reflection_check(m)
    assert result == _reference_reflection_check(ref)
    assert [v.q for v in result.violations] == [F(1, 2), F(1, 5)]
    assert [a.price for a in result.portfolio.book.assessments] == [
        F(7, 10), F(3, 10), F(1, 2)]
    assert _all_branches(result.portfolio)[(True, True)] == F(-13, 100)


def test_book_requires_a_violation_and_positive_mass():
    fine = TemporalModel.from_conditionals(
        qs=(F(1, 2),), masses=(F(1),), e_given_q=(F(1, 2),))
    assert reflection_check(fine).portfolio is None


def test_realize_empty_portfolio():
    book = reflection_check(TemporalModel.from_conditionals(**WORKED)).portfolio.book
    assert dict(zip(book.space.atoms, settle(Portfolio(book, ()))))["Q&~E"] == 0


def test_timed_leg_validation():
    assert PortfolioLeg(0, F(1)).time == "t0"
    assert PortfolioLeg(0, F(-1), "t_tau").time == "t_tau"
    with pytest.raises(ValueError):
        PortfolioLeg(0, F(1), "later")
    with pytest.raises(ValueError, match="^leg quantity must be nonzero$"):
        PortfolioLeg(0, F(0), "t0")
    book = reflection_check(TemporalModel.from_conditionals(**WORKED)).portfolio.book
    with pytest.raises(ValueError, match="called-off"):  # assessment 1 is on Q
        Portfolio(book, (PortfolioLeg(1, F(1), "t_tau"),))


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


_CAP_QS = [F(i, 16385) for i in range(16385)]


@pytest.mark.parametrize("qs, joint, message", [
    ((F(1, 2),), {(0, True): F(-1, 2), (0, False): F(3, 2)},
     "pmf masses must be nonnegative"),
    ((F(1, 2),), {(0, True): F(1, 2), (0, False): F(1, 3)},
     "pmf masses must sum to exactly 1, got 5/6"),
    ((F(1, 2),), {(0, True): F(1, 2), (4, True): F(1, 2)},
     "joint key (4, True) does not match the model shape"),
    ((F(1, 2),), {(0, True): F(1, 2), (0, False, True): F(1, 2)},
     "joint keys must be uniformly (i, e) or (i, e, d)"),
    (_CAP_QS, {(0, True, True): F(1)},
     "outcome space must have 1..65536 atoms, got 65540"),
    # Keys are matched by equality, so only the type and the values count.
    ((F(1, 2),), {("0", True): F(1)},
     "joint key ('0', True) does not match the model shape"),
    ((F(1, 2), F(1, 4)), {(2, True): F(1)},
     "joint key (2, True) does not match the model shape"),
    ((F(1, 2),), {(0, True, None): F(1)},
     "joint key (0, True, None) does not match the model shape"),
    ((F(1, 2),), {"ab": F(1)},
     "joint key 'ab' does not match the model shape"),
    ((F(1, 2),), {frozenset({0, True}): F(1)},
     "joint key frozenset({0, True}) does not match the model shape"),
], ids=["negative-mass", "sum-5/6", "unknown-key", "mixed-keys", "over-cap",
        "str-cell", "cell-out-of-range", "none-flag", "str-key", "frozenset"])
def test_temporal_model_refusal_text(qs, joint, message):
    with pytest.raises(ValueError) as info:
        TemporalModel(qs, joint)
    assert str(info.value) == message


def test_temporal_model_accepts_the_cell_cap():
    # 16384 values with a base event make exactly MAX_ATOMS cells.
    m = TemporalModel(_CAP_QS[:-1], {(0, True, True): F(1)})
    assert m.has_base and m.value_mass(0) == 1


_Key = namedtuple("_Key", "cell e")
_JOINT = {(0, True): F(1, 6), (0, False): F(1, 3),
          (1, True): F(1, 4), (1, False): F(1, 4)}
_BASE_JOINT = {(0, True, True): F(1, 2), (0, False, False): F(1, 2)}


def _sums(m):
    return m._scale, m._mass, m._e_mass, m._d_mass, m._ed_mass


def _rekeyed(joint, old, new):
    return {new if key == old else key: mass for key, mass in joint.items()}


@pytest.mark.parametrize("joint, old, new", [
    (_JOINT, (0, True), (0, 1)),
    (_JOINT, (1, False), (1.0, False)),
    (_JOINT, (1, True), (True, True)),
    (_JOINT, (0, True), _Key(0, True)),
    (_BASE_JOINT, (0, True, True), (0, True, 1)),
], ids=["int-flag", "float-cell", "bool-cell", "namedtuple", "int-base-flag"])
def test_joint_keys_match_by_equality(joint, old, new):
    # A key equal to a model key names that key's cell and branches.
    qs = (F(1, 2), F(1, 4))
    assert _sums(TemporalModel(qs, _rekeyed(joint, old, new))) \
        == _sums(TemporalModel(qs, joint))


def test_joint_sums_per_value_cell():
    # (scale, mass, E-mass, D-mass, (E and D)-mass), the last two zero
    # without a base event.
    m = TemporalModel((F(1, 2), F(1, 4)), {
        (0, True, True): F(1, 12), (0, True, False): F(1, 6),
        (0, False, True): F(1, 4), (1, True, True): F(1, 2)})
    assert _sums(m) == (12, (6, 6), (3, 6), (4, 6), (1, 6))
    assert _sums(TemporalModel((F(1, 2), F(1, 4)), _JOINT)) \
        == (12, (6, 6), (2, 3), (0, 0), (0, 0))


def test_joint_is_read_in_order():
    # Keys and masses are checked item by item: the first bad one decides.
    qs = (F(1, 2),)
    with pytest.raises(TypeError):
        TemporalModel(qs, {(0, True): 0.5, (2, True): F(1, 2)})
    with pytest.raises(ValueError, match="does not match the model shape"):
        TemporalModel(qs, {(2, True): F(1, 2), (0, True): 0.5})


CONDITIONING = {
    (0, True, True): F(3, 10), (0, False, True): F(1, 10),
    (1, True, False): F(1, 5), (1, False, False): F(2, 5),
}


def test_conditioning_mismatch_yields_exact_losses():
    m = TemporalModel((F(1, 2), F(1, 3)), CONDITIONING)
    outcome = conditioning_strategy_check(m, declared_q=F(1, 2))
    assert outcome.portfolio is not None
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
    assert outcome.portfolio is None
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
    qs = (F(3, 4), F(1, 3))
    m = TemporalModel(qs, joint)
    assert reflection_check(m).violations == []
    outcome = conditioning_strategy_check(m)
    assert outcome.portfolio is None
    ref = labelled_joint(qs, joint)
    assert outcome.forced_q == cond_prob(ref.pmf, ref.e, ref.d)


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
    book = reflection_check(m).portfolio
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
    m, ref = _from_conditionals(qs=qs, masses=masses, e_given_q=qs)
    assert reflection_check(m).violations == []
    expected = sum(mass * q for q, mass in zip(qs, masses))
    assert _goldstein_sides(m, ref) == (expected, expected)


# ------------------------------------------------ reference (quadratic) audits
#
# The two audits below are the earlier cell-by-cell versions, kept as
# references: each cell's mass and conditional come from a fresh Fraction sum
# over a labelled joint built from the model's inputs (`labelled_joint`).
# The library versions read every cell from the model's integer sums and
# must agree with them exactly.


def _reference_reflection_check(ref):
    violations = []
    book = None
    for q, cell in zip(ref.qs, ref.cells):
        mass = prob(ref.pmf, cell)
        if mass == 0:
            continue
        cond = cond_prob(ref.pmf, ref.e, cell)
        if cond != q:
            violations.append(Violation(q, cond, cond - q))
            if book is None:
                book = _three_leg_book(mass, cond, q, "Q")
    return ReflectionResult(violations, book)


def _reference_conditioning_strategy_check(ref, declared_q=None):
    if ref.d is None:
        raise StrategyNotAdoptedError("model carries no base event to learn")
    d_mass = prob(ref.pmf, ref.d)
    if d_mass == 0:
        raise StrategyNotAdoptedError("base event has probability zero")
    certain = [
        i for i, cell in enumerate(ref.cells)
        if cond_prob(ref.pmf, cell, ref.d) == 1
    ]
    if len(certain) != 1:
        raise StrategyNotAdoptedError(
            "joint does not make any single future value certain given the base event"
        )
    adopted = ref.qs[certain[0]]
    if declared_q is not None and as_fraction(declared_q) != adopted:
        raise StrategyNotAdoptedError(
            f"declared value {declared_q} differs from the encoded value {adopted}"
        )
    forced = cond_prob(ref.pmf, ref.e, ref.d)
    if forced == adopted:
        return ConditioningResult(forced, adopted, None)
    book = _three_leg_book(d_mass, forced, adopted, "D")
    return ConditioningResult(forced, adopted, book)


def _outcome(check, *args):
    try:
        return check(*args)
    except StrategyNotAdoptedError as exc:
        return ("refused", str(exc))


def _assert_audits_match_reference(m, ref, declared):
    assert reflection_check(m) == _reference_reflection_check(ref)
    for q in (None, declared):
        got = _outcome(conditioning_strategy_check, m, q)
        want = _outcome(_reference_conditioning_strategy_check, ref, q)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert (got.forced_q, got.declared_q) == (want.forced_q, want.declared_q)
        assert (got.portfolio is None) == (want.portfolio is None)
        if want.portfolio is not None:
            assert got.portfolio.book == want.portfolio.book
            assert got.portfolio.legs == want.portfolio.legs


def _joint(qs, weights, base, star):
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
    return {key: F(w, total) for key, w in zip(keys, weights)}


def _model(qs, weights, base, star):
    """`_joint`'s model and its labelled reference joint."""
    joint = _joint(qs, weights, base, star)
    return TemporalModel(qs, joint), labelled_joint(qs, joint)


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
    (m, ref), declared = drawn
    _assert_audits_match_reference(m, ref, declared)


@pytest.mark.parametrize("k", [1, 2, 7, 32, 64, 256])
def test_audits_match_reference_on_seeded_models(k, seed):
    rnd = random.Random(seed * 1000 + k)
    # Reflection holds by construction, some cells empty.
    qs = [F(v, 8 * k) for v in rnd.sample(range(8 * k + 1), k)]
    weights = [max(0, rnd.randint(-2, 8)) for _ in range(k - 1)] + [1]
    m, ref = _from_conditionals(
        qs=qs, masses=[F(w, sum(weights)) for w in weights], e_given_q=qs)
    assert reflection_check(m).violations == []
    _assert_audits_match_reference(m, ref, qs[0])
    for base in (False, True):
        for star in ((None, rnd.randrange(k)) if base else (None,)):
            denom = 8 * k
            qs = [F(v, denom) for v in rnd.sample(range(denom + 1), k)]
            size = k * (4 if base else 2)
            # About a third of the weights are zero, so some cells are empty.
            weights = [max(0, rnd.randint(-4, 8)) for _ in range(size)]
            m, ref = _model(qs, weights, base, star)
            declared = qs[star] if star is not None else rnd.choice(qs)
            _assert_audits_match_reference(m, ref, declared)
            outcome = _outcome(conditioning_strategy_check, m)
            if star is not None and not isinstance(outcome, tuple) \
                    and outcome.forced_q not in qs:
                # Coherent twin: the starred value set to P0(E | D).
                qs[star] = outcome.forced_q
                twin, twin_ref = _model(qs, weights, base, star)
                assert conditioning_strategy_check(twin).portfolio is None
                _assert_audits_match_reference(twin, twin_ref, outcome.forced_q)


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
    m = TemporalModel(qs, _joint(qs, weights, True, star))
    reflection = reflection_check(m)
    outcome = conditioning_strategy_check(m, qs[star])
    monkeypatch.undo()
    assert reflection.portfolio is not None and outcome.portfolio is not None
    assert adds == []
