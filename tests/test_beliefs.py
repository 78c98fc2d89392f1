"""Exact substrate: spaces, events, belief states."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.beliefs import (
    MAX_ATOMS,
    MAX_EXACT_CHARS,
    MAX_EXPONENT,
    BeliefState,
    Event,
    OutcomeSpace,
    SpaceMismatchError,
    UndefinedConditionalError,
    as_fraction,
)


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(F(3, 5)) == F(3, 5)
    assert as_fraction(2) == F(2)
    assert as_fraction("3/5") == F(3, 5)
    assert as_fraction("0.6") == F(3, 5)
    assert as_fraction(" 1/4 ") == F(1, 4)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.6)


def test_as_fraction_boundary():
    with pytest.raises(TypeError):  # bool is an int subclass, not a number here
        as_fraction(True)
    with pytest.raises(ValueError):  # not ZeroDivisionError
        as_fraction("1/0")
    assert as_fraction(f"1e-{MAX_EXPONENT}") == F(1, 10 ** MAX_EXPONENT)
    with pytest.raises(ValueError):
        as_fraction(f"1e-{MAX_EXPONENT + 1}")
    with pytest.raises(ValueError):  # underscores do not hide the exponent
        as_fraction("1e2_0000")
    with pytest.raises(ValueError):
        as_fraction("1" * (MAX_EXACT_CHARS + 1))


def test_space_requires_unique_labels():
    with pytest.raises(ValueError):
        OutcomeSpace(["a", "a"])
    with pytest.raises(ValueError):
        OutcomeSpace([])


def test_space_size_cap():
    OutcomeSpace(str(i) for i in range(MAX_ATOMS))  # at the cap: fine
    with pytest.raises(ValueError):
        OutcomeSpace(str(i) for i in range(MAX_ATOMS + 1))


def test_event_algebra_and_labels():
    space = OutcomeSpace(["a", "b", "c", "d"])
    e = space.event(["a", "b"])
    d = space.event(["b", "c"])
    assert (e & d).members == {1}
    assert (e | d).members == {0, 1, 2}
    assert (~e).members == {2, 3}
    assert 0 in e and 2 not in e
    assert (e & d).labels() == ("b",)
    with pytest.raises(ValueError):
        space.event(["nope"])
    with pytest.raises(ValueError):
        Event(space, frozenset({9}))


def test_events_from_different_spaces_do_not_mix():
    s1 = OutcomeSpace(["a", "b"])
    s2 = OutcomeSpace(["a", "c"])
    with pytest.raises(SpaceMismatchError):
        s1.event(["a"]) & s2.event(["a"])


def test_prob_examples():
    space = OutcomeSpace(["a", "b", "c", "d"])
    b = BeliefState.uniform(space)
    assert b.prob(space.event(["a", "b"])) == F(1, 2)
    assert b.prob(space.empty_event()) == 0
    assert b.prob(space.full_event()) == 1

    s3 = OutcomeSpace(["x", "y", "z"])
    b3 = BeliefState(s3, (F(1, 6), F(1, 3), F(1, 2)))
    assert b3.prob(s3.event(["y", "z"])) == F(5, 6)


def test_cond_prob_examples():
    space = OutcomeSpace(["a", "b", "c", "d"])
    b = BeliefState.uniform(space)
    assert b.cond_prob(space.event(["a"]), space.event(["a", "b"])) == F(1, 2)
    e = space.event(["a", "c"])
    assert b.cond_prob(e, e) == 1

    b2 = BeliefState(space, (F(1, 10), F(2, 10), F(3, 10), F(4, 10)))
    assert b2.cond_prob(space.event(["a", "c"]),
                        space.event(["a", "b", "c"])) == F(2, 3)


def test_cond_prob_on_null_condition_is_undefined():
    space = OutcomeSpace(["a", "b"])
    b = BeliefState(space, (F(1), F(0)))
    with pytest.raises(UndefinedConditionalError):
        b.cond_prob(space.event(["a"]), space.event(["b"]))


def test_belief_state_validation():
    space = OutcomeSpace(["a", "b"])
    with pytest.raises(ValueError):
        BeliefState(space, (F(1, 2),))
    with pytest.raises(ValueError):
        BeliefState(space, (F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        BeliefState(space, (F(1, 2), F(1, 3)))
    BeliefState.from_map(space, {"a": "1/3", "b": "2/3"})


def test_space_mismatch():
    s1 = OutcomeSpace(["a", "b"])
    s2 = OutcomeSpace(["a", "c"])
    with pytest.raises(SpaceMismatchError):
        BeliefState.uniform(s1).cond_prob(s1.event(["a"]), s2.event(["a"]))
    with pytest.raises(SpaceMismatchError):
        BeliefState.uniform(s1).prob(s2.event(["a"]))


_masses = st.lists(st.integers(min_value=0, max_value=8), min_size=2,
                   max_size=6).filter(lambda ws: sum(ws) > 0)


def _state(weights):
    space = OutcomeSpace([f"w{i}" for i in range(len(weights))])
    total = sum(weights)
    return BeliefState(space, tuple(F(w, total) for w in weights))


@settings(max_examples=150)
@given(_masses, st.data())
def test_inclusion_exclusion(weights, data):
    b = _state(weights)
    n = b.space.size
    pick = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    e = Event(b.space, data.draw(pick))
    d = Event(b.space, data.draw(pick))
    assert b.prob(e | d) + b.prob(e & d) == b.prob(e) + b.prob(d)


@settings(max_examples=150)
@given(_masses, st.data())
def test_product_rule_identity(weights, data):
    b = _state(weights)
    n = b.space.size
    pick = st.frozensets(st.integers(min_value=0, max_value=n - 1))
    e = Event(b.space, data.draw(pick))
    d = Event(b.space, data.draw(pick))
    if b.prob(d) == 0:
        with pytest.raises(UndefinedConditionalError):
            b.cond_prob(e, d)
    else:
        assert b.cond_prob(e, d) * b.prob(d) == b.prob(e & d)
