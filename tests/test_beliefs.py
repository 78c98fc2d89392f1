"""Exact substrate: spaces, events, belief states."""

import math
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
    b = BeliefState(space, (F(1, 4),) * 4)
    assert b.prob(space.event(["a", "b"])) == F(1, 2)
    assert b.prob(space.event([])) == 0
    assert b.prob(space.event(space.atoms)) == 1

    s3 = OutcomeSpace(["x", "y", "z"])
    b3 = BeliefState(s3, (F(1, 6), F(1, 3), F(1, 2)))
    assert b3.prob(s3.event(["y", "z"])) == F(5, 6)


def test_cond_prob_examples():
    space = OutcomeSpace(["a", "b", "c", "d"])
    b = BeliefState(space, (F(1, 4),) * 4)
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
    assert BeliefState(space, ("1/3", "2/3")).pmf == (F(1, 3), F(2, 3))


def test_space_mismatch():
    s1 = OutcomeSpace(["a", "b"])
    s2 = OutcomeSpace(["a", "c"])
    b = BeliefState(s1, (F(1, 2), F(1, 2)))
    with pytest.raises(SpaceMismatchError):
        b.cond_prob(s1.event(["a"]), s2.event(["a"]))
    with pytest.raises(SpaceMismatchError):
        b.prob(s2.event(["a"]))


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


# ------------------------------------------- reference (Fraction-sum) checks
#
# `BeliefState` validates and sums its pmf as ints over one common
# denominator.  The reference below is the plain Fraction-sum version: the
# same checks in the same order, with the same messages.

def _reference_validation_error(pmf):
    pmf = tuple(as_fraction(p) for p in pmf)
    if any(p < 0 for p in pmf):
        return "pmf masses must be nonnegative"
    if sum(pmf) != 1:
        return f"pmf masses must sum to exactly 1, got {sum(pmf)}"
    return None


# Large pairwise-coprime denominators (distinct primes) next to small ones,
# so the common denominator runs to hundreds of bits.
_DENOMINATORS = (1, 2, 3, 10, 2**31 - 1, 10**9 + 7, 2**61 - 1, 2**89 - 1,
                 2**107 - 1, 2**127 - 1)
_masses_exact = st.builds(F, st.integers(min_value=-1, max_value=4),
                          st.sampled_from(_DENOMINATORS))


@st.composite
def _pmfs(draw):
    pmf = draw(st.lists(_masses_exact, min_size=1, max_size=8))
    # Most draws are closed off with the complement, so they sum to 1
    # (the complement may still be negative); the rest rarely do.
    if draw(st.integers(min_value=0, max_value=3)):
        pmf.append(1 - sum(pmf))
    return draw(st.permutations(pmf))


@settings(max_examples=300)
@given(_pmfs(), st.data())
def test_belief_state_matches_fraction_sum_reference(pmf, data):
    space = OutcomeSpace([f"w{i}" for i in range(len(pmf))])
    want = _reference_validation_error(pmf)
    if want is not None:
        with pytest.raises(ValueError) as info:
            BeliefState(space, tuple(pmf))
        assert str(info.value) == want
        return
    b = BeliefState(space, tuple(str(p) for p in pmf))
    assert b.pmf == tuple(pmf)
    scale, numerators = b.scaled_pmf
    assert scale == math.lcm(*(p.denominator for p in pmf))
    assert numerators == tuple(p * scale for p in pmf)
    pick = st.frozensets(st.integers(min_value=0, max_value=len(pmf) - 1))
    e = Event(space, data.draw(pick))
    d = Event(space, data.draw(pick))
    assert b.prob(e) == sum((pmf[i] for i in e.members), F(0))
    pd = sum((pmf[i] for i in d.members), F(0))
    if pd == 0:
        with pytest.raises(UndefinedConditionalError):
            b.cond_prob(e, d)
    else:
        assert b.cond_prob(e, d) == sum((pmf[i] for i in (e & d).members), F(0)) / pd
