"""Exact substrate: spaces, events, exact parsing and the pmf check."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.beliefs import (
    MAX_ATOMS,
    MAX_EXACT_CHARS,
    MAX_EXPONENT,
    OutcomeSpace,
    _scaled_pmf,
    as_fraction,
)
from belief_fixtures import cond_prob, prob


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
    e = space.event(["b", "a"])
    assert e == frozenset({0, 1})
    assert 0 in e and 2 not in e
    assert space.labels(space.event(["b", "a"])) == ("a", "b")
    assert space.labels(frozenset({3, 0})) == ("a", "d")
    assert space.event([]) == frozenset()
    assert space.labels(space.event([])) == ()
    with pytest.raises(ValueError):
        space.event(["nope"])
    # Equality and hashing come from the atoms alone.
    same = OutcomeSpace(("a", "b", "c", "d"))
    assert same == space and hash(same) == hash(space)
    assert OutcomeSpace(["a", "b", "d", "c"]) != space


def test_prob_examples():
    space = OutcomeSpace(["a", "b", "c", "d"])
    b = (F(1, 4),) * 4
    assert prob(b, space.event(["a", "b"])) == F(1, 2)
    assert prob(b, space.event([])) == 0
    assert prob(b, space.event(space.atoms)) == 1

    s3 = OutcomeSpace(["x", "y", "z"])
    b3 = (F(1, 6), F(1, 3), F(1, 2))
    assert prob(b3, s3.event(["y", "z"])) == F(5, 6)


def test_cond_prob_examples():
    b = (F(1, 4),) * 4
    assert cond_prob(b, {0}, {0, 1}) == F(1, 2)
    assert cond_prob(b, {0, 2}, {0, 2}) == 1

    b2 = (F(1, 10), F(2, 10), F(3, 10), F(4, 10))
    assert cond_prob(b2, {0, 2}, {0, 1, 2}) == F(2, 3)


def test_belief_state_validation():
    with pytest.raises(ValueError, match="^pmf masses must be nonnegative$"):
        _scaled_pmf((F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError,
                       match="^pmf masses must sum to exactly 1, got 5/6$"):
        _scaled_pmf((F(1, 2), F(1, 3)))
    assert _scaled_pmf((F(1, 3), F(2, 3))) == (3, [1, 2])


_masses = st.lists(st.integers(min_value=0, max_value=8), min_size=2,
                   max_size=6).filter(lambda ws: sum(ws) > 0)


def _state(weights):
    """A space of one atom per weight, and the pmf proportional to them."""
    space = OutcomeSpace([f"w{i}" for i in range(len(weights))])
    total = sum(weights)
    return space, tuple(F(w, total) for w in weights)


@settings(max_examples=150)
@given(_masses, st.data())
def test_inclusion_exclusion(weights, data):
    space, b = _state(weights)
    pick = st.frozensets(st.integers(min_value=0, max_value=space.size - 1))
    e = data.draw(pick)
    d = data.draw(pick)
    assert prob(b, e | d) + prob(b, e & d) == prob(b, e) + prob(b, d)


@settings(max_examples=150)
@given(_masses, st.data())
def test_product_rule_identity(weights, data):
    space, b = _state(weights)
    pick = st.frozensets(st.integers(min_value=0, max_value=space.size - 1))
    e = data.draw(pick)
    d = data.draw(pick)
    if prob(b, d) > 0:
        assert cond_prob(b, e, d) * prob(b, d) == prob(b, e & d)


# ------------------------------------------- reference (Fraction-sum) checks
#
# `_scaled_pmf`, the exact-pmf check a temporal model runs on its joint,
# validates and sums a pmf as ints over one common denominator.  The
# reference below is the plain Fraction-sum version: the same checks in the
# same order, with the same messages.

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
@given(_pmfs())
def test_belief_state_matches_fraction_sum_reference(pmf):
    want = _reference_validation_error(pmf)
    if want is not None:
        with pytest.raises(ValueError) as info:
            _scaled_pmf(tuple(pmf))
        assert str(info.value) == want
        return
    scale, numerators = _scaled_pmf(tuple(pmf))
    assert scale == math.lcm(*(p.denominator for p in pmf))
    assert numerators == [p * scale for p in pmf]
