"""Tests for exchangeable Beta-mixture priors and the pi-bits scenario."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from dutchbook.exchangeable import (
    MAX_PI_BITS,
    BetaComponent,
    BitString,
    MixingDensity,
    pi_fractional_bits,
    posterior,
    predictive_next,
    prior_predictive,
    scenario_report,
)

UNIFORM = MixingDensity.uniform()


def _zeros_then_ones(k, n):
    return BitString((0,) * k + (1,) * (n - k))


# ---------------------------------------------------------------- bit strings


def test_bitstring_from_text_ignores_whitespace():
    s = BitString.from_text(" 0 1\n1\t0 ")
    assert s.bits == (0, 1, 1, 0)
    assert (s.n, s.zeros, s.ones) == (4, 2, 2)
    assert str(s) == "0110"


def test_bitstring_concatenation():
    assert BitString((0,)) + BitString((1, 1)) == BitString((0, 1, 1))


def test_bitstring_rejects_junk():
    with pytest.raises(ValueError):
        BitString.from_text("01x")
    with pytest.raises(ValueError):
        BitString((0, 2))


# -------------------------------------------------------------- mixture types


def test_component_validation():
    for weight, alpha, beta in [(0.0, 1, 1), (-0.5, 1, 1),
                                (0.5, 0.0, 1), (0.5, 1, -2.0)]:
        with pytest.raises(ValueError):
            BetaComponent(weight, alpha, beta)


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixingDensity(())
    with pytest.raises(ValueError):
        MixingDensity((BetaComponent(0.5, 1, 1), BetaComponent(0.6, 2, 2)))


def test_uniform_mixture_is_flat_beta():
    (c,) = UNIFORM.components
    assert (c.weight, c.alpha, c.beta) == (1.0, 1.0, 1.0)


def test_mixture_coerces_component_sequence():
    d = MixingDensity([BetaComponent(1.0, 2.0, 3.0)])
    assert isinstance(d.components, tuple)


# ----------------------------------------------------------- prior predictive


def test_prior_predictive_empty_string_is_one():
    assert prior_predictive(UNIFORM, BitString(())) == 1.0


def test_prior_predictive_uniform_pair():
    assert math.isclose(prior_predictive(UNIFORM, BitString((0, 1))), 1 / 6,
                        rel_tol=0, abs_tol=1e-15)


def test_prior_predictive_uniform_counting_identity():
    # Flat prior: every string of length n with k zeros has probability
    # 1 / ((n + 1) * C(n, k)).
    for n in range(9):
        for k in range(n + 1):
            want = 1.0 / ((n + 1) * math.comb(n, k))
            got = prior_predictive(UNIFORM, _zeros_then_ones(k, n))
            assert math.isclose(got, want, rel_tol=1e-12)


def test_prior_predictive_matches_quadrature():
    d = MixingDensity((BetaComponent(0.3, 2.0, 5.0),
                       BetaComponent(0.7, 1.0, 3.0)))
    s = BitString.from_text("00101")
    k, n = s.zeros, s.n
    oracle = 0.0
    for c in d.components:
        val, _ = integrate.quad(
            lambda t, a=c.alpha, b=c.beta:
            t ** k * (1 - t) ** (n - k) * stats.beta.pdf(t, a, b),
            0.0, 1.0)
        oracle += c.weight * val
    assert math.isclose(prior_predictive(d, s), oracle, rel_tol=1e-9)


# ------------------------------------------------------------------ posterior


def test_posterior_uniform_single_zero():
    post = posterior(UNIFORM, BitString((0,)))
    (c,) = post.components
    assert (c.weight, c.alpha, c.beta) == (1.0, 2.0, 1.0)


def test_posterior_two_component_worked_example():
    d = MixingDensity((BetaComponent(0.5, 1.0, 1.0),
                       BetaComponent(0.5, 3.0, 1.0)))
    post = posterior(d, BitString((0, 0)))
    first, second = post.components
    # Evidences 1/3 and 3/5 reweight 50/50 into 5/14 and 9/14.
    assert math.isclose(first.weight, 5 / 14, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(second.weight, 9 / 14, rel_tol=0, abs_tol=1e-12)
    assert (first.alpha, first.beta) == (3.0, 1.0)
    assert (second.alpha, second.beta) == (5.0, 1.0)
    assert math.isclose(predictive_next(d, BitString((0, 0))), 45 / 56,
                        rel_tol=0, abs_tol=1e-12)


def test_posterior_survives_balanced_four_thousand_bits():
    # Raw evidences are ~exp(-2774) here; the log-space weighting must not
    # collapse the normalization to 0/0.
    s = _zeros_then_ones(2000, 4000)
    post = posterior(UNIFORM, s)
    (c,) = post.components
    assert (c.weight, c.alpha, c.beta) == (1.0, 2001.0, 2001.0)
    d = MixingDensity((BetaComponent(0.5, 1.0, 1.0),
                       BetaComponent(0.5, 2.0, 2.0)))
    post2 = posterior(d, s)
    assert len(post2.components) == 2
    assert math.isclose(sum(c.weight for c in post2.components), 1.0,
                        rel_tol=0, abs_tol=1e-12)
    assert all(c.weight > 0 for c in post2.components)


def test_posterior_drops_component_that_underflows():
    # Beta(200, 1) concentrates near chance-of-zero 1; four thousand straight
    # ones drive its relative evidence below the smallest positive double.
    d = MixingDensity((BetaComponent(0.5, 1.0, 1.0),
                       BetaComponent(0.5, 200.0, 1.0)))
    post = posterior(d, _zeros_then_ones(0, 4000))
    (c,) = post.components
    assert (c.weight, c.alpha, c.beta) == (1.0, 1.0, 4001.0)


# ------------------------------------------------------------ predictive next


def test_predictive_next_before_any_data_is_half():
    assert predictive_next(UNIFORM, BitString(())) == 0.5


def test_predictive_next_follows_succession_rule():
    assert math.isclose(predictive_next(UNIFORM, _zeros_then_ones(10, 10)),
                        11 / 12, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(predictive_next(UNIFORM, BitString((0, 1, 0, 1))),
                        0.5, rel_tol=0, abs_tol=1e-12)


# -------------------------------------------------------------------- pi bits


def test_pi_bits_known_prefixes():
    assert pi_fractional_bits(0) == BitString(())
    assert str(pi_fractional_bits(1)) == "0"
    assert str(pi_fractional_bits(4)) == "0010"
    assert str(pi_fractional_bits(16)) == "0010010000111111"


def test_pi_bits_range_errors():
    with pytest.raises(ValueError):
        pi_fractional_bits(-1)
    with pytest.raises(ValueError):
        pi_fractional_bits(MAX_PI_BITS + 1)


def test_pi_bits_cap_is_reachable():
    assert pi_fractional_bits(MAX_PI_BITS).n == MAX_PI_BITS


def test_pi_bits_match_arbitrary_precision_oracle():
    for n in (256, 4001, MAX_PI_BITS):
        with mpmath.workprec(n + 80):
            scaled = int(mpmath.floor(mpmath.ldexp(+mpmath.pi - 3, n)))
        assert str(pi_fractional_bits(n)) == format(scaled, f"0{n}b")


def _arctan_inv_scaled(x: int, bits: int) -> int:
    # Alternating series for arctan(1/x) scaled by 2**bits, floor-truncated
    # term by term; the accumulated truncation stays far below the guard.
    total = 0
    power = (1 << bits) // x
    xsq = x * x
    j = 0
    sign = 1
    while power:
        total += sign * (power // (2 * j + 1))
        power //= xsq
        j += 1
        sign = -sign
    return total


def _reference_pi_bits(n: int) -> str:
    """The earlier term-by-term Machin routine, kept as a reference:
    pi = 16 arctan(1/5) - 4 arctan(1/239) with 64 guard bits."""
    guard = 64
    width = n + guard
    pi_scaled = 16 * _arctan_inv_scaled(5, width) - 4 * _arctan_inv_scaled(239, width)
    frac = (pi_scaled - (3 << width)) >> guard
    return format(frac, f"0{n}b")


def test_pi_bits_match_machin_reference():
    for n in range(1, 2001):
        assert str(pi_fractional_bits(n)) == _reference_pi_bits(n), n


def test_pi_bits_prefixes_are_stable():
    long = str(pi_fractional_bits(250))
    assert str(pi_fractional_bits(200)) == long[:200]


# ------------------------------------------------------------------- scenario


def test_scenario_report_headline():
    bits = pi_fractional_bits(4000)
    report = scenario_report(4000, bits)
    assert report.n == 4000
    # Zero count cross-checked against an arbitrary-precision expansion.
    assert report.zeros == 2051
    assert report.zeros + report.ones == 4000
    assert math.isclose(report.conditioning_next_zero, 2052 / 4002,
                        rel_tol=0, abs_tol=1e-12)
    assert report.maverick_q == 0.99
    assert report.conditioning_coherent
    assert report.maverick_coherent


def test_scenario_report_length_mismatch():
    with pytest.raises(ValueError):
        scenario_report(3, BitString((0, 1, 0, 1)))


def test_scenario_report_flags_out_of_range_value():
    report = scenario_report(2, BitString((0, 1)), maverick_q=1.2)
    assert report.conditioning_coherent
    assert not report.maverick_coherent
    assert scenario_report(2, BitString((0, 1)), maverick_q=0.0).maverick_coherent


# ----------------------------------------------------------------- properties


@st.composite
def _mixtures(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(st.floats(min_value=0.1, max_value=1.0),
                            min_size=k, max_size=k))
    params = draw(st.lists(
        st.tuples(st.floats(min_value=0.5, max_value=8.0),
                  st.floats(min_value=0.5, max_value=8.0)),
        min_size=k, max_size=k))
    total = sum(weights)
    return MixingDensity(tuple(
        BetaComponent(w / total, a, b)
        for w, (a, b) in zip(weights, params)))


_strings = st.lists(st.integers(min_value=0, max_value=1),
                    max_size=30).map(lambda bits: BitString(tuple(bits)))


@settings(max_examples=80, deadline=None)
@given(_mixtures(), _strings)
def test_prior_predictive_depends_only_on_counts(d, s):
    rearranged = _zeros_then_ones(s.zeros, s.n)
    assert prior_predictive(d, s) == prior_predictive(d, rearranged)


@settings(max_examples=80, deadline=None)
@given(_mixtures(), _strings)
def test_marginal_consistency(d, s):
    # Summing the two one-bit extensions must recover the string's mass.
    extended = (prior_predictive(d, s + BitString((0,)))
                + prior_predictive(d, s + BitString((1,))))
    assert math.isclose(extended, prior_predictive(d, s), rel_tol=1e-9)


@settings(max_examples=80, deadline=None)
@given(_mixtures(), _strings)
def test_predictive_is_ratio_of_marginals(d, s):
    ratio = (prior_predictive(d, s + BitString((0,)))
             / prior_predictive(d, s))
    assert math.isclose(predictive_next(d, s), ratio, rel_tol=1e-9)


@settings(max_examples=80, deadline=None)
@given(_mixtures(), _strings, _strings)
def test_posterior_chains(d, first, second):
    chained = posterior(posterior(d, first), second)
    direct = posterior(d, first + second)
    assert len(chained.components) == len(direct.components)
    for a, b in zip(chained.components, direct.components):
        # Incremental count updates may differ from one-shot updates by a
        # final ulp; anything beyond that is a real bug.
        assert math.isclose(a.alpha, b.alpha, rel_tol=1e-15)
        assert math.isclose(a.beta, b.beta, rel_tol=1e-15)
        assert math.isclose(a.weight, b.weight, rel_tol=0, abs_tol=1e-9)
