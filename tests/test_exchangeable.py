"""Tests for the exact uniform-prior predictive and the pi-bits scenario."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.exchangeable import (
    MAX_PI_BITS,
    BitString,
    pi_fractional_bits,
    predictive_next,
    scenario_report,
)


def _zeros_then_ones(k, n):
    return BitString((0,) * k + (1,) * (n - k))


def _text(s):
    return "".join(map(str, s.bits))


# ---------------------------------------------------------------- bit strings


def test_bitstring_from_text_ignores_whitespace():
    s = BitString.from_text(" 0 1\n1\t0 ")
    assert s.bits == bytes((0, 1, 1, 0))
    assert (s.n, s.zeros) == (4, 2)


def test_bitstring_rejects_junk():
    with pytest.raises(ValueError):
        BitString.from_text("01x")
    with pytest.raises(ValueError):
        BitString((0, 2))


def test_bitstring_stores_one_byte_per_bit():
    strings = [BitString((0, 1)), BitString([0, 1]), BitString(b"\x00\x01")]
    assert all(s.bits == b"\x00\x01" for s in strings)
    assert strings[0] == strings[1] == strings[2]
    assert len({hash(s) for s in strings}) == 1


@pytest.mark.parametrize("bits", [(0, 2), (0, 256), (-1,), b"\x02"])
def test_bitstring_rejects_values_other_than_zero_and_one(bits):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        BitString(bits)


def test_bitstring_refuses_a_bare_int():
    # bytes(5) would be five zero bytes.
    with pytest.raises(TypeError):
        BitString(5)


def test_bitstring_from_text_reads_pi_with_whitespace():
    text = _text(pi_fractional_bits(MAX_PI_BITS))
    spaced = "\n".join(" ".join(text[j:j + 8] for j in range(i, i + 64, 8))
                       for i in range(0, len(text), 64))
    assert BitString.from_text(spaced + "\n") == pi_fractional_bits(MAX_PI_BITS)


def test_bitstring_from_text_names_the_first_junk_character():
    text = "01" * 5000 + "z" + " 10" * 1000 + "q"
    assert text.index("z") == 10_000
    with pytest.raises(ValueError) as err:
        BitString.from_text(text)
    assert str(err.value) == "unexpected character 'z' in bit data"


# ------------------------------------------------------------ predictive next


def test_predictive_next_before_any_data_is_half():
    assert predictive_next(BitString(())) == F(1, 2)


def test_predictive_next_follows_succession_rule():
    assert predictive_next(_zeros_then_ones(10, 10)) == F(11, 12)
    assert predictive_next(BitString((0, 1, 0, 1))) == F(1, 2)
    assert predictive_next(_zeros_then_ones(2051, 4000)) == F(342, 667)


def _uniform_marginal(s):
    # Flat prior: every string of length n with k zeros has probability
    # 1 / ((n + 1) * C(n, k)).
    return F(1, (s.n + 1) * math.comb(s.n, s.zeros))


_strings = st.lists(st.integers(min_value=0, max_value=1),
                    max_size=30).map(lambda bits: BitString(tuple(bits)))


@settings(max_examples=80, deadline=None)
@given(_strings)
def test_predictive_is_ratio_of_marginals(s):
    ratio = _uniform_marginal(BitString(s.bits + b"\x00")) / _uniform_marginal(s)
    assert predictive_next(s) == ratio


# -------------------------------------------------------------------- pi bits


def test_pi_bits_known_prefixes():
    assert pi_fractional_bits(0) == BitString(())
    assert _text(pi_fractional_bits(1)) == "0"
    assert _text(pi_fractional_bits(4)) == "0010"
    assert _text(pi_fractional_bits(16)) == "0010010000111111"


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
        assert _text(pi_fractional_bits(n)) == format(scaled, f"0{n}b")


def test_pi_bits_are_exact_for_every_n():
    # Oracle bits to MAX_PI_BITS + 128 at 80 bits of extra precision.  No
    # run of 32 equal bits in them means that every n <= MAX_PI_BITS has
    # guard bits n+1..n+62 that are not all equal, which the docstring's
    # error bound needs, and that the oracle's first MAX_PI_BITS + 64 bits
    # are right whatever the error in its last bits.
    total = MAX_PI_BITS + 128
    with mpmath.workprec(total + 80):
        scaled = int(mpmath.floor(mpmath.ldexp(+mpmath.pi - 3, total)))
    oracle = format(scaled, f"0{total}b")
    assert "0" * 32 not in oracle and "1" * 32 not in oracle
    # Near the cap, and at and just before each step of the term count
    # (n + 64) // 47 + 2; just before a step the series is cut shortest.
    near_cap = range(MAX_PI_BITS - 64, MAX_PI_BITS + 1)
    steps = {m for k in range(2, MAX_PI_BITS // 47 + 3)
             for m in (47 * k - 64, 47 * k - 65) if 1 <= m <= MAX_PI_BITS}
    for n in sorted(steps.union(near_cap)):
        assert _text(pi_fractional_bits(n)) == oracle[:n], n


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
        assert _text(pi_fractional_bits(n)) == _reference_pi_bits(n), n


def test_pi_bits_prefixes_are_stable():
    long = _text(pi_fractional_bits(250))
    assert _text(pi_fractional_bits(200)) == long[:200]


# ------------------------------------------------------------------- scenario


def test_scenario_report_headline():
    bits = pi_fractional_bits(4000)
    report = scenario_report(4000, bits)
    assert report.n == 4000
    # Zero count cross-checked against an arbitrary-precision expansion.
    assert report.zeros == 2051
    assert report.zeros + report.ones == 4000
    assert report.conditioning_next_zero == float(F(2052, 4002))
    assert report.maverick_q == 0.99
    assert report.conditioning_coherent
    assert report.maverick_coherent


@pytest.mark.parametrize("n", [0, 1, 4000, 4001, MAX_PI_BITS])
def test_scenario_report_rounds_the_exact_predictive(n):
    bits = pi_fractional_bits(n)
    report = scenario_report(n, bits)
    exact = F(bits.zeros + 1, n + 2)
    assert report.conditioning_next_zero == float(exact)
    # Both are the correctly rounded quotient of the two integers.
    assert report.conditioning_next_zero == (bits.zeros + 1) / (n + 2)


def test_scenario_report_keeps_the_report_field_order():
    # `demo-polarization` reports these fields after its kind, in this order.
    report = scenario_report(2, BitString((0, 1)))
    assert list(report._asdict()) == [
        "n", "zeros", "ones", "conditioning_next_zero", "maverick_q",
        "conditioning_coherent", "maverick_coherent"]


def test_scenario_report_length_mismatch():
    with pytest.raises(ValueError):
        scenario_report(3, BitString((0, 1, 0, 1)))


def test_scenario_report_flags_out_of_range_value():
    report = scenario_report(2, BitString((0, 1)), maverick_q=1.2)
    assert report.conditioning_coherent
    assert not report.maverick_coherent
    assert scenario_report(2, BitString((0, 1)), maverick_q=0.0).maverick_coherent


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_report_refuses_non_finite_value(value):
    with pytest.raises(ValueError, match="finite"):
        scenario_report(2, BitString((0, 1)), maverick_q=value)
