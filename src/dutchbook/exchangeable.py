"""Exchangeable priors over binary sequences and the pi-bits scenario.

Under a uniform prior on the per-trial chance of a zero, a bit string
enters only through its zero/one counts (exchangeability in operational
terms), and the probability that the next bit is a zero is Laplace's rule
of succession (k+1)/(n+2), returned as an exact `Fraction`.

The bits of pi the headline scenario observes are exact: the Chudnovsky
series is summed by binary splitting in integers, so its big products
pair operands of similar size, and 64 guard bits below the last bit
returned absorb every truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MAX_PI_BITS",
    "BitString",
    "predictive_next",
    "pi_fractional_bits",
    "ScenarioReport",
    "scenario_report",
]

#: Bit-extraction cap; the headline scenario needs 4001.
MAX_PI_BITS = 16384


@dataclass(frozen=True)
class BitString:
    """An observed sequence of zeros and ones."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        if not set(bits) <= {0, 1}:
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_text(cls, text: str) -> BitString:
        """Parse ASCII 0/1 characters, ignoring whitespace."""
        bits = []
        for ch in text:
            if ch.isspace():
                continue
            if ch not in "01":
                raise ValueError(f"unexpected character {ch!r} in bit data")
            bits.append(int(ch))
        return cls(tuple(bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def zeros(self) -> int:
        return self.bits.count(0)

    @property
    def ones(self) -> int:
        return self.bits.count(1)

    def __add__(self, other: BitString) -> BitString:
        return BitString(self.bits + other.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def predictive_next(s: BitString) -> Fraction:
    """Probability that the bit after the string is a zero.

    The uniform prior's posterior mean, (k+1)/(n+2) with k zeros among
    n bits.
    """
    return Fraction(s.zeros + 1, s.n + 2)


# ASCII "0" and "1" to the bytes 0 and 1, which iterate as the ints.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

# 640320**3 / 24: the cubic denominator of the Chudnovsky term ratio.
_C3_OVER_24 = 640320 ** 3 // 24
# Each Chudnovsky term adds log2(640320**3 / 1728) ~ 47.11 bits.
_BITS_PER_TERM = 47


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    # Binary splitting of terms a..b-1: P/Q is the product of their term
    # ratios and T/Q their sum, both relative to term a-1.  Halving the
    # range keeps the big multiplications between operands of like size.
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, mid)
    p2, q2, t2 = _chudnovsky_split(mid, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def pi_fractional_bits(n: int) -> BitString:
    """First n bits of the fractional binary expansion of pi.

    Computed from scratch with integer arithmetic: the Chudnovsky series
    pi = 426880 sqrt(10005) Q / T, with Q and T summed by binary splitting
    (Haible & Papanikolaou 1998) and the square root by `math.isqrt`, at
    n + 64 bits.  The 64 guard bits absorb the truncation of the series,
    the root and the final division; the result is floored to n bits.
    """
    if not 0 <= n <= MAX_PI_BITS:
        raise ValueError(f"bit count must lie in 0..{MAX_PI_BITS}, got {n}")
    if n == 0:
        return BitString(())
    guard = 64
    width = n + guard
    _, q, t = _chudnovsky_split(0, width // _BITS_PER_TERM + 2)
    pi_scaled = q * 426880 * math.isqrt(10005 << 2 * width) // t
    frac = (pi_scaled - (3 << width)) >> guard
    digits = format(frac, f"0{n}b").encode("ascii")
    return BitString(tuple(digits.translate(_DIGIT_BYTES)))


@dataclass(frozen=True)
class ScenarioReport:
    """Side-by-side of the conditioning-rule bet and a gut-feeling bet."""

    n: int
    zeros: int
    ones: int
    conditioning_next_zero: float
    maverick_q: float
    conditioning_coherent: bool
    maverick_coherent: bool


def scenario_report(
    n: int,
    observed: BitString,
    maverick_q: float = 0.99,
) -> ScenarioReport:
    """Compare strict conditioning with an off-script next-bit value.

    The conditioning column is the uniform-prior predictive for the next
    bit, rounded to the nearest float; the maverick column is taken as
    given and must be finite.  Each value also gets a fresh-start
    coherence verdict for the betting time itself, which is simply
    membership in [0, 1]: a single announced price faces no other
    constraint once the earlier probabilities are off the table.
    """
    if observed.n != n:
        raise ValueError(f"observed string has {observed.n} bits, expected {n}")
    if not math.isfinite(maverick_q):
        raise ValueError(f"maverick value must be finite, got {maverick_q}")
    cond = predictive_next(observed)
    return ScenarioReport(
        n=n,
        zeros=observed.zeros,
        ones=observed.ones,
        conditioning_next_zero=float(cond),
        maverick_q=maverick_q,
        conditioning_coherent=0 <= cond <= 1,
        maverick_coherent=0.0 <= maverick_q <= 1.0,
    )
