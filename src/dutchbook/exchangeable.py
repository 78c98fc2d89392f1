"""Exchangeable priors over binary sequences and the pi-bits scenario.

The prior over length-n bit strings is a mixture over i.i.d. binomials,
represented as a finite Beta mixture so that marginal likelihoods and
posteriors stay in closed form (log-gamma arithmetic, no quadrature).
Strings enter only through their zero/one counts, which is exchangeability
in operational terms.

This module works in floating point with a 1e-12 comparison tolerance;
counts up to ~10^4 keep the Beta ratios well-conditioned.

The bits of pi the headline scenario observes are exact: the Chudnovsky
series is summed by binary splitting in integers, so its big products
pair operands of similar size, and 64 guard bits below the last bit
returned absorb every truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "MAX_PI_BITS",
    "BetaComponent",
    "MixingDensity",
    "BitString",
    "prior_predictive",
    "posterior",
    "predictive_next",
    "pi_fractional_bits",
    "ScenarioReport",
    "scenario_report",
]

#: Bit-extraction cap; the headline scenario needs 4001.
MAX_PI_BITS = 16384

_WEIGHT_TOL = 1e-12


def _betaln(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@dataclass(frozen=True)
class BetaComponent:
    weight: float
    alpha: float
    beta: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("component weight must be positive")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("Beta parameters must be positive")


@dataclass(frozen=True)
class MixingDensity:
    """Finite Beta-mixture density over the per-trial chance of a zero."""

    components: tuple[BetaComponent, ...]

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("mixture needs at least one component")
        total = sum(c.weight for c in components)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"component weights must sum to 1, got {total}")
        object.__setattr__(self, "components", components)

    @classmethod
    def uniform(cls) -> MixingDensity:
        """The flat density: a single Beta(1, 1) component."""
        return cls((BetaComponent(1.0, 1.0, 1.0),))


@dataclass(frozen=True)
class BitString:
    """An observed sequence of zeros and ones."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        if any(b not in (0, 1) for b in bits):
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


def prior_predictive(d: MixingDensity, s: BitString) -> float:
    """Marginal probability of observing the string under the mixture.

    Closed form per component: B(alpha+k, beta+n-k) / B(alpha, beta) with
    k zeros among n bits.  Depends on the string only through (k, n).
    """
    k, j = s.zeros, s.ones
    return sum(
        c.weight * math.exp(_betaln(c.alpha + k, c.beta + j)
                            - _betaln(c.alpha, c.beta))
        for c in d.components
    )


def posterior(d: MixingDensity, s: BitString) -> MixingDensity:
    """Condition the mixture on the observed string.

    Each component's parameters absorb the counts; weights are reweighted
    by the component evidences and renormalized.  Components whose
    posterior mass underflows to zero relative to the best component are
    dropped; at least one component always survives.
    """
    k, j = s.zeros, s.ones
    # Log-space weights: the raw evidences underflow doubles near n ~ 4000.
    logs = [
        math.log(c.weight) + _betaln(c.alpha + k, c.beta + j)
        - _betaln(c.alpha, c.beta)
        for c in d.components
    ]
    shift = max(logs)
    raw = [math.exp(lw - shift) for lw in logs]
    survivors = [(r, c) for r, c in zip(raw, d.components) if r > 0.0]
    total = sum(r for r, _ in survivors)
    return MixingDensity(tuple(
        BetaComponent(r / total, c.alpha + k, c.beta + j)
        for r, c in survivors
    ))


def predictive_next(d: MixingDensity, s: BitString) -> float:
    """Probability that the bit after the string is a zero.

    Mixture mean of the posterior; a uniform prior gives (k+1)/(n+2).
    """
    post = posterior(d, s)
    return sum(c.weight * c.alpha / (c.alpha + c.beta) for c in post.components)


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
    return BitString(tuple(map(int, format(frac, f"0{n}b"))))


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
    bit; the maverick column is taken as given.  Each value also gets a
    fresh-start coherence verdict for the betting time itself, which is
    simply membership in [0, 1]: a single announced price faces no other
    constraint once the earlier probabilities are off the table.
    """
    if observed.n != n:
        raise ValueError(f"observed string has {observed.n} bits, expected {n}")
    cond = predictive_next(MixingDensity.uniform(), observed)
    return ScenarioReport(
        n=n,
        zeros=observed.zeros,
        ones=observed.ones,
        conditioning_next_zero=cond,
        maverick_q=maverick_q,
        conditioning_coherent=0.0 <= cond <= 1.0,
        maverick_coherent=0.0 <= maverick_q <= 1.0,
    )
