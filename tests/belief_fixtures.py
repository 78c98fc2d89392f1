"""Exact probabilities of atom-index sets, summed from a belief state's pmf.

The library reports no event probabilities: its audits read the scaled
integer pmf.  The tests check witnesses, joints and reference audits
against these plain `Fraction` sums.
"""

from fractions import Fraction


def prob(state, atoms) -> Fraction:
    """The total mass of the atoms with these indices."""
    return sum((state.pmf[i] for i in atoms), Fraction(0))


def cond_prob(state, e, d) -> Fraction:
    """prob(e and d) / prob(d) for atom-index sets; d needs positive mass."""
    return prob(state, set(e) & set(d)) / prob(state, d)
