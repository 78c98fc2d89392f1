"""Exact probabilities of atom-index sets, summed from a pmf tuple, and
temporal joints laid out as pmfs to sum them over.

The library reports no event probabilities: its audits read integer sums.
The tests check witnesses, joints, reference audits and settlements against
these plain `Fraction` sums.
"""

from dataclasses import dataclass
from fractions import Fraction

from dutchbook.beliefs import as_fraction


def prob(pmf, atoms) -> Fraction:
    """The total mass of the atoms with these indices."""
    return sum((pmf[i] for i in atoms), Fraction(0))


def cond_prob(pmf, e, d) -> Fraction:
    """prob(e and d) / prob(d) for atom-index sets; d needs positive mass."""
    return prob(pmf, set(e) & set(d)) / prob(pmf, d)


def reference_settle(portfolio) -> tuple[Fraction, ...]:
    """A portfolio's net in each world, atom by atom: the sum over its legs
    of q * (1[E] - p) inside the ticket's condition and 0 off it."""
    book = portfolio.book
    nets = []
    for atom in range(book.space.size):
        net = Fraction(0)
        for leg in portfolio.legs:
            a = book.assessments[leg.assessment]
            if a.condition is None or atom in a.condition:
                net += leg.quantity * ((atom in a.event) - a.price)
        nets.append(net)
    return tuple(nets)


@dataclass(frozen=True)
class LabelledJoint:
    """A temporal joint as a pmf over atoms ordered (value cell, E or ~E[,
    D or ~D]), and the atom-index sets of each value cell, of E and of D
    (None when the joint has no d column)."""

    qs: tuple[Fraction, ...]
    pmf: tuple[Fraction, ...]
    cells: tuple[frozenset[int], ...]
    e: frozenset[int]
    d: frozenset[int] | None


def labelled_joint(qs, joint) -> LabelledJoint:
    """The labelled joint of `TemporalModel(qs, joint)`, built from those
    inputs alone: keys are (i, e) or (i, e, d), and absent keys get no mass."""
    qs = tuple(as_fraction(q) for q in qs)
    base = len(next(iter(joint))) == 3
    pmf, cells, e_atoms, d_atoms = [], [], set(), set()
    for i in range(len(qs)):
        cell = set()
        for e in (True, False):
            for d in ((True, False) if base else (None,)):
                atom = len(pmf)
                cell.add(atom)
                if e:
                    e_atoms.add(atom)
                if d:
                    d_atoms.add(atom)
                pmf.append(as_fraction(
                    joint.get((i, e) if d is None else (i, e, d), 0)))
        cells.append(frozenset(cell))
    return LabelledJoint(qs, tuple(pmf), tuple(cells), frozenset(e_atoms),
                         frozenset(d_atoms) if base else None)


def labelled_conditionals(qs, masses, e_given_q) -> LabelledJoint:
    """The labelled joint of `TemporalModel.from_conditionals` on these
    arguments: cell i splits its mass as mass * P(E | cell) on E."""
    joint = {}
    for i, (m, c) in enumerate(zip(masses, e_given_q)):
        m, c = as_fraction(m), as_fraction(c)
        joint[(i, True)] = m * c
        joint[(i, False)] = m * (1 - c)
    return labelled_joint(qs, joint)
