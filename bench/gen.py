"""Seeded input generators for the benchmark workloads.

Each input generator takes a `random.Random` (the quantum triples seed a
numpy Generator from it) and returns a plain JSON document together with
the facts the output checker needs.  Nothing here imports dutchbook: the
inputs and the expected facts are derived independently of the program
under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np


def _measure(rng: random.Random, n: int) -> list[Fraction]:
    # Strictly positive weights, so every nonempty event has positive mass
    # and every called-off condition is well defined.
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _prob(measure: list[Fraction], members) -> Fraction:
    return sum((measure[i] for i in members), Fraction(0))


def _perturb(rng: random.Random, price: Fraction) -> Fraction:
    shifted = price + Fraction(rng.choice((-1, 1)) * rng.randint(4, 12), 40)
    return min(Fraction(1), max(Fraction(0), shifted))


def _book_doc(atoms: list[str], priced: list[tuple]) -> dict:
    assessments = []
    for event, condition, price in priced:
        entry = {"event": [atoms[i] for i in sorted(event)], "price": str(price)}
        if condition is None:
            entry["type"] = "unconditional"
        else:
            entry["type"] = "called_off"
            entry["condition"] = [atoms[i] for i in sorted(condition)]
        assessments.append(entry)
    return {"atoms": atoms, "assessments": assessments}


def _price_events(rng, measure, events, coherent: bool) -> list[tuple]:
    """Price (event, condition) pairs from `measure`, perturbed unless coherent."""
    priced = []
    for event, condition in events:
        if condition is None:
            price = _prob(measure, event)
        else:
            price = _prob(measure, event & condition) / _prob(measure, condition)
        if not coherent:
            price = _perturb(rng, price)
        priced.append((event, condition, price))
    return priced


def _events(rng: random.Random, prices: int, subset) -> list[tuple]:
    """(event, condition) pairs; a quarter of them, at random places,
    are called off."""
    called_off = set(rng.sample(range(prices), round(prices / 4)))
    return [(subset(), subset() if k in called_off else None)
            for k in range(prices)]


def dense_book(rng: random.Random, atoms: int, prices: int,
               coherent: bool) -> dict:
    """A random book on `atoms` atoms with `prices` priced tickets.

    Events are uniform random nonempty subsets; a quarter of the tickets
    are called off on a second random subset.  A coherent book is
    priced from a random rational measure; otherwise every price is moved
    by 1/10 to 3/10 (clamped to [0, 1]), which makes most books incoherent.
    """
    labels = [f"a{i}" for i in range(atoms)]
    measure = _measure(rng, atoms)

    def subset():
        while True:
            s = frozenset(i for i in range(atoms) if rng.random() < 0.5)
            if s:
                return s

    priced = _price_events(rng, measure, _events(rng, prices, subset),
                           coherent)
    return {"doc": _book_doc(labels, priced), "priced": priced,
            "measure_priced": coherent}


def wide_book(rng: random.Random, coords: int, prices: int,
              coherent: bool) -> dict:
    """A book over the product space {0,1}^coords (256 to 1024 atoms).

    Each ticket's event (and condition) is a random non-constant boolean
    function of two coordinates drawn from an active set of five, so at
    most 32 atom columns are distinct and the rest are duplicates.  The
    shape is fixed so that books of one size cost about the same to audit.
    """
    n = 1 << coords
    labels = ["x" + format(a, f"0{coords}b") for a in range(n)]
    measure = _measure(rng, n)
    active = rng.sample(range(coords), 5)

    def subset():
        while True:
            deps = rng.sample(active, 2)
            table = [rng.random() < 0.5 for _ in range(1 << len(deps))]
            if any(table) and not all(table):
                break
        members = set()
        for a in range(n):
            key = 0
            for c in deps:
                key = (key << 1) | ((a >> c) & 1)
            if table[key]:
                members.add(a)
        return frozenset(members)

    priced = _price_events(rng, measure, _events(rng, prices, subset),
                           coherent)
    return {"doc": _book_doc(labels, priced), "priced": priced,
            "measure_priced": coherent}


def temporal_model(rng: random.Random, k: int, strategy: bool,
                   coherent: bool) -> dict:
    """A temporal model with `k` candidate future values.

    Every cell's conditional P0(E | value q) is q, except that an
    incoherent model without a strategy moves one cell's conditional (a
    reflection violation).  With `strategy`, a base event D holds half of
    one starred cell's mass and nothing elsewhere, and the declared
    strategy is the starred value; an incoherent model then splits that
    cell so P0(E | D) misses the declared value while the cell as a whole
    still meets it (a conditioning violation with no reflection violation).
    """
    denom = 8 * k
    qs = [Fraction(v, denom) for v in sorted(rng.sample(range(1, denom), k))]
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    masses = [Fraction(w, total) for w in weights]
    conds = list(qs)
    if not coherent and not strategy:
        i = rng.randrange(k)
        while True:
            moved = Fraction(rng.randint(0, denom), denom)
            if moved != qs[i]:
                break
        conds[i] = moved
    star = rng.randrange(k) if strategy else None
    shift = Fraction(0)
    if strategy and not coherent:
        q = qs[star]
        shift = Fraction(rng.randint(1, 4), 4) * min(q, 1 - q)

    joint = []
    for i, (q, m, c) in enumerate(zip(qs, masses, conds)):
        if i != star:
            parts = [(None, m, c)]
        else:
            parts = [(True, m / 2, c + shift), (False, m / 2, c - shift)]
        for d, mass, cond in parts:
            for e, share in ((True, cond), (False, 1 - cond)):
                cell = {"q": str(q), "e": e, "mass": str(mass * share)}
                if strategy:
                    cell["d"] = bool(d)
                joint.append(cell)
    doc = {"temporal": {"qs": [str(q) for q in qs], "joint": joint}}
    facts = {"qs": qs, "masses": masses, "conds": conds}
    if strategy:
        doc["temporal"]["strategy"] = {"on": "D", "q": str(qs[star])}
        facts["strategy"] = {"mass": masses[star] / 2, "declared": qs[star],
                             "forced": conds[star] + shift}
    return {"doc": doc, "facts": facts}


def _pairs(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def quantum_triple(rng: random.Random, dim: int) -> dict:
    """A random state, instrument and informationally complete POVM.

    The POVM has 2 * dim^2 effects (whitened random PSD seeds), which
    spans the operator space with a well-conditioned frame.  The
    instrument has two or three outcomes with one or two Kraus operators
    each, cut from a Haar isometry so sum K^dagger K is the identity.
    """
    nrng = np.random.default_rng(rng.getrandbits(64))
    g = nrng.normal(size=(dim, dim)) + 1j * nrng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = rho / rho.trace().real
    rho = (rho + rho.conj().T) / 2

    outcomes = rng.choice((2, 3))
    per = rng.choice((1, 2))
    iso = _haar(dim * outcomes * per, nrng)[:, :dim]
    blocks = [iso[b * dim:(b + 1) * dim, :] for b in range(outcomes * per)]
    kraus = [blocks[i * per:(i + 1) * per] for i in range(outcomes)]

    seeds = []
    for _ in range(2 * dim * dim):
        h = nrng.normal(size=(dim, dim)) + 1j * nrng.normal(size=(dim, dim))
        seeds.append(h @ h.conj().T)
    vals, vecs = np.linalg.eigh(sum(seeds))
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    effects = [inv_sqrt @ a @ inv_sqrt for a in seeds]
    effects = [(e + e.conj().T) / 2 for e in effects]

    doc = {
        "dim": dim,
        "rho0": _pairs(rho),
        "instrument": [[_pairs(k) for k in ks] for ks in kraus],
        "povm": [_pairs(e) for e in effects],
    }
    return {"doc": doc}


def pi_bits(n: int) -> str:
    """First n fractional binary digits of pi, independently of dutchbook.

    Uses Stormer's four-term Machin-like formula
    pi/4 = 44 atan(1/57) + 7 atan(1/239) - 12 atan(1/682) + 24 atan(1/12943)
    in fixed point with 64 guard bits.
    """
    width = n + 64

    def atan_inv(x: int) -> int:
        total, power, j, xsq = 0, (1 << width) // x, 0, x * x
        while power:
            term = power // (2 * j + 1)
            total += -term if j & 1 else term
            power //= xsq
            j += 1
        return total

    pi = 4 * (44 * atan_inv(57) + 7 * atan_inv(239)
              - 12 * atan_inv(682) + 24 * atan_inv(12943))
    frac = (pi - (3 << width)) >> 64
    return format(frac, f"0{n}b")
